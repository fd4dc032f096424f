"""Linear codes for insertion/deletion errors built from zero-run separators.

Encoding interleaves an all-zero run before every symbol of an inner
Hamming-error codeword, so the map stays linear.  Decoding rebuilds the
blank template 0^{a_1} ? ... 0^{a_nC} ?, matches the template blanks to the
non-zero symbols of the received word with a dynamic program that maximizes
obj(w) = |w| - cost(w), fills the blanks, and hands the result to the inner
decoder.  cost(w) counts matches whose position gap to the previous match
differs between template and received word (with the virtual origin p_0 =
q_0 = 0), which is exactly what misaligned matches are overwhelmingly
likely to trip over a separator sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DecodeFailure, InsdelError, ParameterError, UsageError
from .gf import field_from_json
from .hamming_ecc import ConcatenatedBinaryCode, LinearCode
from .separator import (SeparatorSequence, _diagonal_dp, _traceback,
                        construct_explicit, sample_separator)

InnerCode = Union[LinearCode, ConcatenatedBinaryCode]


@dataclass(frozen=True)
class Matching:
    """A monotone blank-to-nonzero matching with its objective accounting."""

    matches: tuple[tuple[int, int], ...]  # 1-based (blank index, nonzero index)
    obj: int
    cost: int


def cost_and_obj(matches: Sequence[tuple[int, int]], p: Sequence[int],
                 q: Sequence[int]) -> tuple[int, int]:
    """Evaluate cost(w) and obj(w) for a matching against positions p, q.

    p[i-1] is the template position of blank i, q[j-1] the position of the
    j-th non-zero received symbol; the first match compares against the
    virtual origin p_0 = q_0 = 0.
    """
    prev = None
    prev_pos = (0, 0)
    cost = 0
    for (i, j) in matches:
        if not (1 <= i <= len(p) and 1 <= j <= len(q)):
            raise UsageError(f"match ({i}, {j}) out of range")
        if prev is not None and (i <= prev[0] or j <= prev[1]):
            raise UsageError("matching is not strictly monotone")
        pos = (int(p[i - 1]), int(q[j - 1]))
        cost += int(pos[0] - prev_pos[0] != pos[1] - prev_pos[1])
        prev, prev_pos = (i, j), pos
    return cost, len(matches) - cost


def match_dp(p: Sequence[int], received: Sequence[int]) -> Matching:
    """Blank-to-nonzero matching maximizing obj = |w| - cost(w).

    f[i][j] is the best objective over matchings ending with blank i matched
    to nonzero j.  The gap indicator only depends on whether the predecessor
    lies on the same p_i - q_j diagonal, so each transition is one prefix
    max plus one same-diagonal max.  p and q are strictly increasing, so a
    same-diagonal predecessor in an earlier row also lies in an earlier
    column: the same-diagonal max is a running max per diagonal, updated
    once per row, and the DP costs O(|p| |q|) cells computed a row at a time.
    Reconstruction keeps every match of the argmax chain (including
    zero-indicator ones) and breaks ties toward the lexicographically
    smallest cell.
    """
    p = np.asarray(p, dtype=np.int64)
    q = np.flatnonzero(np.asarray(received, dtype=np.int64) != 0) + 1
    D, f, cell = _diagonal_dp(p, q, origin=True)
    chain = _traceback(D, f, cell) if cell else []
    obj = int(f[cell]) if cell else 0
    cost, obj_check = cost_and_obj(chain, list(p), list(q))
    if obj_check != obj:
        raise InsdelError("DP objective disagrees with reconstruction")
    return Matching(tuple(chain), obj, cost)


class InsdelCode:
    """Inner Hamming code plus separator sequence: the full insdel code.

    kappa, the guaranteed insdel radius, is a configurable fraction f of the
    inner code's Hamming radius (default the conservative 0.01).
    """

    def __init__(self, inner: InnerCode, separator: SeparatorSequence,
                 f: float = 0.01):
        if separator.n != inner.n:
            raise UsageError(
                f"separator length {separator.n} != inner block length {inner.n}")
        if not 0 < f:
            raise ParameterError("radius fraction must be positive")
        self.inner = inner
        self.separator = separator
        self.field = inner.field
        self.f = f
        self.kappa = int(f * inner.kappa)
        self.m = inner.m
        self.n = separator.template_length
        self._positions = separator.positions()

    @property
    def positions(self) -> np.ndarray:
        """1-based positions that carry inner-codeword symbols."""
        return self._positions

    def encode(self, x: Sequence[int]) -> np.ndarray:
        y = self.inner.encode(x)
        z = np.zeros(self.n, dtype=np.int64)
        z[self._positions - 1] = y
        return z

    def match(self, received: Sequence[int]) -> Matching:
        return match_dp(self._positions, received)

    def fill_template(self, received: Sequence[int],
                      matching: Matching) -> list[int]:
        """Construction of y': matched blanks take their non-zero symbol,
        unmatched blanks become zero."""
        received = np.asarray(received, dtype=np.int64)
        q = np.flatnonzero(received != 0)
        y = [0] * self.inner.n
        for (i, j) in matching.matches:
            y[i - 1] = int(received[q[j - 1]])
        return y

    def decode(self, received: Sequence[int]) -> list[int]:
        """Match, fill, inner-decode; raises DecodeFailure beyond radius."""
        matching = self.match(received)
        return self.inner.decode(self.fill_template(received, matching))

    def decode_details(self, received: Sequence[int]) -> dict:
        """Decode plus the matching statistics the experiments record."""
        received = np.asarray(received, dtype=np.int64)
        matching = self.match(received)
        n1 = int(np.count_nonzero(received))
        y_prime = self.fill_template(received, matching)
        try:
            message = self.inner.decode(y_prime)
        except DecodeFailure:
            message = None
        return {"message": message, "matching": matching, "y_prime": y_prime,
                "nonzeros": n1, "unmatched": n1 - len(matching.matches)}

    def to_json(self) -> dict:
        return {"kind": "insdel", "f": self.f,
                "inner": self.inner.to_json(),
                "separator": self.separator.to_json()}

    @classmethod
    def from_json(cls, spec: dict) -> "InsdelCode":
        inner = LinearCode.from_json(spec["inner"])
        sep = SeparatorSequence.from_json(spec["separator"])
        return cls(inner, sep, float(spec.get("f", 0.01)))


def build_monte_carlo(inner: InnerCode, seed, f: float = 0.01,
                      e: float = 3.0, a: Optional[int] = None) -> InsdelCode:
    """Random-separator flavor: run lengths sampled uniformly from {1..a}."""
    if a is None:
        if inner.kappa < 1:
            raise ParameterError("inner code has radius 0; pass a explicitly")
        a = max(2, int(np.ceil((inner.n / inner.kappa) ** e)))
    return InsdelCode(inner, sample_separator(inner.n, a, seed), f)


def build_explicit(inner: InnerCode, f: float = 0.01, e: float = 3.0,
                   c: float = 4.0, lambda_fraction: float = 0.2,
                   max_seeds: int = 4096) -> InsdelCode:
    """Derandomized flavor: separator from the verified seed search.

    The undesired-match budget is lambda_fraction * kappa_C (at least 1).
    """
    lam = max(1, int(lambda_fraction * inner.kappa))
    seq, _, _ = construct_explicit(inner.n, lam, e=e, c=c, max_seeds=max_seeds)
    return InsdelCode(inner, seq, f)


class SystematicInsdelCode:
    """Systematic wrapper: send the raw message followed by the codeword.

    Decoding ignores the first m received symbols; any insdel budget spent
    inside the prefix converts into at most the same budget on the codeword
    part, so the radius is unchanged.
    """

    def __init__(self, code: InsdelCode):
        self.code = code
        self.m = code.m
        self.n = code.n + code.m
        self.kappa = code.kappa

    @property
    def rate(self) -> float:
        return self.m / self.n

    def encode(self, x: Sequence[int]) -> np.ndarray:
        body = self.code.encode(x)
        return np.concatenate([np.asarray(list(x), dtype=np.int64), body])

    def decode(self, received: Sequence[int]) -> list[int]:
        received = np.asarray(received, dtype=np.int64)
        return self.code.decode(received[self.m:])

    def to_json(self) -> dict:
        return {"kind": "systematic-insdel", "code": self.code.to_json()}

    @classmethod
    def from_json(cls, spec: dict) -> "SystematicInsdelCode":
        return cls(InsdelCode.from_json(spec["code"]))
