"""Synchronization separator sequences.

A separator sequence is a list of zero-run lengths (a_1, ..., a_n), each in
{1, ..., a}.  Interleaving the runs with blank marks gives the template
  0^{a_1} ? 0^{a_2} ? ... 0^{a_n} ?
whose i-th blank sits at position p_i = sum_{k<=i} (a_k + 1).  A self-matching
pairs blanks with blanks monotonically; a match (i, j) is *undesired* when
i != j yet its position gap to the previous match coincides on both sides
(p_i - p_i' == p_j - p_j'; a first match compares p_i == p_j).  Sequences
whose every self-matching has at most L undesired matches are the
synchronization skeleton of the explicit insdel code.

This module provides the uniform sampler, an exact verifier for the maximum
undesired count (a dynamic program over n^2 cells, computed a row at a time),
the windowed local check that makes the seed search cheap, and the
derandomized construction that scans a small-bias generator's seed space for
a verified sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CapacityError, ConstructionFailure, ParameterError,
                     UsageError)
from .prg import PrgSpec, prg_generate

MAX_VERIFY_N = 200
_NEG = np.int64(-1) << 40


@dataclass(frozen=True)
class SeparatorSequence:
    """Run lengths plus their bound a; positions are derived lazily."""

    runs: tuple[int, ...]
    a: int

    def __post_init__(self):
        if self.a < 1 or not self.runs:
            raise UsageError("need a >= 1 and at least one run")
        if any(not 1 <= r <= self.a for r in self.runs):
            raise UsageError(f"run lengths must lie in 1..{self.a}")

    @property
    def n(self) -> int:
        return len(self.runs)

    def positions(self) -> np.ndarray:
        """1-based template positions of the blank marks."""
        return np.cumsum(np.asarray(self.runs, dtype=np.int64) + 1)

    @property
    def template_length(self) -> int:
        return int(self.positions()[-1])

    def to_json(self) -> dict:
        return {"n": self.n, "a": self.a, "runs": list(self.runs)}

    @classmethod
    def from_json(cls, spec: dict) -> "SeparatorSequence":
        return cls(tuple(int(r) for r in spec["runs"]), int(spec["a"]))


def sample_separator(n: int, a: int, seed) -> SeparatorSequence:
    """Each run length independently uniform on {1, ..., a}."""
    if n < 1 or a < 1:
        raise UsageError("need n >= 1 and a >= 1")
    rng = np.random.default_rng(seed)
    runs = rng.integers(1, a + 1, size=n)
    return SeparatorSequence(tuple(int(r) for r in runs), a)


def undesired_count(seq: SeparatorSequence,
                    matches: Sequence[tuple[int, int]]) -> int:
    """Undesired matches in one self-matching (1-based blank indices)."""
    p = seq.positions()
    prev = None
    count = 0
    for (i, j) in matches:
        if prev is not None and (i <= prev[0] or j <= prev[1]):
            raise UsageError("matching is not strictly monotone")
        if i != j:
            if prev is None:
                equal = p[i - 1] == p[j - 1]
            else:
                equal = p[i - 1] - p[prev[0] - 1] == p[j - 1] - p[prev[1] - 1]
            count += int(equal)
        prev = (i, j)
    return count


def max_undesired(seq: SeparatorSequence, budget_n: int = MAX_VERIFY_N) -> int:
    """Exact maximum undesired count over all monotone self-matchings.

    DP over the last match (i, j): the undesired indicator only depends on
    whether the predecessor lies on the same p_i - p_j diagonal, so each cell
    needs a prefix max and a same-diagonal max of earlier cells.  p is
    strictly increasing, so a same-diagonal cell in an earlier row also lies
    in an earlier column: the same-diagonal max is a running max per
    diagonal, updated once per row, and the DP costs O(n^2) cells computed a
    row at a time.  Identity matches (i, i) are never undesired and never
    raise the count, so this is the bad-only search without a stop.
    """
    n = seq.n
    if n > budget_n:
        raise CapacityError(f"max_undesired budget is n <= {budget_n}, got {n}")
    p = seq.positions()
    _, g, cell = _diagonal_dp(p, p, origin=False)
    return int(g[cell]) if cell else 0


@dataclass(frozen=True)
class LocalCheckResult:
    passed: bool
    lam0: int
    fail_at: int
    span_budget: int
    witness: Optional[dict] = None


def local_check(seq: SeparatorSequence, lam: int, c: float = 4.0) -> LocalCheckResult:
    """Search for chains of undesired matches among bad-only matchings.

    Any self-matching thins to a matching of bad matches only (keep each
    undesired match together with its immediate predecessor) without losing
    undesired matches, so it suffices to scan bad-only chains.  The check
    fails once some chain collects fail_at = min(floor(T/2) + 1, lam + 1)
    undesired matches, T = c * log n / log(n/lam): the halving argument on a
    hypothetical heavy matching guarantees a short dense chain of about T/2
    undesired matches inside a window of span_budget = T * 2n/lam blanks, so
    stopping there keeps the search sound.  Whenever span_budget covers the
    whole template (every parameter regime this package builds at), the scan
    is also exact; in tighter regimes it is conservative, never permissive,
    because the window restriction is dropped rather than enforced.

    Returns the highest count seen and, on failure, a witness chain.
    """
    n = seq.n
    if lam >= n:
        return LocalCheckResult(True, 0, n, 0)
    if lam < 1:
        raise ParameterError("local check needs 1 <= lam < n")
    ratio = math.log(n) / math.log(n / lam)
    T = c * ratio
    span_budget = math.ceil(T * 2 * n / lam)
    if span_budget >= 2 * n:
        fail_at = min(int(T / 2) + 1, lam + 1)
    else:
        fail_at = lam + 1  # window dropped; only exactness is safe here
    got, witness = _bad_only_max_undesired(seq.positions(), stop_at=fail_at)
    if got >= fail_at:
        return LocalCheckResult(False, got, fail_at, span_budget,
                                witness={"matching": witness})
    return LocalCheckResult(True, got, fail_at, span_budget)


def _bad_only_max_undesired(p: np.ndarray, stop_at: int):
    """Max undesired count over monotone matchings of bad matches only,
    stopping early at stop_at.  Returns (count, witness 1-based chain)."""
    D, g, cell = _diagonal_dp(p, p, origin=False, stop_at=stop_at)
    if cell is None:
        return 0, []
    return int(g[cell]), _traceback(D, g, cell)


def _diagonal_dp(p: np.ndarray, q: np.ndarray, origin: bool,
                 stop_at: Optional[int] = None):
    """Same-diagonal prefix-max DP over the cells (i, j) of p x q.

    g[i, j] is the best chain ending at (i, j) when a step along one
    p_i - q_j diagonal scores 1: max(0, g of any cell above-left, 1 + g of
    any cell above-left on its diagonal).  With origin, a virtual cell
    before all others starts diagonal 0 at value 0 (the matcher's p_0 = q_0
    = 0); without it, diagonal-0 cells (a self-matching's identity matches)
    are left out.  p and q strictly increase, so a diagonal's cells in
    earlier rows lie in earlier columns: one running max per diagonal,
    written back after each row, replaces the scan of the rectangle.
    Returns (D, g, cell): cell is the first in row-major order reaching
    stop_at, else the first holding the positive maximum, else None.
    """
    D = p[:, None] - q[None, :]
    n, m = D.shape
    g = np.full((n, m), _NEG, dtype=np.int64)
    if g.size == 0:
        return D, g, None
    diagonals, ids = np.unique(D, return_inverse=True)
    ids = ids.reshape(n, m)
    running = np.full(len(diagonals), _NEG, dtype=np.int64)
    zero = int(np.searchsorted(diagonals, 0))
    if origin and zero < len(diagonals) and diagonals[zero] == 0:
        running[zero] = 0
    pre = np.full(m, _NEG, dtype=np.int64)  # prefix max over earlier rows
    for i in range(n):
        row = np.maximum(running[ids[i]] + 1, 0)
        np.maximum(row[1:], pre[:-1], out=row[1:])
        if not origin:
            row[D[i] == 0] = _NEG
        g[i] = row
        running[ids[i]] = row  # row >= running there: no max needed
        pre = np.maximum.accumulate(np.maximum(pre, row))
        if stop_at is not None and pre[-1] >= stop_at:
            return D, g, (i, int(np.argmax(row >= stop_at)))
    flat = int(np.argmax(g))
    return D, g, divmod(flat, m) if g.flat[flat] > 0 else None


def _traceback(D, g, cell) -> list[tuple[int, int]]:
    """1-based chain ending at cell, back to a start of the DP.

    A cell starts its chain when its value is what the origin (diagonal 0,
    value 0) would give it: 1 on diagonal 0, else 0.  Otherwise the
    predecessor is the first earlier cell, row-major, whose value (plus one
    on the same diagonal) equals the cell's.
    """
    i, j = cell
    chain = [(i + 1, j + 1)]
    while g[i, j] != int(D[i, j] == 0):
        rect = g[:i, :j]
        cand = np.where(D[:i, :j] == D[i, j], rect + 1, rect)
        i, j = divmod(int(np.flatnonzero(cand == g[i, j])[0]), j)
        chain.append((i + 1, j + 1))
    chain.reverse()
    return chain


def _deinterleave(s: int) -> tuple[int, int]:
    """Split the bits of s alternately (even -> x, odd -> y)."""
    x = y = 0
    k = 0
    while s:
        x |= (s & 1) << k
        s >>= 1
        y |= (s & 1) << k
        s >>= 1
        k += 1
    return x, y


def construct_explicit(n: int, lam: int, e: float = 3.0, c: float = 4.0,
                       prg_epsilon: Optional[float] = None,
                       max_seeds: int = 4096,
                       full_verify_limit: int = MAX_VERIFY_N
                       ) -> tuple[SeparatorSequence, int, int]:
    """Derandomized separator: scan generator seeds until one verifies.

    a is the smallest power of two >= (n/lam)^e; each candidate sequence is
    read off n blocks of log2(a) generator bits (block value v gives run
    length v + 1).  Seeds are enumerated in a fixed order that interleaves
    the generator's two seed halves, so degenerate half-zero seeds do not
    monopolize the prefix of the search.  A candidate must pass local_check
    and, for n <= full_verify_limit, the exact max_undesired verifier.
    Returns (sequence, seed index used, a).
    """
    if n < 1:
        raise UsageError("need n >= 1")
    if lam < 1:
        raise ParameterError("need lam >= 1")
    if lam >= n:
        # every sequence qualifies; emit the first candidate deterministically
        ratio = 2.0
    else:
        ratio = (n / lam) ** e
    bits = max(1, math.ceil(math.log2(ratio)))
    a = 1 << bits
    n_g = n * bits
    spec = PrgSpec(n_g, prg_epsilon if prg_epsilon is not None else 1.0 / n_g)
    total = 1 << spec.d
    block_weights = 1 << np.arange(bits - 1, -1, -1)
    for s in range(min(total, max_seeds)):
        x, y = _deinterleave(s)
        seed = (x << spec.w) | y
        stream = prg_generate(spec, seed)
        values = stream.reshape(n, bits) @ block_weights
        seq = SeparatorSequence(tuple(int(v) + 1 for v in values), a)
        if lam < n:
            if not local_check(seq, lam, c).passed:
                continue
            if n <= full_verify_limit and max_undesired(seq) > lam:
                continue
        return seq, s, a
    raise ConstructionFailure(
        f"no ({lam}, {a}) separator sequence found in {min(total, max_seeds)} "
        "seeds; raise e, c, or max_seeds")
