"""Synchronization strings over a constant-size alphabet and index recovery.

A string s is eta-synchronizing when every pair of adjacent intervals is
far in edit distance: ED(s[i:j], s[j:k]) > (1 - eta) * (k - i) for all
i < j < k.  Attached symbol-by-symbol to a codeword, such a string lets the
receiver re-derive coordinate indices after insertions and deletions; here
recovery is a global minimum-edit-distance (LCS) alignment between the
received symbol stream and s, which at desk scale is simpler than the
streaming indexers and behaves well empirically.

The verifier checks all O(n^3) interval triples exactly, with the
bit-parallel LCS kernel of `editops` batched over the n(n - 1)/2 interval
pairs: n - 1 vector steps in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .editops import lcs, lcs_scan, pack_bits, popcount
from .errors import CapacityError, ConstructionFailure, UsageError

MAX_VERIFY_N = 60


@dataclass(frozen=True)
class SyncString:
    symbols: tuple[int, ...]
    eta: float
    alphabet_size: int

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise UsageError("eta must lie in (0, 1)")
        if any(not 0 <= v < self.alphabet_size for v in self.symbols):
            raise UsageError("symbol out of alphabet range")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def bits_per_symbol(self) -> int:
        return max(1, math.ceil(math.log2(self.alphabet_size)))

    def to_json(self) -> dict:
        return {"eta": self.eta, "alphabet_size": self.alphabet_size,
                "symbols": list(self.symbols)}

    @classmethod
    def from_json(cls, spec: dict) -> "SyncString":
        return cls(tuple(int(v) for v in spec["symbols"]),
                   float(spec["eta"]), int(spec["alphabet_size"]))


def verify_eta(s: SyncString,
               budget_n: int = MAX_VERIFY_N) -> tuple[bool, Optional[tuple]]:
    """Exact check of the interval criterion; returns (ok, violating triple).

    The triple (i, j, k) is the first violation in i, j, k order.  Every
    pair i < j is one row of the bit-parallel LCS kernel: its pattern is
    s[:j] with the bits below i masked off, which behaves exactly as the
    pattern s[i:j], and step t feeds it s[j + t - 1], giving
    LCS(s[i:j], s[j:k]) for k = j + t.  So the check takes n - 1 vector
    steps over the n(n - 1)/2 rows.
    """
    n = s.n
    if n > budget_n:
        raise CapacityError(f"verify_eta budget is n <= {budget_n}, got {n}")
    sym = np.asarray(s.symbols, dtype=np.int64)
    i, j = np.triu_indices(n, 1)  # one row per pair, in (i, j) order
    pos = np.arange(n)
    full = pack_bits((pos >= i[:, None]) & (pos < j[:, None]))
    # same[p] marks the positions holding the symbol at p, 0 past the end
    same = np.concatenate([pack_bits(sym == sym[:, None]),
                           np.zeros(n, dtype=full.dtype)])
    masks = (same[j + t] & full for t in range(n - 1))
    width = popcount(full)
    first = np.zeros(len(i), dtype=np.int64)  # first violating k, 0 if none
    for t, v in enumerate(lcs_scan(full, masks), 1):
        k = j + t
        ed = (k - i) - 2 * (width - popcount(v))
        bad = (k <= n) & (first == 0) & (ed <= (1.0 - s.eta) * (k - i))
        first[bad] = k[bad]
    hit = np.flatnonzero(first)
    if hit.size == 0:
        return True, None
    r = hit[0]
    return False, (int(i[r]), int(j[r]), int(first[r]))


def construct_sync_string(n0: int, eta: float, seed,
                          max_attempts: int = 64) -> SyncString:
    """Rejection-sample uniform strings over ~16/eta^2 symbols until one
    verifies; deterministic given the seed (attempt index salts the rng)."""
    if n0 < 1:
        raise UsageError("need n0 >= 1")
    alphabet = max(2, math.ceil(16.0 / eta ** 2))
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        cand = SyncString(tuple(int(v) for v in rng.integers(0, alphabet, n0)),
                          eta, alphabet)
        ok, _ = verify_eta(cand)
        if ok:
            return cand
    raise ConstructionFailure(
        f"no eta={eta} synchronization string of length {n0} found in "
        f"{max_attempts} attempts")


@dataclass(frozen=True)
class IndexAssignment:
    """Outcome of index recovery for one received stream.

    assigned[r] is the 0-based position of s matched to reading r, or None;
    erasures lists the positions of s that received no reading.  Assigned
    indices are strictly increasing along the stream.
    """

    assigned: tuple[Optional[int], ...]
    erasures: tuple[int, ...]


def index_recovery(received: Sequence[int], s: SyncString) -> IndexAssignment:
    """Globally align the received symbols against s and read off indices."""
    _, pairs = lcs(list(received), list(s.symbols))
    assigned: list[Optional[int]] = [None] * len(received)
    hit = set()
    for (r, idx) in pairs:
        assigned[r] = idx
        hit.add(idx)
    erasures = tuple(i for i in range(s.n) if i not in hit)
    return IndexAssignment(tuple(assigned), erasures)
