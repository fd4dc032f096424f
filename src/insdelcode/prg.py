"""Small-bias pseudorandom bits: the powering construction.

A seed is a pair (x, y) of GF(2^w) elements; output bit i is the inner
product <x^i, y> over GF(2)^w.  Any nonempty parity of output bits has bias
at most (n_g - 1)/2^w, which bounds every k-bit marginal's max-norm distance
from uniform by the same quantity, for every k at once.  Choosing
2^w >= n_g/epsilon therefore gives an epsilon-almost k-wise independent
generator with seed length d = 2w.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import CapacityError, UsageError
from .gf import BinaryField


@dataclass(frozen=True)
class PrgSpec:
    """Output length, target bias, and the GF(2^w) powering degree.

    Either epsilon or w may be given; the other is derived (w is the
    smallest degree with 2^w >= n_g/epsilon).
    """

    n_g: int
    epsilon: float = 0.0
    w: int = 0
    _field: BinaryField = dc_field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n_g < 1:
            raise UsageError("output length must be positive")
        w, eps = self.w, self.epsilon
        if w <= 0:
            if eps <= 0:
                raise UsageError("need epsilon > 0 or an explicit w")
            w = max(1, math.ceil(math.log2(self.n_g / eps)))
        if eps <= 0:
            eps = self.n_g / 2.0 ** w
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "epsilon", eps)

    @property
    def d(self) -> int:
        """Seed length in bits."""
        return 2 * self.w

    def split_seed(self, seed: int) -> tuple[int, int]:
        if not 0 <= seed < 1 << self.d:
            raise UsageError(f"seed must be a {self.d}-bit integer")
        return seed >> self.w, seed & ((1 << self.w) - 1)

    def field(self) -> BinaryField:
        """GF(2^w), built on first use (a w without a bundled modulus
        raises here, not at construction)."""
        if self._field is None:
            object.__setattr__(self, "_field", BinaryField(self.w))
        return self._field


def prg_bit(spec: PrgSpec, seed: int, i: int) -> int:
    """Output bit i = <x^i, y>, computed without materializing the stream."""
    if not 0 <= i < spec.n_g:
        raise UsageError(f"bit index {i} out of range")
    x, y = spec.split_seed(seed)
    xp = spec.field().pow(x, i) if i else 1
    return (xp & y).bit_count() & 1


def prg_generate(spec: PrgSpec, seed: int) -> np.ndarray:
    """All n_g output bits for one seed (incremental powers of x)."""
    x, y = spec.split_seed(seed)
    mul = spec.field().mul
    bits = []
    xp = 1
    for _ in range(spec.n_g):
        bits.append((xp & y).bit_count() & 1)
        xp = mul(xp, x)
    return np.array(bits, dtype=np.int64)


def prg_verify_marginals(spec: PrgSpec, k: int, budget: int = 200_000_000,
                         generate=prg_generate) -> float:
    """Exhaustive max-norm deviation of all k-bit marginals from uniform.

    Enumerates every seed and every k-subset of output positions; returns
    max over subsets and bit patterns of |empirical - 2^-k|.  A different
    bit source (same signature as prg_generate) can be plugged in, e.g. to
    confirm that a degenerate generator fails the check.
    """
    if not 1 <= k <= spec.n_g:
        raise UsageError(f"marginal size {k} out of range")
    n_seeds = 1 << spec.d
    work = n_seeds * math.comb(spec.n_g, k) * (1 << k)
    if work > budget:
        raise CapacityError(f"enumeration cost {work} exceeds budget {budget}")
    outputs = np.stack([generate(spec, s) for s in range(n_seeds)])
    target = 2.0 ** -k
    worst = 0.0
    weights = 1 << np.arange(k)
    for idx in itertools.combinations(range(spec.n_g), k):
        vals = outputs[:, idx] @ weights
        freqs = np.bincount(vals, minlength=1 << k) / n_seeds
        dev = float(np.abs(freqs - target).max())
        if dev > worst:
            worst = dev
    return worst
