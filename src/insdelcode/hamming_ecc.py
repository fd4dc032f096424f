"""Linear block codes for Hamming errors: the inner codes of the insdel
constructions.

Provides Reed-Solomon codes with Gao's quadratic errors-and-erasures
decoder, brute-force nearest-codeword decoding for tiny codes, uniformly
random generator matrices, the systematic left-block transform, and a
binary concatenated code (outer RS over GF(2^b), random inner code) for
callers that need a binary alphabet.

A Reed-Solomon code is used through its evaluation and interpolation maps:
over big fields it encodes by Horner's rule at the evaluation points, and
over word-sized fields it encodes by an int64 generator matvec and
interpolates an erasure-free word by one matvec with the inverse
Vandermonde matrix, built on first use.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (CapacityError, DecodeFailure, InvalidSpecError,
                     ParameterError, UsageError)
from .gf import BinaryField, Field, field_from_json

BRUTE_FORCE_CAP = 1 << 20  # largest q^m a brute-force decode will scan
EXHAUSTIVE_CAP = 4096      # largest q^m for exact distance computation


def codeword_table(field: Field, generator: linalg.Matrix,
                   cap: int) -> np.ndarray:
    """Codewords of all q^m messages, one per row.

    Row r encodes the r-th message in lexicographic (itertools.product)
    order, so the message of row r is the base-q expansion of r, most
    significant symbol first.  Raises CapacityError when q^m > cap.
    """
    q, m = field.q, len(generator)
    if q ** m > cap:
        raise CapacityError(f"q^m = {q ** m} exceeds {cap}")
    return np.array([linalg.matvec(msg, generator, field)
                     for msg in itertools.product(range(q), repeat=m)],
                    dtype=np.int64)


def min_distance(field: Field, generator: linalg.Matrix) -> int:
    """Exact minimum distance = minimum nonzero codeword weight
    (q^m <= EXHAUSTIVE_CAP)."""
    table = codeword_table(field, generator, EXHAUSTIVE_CAP)
    return int((table[1:] != 0).sum(axis=1).min())


def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _vandermonde(points: Sequence[int], rows: int,
                 field: Field) -> linalg.Matrix:
    """Row i holds the i-th powers of the points."""
    out = [[1] * len(points)]
    for _ in range(rows - 1):
        out.append([field.mul(r, p) for r, p in zip(out[-1], points)])
    return out


def _poly_from_roots(roots: Sequence[int], field: Field) -> list[int]:
    """Monic prod (x - a) over the roots, ascending coefficients."""
    mul, add = field.mul, field.add
    g = [1]
    for a in roots:
        c = field.neg(a)
        g = ([mul(c, g[0])] + [add(g[k - 1], mul(c, g[k]))
                               for k in range(1, len(g))] + [1])
    return g


def _batch_inv(values: Sequence[int], field: Field) -> list[int]:
    """Inverses of nonzero values with a single field.inv (prefix products)."""
    mul = field.mul
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = mul(acc, v)
    inv = field.inv(acc)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = mul(inv, prefix[i])
        inv = mul(inv, values[i])
    return out


def _interpolate(points: Sequence[int], values: Sequence[int],
                 g0: list[int], field: Field) -> list[int]:
    """The polynomial of degree < N through the N (point, value) pairs,
    where g0 = prod (x - a_i).

    Lagrange form: sum_i w_i g0 / (x - a_i) with weights
    w_i = y_i / prod_{j != i} (a_i - a_j).  Coefficient k of g0 / (x - a)
    is sum_t g0[k + 1 + t] a^t, so the sum collects as
    g1[k] = sum_t g0[k + 1 + t] P_t with power sums P_t = sum_i w_i a_i^t.
    """
    mul, add, sub = field.mul, field.add, field.sub
    n = len(points)
    dens = []
    for i, a in enumerate(points):
        d = 1
        for j, b in enumerate(points):
            if j != i:
                d = mul(d, sub(a, b))
        dens.append(d)
    sums = [0] * n
    for a, y, d_inv in zip(points, values, _batch_inv(dens, field)):
        w = mul(y, d_inv)
        for t in range(n):
            if w == 0:
                break
            sums[t] = add(sums[t], w)
            w = mul(w, a)
    g1 = []
    for k in range(n):
        acc = 0
        for t in range(n - k):
            acc = add(acc, mul(g0[k + 1 + t], sums[t]))
        g1.append(acc)
    return _trim(g1)


def _poly_submul(a: list[int], c: list[int], b: list[int],
                 field: Field) -> list[int]:
    """a - c * b on coefficient lists (ascending powers)."""
    out = list(a) + [0] * max(0, len(b) + len(c) - 1 - len(a))
    for i, cv in enumerate(c):
        for j, bv in enumerate(b):
            out[i + j] = field.sub(out[i + j], field.mul(cv, bv))
    return _trim(out)


def _poly_divmod(num: list[int], den: list[int], field: Field):
    """Divide coefficient lists (ascending powers) over field."""
    num = list(num)
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    lead_inv = field.inv(den[-1])
    quot = [0] * max(0, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = field.mul(num[k], lead_inv)
        quot[k - dd] = c
        if c != 0:
            for j, dv in enumerate(den):
                num[k - dd + j] = field.sub(num[k - dd + j], field.mul(c, dv))
    return _trim(quot), _trim(num)


class LinearCode:
    """An (n, m, d) linear code given by a full-rank generator matrix.

    The evaluation points decide the code and its decoder.  Given
    eval_points, the code is Reed-Solomon: the generator must be their
    Vandermonde matrix (row i holds the i-th powers), d must be n - m + 1,
    decoding is Gao's errors-and-erasures decoder, and encoding over fields
    that are not word-sized evaluates the message polynomial at the points
    by Horner's rule.  Without them, the generator must have full rank and
    decoding scans all q^m codewords (q^m <= 2^20).
    """

    def __init__(self, field: Field, generator: linalg.Matrix, d: int,
                 eval_points: Optional[list[int]] = None):
        generator = [[field.check(v) for v in row] for row in generator]
        m = len(generator)
        n = len(generator[0]) if m else 0
        if m < 1 or n < 1:
            raise UsageError("generator matrix must be non-empty")
        if m > n:
            raise ParameterError(f"message length {m} exceeds block length {n}")
        if d < 1 or d > n:
            raise ParameterError(f"designed distance {d} out of range for n={n}")
        # given eval_points, the check below that the generator is their
        # Vandermonde matrix proves full rank: m <= n points are distinct
        if eval_points is None and linalg.rank(generator, field) != m:
            raise ParameterError("generator matrix is not full rank")
        if eval_points is not None:
            eval_points = [field.check(p) for p in eval_points]
            if (len(set(eval_points)) != len(eval_points)
                    or _vandermonde(eval_points, m, field) != generator):
                raise ParameterError(
                    "generator is not the Vandermonde matrix of n distinct "
                    "evaluation points")
            # Gao's success test bounds 2 errors + erasures by n - m, which
            # is the radius only when d = n - m + 1
            if d != n - m + 1:
                raise ParameterError(
                    f"a Reed-Solomon code has d = n - m + 1 = {n - m + 1}, "
                    f"got d={d}")
        self.field = field
        self.generator = generator
        self._generator_array = np.array(
            generator, dtype=np.int64 if field.word_sized else object)
        self.n = n
        self.m = m
        self.q = field.q
        self.rate = m / n
        self.d = d
        self.kappa = (d - 1) // 2
        self.eval_points = eval_points
        self._interpolation = None  # (g0, inverse Vandermonde), on first use

    @property
    def strategy(self) -> str:
        """The decoder, as the JSON spec names it."""
        return ("brute-force-nearest" if self.eval_points is None
                else "reed-solomon")

    # -- encoding ---------------------------------------------------------

    def encode(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.m:
            raise UsageError(f"message length {len(x)} != m={self.m}")
        x = [self.field.check(v) for v in x]
        if self.eval_points is None or self.field.word_sized:
            return linalg.matvec(x, self._generator_array, self.field)
        # Horner at each point; the default points 0..n-1 are small, and
        # BinaryField.mul multiplies by a small operand with shift-xor
        mul, add = self.field.mul, self.field.add
        out = []
        for a in self.eval_points:
            acc = 0
            for c in reversed(x):
                acc = add(mul(acc, a), c)
            out.append(acc)
        return out

    def codewords(self) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """(message, codeword) pairs in lexicographic message order
        (q^m <= EXHAUSTIVE_CAP)."""
        table = codeword_table(self.field, self.generator, EXHAUSTIVE_CAP)
        return zip(itertools.product(range(self.field.q), repeat=self.m),
                   table.tolist())

    def min_distance(self) -> int:
        """Exact minimum distance = minimum nonzero codeword weight."""
        return min_distance(self.field, self.generator)

    # -- decoding ---------------------------------------------------------

    def decode(self, received: Sequence[int],
               erasures: Optional[Sequence[int]] = None) -> list[int]:
        """Recover the message from a corrupted codeword.

        Erasure positions are excluded from all distance counting; succeeds
        whenever 2*errors + erasures <= d - 1, raises DecodeFailure otherwise.
        """
        if len(received) != self.n:
            raise UsageError(f"received length {len(received)} != n={self.n}")
        era = sorted(set(int(e) for e in erasures)) if erasures else []
        if era and (era[0] < 0 or era[-1] >= self.n):
            raise UsageError("erasure position out of range")
        word = [self.field.check(v) for v in received]
        if self.eval_points is None:
            return self._decode_brute(word, era)
        return self._decode_gao(word, era)

    def _codeword_table(self) -> np.ndarray:
        if getattr(self, "_cw_cache", None) is None:
            self._cw_cache = codeword_table(self.field, self.generator,
                                            BRUTE_FORCE_CAP)
        return self._cw_cache

    def _message_from_index(self, idx: int) -> list[int]:
        q = self.field.q
        digits = []
        for _ in range(self.m):
            digits.append(idx % q)
            idx //= q
        return digits[::-1]

    def _decode_brute(self, received: list[int], era: list[int]) -> list[int]:
        table = self._codeword_table()
        era_set = set(era)
        live = np.array([i for i in range(self.n) if i not in era_set])
        word = np.asarray(received, dtype=np.int64)
        errs = (table[:, live] != word[live]).sum(axis=1) if live.size \
            else np.zeros(len(table), dtype=np.int64)
        best = int(errs.argmin())
        best_e = int(errs[best])
        if 2 * best_e + len(era) <= self.d - 1:
            return self._message_from_index(best)
        raise DecodeFailure(
            f"nearest codeword at {best_e} errors + {len(era)} erasures "
            f"is beyond radius (d={self.d})")

    def _decode_gao(self, received: list[int], era: list[int]) -> list[int]:
        """Gao's decoder on the non-erased points (S. Gao, "A New Algorithm
        for Decoding Reed-Solomon Codes", 2003).

        With N live points, g0 = prod (x - a_i) and g1 the interpolant of
        the received values; a partial extended Euclid on (g0, g1) stops at
        the first remainder g with deg g < (N + m)/2, whose cofactor v of
        g1 divides it exactly when at most (N - m)/2 live symbols are in
        error, giving the message polynomial g / v.

        An erasure-free word over a word-sized field is interpolated by one
        matvec with the cached inverse Vandermonde matrix.
        """
        field = self.field
        era_set = set(era)
        live = [i for i in range(self.n) if i not in era_set]
        n_live, m = len(live), self.m
        if n_live < m:
            raise DecodeFailure("too many erasures to interpolate")
        if not era and field.word_sized:
            g0, inv_vandermonde = self._interpolation_map()
            g1 = _trim(linalg.matvec(received, inv_vandermonde, field))
        else:
            points = [self.eval_points[i] for i in live]
            g0 = _poly_from_roots(points, field)
            g1 = _interpolate(points, [received[i] for i in live], g0, field)
        r0, r1, v0, v1 = g0, g1, [], [1]
        while 2 * (len(r1) - 1) >= n_live + m:
            quot, rem = _poly_divmod(r0, r1, field)
            r0, r1 = r1, rem
            v0, v1 = v1, _poly_submul(v0, quot, v1, field)
        f, rem = _poly_divmod(r1, v1, field)
        if rem:
            raise DecodeFailure("error locator does not divide the remainder")
        if len(f) > m:
            raise DecodeFailure("interpolated polynomial degree too high")
        return f + [0] * (m - len(f))

    def _interpolation_map(self) -> tuple[list[int], np.ndarray]:
        """g0 = prod (x - a_i) over all points, and the inverse of the n x n
        Vandermonde matrix: the word times it is the interpolant's
        coefficient list."""
        if self._interpolation is None:
            field = self.field
            inv = linalg.inverse(_vandermonde(self.eval_points, self.n, field),
                                 field)
            self._interpolation = (_poly_from_roots(self.eval_points, field),
                                   np.array(inv, dtype=np.int64))
        return self._interpolation

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        out = {"field": self.field.to_json(), "n": self.n, "m": self.m,
               "d": self.d, "strategy": self.strategy,
               "generator": self.generator}
        if self.eval_points is not None:
            out["eval_points"] = self.eval_points
        return out

    @classmethod
    def from_json(cls, spec: dict) -> "LinearCode":
        strategy = spec.get("strategy", "brute-force-nearest")
        points = spec.get("eval_points")
        if strategy not in ("reed-solomon", "brute-force-nearest"):
            raise InvalidSpecError(f"unknown decoder strategy {strategy!r}")
        if strategy == "reed-solomon" and points is None:
            raise InvalidSpecError("reed-solomon spec requires eval_points")
        code = cls(field_from_json(spec["field"]), spec["generator"],
                   int(spec["d"]), points)
        for key in ("n", "m"):
            if key in spec and int(spec[key]) != getattr(code, key):
                raise InvalidSpecError(
                    f"spec declares {key}={spec[key]} but its generator "
                    f"gives {key}={getattr(code, key)}")
        return code


def rs_build(field: Field, n: int, m: int,
             eval_points: Optional[Sequence[int]] = None) -> LinearCode:
    """Reed-Solomon code: evaluate degree-<m polynomials at n distinct points.

    d = n - m + 1 (MDS); the generator is the Vandermonde matrix of the
    evaluation points, which default to the canonical elements 0..n-1.
    """
    if field.q < n:
        raise ParameterError(f"Reed-Solomon needs q >= n, got q={field.q} n={n}")
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m} n={n}")
    if eval_points is None:
        eval_points = list(range(n))
    else:
        eval_points = [field.check(p) for p in eval_points]
    if len(eval_points) != n or len(set(eval_points)) != n:
        raise UsageError("evaluation points must be n distinct elements")
    return LinearCode(field, _vandermonde(eval_points, m, field), n - m + 1,
                      list(eval_points))


def random_generator(field: Field, m: int, n: int, seed) -> linalg.Matrix:
    """m x n matrix with i.i.d. uniform entries; deterministic per seed."""
    if m < 1 or n < 1:
        raise UsageError(f"matrix dimensions must be positive, got {m}x{n}")
    rng = np.random.default_rng(seed)
    if field.q <= 1 << 62:
        return [[int(v) for v in row]
                for row in rng.integers(0, field.q, size=(m, n), dtype=np.int64)]
    return [[field.sample(rng) for _ in range(n)] for _ in range(m)]


def random_linear_code(field: Field, m: int, n: int, seed,
                       max_attempts: int = 64) -> LinearCode:
    """Full-rank random code with its exact minimum distance computed.

    Resamples (seed, attempt) until the generator has rank m; requires
    q^m <= EXHAUSTIVE_CAP for the distance computation.
    """
    if field.q ** m > EXHAUSTIVE_CAP:
        raise CapacityError(f"q^m = {field.q ** m} exceeds {EXHAUSTIVE_CAP}")
    for attempt in range(max_attempts):
        gen = random_generator(field, m, n, [seed, attempt])
        if linalg.rank(gen, field) == m:
            return LinearCode(field, gen, min_distance(field, gen))
    raise ParameterError(f"no full-rank generator found in {max_attempts} attempts")


def systematic_transform(generator: linalg.Matrix,
                         field: Field) -> Optional[linalg.Matrix]:
    """Left-multiply by the inverse of the leftmost m x m block.

    Returns the systematic generator [I | M^-1 V], or None when the left
    block is singular (caller resamples).  The codeword set is unchanged.
    """
    m = len(generator)
    left = [row[:m] for row in generator]
    inv = linalg.inverse(left, field)
    if inv is None:
        return None
    return linalg.matmul(inv, generator, field)


def full_rank_probability(q: int, m: int) -> float:
    """Exact probability that a uniform m x m matrix over GF(q) is invertible."""
    p = 1.0
    for i in range(1, m + 1):
        p *= 1.0 - q ** -i
    return p


class ConcatenatedBinaryCode:
    """Binary code: outer RS over GF(2^b), inner random binary code per symbol.

    Outer symbols are expanded to b bits (bit k of the canonical value is
    coordinate k) and encoded by a random full-rank inner generator; both
    stages are F2-linear, so the whole map is GF(2)-linear.  Decoding is
    two-stage: brute-force nearest inner codeword per block, then outer
    errors-only Reed-Solomon.  The declared radius follows the two-stage
    guarantee: errors <= kappa are corrected because fewer than
    floor((d_out-1)/2)+1 blocks can accumulate ceil(d_in/2) bit errors.
    """

    strategy = "concatenated"

    def __init__(self, outer: LinearCode, inner_generator: linalg.Matrix,
                 inner_d: int):
        if not isinstance(outer.field, BinaryField):
            raise UsageError("outer field must be a binary extension field")
        self.outer = outer
        self.b = outer.field.degree
        self.gf2 = BinaryField(1)
        self.inner_generator = [[self.gf2.check(v) for v in r]
                                for r in inner_generator]
        if (len(self.inner_generator) != self.b
                or linalg.rank(self.inner_generator, self.gf2) != self.b):
            raise ParameterError(
                f"inner generator must be a full-rank binary matrix with "
                f"b={self.b} rows")
        self.inner_len = len(self.inner_generator[0])
        self.inner_d = inner_d
        self.field = self.gf2
        self.q = 2
        self.n = outer.n * self.inner_len
        self.m = outer.m * self.b
        self.rate = self.m / self.n
        self.kappa = -(-inner_d // 2) * ((outer.d - 1) // 2 + 1) - 1
        self.d = 2 * self.kappa + 1
        # row s encodes symbol s: reversing the generator rows makes bit k
        # of s (not the k-th most significant digit) multiply row k
        self._inner_table = codeword_table(
            self.gf2, self.inner_generator[::-1], BRUTE_FORCE_CAP)

    def encode(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.m:
            raise UsageError(f"message length {len(x)} != m={self.m}")
        syms = []
        for i in range(self.outer.m):
            chunk = x[i * self.b:(i + 1) * self.b]
            syms.append(sum(int(bit) << k for k, bit in enumerate(chunk)))
        return self._inner_table[self.outer.encode(syms)].ravel().tolist()

    def decode(self, received: Sequence[int],
               erasures: Optional[Sequence[int]] = None) -> list[int]:
        if erasures:
            raise UsageError("concatenated decoder does not take erasures")
        if len(received) != self.n:
            raise UsageError(f"received length {len(received)} != n={self.n}")
        blocks = np.asarray(received, dtype=np.int64).reshape(
            self.outer.n, self.inner_len)
        # nearest inner codeword per block; argmin breaks ties toward the
        # smallest symbol
        syms = (blocks[:, None] != self._inner_table).sum(axis=-1).argmin(axis=1)
        outer_msg = self.outer.decode(syms.tolist())
        bits = []
        for sym in outer_msg:
            bits.extend((sym >> k) & 1 for k in range(self.b))
        return bits

    def to_json(self) -> dict:
        return {"strategy": self.strategy, "outer": self.outer.to_json(),
                "inner_generator": self.inner_generator,
                "inner_d": self.inner_d}

    @classmethod
    def from_json(cls, spec: dict) -> "ConcatenatedBinaryCode":
        return cls(LinearCode.from_json(spec["outer"]),
                   spec["inner_generator"], int(spec["inner_d"]))


def concatenated_binary_code(b: int, n_out: int, m_out: int, inner_len: int,
                             seed, max_attempts: int = 64) -> ConcatenatedBinaryCode:
    """Default binary inner-code construction for the insdel codes."""
    outer = rs_build(BinaryField(b), n_out, m_out)
    gf2 = BinaryField(1)
    best = None
    for attempt in range(max_attempts):
        gen = random_generator(gf2, b, inner_len, [seed, attempt])
        if linalg.rank(gen, gf2) != b:
            continue
        dist = min_distance(gf2, gen)
        if best is None or dist > best[1]:
            best = (gen, dist)
    if best is None:
        raise ParameterError("no full-rank inner generator found")
    return ConcatenatedBinaryCode(outer, best[0], best[1])
