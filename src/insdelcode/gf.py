"""Finite-field arithmetic over GF(p) and GF(2^l).

Elements are canonical integers: the least non-negative residue for prime
fields, and the coefficient bitmask of the reduced polynomial (bit i is the
coefficient of x^i) for binary extension fields.  All code in this package
passes bare ints plus a Field handle on hot paths; the FieldElement wrapper
exists for callers that want operator syntax with cross-field checking.

Extension moduli default to a bundled table of lexicographically smallest
irreducible polynomials, so codewords are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidSpecError, UsageError

# Lexicographically smallest irreducible polynomial per degree over GF(2),
# as coefficient bitmasks (bit i = coefficient of x^i).  Degree 8 is the
# familiar 0x11b, degree 128 the 0x...87 used by GCM.
IRREDUCIBLE = {
    1: 0x3, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11b,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b, 14: 0x4021,
    15: 0x8003, 16: 0x1002b, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001b,
    25: 0x2000009, 26: 0x400001b, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008d,
    33: 0x20000004b, 34: 0x40000001b, 35: 0x800000005, 36: 0x1000000035,
    37: 0x200000003f, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000027, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001b, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002d, 49: 0x2000000000071,
    50: 0x400000000001d, 51: 0x800000000004b, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x4000000000007d, 55: 0x80000000000047,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000000063,
    59: 0x80000000000007b, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000000000069, 63: 0x8000000000000003, 64: 0x1000000000000001b,
    100: 0x10000000000000000000000065,
    128: 0x100000000000000000000000000000087,
}

_LOG_TABLE_MAX_DEGREE = 16  # 2^16-entry exp/log tables are still cheap


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on coefficient bitmasks


def poly_degree(f: int) -> int:
    return f.bit_length() - 1


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_degree(b)
    q = 0
    while a and poly_degree(a) >= db:
        sh = poly_degree(a) - db
        q ^= 1 << sh
        a ^= b << sh
    return q, a


def poly_mulmod(a: int, b: int, m: int) -> int:
    a = poly_divmod(a, m)[1]
    dm = poly_degree(m)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> dm) & 1:
            a ^= m
    return r


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def _prime_factors(n: int) -> set[int]:
    fs, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            fs.add(d)
            n //= d
        d += 1
    if n > 1:
        fs.add(n)
    return fs


def poly_find_factor(f: int) -> Optional[int]:
    """Return a nontrivial factor of f over GF(2), or None if irreducible.

    Exhaustive trial division up to degree l/2 for l <= 16; a Rabin-style
    gcd scan (still exact) for larger degrees.
    """
    deg = poly_degree(f)
    if deg <= 0:
        return None
    if deg == 1:
        return None
    if not f & 1:
        return 0b10  # divisible by x
    if deg <= _LOG_TABLE_MAX_DEGREE:
        for g in range(3, 1 << (deg // 2 + 1), 2):
            if poly_divmod(f, g)[1] == 0:
                return g
        return None
    # gcd(x^(2^d) - x, f) collects all factors of degree dividing d
    x_red = poly_divmod(2, f)[1]
    xp = x_red
    for d in range(1, deg // 2 + 1):
        xp = poly_mulmod(xp, xp, f)
        g = poly_gcd(f, xp ^ x_red)
        if 1 <= poly_degree(g) < deg:
            return g
    return None


def irreducible_poly(degree: int) -> int:
    """Bundled irreducible polynomial, or the lexicographically smallest one
    found by deterministic search for degrees outside the table."""
    if degree in IRREDUCIBLE:
        return IRREDUCIBLE[degree]
    if degree < 1:
        raise InvalidSpecError(f"degree must be >= 1, got {degree}")
    for low in range(1, 1 << min(degree, 24), 2):
        cand = (1 << degree) | low
        if poly_find_factor(cand) is None:
            return cand
    raise InvalidSpecError(f"no irreducible polynomial found for degree {degree}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_factor(n: int, cap: int = 10**6) -> Optional[int]:
    d = 2
    while d * d <= n and d <= cap:
        if n % d == 0:
            return d
        d += 1
    return None


# ---------------------------------------------------------------------------
# Field classes


class Field:
    """Common interface of PrimeField and BinaryField.

    Subclasses provide arithmetic on canonical int values.  q is the field
    size, kind one of "prime" / "binary".
    """

    kind: str
    q: int
    modulus: int

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def check(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise UsageError(f"{a!r} is not a canonical element of {self}")
        return int(a)

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    @property
    def word_sized(self) -> bool:
        """True when elements, and the lookups or products that multiply
        them, fit int64 arrays (so linalg and sample use numpy ints)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Uniform elements: int64 numpy values for word-sized fields,
        Python ints (a list when size is given) otherwise."""
        if self.q <= 1 << 62:
            out = rng.integers(0, self.q, size=size, dtype=np.int64)
            if self.word_sized:
                return out
            return out.tolist() if size is not None else int(out)
        nbits = self.q.bit_length()  # q = 2^l for big fields
        nwords = (nbits + 31) // 32
        words = rng.integers(0, 1 << 32, size=(size or 1, nwords), dtype=np.uint64)
        out = []
        for row in words:
            v = 0
            for wd in row:
                v = (v << 32) | int(wd)
            out.append(v % self.q if self.kind == "prime" else v & (self.q - 1))
        return out if size is not None else out[0]

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self.check(value), self)

    def to_json(self) -> dict:
        return {"kind": self.kind, "q": self.q, "modulus": self.modulus}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.kind == other.kind
                and self.q == other.q and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.kind, self.q, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if p < 2:
            raise InvalidSpecError(f"field size must be >= 2, got {p}")
        if not is_prime(p):
            factor = smallest_factor(p)
            witness = f"factor {factor}" if factor else "Miller-Rabin composite"
            raise InvalidSpecError(f"{p} is not prime ({witness})")
        self.q = p
        self.modulus = p

    @property
    def word_sized(self) -> bool:
        return self.q < 1 << 31

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def neg(self, a):
        return -a % self.q

    def mul(self, a, b):
        return a * b % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.q - 2, self.q)


class BinaryField(Field):
    """GF(2^degree) with an explicit irreducible modulus.

    Degrees up to 16 get exp/log tables (numpy arrays for the vectorized
    linear algebra, list copies for scalar lookups).  Larger degrees
    multiply Python ints carry-less over the shorter operand (shift-xor
    below 8 bits, a 4-bit window otherwise), reduce by folding with the
    modulus's low taps, and invert by extended gcd.
    """

    kind = "binary"

    def __init__(self, degree: int, modulus: Optional[int] = None):
        if degree < 1:
            raise InvalidSpecError(f"extension degree must be >= 1, got {degree}")
        if modulus is None:
            if degree not in IRREDUCIBLE:
                raise InvalidSpecError(
                    f"no bundled irreducible polynomial for degree {degree}; "
                    "pass modulus explicitly")
            modulus = IRREDUCIBLE[degree]
        if poly_degree(modulus) != degree:
            raise InvalidSpecError(
                f"modulus {modulus:#x} has degree {poly_degree(modulus)}, "
                f"declared {degree}")
        factor = poly_find_factor(modulus)
        if factor is not None:
            raise InvalidSpecError(
                f"modulus {modulus:#x} is reducible (factor {factor:#x})")
        self.degree = degree
        self.q = 1 << degree
        self.modulus = modulus
        self.exp_table: Optional[np.ndarray] = None
        self.log_table: Optional[np.ndarray] = None
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        # x^degree = sum of x^k over these k, the taps folded in on reduction
        self._taps = [k for k in range(degree) if modulus >> k & 1]
        if degree <= _LOG_TABLE_MAX_DEGREE:
            self._build_tables()
            # indexing a list with an int beats converting a numpy scalar
            self._exp = self.exp_table.tolist()
            self._log = self.log_table.tolist()

    def _build_tables(self) -> None:
        q = self.q
        g = self._find_generator()
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = poly_mulmod(acc, g, self.modulus)
        if acc != 1:
            raise InvalidSpecError(
                f"modulus {self.modulus:#x} is reducible "
                "(multiplicative group order mismatch)")
        exp[q - 1:] = exp[:q - 1]  # doubled so exp[la + lb] needs no reduction
        self.exp_table = exp
        self.log_table = log

    def _find_generator(self) -> int:
        order = self.q - 1
        factors = _prime_factors(order) if order > 1 else set()
        # the tables are not built yet, so self.pow multiplies without them
        for g in range(2, self.q):
            if all(self.pow(g, order // p) != 1 for p in factors):
                return g
        return 1  # q = 2

    @property
    def word_sized(self) -> bool:
        return self._exp is not None

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if a < b:
            a, b = b, a
        if b < 128:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                b >>= 1
        else:
            # the 16 carry-less multiples of a, one per nibble of b
            a2, a4, a8 = a << 1, a << 2, a << 3
            a3, a5, a6, a7 = a2 ^ a, a4 ^ a, a4 ^ a2, a4 ^ a2 ^ a
            win = (0, a, a2, a3, a4, a5, a6, a7,
                   a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6,
                   a8 ^ a7)
            r = 0
            for s in range(b.bit_length() - 1 & ~3, -1, -4):
                r = r << 4 ^ win[b >> s & 15]
        deg = self.degree
        while r >> deg:
            high = r >> deg
            r &= self.q - 1
            for k in self._taps:
                r ^= high << k
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        # extended Euclid in GF(2)[x]
        r0, r1 = self.modulus, a
        t0, t1 = 0, 1
        while r1:
            qt, rem = poly_divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, t0 ^ self._polmul(qt, t1)
        return poly_divmod(t0, self.modulus)[1]

    @staticmethod
    def _polmul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r


@dataclass(frozen=True)
class FieldElement:
    """Canonical value bound to its field; operators check the binding."""

    value: int
    field: Field

    def _peer(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise UsageError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise UsageError(
                f"mixed fields: {self.field} vs {other.field}")
        return other

    def __add__(self, other):
        return FieldElement(self.field.add(self.value, self._peer(other).value), self.field)

    def __sub__(self, other):
        return FieldElement(self.field.sub(self.value, self._peer(other).value), self.field)

    def __mul__(self, other):
        return FieldElement(self.field.mul(self.value, self._peer(other).value), self.field)

    def __neg__(self):
        return FieldElement(self.field.neg(self.value), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __repr__(self) -> str:
        return f"{self.value}@{self.field}"


def field_arith(op: str, a: FieldElement, b: Optional[FieldElement] = None) -> FieldElement:
    """Dispatch one arithmetic op; unary ops (neg, inv) take no b."""
    if op in ("add", "sub", "mul"):
        if b is None:
            raise UsageError(f"{op} needs two operands")
        return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__}[op](b)
    if op == "neg":
        return -a
    if op == "inv":
        return a.inverse()
    raise UsageError(f"unknown field op {op!r}")


def field_from_json(spec: dict) -> Field:
    """Inverse of Field.to_json; raises InvalidSpecError on bad specs."""
    try:
        kind = spec["kind"]
        modulus = int(spec["modulus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"malformed field spec {spec!r}") from exc
    if kind == "prime":
        field = PrimeField(modulus)
    elif kind == "binary":
        field = BinaryField(poly_degree(modulus), modulus)
    else:
        raise InvalidSpecError(f"unknown field kind {kind!r}")
    if "q" in spec and int(spec["q"]) != field.q:
        raise InvalidSpecError(
            f"declared q={spec['q']} but modulus implies q={field.q}")
    return field
