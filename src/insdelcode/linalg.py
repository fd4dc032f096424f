"""Dense linear algebra over the package's finite fields.

Matrices are lists of row lists holding canonical ints.  Fields whose
elements fit comfortably in int64 (primes, and GF(2^l) with exp/log tables)
are eliminated with vectorized numpy row operations; big extension fields
(e.g. GF(2^100)) fall back to the same algorithms on Python ints.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .gf import BinaryField, Field, PrimeField

Matrix = list[list[int]]


def _is_fast(field: Field) -> bool:
    if isinstance(field, PrimeField):
        return field.q < (1 << 31)
    return isinstance(field, BinaryField) and field.exp_table is not None


class _ArrayOps:
    """Elementwise field ops on int64 ndarrays (fast fields only)."""

    def __init__(self, field: Field):
        self.field = field
        self.binary = isinstance(field, BinaryField)
        if self.binary:
            self.exp = field.exp_table
            self.log = field.log_table

    def mul(self, a, b):
        if self.binary:
            out = self.exp[self.log[a] + self.log[b]]
            return np.where((a == 0) | (b == 0), 0, out)
        return a * b % self.field.q

    def sub(self, a, b):
        if self.binary:
            return a ^ b
        return (a - b) % self.field.q


def _rref_np(rows: Matrix, field: Field, ncols: Optional[int] = None):
    ops = _ArrayOps(field)
    M = np.array(rows, dtype=np.int64)
    nr, nc = M.shape
    limit = nc if ncols is None else ncols
    pivots = []
    r = 0
    for c in range(limit):
        if r >= nr:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        piv_inv = field.inv(int(M[r, c]))
        M[r] = ops.mul(np.int64(piv_inv), M[r])
        factors = M[:, c].copy()
        factors[r] = 0
        M = ops.sub(M, ops.mul(factors[:, None], M[r][None, :]))
        pivots.append(c)
        r += 1
    return [[int(v) for v in row] for row in M], pivots


def _rref_py(rows: Matrix, field: Field, ncols: Optional[int] = None):
    M = [list(row) for row in rows]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    limit = nc if ncols is None else ncols
    pivots = []
    r = 0
    for c in range(limit):
        if r >= nr:
            break
        p = next((i for i in range(r, nr) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = field.inv(M[r][c])
        M[r] = [field.mul(inv, v) for v in M[r]]
        for i in range(nr):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def rref(rows: Matrix, field: Field, ncols: Optional[int] = None):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    if not rows:
        return [], []
    if _is_fast(field):
        return _rref_np(rows, field, ncols)
    return _rref_py(rows, field, ncols)


def rank(rows: Matrix, field: Field) -> int:
    return len(rref(rows, field)[1])


def matvec(x: Sequence[int], rows: Matrix, field: Field) -> list[int]:
    """Row vector times matrix: y_j = sum_i x_i * M[i][j]."""
    if _is_fast(field):
        ops = _ArrayOps(field)
        M = np.array(rows, dtype=np.int64)
        xv = np.array(list(x), dtype=np.int64)
        prod = ops.mul(xv[:, None], M)
        if ops.binary:
            acc = np.bitwise_xor.reduce(prod, axis=0)
        else:
            acc = prod.sum(axis=0) % field.q
        return [int(v) for v in acc]
    out = [0] * len(rows[0])
    for xi, row in zip(x, rows):
        if xi == 0:
            continue
        for j, g in enumerate(row):
            out[j] = field.add(out[j], field.mul(xi, g))
    return out


def matmul(a: Matrix, b: Matrix, field: Field) -> Matrix:
    return [matvec(row, b, field) for row in a]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def inverse(rows: Matrix, field: Field) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(row) + ident for row, ident in zip(rows, identity(n))]
    red, pivots = rref(aug, field, ncols=n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in red]


def nullspace_vector(rows: Matrix, field: Field) -> Optional[list[int]]:
    """A nonzero solution of M u = 0, or None if the kernel is trivial.

    Deterministic: the first free column gets value 1, later free columns 0.
    """
    if not rows:
        return None
    nc = len(rows[0])
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = next((c for c in range(nc) if c not in pivot_set), None)
    if free is None:
        return None
    u = [0] * nc
    u[free] = 1
    for r, c in enumerate(pivots):
        # row r reads u_c + red[r][free] = 0 (all other free vars are 0)
        u[c] = field.neg(red[r][free])
    return u
