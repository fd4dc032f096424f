"""Dense linear algebra over the package's finite fields.

Matrices are lists of row lists holding canonical ints.  Elimination and
products run as numpy row operations for every field: on int64 arrays when
elements fit a machine word (primes below 2^31, and GF(2^l) with exp/log
tables), otherwise on object arrays of Python ints (e.g. GF(2^100)).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .gf import BinaryField, Field

Matrix = list[list[int]]


class _ArrayOps:
    """Elementwise field ops on ndarrays of dtype `self.dtype`: int64 when
    elements and products fit a machine word, object (Python ints) else."""

    def __init__(self, field: Field):
        self.field = field
        self.binary = isinstance(field, BinaryField)
        self.tables = self.binary and field.exp_table is not None
        if self.tables:
            self.exp, self.log = field.exp_table, field.log_table
        elif self.binary:
            self.poly_mul = np.frompyfunc(field.mul, 2, 1)
        word = self.tables or not self.binary and field.q < (1 << 31)
        self.dtype = np.int64 if word else object

    def mul(self, a, b):
        if self.tables:
            out = self.exp[self.log[a] + self.log[b]]
            return np.where((a == 0) | (b == 0), 0, out)
        if self.binary:
            return self.poly_mul(a, b)
        return a * b % self.field.q

    def sub(self, a, b):
        if self.binary:
            return a ^ b
        return (a - b) % self.field.q


def rref(rows: Matrix, field: Field, ncols: Optional[int] = None):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    if not rows:
        return [], []
    ops = _ArrayOps(field)
    M = np.array(rows, dtype=ops.dtype)
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
        M[r] = ops.mul(field.inv(int(M[r, c])), M[r])
        factors = M[:, c].copy()
        factors[r] = 0
        M = ops.sub(M, ops.mul(factors[:, None], M[r][None, :]))
        pivots.append(c)
        r += 1
    return [[int(v) for v in row] for row in M], pivots


def rank(rows: Matrix, field: Field) -> int:
    return len(rref(rows, field)[1])


def matvec(x: Sequence[int], rows: Matrix, field: Field) -> list[int]:
    """Row vector times matrix: y_j = sum_i x_i * M[i][j]."""
    ops = _ArrayOps(field)
    M = np.array(rows, dtype=ops.dtype)
    xv = np.array(list(x), dtype=ops.dtype)
    prod = ops.mul(xv[:, None], M)
    if ops.binary:
        acc = np.bitwise_xor.reduce(prod, axis=0)
    else:
        acc = prod.sum(axis=0) % field.q
    return [int(v) for v in acc]


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
