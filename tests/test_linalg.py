import numpy as np
import pytest

from insdelcode import linalg
from insdelcode.gf import BinaryField, PrimeField
from oracles import matvec_reference, nullspace_vector_reference, rref_reference

FIELDS = [PrimeField(2), PrimeField(7), BinaryField(4), BinaryField(6),
          BinaryField(100), PrimeField(2**61 - 1)]


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_vector_solves_system(field):
    rng = np.random.default_rng(11)
    for _ in range(60):
        nr = int(rng.integers(1, 7))
        nc = int(rng.integers(nr + 1, nr + 5))
        M = [[int(v) for v in field.sample(rng, nc)] for _ in range(nr)]
        u = linalg.nullspace_vector(M, field)
        assert u is not None and any(u)
        for row in M:
            acc = 0
            for a, b in zip(row, u):
                acc = field.add(acc, field.mul(a, b))
            assert acc == 0


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_round_trip(field):
    rng = np.random.default_rng(5)
    hit = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        M = [[int(v) for v in field.sample(rng, n)] for _ in range(n)]
        inv = linalg.inverse(M, field)
        if inv is None:
            assert linalg.rank(M, field) < n
            continue
        hit += 1
        assert linalg.matmul(M, inv, field) == linalg.identity(n)
    assert hit > 0


def test_python_fallback_matches_numpy_path():
    fast = BinaryField(6)
    slow = BinaryField(100)  # no tables: object-dtype arrays
    rng = np.random.default_rng(1)
    M = [[int(v) for v in rng.integers(0, 64, 5)] for _ in range(3)]
    x = [int(v) for v in rng.integers(0, 64, 3)]
    got_fast = linalg.matvec(x, M, fast)
    # same bit patterns are valid elements of the big field and xor agrees;
    # multiplication differs, so compare against a hand-rolled evaluation
    manual = [0] * 5
    for xi, row in zip(x, M):
        for j, g in enumerate(row):
            manual[j] = fast.add(manual[j], fast.mul(xi, g))
    assert got_fast == manual
    r_fast, p_fast = linalg.rref(M, fast)
    assert linalg.rank(M, fast) == len(p_fast)
    assert all(r_fast[i][c] == 1 for i, c in enumerate(p_fast))
    big_M = [[slow.sample(rng) for _ in range(4)] for _ in range(3)]
    red, piv = linalg.rref(big_M, slow)
    for i, c in enumerate(piv):
        assert red[i][c] == 1
        assert all(red[r][c] == 0 for r in range(len(red)) if r != i)


@pytest.mark.parametrize("field", [BinaryField(20), BinaryField(100),
                                   PrimeField(2**61 - 1), PrimeField(7),
                                   BinaryField(6)])
def test_matches_python_int_reference(field):
    rng = np.random.default_rng(23)
    for trial in range(40):
        nr, nc = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        M = [[int(v) for v in field.sample(rng, nc)] for _ in range(nr)]
        if trial % 2:  # sparse, with zero columns and repeated rows
            keep = rng.random((nr, nc)) < 0.3
            M = [[v if k else 0 for v, k in zip(row, ks)]
                 for row, ks in zip(M, keep)]
            M.append(list(M[0]))
        x = [int(v) for v in field.sample(rng, len(M))]
        ref_red, ref_piv = rref_reference(M, field)
        assert linalg.rref(M, field) == (ref_red, ref_piv)
        assert linalg.matvec(x, M, field) == matvec_reference(x, M, field)
        assert linalg.nullspace_vector(M, field) == \
            nullspace_vector_reference(M, field)
        n = min(nr, nc)
        sq = [row[:n] for row in M[:n]]
        red, piv = rref_reference([row + ident for row, ident in
                                   zip(sq, linalg.identity(n))], field, n)
        expected = [row[n:] for row in red] if len(piv) == n else None
        assert linalg.inverse(sq, field) == expected


def test_rank_of_identity_and_zero():
    field = PrimeField(3)
    assert linalg.rank(linalg.identity(4), field) == 4
    assert linalg.rank([[0, 0], [0, 0]], field) == 0
    assert linalg.nullspace_vector(linalg.identity(3), field) is None
