import itertools

import numpy as np
import pytest

from insdelcode.errors import (CapacityError, DecodeFailure, ParameterError,
                               UsageError)
from insdelcode.gf import BinaryField, PrimeField
from insdelcode.hamming_ecc import (ConcatenatedBinaryCode, LinearCode,
                                    codeword_table, concatenated_binary_code,
                                    full_rank_probability, min_distance,
                                    random_generator, random_linear_code,
                                    rs_build, systematic_transform)
from insdelcode.linalg import identity, matvec, rank
from oracles import (concatenated_inner_symbols_reference,
                     nearest_codeword_scan, pairwise_min_hamming,
                     rs_decode_bw_reference)


def test_rs_build_examples():
    g5 = PrimeField(5)
    code = rs_build(g5, 4, 2, [0, 1, 2, 3])
    assert code.encode([1, 1]) == [1, 2, 3, 4]
    const = rs_build(g5, 4, 1)
    assert const.encode([3]) == [3, 3, 3, 3]
    assert rs_build(PrimeField(7), 5, 3).d == 3


def test_rs_build_parameter_errors():
    with pytest.raises(ParameterError):
        rs_build(PrimeField(3), 5, 2)
    with pytest.raises(UsageError):
        rs_build(PrimeField(5), 3, 2, [0, 0, 1])


def test_encode_contracts():
    code = rs_build(PrimeField(5), 4, 2)
    assert code.encode([0, 0]) == [0, 0, 0, 0]
    with pytest.raises(UsageError):
        code.encode([1])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = [int(v) for v in rng.integers(0, 5, 2)]
        y = [int(v) for v in rng.integers(0, 5, 2)]
        s = [(a + b) % 5 for a, b in zip(x, y)]
        assert code.encode(s) == [(a + b) % 5 for a, b in
                                  zip(code.encode(x), code.encode(y))]


def test_decode_one_error_matches_brute_oracle():
    code = rs_build(PrimeField(5), 4, 2)
    word = code.encode([1, 1])
    for pos in range(4):
        for delta in range(1, 5):
            bad = list(word)
            bad[pos] = (bad[pos] + delta) % 5
            oracle_msg, oracle_err = nearest_codeword_scan(
                code.encode, 5, 2, bad)
            assert oracle_err == 1
            assert code.decode(bad) == oracle_msg == [1, 1]


def _outcome(code, word, erasures):
    try:
        return code.decode(word, erasures)
    except DecodeFailure:
        return "failure"


def test_decode_beyond_radius_is_flagged():
    # past the radius a decoder may fail or land on another codeword within
    # its radius; Berlekamp-Welch must give the nearest-codeword scan's verdict
    verdicts = set()
    for field in (PrimeField(13), BinaryField(4)):
        rs = rs_build(field, 12, 4)  # d = 9
        brute = rs_build(field, 12, 4, strategy="brute-force-nearest")
        rng = np.random.default_rng(17)
        for _ in range(150):
            word = rs.encode([int(v) for v in field.sample(rng, 4)])
            n_era = int(rng.integers(0, 6))
            n_err = int(rng.integers((10 - n_era) // 2, 13 - n_era))
            pos = rng.permutation(12)
            era = sorted(int(i) for i in pos[:n_era])
            for i in pos[n_era:n_era + n_err]:
                word[i] = field.add(word[i], int(rng.integers(1, field.q)))
            assert 2 * n_err + n_era > rs.d - 1
            got = _outcome(rs, word, era)
            assert got == _outcome(brute, word, era)
            verdicts.add(got == "failure")
    assert verdicts == {True, False}  # both failures and miscorrections


def test_uncorrupted_roundtrip_strategies():
    field = PrimeField(13)
    rs = rs_build(field, 10, 4)
    brute = rs_build(field, 10, 4, strategy="brute-force-nearest")
    rng = np.random.default_rng(3)
    for _ in range(10):
        msg = [int(v) for v in rng.integers(0, 13, 4)]
        cw = rs.encode(msg)
        assert rs.decode(cw) == msg
        assert brute.decode(cw) == msg


def test_bw_errors_and_erasures_matches_brute_oracle():
    field = PrimeField(13)
    code = rs_build(field, 10, 4)  # d = 7
    brute = rs_build(field, 10, 4, strategy="brute-force-nearest")
    rng = np.random.default_rng(17)
    for trial in range(120):
        msg = [int(v) for v in rng.integers(0, 13, 4)]
        cw = code.encode(msg)
        s = int(rng.integers(0, 4))
        e = int(rng.integers(0, (code.d - s) // 2 + 1)) if code.d > s else 0
        if 2 * e + s > code.d - 1:
            e = (code.d - 1 - s) // 2
        pos = [int(v) for v in rng.choice(10, size=s + e, replace=False)]
        bad = list(cw)
        for p in pos[:s]:
            bad[p] = int(rng.integers(0, 13))
        for p in pos[s:]:
            bad[p] = (bad[p] + 1 + int(rng.integers(0, 12))) % 13
        assert code.decode(bad, erasures=pos[:s]) == msg
        assert brute.decode(bad, erasures=pos[:s]) == msg


def _nonzero(field, rng):
    v = 0
    while v == 0:
        v = int(field.sample(rng))
    return v


@pytest.mark.parametrize("field, n, m", [
    (PrimeField(13), 12, 4), (PrimeField(13), 6, 6), (BinaryField(6), 30, 12),
    (BinaryField(20), 16, 6), (BinaryField(100), 12, 5)])
def test_gao_matches_berlekamp_welch_reference(field, n, m):
    code = rs_build(field, n, m)
    rng = np.random.default_rng([n, m])
    outcomes = set()
    for trial in range(60):
        msg = [int(v) for v in field.sample(rng, m)]
        word = code.encode(msg)
        # erasures: any number, exactly n - m (N == m live points), all n
        n_era = [int(rng.integers(0, n + 1)), n - m, n,
                 int(rng.integers(0, n - m + 1))][trial % 4]
        era = sorted(int(i) for i in rng.choice(n, n_era, replace=False))
        # errors up to the live radius (N - m) / 2 and two past it
        n_err = min(n, int(rng.integers(0, max(0, n - n_era - m) // 2 + 3)))
        for i in rng.choice(n, n_err, replace=False):
            word[i] = field.add(word[i], _nonzero(field, rng))
        expected = rs_decode_bw_reference(code, word, era)
        try:
            got = code.decode(word, erasures=era)
        except DecodeFailure:
            got = None
        assert got == expected
        outcomes.add("failure" if got is None else got == msg)
    assert {"failure", True} <= outcomes


def test_decode_roundtrip_exhaustive_error_positions():
    field = PrimeField(11)
    code = rs_build(field, 8, 4)  # d = 5, kappa = 2
    msg = [3, 1, 4, 1]
    cw = code.encode(msg)
    for npos in range(1, code.kappa + 1):
        for pos in itertools.combinations(range(8), npos):
            bad = list(cw)
            for p in pos:
                bad[p] = (bad[p] + 5) % 11
            assert code.decode(bad) == msg


def test_rs_min_distance_exhaustive():
    code = rs_build(BinaryField(3), 6, 2)  # q^m = 64
    words = [tuple(cw) for _, cw in code.codewords()]
    assert pairwise_min_hamming(words) == code.d == 5
    assert code.min_distance() == 5


@pytest.mark.parametrize("field,m,n", [(PrimeField(5), 3, 6),
                                       (BinaryField(3), 2, 7)])
def test_codeword_table_rows_follow_product_order(field, m, n):
    code = random_linear_code(field, m, n, 4)
    table = codeword_table(field, code.generator, field.q ** m)
    msgs = list(itertools.product(range(field.q), repeat=m))
    assert table.shape == (field.q ** m, n)
    assert [list(row) for row in table] == [code.encode(msg) for msg in msgs]
    assert [(list(a), b) for a, b in code.codewords()] == \
        [(list(msg), code.encode(msg)) for msg in msgs]
    weights = [sum(v != 0 for v in code.encode(msg)) for msg in msgs[1:]]
    assert min_distance(field, code.generator) == min(weights) == code.d


def test_codeword_table_capacity():
    field = PrimeField(3)
    gen = random_generator(field, 4, 5, 0)
    assert len(codeword_table(field, gen, 81)) == 81
    with pytest.raises(CapacityError):
        codeword_table(field, gen, 80)


def test_random_generator_contracts():
    field = PrimeField(3)
    a = random_generator(field, 4, 6, 42)
    assert a == random_generator(field, 4, 6, 42)
    with pytest.raises(UsageError):
        random_generator(field, 0, 5, 1)
    flat = [v for row in random_generator(field, 100, 100, 7) for v in row]
    counts = np.bincount(flat, minlength=3)
    expect = len(flat) / 3
    sigma = (len(flat) * (1 / 3) * (2 / 3)) ** 0.5
    assert all(abs(c - expect) <= 5 * sigma for c in counts)


def test_random_linear_code_capacity_guard():
    with pytest.raises(CapacityError):
        random_linear_code(PrimeField(5), 7, 9, 0)


def test_systematic_transform_examples():
    field = PrimeField(2)
    sys_gen = [[1, 0, 1], [0, 1, 1]]
    assert systematic_transform(sys_gen, field) == sys_gen
    singular = [[0, 1, 1], [0, 0, 1]]  # zero first column
    assert systematic_transform(singular, field) is None


def test_systematic_transform_success_rate_and_set_preservation():
    field = PrimeField(2)
    success = 0
    trials = 1000
    for seed in range(trials):
        gen = random_generator(field, 4, 8, seed)
        out = systematic_transform(gen, field)
        success += out is not None
    rate = success / trials
    p = full_rank_probability(2, 4)
    sigma = (p * (1 - p) / trials) ** 0.5
    assert rate >= 0.25 - 3 * sigma
    assert abs(rate - p) <= 3 * sigma

    code = random_linear_code(field, 3, 6, 9)
    out = systematic_transform(code.generator, field)
    if out is not None:
        assert [row[:3] for row in out] == identity(3)
        orig = {tuple(cw) for _, cw in code.codewords()}
        new = {tuple(matvec([(m >> k) & 1 for k in range(3)], out, field))
               for m in range(8)}
        assert orig == new


def test_concatenated_binary_code_roundtrip_and_linearity():
    code = concatenated_binary_code(b=4, n_out=10, m_out=4, inner_len=9,
                                    seed=5)
    assert code.field.q == 2
    assert code.kappa >= 1
    rng = np.random.default_rng(8)
    gen = code.generator_rows()
    assert rank(gen, code.gf2) == code.m
    for trial in range(12):
        msg = [int(v) for v in rng.integers(0, 2, code.m)]
        cw = code.encode(msg)
        x2 = [int(v) for v in rng.integers(0, 2, code.m)]
        lhs = [a ^ b for a, b in zip(cw, code.encode(x2))]
        assert lhs == code.encode([a ^ b for a, b in zip(msg, x2)])
        nerr = int(rng.integers(0, code.kappa + 1))
        pos = rng.choice(code.n, size=nerr, replace=False)
        bad = list(cw)
        for p in pos:
            bad[p] ^= 1
        assert code.decode(bad) == msg


@pytest.mark.parametrize("b,n_out,m_out,inner_len,seed", [
    (4, 10, 4, 9, 5), (3, 7, 3, 6, 0), (3, 6, 2, 4, 4), (2, 3, 1, 5, 1)])
def test_concatenated_decode_matches_dict_scan_reference(b, n_out, m_out,
                                                         inner_len, seed):
    code = concatenated_binary_code(b, n_out, m_out, inner_len, seed)
    rng = np.random.default_rng(seed)
    for trial in range(40):
        msg = [int(v) for v in rng.integers(0, 2, code.m)]
        bad = list(code.encode(msg))
        # up to well past the radius, so ties and failures occur
        nerr = int(rng.integers(0, min(code.n, 3 * code.kappa + 5) + 1))
        for p in rng.choice(code.n, size=nerr, replace=False):
            bad[p] ^= 1
        syms = concatenated_inner_symbols_reference(code.inner_generator,
                                                    code.b, bad)
        try:
            want = [(s >> k) & 1 for s in code.outer.decode(syms)
                    for k in range(code.b)]
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                code.decode(bad)
        else:
            assert code.decode(bad) == want


def test_concatenated_json_round_trip():
    code = concatenated_binary_code(b=3, n_out=7, m_out=3, inner_len=6, seed=0)
    again = ConcatenatedBinaryCode.from_json(code.to_json())
    assert again.to_json() == code.to_json()
    assert again.generator_rows() == code.generator_rows()
    with pytest.raises(ParameterError):
        ConcatenatedBinaryCode(code.outer, code.inner_generator[:2], 2)


def test_code_json_round_trip():
    code = rs_build(BinaryField(4), 10, 3)
    again = LinearCode.from_json(code.to_json())
    assert again.generator == code.generator
    assert again.d == code.d and again.strategy == code.strategy
    msg = [1, 7, 3]
    assert again.encode(msg) == code.encode(msg)


def test_generator_rank_enforced():
    field = PrimeField(2)
    with pytest.raises(ParameterError):
        LinearCode(field, [[1, 0, 1], [1, 0, 1]], 1)
