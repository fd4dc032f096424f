import json

import numpy as np
import pytest

from insdelcode.editops import insdel_channel, min_pairwise_edit_distance
from insdelcode.errors import DecodeFailure, UsageError
from insdelcode.gf import BinaryField, PrimeField
from insdelcode.hamming_ecc import LinearCode, concatenated_binary_code, rs_build
from insdelcode.linalg import identity
from insdelcode.linear_insdel import (InsdelCode, SystematicInsdelCode,
                                      build_explicit, build_monte_carlo,
                                      cost_and_obj, match_dp)
from insdelcode.separator import SeparatorSequence
from oracles import match_best_obj_dfs, match_dp_reference


def identity_code(q, n):
    return LinearCode(PrimeField(q), identity(n), 1)


def test_encode_interleaves_runs():
    code = InsdelCode(identity_code(3, 3), SeparatorSequence((1, 2, 1), 2),
                      f=1.0)
    assert list(code.encode([1, 0, 2])) == [0, 1, 0, 0, 0, 0, 2]
    assert list(code.encode([0, 0, 0])) == [0] * 7
    assert code.n == 7
    for msg in ([1, 1, 1], [2, 0, 1]):
        assert len(code.encode(msg)) == code.n


def test_encode_is_linear():
    inner = rs_build(PrimeField(7), 6, 3)
    code = InsdelCode(inner, SeparatorSequence((2, 1, 3, 1, 2, 1), 3), f=1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.integers(0, 7, 3)
        y = rng.integers(0, 7, 3)
        alpha, beta = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        combo = [(alpha * a + beta * b) % 7 for a, b in zip(x, y)]
        zc = (alpha * code.encode(x) + beta * code.encode(y)) % 7
        assert list(code.encode(combo)) == list(zc)


def test_match_dp_uncorrupted_is_perfect():
    inner = rs_build(PrimeField(5), 4, 2)
    code = InsdelCode(inner, SeparatorSequence((1, 2, 1, 3), 3), f=1.0)
    z = code.encode([1, 1])
    m = code.match(z)
    nonzeros = int(np.count_nonzero(z))
    assert m.obj == nonzeros
    assert m.cost == 0
    # every blank matched to its own symbol
    assert all(i == j_to_blank for (i, _), j_to_blank in
               zip(m.matches, [i for i, v in
                               enumerate([1, 2, 3, 4], start=1) if v != 0]))


def test_match_dp_empty_received():
    m = match_dp([2, 5, 7], [0, 0, 0, 0])
    assert m.matches == () and m.obj == 0 and m.cost == 0


def test_match_dp_against_dfs_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        nc = int(rng.integers(1, 7))
        n1 = int(rng.integers(0, 7))
        p = np.cumsum(rng.integers(1, 5, nc))
        q = np.cumsum(rng.integers(1, 5, n1))
        received = np.zeros(int(q[-1]) if n1 else 1, dtype=np.int64)
        for pos in q:
            received[pos - 1] = 1 + int(rng.integers(0, 3))
        got = match_dp(p, received)
        want = match_best_obj_dfs(list(p), list(q))
        assert got.obj == want
        cost, obj = cost_and_obj(got.matches, list(p), list(q))
        assert (cost, obj) == (got.cost, got.obj)


def test_match_dp_bit_identical_to_quartic_reference():
    # Matchings, objectives and costs, tie-breaks included, on random
    # position lists and on codewords hit by a few insertions/deletions.
    rng = np.random.default_rng(31)
    for trial in range(320):
        nc = 1 if trial < 10 else int(rng.integers(1, 41))
        p = np.cumsum(rng.integers(1, 5, nc))
        if trial % 2:
            z = np.zeros(int(p[-1]), dtype=np.int64)
            z[p - 1] = rng.integers(0, 3, nc)
            received = list(z)
            for _ in range(int(rng.integers(0, 6))):
                if received and rng.random() < 0.5:
                    del received[int(rng.integers(0, len(received)))]
                else:
                    received.insert(int(rng.integers(0, len(received) + 1)),
                                    int(rng.integers(0, 3)))
        else:
            n1 = 0 if trial % 10 == 0 else int(rng.integers(0, 41))
            q = np.cumsum(rng.integers(1, 5, n1))
            received = np.zeros(int(q[-1]) if n1 else int(rng.integers(0, 4)),
                                dtype=np.int64)
            received[q - 1] = 1 + rng.integers(0, 3, n1)
        got = match_dp(p, received)
        assert (got.matches, got.obj, got.cost) == match_dp_reference(p, received)


def test_cost_and_obj_examples():
    assert cost_and_obj([(1, 1)], [4], [4]) == (0, 1)
    assert cost_and_obj([(1, 1), (2, 2)], [2, 5], [2, 6]) == (1, 1)
    assert cost_and_obj([], [2], [3]) == (0, 0)
    with pytest.raises(UsageError):
        cost_and_obj([(2, 1), (1, 2)], [2, 4], [2, 4])
    with pytest.raises(UsageError):
        cost_and_obj([(1, 5)], [2], [2])


def test_decode_roundtrip_and_other_codeword():
    inner = rs_build(PrimeField(7), 6, 2)
    code = build_monte_carlo(inner, seed=3, f=1.0, a=6)
    x1, x2 = [1, 2], [3, 0]
    assert code.decode(code.encode(x1)) == x1
    assert code.decode(code.encode(x2)) == x2


def test_decode_empty_received_total():
    inner = rs_build(PrimeField(7), 6, 2)
    code = build_monte_carlo(inner, seed=3, f=1.0, a=6)
    # n deletions are far beyond kappa: no confident answer
    with pytest.raises(DecodeFailure):
        code.decode([])


def test_decode_rejects_length_beyond_radius():
    code = build_monte_carlo(rs_build(PrimeField(11), 10, 4), seed=0,
                             f=0.34, a=8)
    assert code.kappa == 1
    with pytest.raises(DecodeFailure):
        code.decode([])
    z = code.encode([3, 1, 4, 1])
    with pytest.raises(DecodeFailure):
        code.decode(z[2:])
    assert code.decode(z[1:]) == [3, 1, 4, 1]


def test_roundtrip_under_channel_and_unmatched_bound():
    inner = rs_build(BinaryField(4), 16, 8)  # d = 9, kappa_C = 4
    code = build_explicit(inner, f=0.5)      # kappa = 2
    assert code.kappa == 2
    q = code.field.q
    for trial in range(60):
        rng = np.random.default_rng([21, trial])
        msg = [int(v) for v in rng.integers(0, q, code.m)]
        z = code.encode(msg)
        k = int(rng.integers(0, code.kappa + 1))
        n_ins = int(rng.integers(0, k + 1))
        zp = insdel_channel(z, n_ins, k - n_ins, [22, trial], alphabet=q)
        details = code.decode_details(zp)
        assert details["message"] == msg
        assert details["unmatched"] <= 3 * k


def test_explicit_instance_distance_witness():
    inner = rs_build(BinaryField(3), 6, 2)  # q^m = 64 codewords
    code = build_explicit(inner, f=0.5)     # kappa = floor(0.5 * 2) = 1
    words = [code.encode(msg) for msg, _ in inner.codewords()]
    assert min_pairwise_edit_distance(words) >= 2 * code.kappa + 1


def test_binary_concatenated_flavor():
    inner = concatenated_binary_code(b=4, n_out=12, m_out=6, inner_len=8,
                                     seed=9)
    code = build_monte_carlo(inner, seed=1, f=1.0 / max(1, inner.kappa),
                             a=max(2, inner.n // max(1, inner.kappa)))
    msg = list(np.random.default_rng(0).integers(0, 2, code.m))
    msg = [int(v) for v in msg]
    z = code.encode(msg)
    assert code.decode(z) == msg
    zp = insdel_channel(z, 1, 0, 5, alphabet=2)
    assert code.decode(zp) == msg
    again = InsdelCode.from_json(json.loads(json.dumps(code.to_json())))
    assert list(again.encode(msg)) == list(z)
    assert again.decode(zp) == msg


def test_radius_fraction_default_and_json():
    inner = rs_build(PrimeField(11), 10, 4)  # kappa_C = 3
    code = build_monte_carlo(inner, seed=0, a=8)
    assert code.f == 0.01 and code.kappa == 0  # conservative default
    again = InsdelCode.from_json(code.to_json())
    assert list(again.encode([1, 2, 3, 4])) == list(code.encode([1, 2, 3, 4]))
    assert again.kappa == code.kappa


def test_separator_length_must_match_inner():
    inner = rs_build(PrimeField(5), 4, 2)
    with pytest.raises(UsageError):
        InsdelCode(inner, SeparatorSequence((1, 1), 1))


def test_systematic_wrapper():
    inner = rs_build(PrimeField(11), 10, 4)
    code = build_monte_carlo(inner, seed=5, f=1.0, a=8)
    wrapped = SystematicInsdelCode(code)
    msg = [7, 3, 0, 9]
    full = wrapped.encode(msg)
    assert list(full[:4]) == msg
    assert wrapped.decode(full) == msg
    assert wrapped.rate == code.m / (code.n + code.m)
    # insdels inside the raw prefix leave the codeword part intact
    corrupted = np.concatenate([
        insdel_channel(full[:4], 1, 1, 3, alphabet=11), full[4:]])
    assert wrapped.decode(corrupted) == msg
    again = SystematicInsdelCode.from_json(wrapped.to_json())
    assert again.decode(full) == msg
