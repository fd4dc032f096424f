import numpy as np
import pytest

from insdelcode.affine_insdel import (AffineCode, affine_params,
                                      affine_params_sweep, parse_blocks)
from insdelcode.editops import insdel_channel, lcs_length
from insdelcode.errors import DecodeFailure, ParameterError, UsageError
from insdelcode.gf import BinaryField
from insdelcode.hamming_ecc import rs_build
from insdelcode.sync_string import construct_sync_string
from oracles import (affine_decode_reference, affine_encode_reference,
                     destuff_reference, parse_blocks_reference,
                     stuff_reference)


def small_code(n0=6, epsilon=0.25, seed=2):
    """Desk-size instance: GF(2^8) inner code, coarse sync string."""
    l0 = 8
    m0 = max(1, round(n0 * (1 - 2 * epsilon)))
    inner = rs_build(BinaryField(l0), n0, m0)
    sync = construct_sync_string(n0, 0.5, seed)
    return AffineCode(inner, sync, t=4, epsilon=epsilon)


def test_stuffing_example():
    assert stuff_reference([1, 1, 0, 1], 2) == [1, 1, 0, 0, 1, 0]
    assert destuff_reference([1, 1, 0, 0, 1, 0], 2) == [1, 1, 0, 1]
    assert destuff_reference(stuff_reference(list(range(2)) * 5, 3), 3) \
        == [0, 1] * 5


def _decode_outcome(decode, received):
    try:
        return decode(received)
    except DecodeFailure:
        return "failure"


@pytest.mark.parametrize("make", [
    small_code,
    lambda: small_code(n0=7, epsilon=0.2, seed=4),
    lambda: AffineCode(rs_build(BinaryField(10), 9, 4),
                       construct_sync_string(9, 0.5, 1), t=3, epsilon=0.3),
    lambda: affine_params(0.1, 40, seed=5)])
def test_framing_matches_block_by_block_reference(make):
    code = make()
    outcomes = set()
    trials = 12 if code.n > 2000 else 40
    for trial in range(trials):
        rng = np.random.default_rng([61, trial])
        msg = [int(v) for v in rng.integers(0, 2, code.m)]
        z = code.encode(msg)
        assert np.array_equal(z, affine_encode_reference(code, msg))
        # past the radius too, so that decoding failures are compared
        k = int(rng.integers(0, 3 * code.kappa + 3))
        n_ins = int(rng.integers(0, k + 1))
        zp = insdel_channel(z, n_ins, k - n_ins, [62, trial], alphabet=2)
        assert [list(b) for b in code.parse_blocks(zp)] == \
            [list(b) for b in parse_blocks_reference(zp, code.t)]
        got = _decode_outcome(code.decode, zp)
        assert got == _decode_outcome(
            lambda w: affine_decode_reference(code, w), zp)
        outcomes.add(got == "failure")
    assert np.array_equal(code.offset(),
                          affine_encode_reference(code, [0] * code.m))
    assert outcomes == {False, True}


def test_block_lengths_and_clean_parse():
    code = small_code()
    x = [int(v) for v in np.random.default_rng(0).integers(0, 2, code.m)]
    z = code.encode(x)
    assert len(z) == code.n == code.n0 * (code.t + 2 + code.l + code.l // code.t)
    blocks = code.parse_blocks(z)
    assert len(blocks) == code.n0
    assert all(len(b) == code.content_len for b in blocks)
    assert code.decode_bits(z) == x


def test_no_boundary_run_inside_content():
    code = small_code()
    for seed in range(5):
        x = [int(v) for v in np.random.default_rng(seed).integers(0, 2, code.m)]
        z = code.encode(x)
        for block in code.parse_blocks(z):
            run = best = 0
            for b in block:
                run = run + 1 if b else 0
                best = max(best, run)
            assert best <= code.t


def test_offset_is_zero_codeword():
    code = small_code()
    assert code.decode_bits(code.offset()) == [0] * code.m


def test_affineness_exact():
    code = small_code()
    rng = np.random.default_rng(3)
    z0 = code.offset()
    for _ in range(25):
        x = [int(v) for v in rng.integers(0, 2, code.m)]
        y = [int(v) for v in rng.integers(0, 2, code.m)]
        lhs = code.encode(x) ^ code.encode(y) ^ z0
        rhs = code.encode([a ^ b for a, b in zip(x, y)])
        assert np.array_equal(lhs, rhs)


def block_damage(code, z, zp):
    """Blocks changed between two parses, via an LCS alignment of contents."""
    a = [tuple(b) for b in code.parse_blocks(z)]
    b = [tuple(blk) for blk in code.parse_blocks(zp)]
    common = lcs_length([hash(t) for t in a], [hash(t) for t in b])
    return max(len(a), len(b)) - common


def test_single_bit_flip_changes_one_block():
    code = small_code()
    x = [int(v) for v in np.random.default_rng(1).integers(0, 2, code.m)]
    z = code.encode(x)
    # flip inside the first content area (after boundary of block 0)
    pos = code.t + 2 + 3
    zp = z.copy()
    zp[pos] ^= 1
    assert block_damage(code, z, zp) <= 1
    blocks = code.parse_blocks(zp)
    assert len(blocks) == code.n0


def test_per_edit_damage_at_most_two_blocks_exhaustive():
    code = small_code(n0=6)
    x = [int(v) for v in np.random.default_rng(5).integers(0, 2, code.m)]
    z = code.encode(x)
    for pos in range(len(z)):
        zp = np.delete(z, pos)
        assert block_damage(code, z, zp) <= 2
    for pos in range(len(z) + 1):
        for bit in (0, 1):
            zp = np.insert(z, pos, bit)
            assert block_damage(code, z, zp) <= 2


def test_boundary_one_deletion_block_count():
    code = small_code(n0=5)
    x = [int(v) for v in np.random.default_rng(4).integers(0, 2, code.m)]
    z = code.encode(x)
    orig = len(code.parse_blocks(z))
    # delete each bit of each boundary run
    for blk in range(code.n0):
        base = blk * code.block_len
        for off in range(1, code.t + 2):
            zp = np.delete(z, base + off)
            blocks = code.parse_blocks(zp)
            assert orig - len(blocks) <= 1
            assert block_damage(code, z, zp) <= 2


def test_roundtrip_under_channel():
    code = small_code()
    kappa = max(1, code.kappa)
    for trial in range(40):
        rng = np.random.default_rng([51, trial])
        msg = [int(v) for v in rng.integers(0, 2, code.m)]
        z = code.encode(msg)
        k = int(rng.integers(0, kappa + 1))
        n_ins = int(rng.integers(0, k + 1))
        zp = insdel_channel(z, n_ins, k - n_ins, [52, trial], alphabet=2)
        assert code.decode_bits(zp) == msg


def test_affine_params_dimensions():
    code = affine_params(0.1, 40, seed=5)
    assert code.l0 == 100 and code.t == 10 and code.m0 == 32
    assert code.inner.d == 2 * 0.1 * 40 + 1
    assert code.n == 40 * (code.t + 2 + code.l + code.l // code.t)
    assert code.m == code.m0 * code.l0
    # headline rate expression, up to the floor in the stuffed length
    approx = (code.m0 / 40) * code.l0 / (
        (code.l0 + code.l_s) * (1 + 1 / code.t) + (code.t + 2))
    assert abs(code.rate - approx) / approx < 0.02


def test_affine_params_sweep_monotone():
    rows = affine_params_sweep([0.05, 0.1, 0.2], 40, seed=5)
    rates = [r.rate for r in rows]
    rel_kappa = [r.kappa / r.n for r in rows]
    assert rates == sorted(rates, reverse=True)
    assert rel_kappa == sorted(rel_kappa)


def test_affine_params_infeasible():
    with pytest.raises(ParameterError):
        affine_params(0.4, 1)
    with pytest.raises(ParameterError):
        affine_params(0.7, 40)


def test_encode_length_validation_and_json():
    code = small_code()
    with pytest.raises(UsageError):
        code.encode([0] * (code.m + 1))
    again = AffineCode.from_json(code.to_json())
    x = [int(v) for v in np.random.default_rng(9).integers(0, 2, code.m)]
    assert np.array_equal(again.encode(x), code.encode(x))
    assert again.kappa == code.kappa


def test_parse_blocks_plain_function():
    # boundary, content 101, boundary, content 11
    t = 2
    stream = [0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1]
    blocks = parse_blocks(stream, t)
    assert [list(b) for b in blocks] == [[1, 0, 1], [1, 1, 1]]
    assert parse_blocks([], t) == []
