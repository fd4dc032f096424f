import numpy as np
import pytest
from hypothesis import given, strategies as st

from insdelcode import editops
from insdelcode.editops import (EditScript, edit_distance, edit_distance_only,
                                insdel_channel, lcs, lcs_length,
                                min_pairwise_edit_distance, pack_bits)
from insdelcode.errors import UsageError
from oracles import (edit_distance_recursive, insdel_channel_reference,
                     lcs_length_reference, lcs_recursive,
                     min_pairwise_edit_distance_reference)

words = st.lists(st.integers(0, 3), max_size=12)


def test_lcs_trivial_cases():
    assert lcs("", "abc") == (0, [])
    assert lcs("abc", "")[0] == 0
    length, pairs = lcs("abc", "abc")
    assert length == 3 and pairs == [(0, 0), (1, 1), (2, 2)]


@given(words, words)
def test_lcs_matches_recursive_oracle(x, y):
    assert lcs_length(x, y) == lcs_recursive(x, y)


@given(words, words)
def test_lcs_alignment_is_common_subsequence(x, y):
    length, pairs = lcs(x, y)
    assert len(pairs) == length
    assert all(x[i] == y[j] for i, j in pairs)
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pairs, pairs[1:]))


def test_edit_distance_examples():
    assert edit_distance([1, 2, 3], [1, 2, 3])[0] == 0
    assert edit_distance("ab", "ba")[0] == 2


@given(words, words)
def test_edit_distance_identity_and_replay(x, y):
    d, script = edit_distance(x, y)
    assert d == len(x) + len(y) - 2 * lcs_length(x, y)
    assert d == edit_distance_recursive(x, y)
    assert len(script) == d
    assert list(script.apply(x)) == list(y)


@given(words, words, words)
def test_edit_distance_is_a_metric(x, y, z):
    dxy = edit_distance_only(x, y)
    assert dxy == edit_distance_only(y, x)
    assert dxy <= edit_distance_only(x, z) + edit_distance_only(z, y)
    assert (dxy == 0) == (list(x) == list(y))


@given(words, words)
def test_edit_distance_parity(x, y):
    assert edit_distance_only(x, y) % 2 == (len(x) + len(y)) % 2


def test_channel_identity_and_single_insertion():
    z = np.arange(1, 9)
    out = insdel_channel(z, 0, 0, 7, alphabet=9)
    assert list(out) == list(z)
    out = insdel_channel(z, 1, 0, 7, alphabet=9)
    assert len(out) == 9
    assert edit_distance_only(z, out) <= 1


def test_channel_deterministic_and_bounded():
    z = np.arange(30) % 5
    a = insdel_channel(z, 3, 4, 123, alphabet=5)
    b = insdel_channel(z, 3, 4, 123, alphabet=5)
    assert list(a) == list(b)
    assert len(a) == len(z) + 3 - 4
    assert edit_distance_only(z, a) <= 7


def test_channel_matches_one_copy_per_edit_reference():
    rng = np.random.default_rng(71)
    cases = [(0, 0, 0), (0, 3, 0), (5, 0, 5), (5, 2, 5), (1, 4, 0), (1, 0, 1),
             (2, 6, 2)]
    cases += [(int(length), int(rng.integers(0, 9)),
               int(rng.integers(0, length + 1)))
              for length in rng.integers(0, 40, size=400)]
    ends = set()
    for trial, (length, n_ins, n_del) in enumerate(cases):
        z = rng.integers(0, 3, size=length)
        got = insdel_channel(z, n_ins, n_del, [72, trial], alphabet=7)
        want = insdel_channel_reference(z, n_ins, n_del, [72, trial], 7)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        if n_ins and not n_del and length:
            # an inserted symbol (>= 3) at either end of the output
            ends.update(e for e, v in (("front", got[0]), ("back", got[-1]))
                        if v >= 3)
    assert ends == {"front", "back"}
    z = np.arange(2000) % 5
    for seed in range(20):
        assert np.array_equal(insdel_channel(z, 4, 3, seed, 5),
                              insdel_channel_reference(z, 4, 3, seed, 5))


def test_channel_usage_errors():
    with pytest.raises(UsageError):
        insdel_channel([1, 2], 0, 3, 0, alphabet=4)
    with pytest.raises(UsageError):
        insdel_channel([1, 2], -1, 0, 0, alphabet=4)


def test_min_pairwise_examples():
    assert min_pairwise_edit_distance([[1, 2], [1, 2], [0, 0]]) == 0
    assert min_pairwise_edit_distance([[0, 0], [1, 1]]) == 4
    assert min_pairwise_edit_distance([[], []]) == 0
    assert min_pairwise_edit_distance([[], [1, 2], [1]]) == 1
    with pytest.raises(UsageError):
        min_pairwise_edit_distance([[1]])


def test_min_pairwise_matches_recursive_oracle():
    rng = np.random.default_rng(2)
    from insdelcode.gf import PrimeField
    from insdelcode.hamming_ecc import random_generator
    from insdelcode.linalg import matvec
    field = PrimeField(2)
    gen = random_generator(field, 3, 10, 4)
    words_ = []
    for msg in range(8):
        bits = [(msg >> k) & 1 for k in range(3)]
        words_.append(matvec(bits, gen, field))
    got = min_pairwise_edit_distance(words_)
    want = min(edit_distance_recursive(words_[i], words_[j])
               for i in range(8) for j in range(i + 1, 8))
    assert got == want
    del rng


def test_pack_bits_word_or_python_int():
    rng = np.random.default_rng(5)
    for width in (0, 1, 8, 63, 64, 65, 130):
        bits = rng.integers(0, 2, size=(7, width)).astype(bool)
        words = pack_bits(bits)
        assert words.shape == (7,)
        assert words.dtype == (np.uint64 if width <= 63 else object)
        assert [int(w) for w in words] == [
            sum(1 << int(p) for p in np.flatnonzero(row)) for row in bits]


def test_lcs_length_matches_row_dp_reference():
    rng = np.random.default_rng(64)
    lengths = [0, 1, 2, 62, 63, 64, 65, 100, 130]
    for trial in range(600):
        if trial < len(lengths) ** 2:
            nx, ny = lengths[trial // len(lengths)], lengths[trial % len(lengths)]
        else:
            nx, ny = (int(v) for v in rng.integers(0, 140, size=2))
        q = int(rng.choice([2, 3, 20]))
        x = rng.integers(0, q, nx)
        y = rng.integers(0, q, ny)
        if trial % 3 == 0:  # hash()-valued symbols fill the int64 range
            x = [hash(("x", int(v))) for v in x]
            y = [hash(("x", int(v))) for v in y]
        want = lcs_length_reference(x, y)
        assert lcs_length(x, y) == want
        assert lcs_length(y, x) == want


def test_min_pairwise_matches_one_lcs_per_pair_reference(monkeypatch):
    rng = np.random.default_rng(65)
    zeros = 0
    for trial in range(120):
        count = int(rng.integers(2, 12))
        top = 80 if trial % 4 == 0 else 12
        words = [list(rng.integers(0, 3, int(rng.integers(0, top))))
                 for _ in range(count)]
        if trial % 5 == 0:  # a duplicate word makes the answer 0
            words.insert(int(rng.integers(0, count)),
                         list(words[int(rng.integers(0, count))]))
        want = min_pairwise_edit_distance_reference(words)
        zeros += want == 0
        assert min_pairwise_edit_distance(words) == want
        with monkeypatch.context() as patch:  # one pattern word per batch
            patch.setattr(editops, "PACK_CELLS", 1)
            assert min_pairwise_edit_distance(words) == want
    assert 0 < zeros < 120


def test_script_apply_positions_are_sequential():
    script = EditScript((("del", 1), ("ins", 0, 9)))
    assert list(script.apply([5, 6, 7])) == [9, 5, 7]
