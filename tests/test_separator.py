import numpy as np
import pytest

from insdelcode.errors import (CapacityError, ParameterError, UsageError)
from insdelcode.separator import (SeparatorSequence, _bad_only_max_undesired,
                                  construct_explicit, local_check,
                                  max_undesired, sample_separator,
                                  undesired_count)
from oracles import (bad_only_max_undesired_reference, max_undesired_dfs,
                     max_undesired_memo, max_undesired_reference)


def test_sample_forced_runs_and_positions():
    seq = sample_separator(5, 1, 0)
    assert seq.runs == (1, 1, 1, 1, 1)
    assert list(seq.positions()) == [2, 4, 6, 8, 10]
    assert seq.template_length == 10


def test_sample_deterministic_and_uniform():
    assert sample_separator(20, 6, 42).runs == sample_separator(20, 6, 42).runs
    draws = sample_separator(10_000, 8, 7).runs
    counts = np.bincount(draws, minlength=9)[1:]
    expect = 10_000 / 8
    sigma = (10_000 * (1 / 8) * (7 / 8)) ** 0.5
    assert all(abs(c - expect) <= 5 * sigma for c in counts)


def test_max_undesired_trivial_cases():
    assert max_undesired(SeparatorSequence((3,), 4)) == 0
    assert max_undesired(SeparatorSequence((1, 2), 2)) == 0
    assert max_undesired(SeparatorSequence((1, 1, 1), 1)) == 1
    assert max_undesired_dfs((1, 2)) == 0
    assert max_undesired_dfs((1, 1, 1)) == 1


def test_max_undesired_matches_dfs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(80):
        n = int(rng.integers(1, 8))
        a = int(rng.integers(1, 5))
        runs = tuple(int(v) for v in rng.integers(1, a + 1, n))
        assert max_undesired(SeparatorSequence(runs, a)) == \
            max_undesired_dfs(runs)


def test_max_undesired_matches_memo_oracle_nle14():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        a = int(rng.integers(1, 7))
        runs = tuple(int(v) for v in rng.integers(1, a + 1, n))
        assert max_undesired(SeparatorSequence(runs, a)) == \
            max_undesired_memo(runs)


def test_max_undesired_matches_memo_oracle_n20_30():
    rng = np.random.default_rng(12)
    for _ in range(6):
        n = int(rng.integers(20, 31))
        a = int(rng.integers(1, 7))
        runs = tuple(int(v) for v in rng.integers(1, a + 1, n))
        assert max_undesired(SeparatorSequence(runs, a)) == \
            max_undesired_memo(runs)


def test_verifier_and_chain_search_bit_identical_to_quartic_reference():
    # Values, and (count, witness) of the bad-only search at several stops.
    rng = np.random.default_rng(32)
    for trial in range(300):
        n = 1 if trial < 5 else int(rng.integers(1, 41))
        a = int(rng.integers(1, 9))
        seq = SeparatorSequence(tuple(int(v) for v in rng.integers(1, a + 1, n)), a)
        p = seq.positions()
        assert max_undesired(seq) == max_undesired_reference(p)
        for stop_at in (1, 2, 3, 100):
            assert _bad_only_max_undesired(p, stop_at) == \
                bad_only_max_undesired_reference(p, stop_at)


def test_max_undesired_budget():
    with pytest.raises(CapacityError):
        max_undesired(SeparatorSequence((1,) * 10, 2), budget_n=5)


def test_appending_run_cannot_decrease():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        a = int(rng.integers(1, 6))
        runs = [int(v) for v in rng.integers(1, a + 1, n)]
        base = max_undesired(SeparatorSequence(tuple(runs), a))
        longer = runs + [int(rng.integers(1, a + 1))]
        assert max_undesired(SeparatorSequence(tuple(longer), a)) >= base


def test_random_sequence_tail():
    # Loose operational check of the random-separator tail.  At a = 16 the
    # maximum undesired count empirically concentrates well above n/4 (11-15
    # across probe seeds), so the n/4 tail is checked at a = 64 where the
    # bound actually holds.
    n, a = 40, 64
    over = 0
    for s in range(200):
        seq = sample_separator(n, a, [11, s])
        if max_undesired(seq) > n // 4:
            over += 1
    assert over / 200 <= 0.05


def test_undesired_count_of_explicit_matchings():
    seq = SeparatorSequence((1, 1, 1), 1)
    assert undesired_count(seq, [(1, 2), (2, 3)]) == 1
    assert undesired_count(seq, [(1, 1), (2, 2)]) == 0
    with pytest.raises(UsageError):
        undesired_count(seq, [(2, 2), (1, 1)])


def test_local_check_pass_when_no_undesired():
    seq = SeparatorSequence((1, 2), 2)
    assert max_undesired(seq) == 0
    for lam in (1, 2, 5):
        assert local_check(seq, lam).passed


def test_local_check_fails_uniform_runs():
    seq = SeparatorSequence((2,) * 12, 4)
    res = local_check(seq, 4)
    assert not res.passed
    assert res.witness is not None
    chain = res.witness["matching"]
    # the witness chain really does carry that many undesired matches
    assert undesired_count(seq, chain) == res.lam0
    assert res.lam0 >= res.fail_at


def test_local_check_soundness_against_full_verifier():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(6, 31))
        lam = int(rng.integers(1, max(2, n // 3)))
        a = int(rng.integers(2, 40))
        seq = sample_separator(n, a, [13, n, lam, a])
        res = local_check(seq, lam)
        if res.passed:
            checked += 1
            assert max_undesired(seq) <= lam
        else:
            assert undesired_count(seq, res.witness["matching"]) == res.lam0
    assert checked > 10  # the implication was actually exercised


def test_construct_explicit_small():
    seq, seed, a = construct_explicit(8, 4)
    assert a == 8  # smallest power of two >= (8/4)^3
    assert max_undesired(seq) <= 4


def test_construct_explicit_verified_and_deterministic():
    res1 = construct_explicit(8, 2, e=3.0)
    res2 = construct_explicit(8, 2, e=3.0)
    assert res1[0].runs == res2[0].runs
    assert res1[1] == res2[1]
    assert max_undesired(res1[0]) <= 2


def test_construct_explicit_vacuous_lambda():
    seq, seed, a = construct_explicit(6, 6)
    assert seed == 0  # first seed qualifies when lam >= n
    assert seq.n == 6


def test_construct_explicit_rejects_bad_params():
    with pytest.raises(ParameterError):
        construct_explicit(8, 0)


def test_construct_explicit_budget_exhaustion():
    from insdelcode.errors import ConstructionFailure
    with pytest.raises(ConstructionFailure, match="max_seeds"):
        construct_explicit(12, 1, max_seeds=1)  # seed 0 is degenerate


def test_sequence_validation_and_json():
    with pytest.raises(UsageError):
        SeparatorSequence((0, 1), 2)
    with pytest.raises(UsageError):
        SeparatorSequence((3,), 2)
    seq = SeparatorSequence((2, 1, 2), 2)
    assert SeparatorSequence.from_json(seq.to_json()) == seq
