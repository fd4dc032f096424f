import numpy as np
import pytest

from insdelcode.editops import insdel_channel
from insdelcode.errors import CapacityError, UsageError
from insdelcode.sync_string import (SyncString, construct_sync_string,
                                    index_recovery, verify_eta)
from oracles import edit_distance_recursive, verify_eta_reference

ETAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9)


def test_two_distinct_symbols_pass():
    ok, _ = verify_eta(SyncString((0, 1), 0.5, 4))
    assert ok
    ok, triple = verify_eta(SyncString((2, 2), 0.5, 4))
    assert not ok and triple == (0, 1, 2)


def test_constant_string_fails():
    ok, triple = verify_eta(SyncString((1, 1, 1, 1), 0.3, 2))
    assert not ok


def test_verify_matches_recursive_oracle():
    rng = np.random.default_rng(6)
    outcomes = set()
    for trial in range(25):
        n = int(rng.integers(2, 13))
        syms = tuple(int(v) for v in rng.integers(0, 4, n))
        s = SyncString(syms, 0.5, 4)
        ok, _ = verify_eta(s)
        want = True
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n + 1):
                    ed = edit_distance_recursive(syms[i:j], syms[j:k])
                    if ed <= (1 - 0.5) * (k - i):
                        want = False
        assert ok == want
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_verify_matches_table_reference():
    rng = np.random.default_rng(63)
    outcomes = set()
    for trial in range(2000):
        eta = ETAS[trial % len(ETAS)]
        long = trial % 40 == 0
        n = int(rng.integers(25, 61)) if long else int(rng.integers(1, 25))
        alphabet = int(rng.choice([2, 3, 8, 64, 1 << 20]))
        syms = tuple(int(v) for v in rng.integers(0, alphabet, n))
        got = verify_eta(SyncString(syms, eta, alphabet))
        assert got == verify_eta_reference(syms, eta)
        outcomes.add((got[0], long))
    assert outcomes == {(True, False), (False, False), (True, True),
                        (False, True)}


def test_verify_wide_strings_match_table_reference():
    # more than 63 symbols: the kernel runs on Python ints
    rng = np.random.default_rng(66)
    outcomes = set()
    for n, alphabet, repeat in [(61, 1 << 20, None), (64, 4, None),
                                (72, 1 << 20, 40), (80, 1 << 20, None)]:
        syms = [int(v) for v in rng.integers(0, alphabet, n)]
        if repeat is not None:  # one late violation
            syms[repeat + 1] = syms[repeat]
        s = SyncString(tuple(syms), 0.3, alphabet)
        with pytest.raises(CapacityError):
            verify_eta(s)
        got = verify_eta(s, budget_n=n)
        assert got == verify_eta_reference(syms, 0.3)
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_verify_budget_guard():
    s = SyncString(tuple(range(10)), 0.5, 16)
    with pytest.raises(CapacityError):
        verify_eta(s, budget_n=5)


def test_construct_trivial_and_deterministic():
    one = construct_sync_string(1, 0.5, 0)
    assert one.n == 1
    a = construct_sync_string(20, 0.5, 3)
    b = construct_sync_string(20, 0.5, 3)
    assert a.symbols == b.symbols
    assert a.alphabet_size == 64  # ceil(16 / 0.25)


def test_construct_passes_verifier():
    s = construct_sync_string(30, 0.5, 11)
    ok, _ = verify_eta(s)
    assert ok


def test_index_recovery_identity_and_empty():
    s = construct_sync_string(12, 0.5, 1)
    res = index_recovery(list(s.symbols), s)
    assert res.assigned == tuple(range(12))
    assert res.erasures == ()
    res = index_recovery([], s)
    assert res.assigned == ()
    assert res.erasures == tuple(range(12))


def test_index_recovery_single_deletion():
    s = construct_sync_string(10, 0.5, 2)
    for drop in range(10):
        readings = [v for i, v in enumerate(s.symbols) if i != drop]
        res = index_recovery(readings, s)
        assert res.erasures == (drop,)
        expected = [i for i in range(10) if i != drop]
        assert list(res.assigned) == expected


def test_assignment_monotone_under_channel():
    s = construct_sync_string(25, 0.3, 4)
    stream = list(s.symbols)
    for trial in range(40):
        rng = np.random.default_rng([31, trial])
        k = int(rng.integers(0, 6))
        n_ins = int(rng.integers(0, k + 1))
        corrupted = insdel_channel(stream, n_ins, k - n_ins, [32, trial],
                                   alphabet=s.alphabet_size)
        res = index_recovery(list(corrupted), s)
        hits = [v for v in res.assigned if v is not None]
        assert hits == sorted(hits)
        assert len(set(hits)) == len(hits)


def test_half_error_budget_empirical():
    # Operational version of the index-recovery guarantee: misassigned plus
    # erased positions stay within C * k / (1 - eta), C <= 4, under k insdels
    # on the annotated symbol stream.
    eta = 0.01
    s = construct_sync_string(40, eta, 17)
    kappa = 8
    worst = 0.0
    for trial in range(500):
        rng = np.random.default_rng([41, trial])
        k = int(rng.integers(0, kappa + 1))
        n_ins = int(rng.integers(0, k + 1))
        annotated = list(enumerate(s.symbols))  # (true index, symbol)
        stream = [sym for _, sym in annotated]
        # channel on the annotated stream: track origins through edits
        origins = list(range(len(stream)))
        chan_rng = np.random.default_rng([42, trial])
        n_del = k - n_ins
        if n_del:
            drop = sorted(chan_rng.choice(len(stream), n_del, replace=False),
                          reverse=True)
            for d in drop:
                del stream[d], origins[d]
        for _ in range(n_ins):
            pos = int(chan_rng.integers(0, len(stream) + 1))
            sym = int(chan_rng.integers(0, s.alphabet_size))
            stream.insert(pos, sym)
            origins.insert(pos, None)
        res = index_recovery(stream, s)
        misassigned = sum(
            1 for got, true in zip(res.assigned, origins)
            if got is not None and true is not None and got != true)
        score = misassigned + len(res.erasures)
        if k:
            worst = max(worst, score / k)
        else:
            assert score == 0
        assert score <= 4.0 * k / (1.0 - eta)
    assert worst <= 4.0 / (1.0 - eta)


def test_symbol_range_validation():
    with pytest.raises(UsageError):
        SyncString((5,), 0.5, 4)
    with pytest.raises(UsageError):
        SyncString((0,), 1.5, 4)


def test_json_round_trip():
    s = construct_sync_string(8, 0.4, 2)
    assert SyncString.from_json(s.to_json()) == s
