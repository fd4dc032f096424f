import numpy as np
import pytest

from insdelcode.errors import CapacityError, InvalidSpecError, UsageError
from insdelcode.prg import PrgSpec, prg_bit, prg_generate, prg_verify_marginals


def test_spec_derivation():
    spec = PrgSpec(16, w=6)
    assert spec.epsilon == 0.25
    assert spec.d == 12
    spec2 = PrgSpec(16, epsilon=0.25)
    assert spec2.w == 6
    with pytest.raises(UsageError):
        PrgSpec(0, epsilon=0.5)


def test_zero_seed_halves():
    spec = PrgSpec(8, w=4)
    y_zero = spec.split_seed(0b0011_0000 << 0)  # x = 3, y = 0
    assert y_zero == (3, 0)
    assert not prg_generate(spec, 3 << 4).any()  # y = 0 -> all bits 0
    # x = 0: bit 0 = <x^0=1, y>, all later powers vanish
    y = 0b1011
    out = prg_generate(spec, y)  # x = 0, y
    assert out[0] == 1  # low bit of y
    assert not out[1:].any()


def test_pointwise_matches_stream():
    spec = PrgSpec(20, w=5)
    for seed in (1, 77, 341, 1023):
        stream = prg_generate(spec, seed)
        assert [prg_bit(spec, seed, i) for i in range(20)] == list(stream)


def test_seed_determinism_and_validation():
    spec = PrgSpec(10, w=4)
    assert list(prg_generate(spec, 99)) == list(prg_generate(spec, 99))
    with pytest.raises(UsageError):
        prg_generate(spec, 1 << spec.d)
    with pytest.raises(UsageError):
        prg_bit(spec, 0, 10)


def test_small_space_marginals_exhaustive():
    spec = PrgSpec(8, w=4)  # epsilon = 8/16 = 0.5
    for k in (1, 2, 3, 4):
        assert prg_verify_marginals(spec, k) <= spec.epsilon


def test_acceptance_scale_marginals():
    spec = PrgSpec(16, w=6)
    for k in (1, 2, 3):
        assert prg_verify_marginals(spec, k) <= 0.25


def test_degenerate_source_fails_and_uniform_passes():
    spec = PrgSpec(4, w=4)  # epsilon = 4/16 = 0.25

    def constant_ones(s, seed):
        return np.ones(s.n_g, dtype=np.int64)

    k = 2
    dev = prg_verify_marginals(spec, k, generate=constant_ones)
    assert dev == 1.0 - 2.0 ** -k  # point mass: far beyond epsilon
    assert dev > spec.epsilon

    def uniform_source(s, seed):
        return np.array([(seed >> i) & 1 for i in range(s.n_g)], dtype=np.int64)

    assert prg_verify_marginals(spec, 2, generate=uniform_source) == 0.0


def test_budget_guard():
    spec = PrgSpec(16, w=6)
    with pytest.raises(CapacityError):
        prg_verify_marginals(spec, 3, budget=10)


def test_field_built_once_and_lazily():
    spec = PrgSpec(100, w=20)
    assert spec.field() is spec.field()
    assert spec.field().degree == 20
    no_modulus = PrgSpec(10, w=70)  # no bundled degree-70 modulus
    with pytest.raises(InvalidSpecError):
        no_modulus.field()
