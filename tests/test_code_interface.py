"""Every code kind speaks one protocol: n, m, kappa, the alphabet q of its
messages and codewords, rate = m / n, decode inverting encode, and a JSON
round trip that keeps the code."""

import numpy as np
import pytest

from insdelcode.affine_insdel import affine_params
from insdelcode.gf import PrimeField
from insdelcode.hamming_ecc import concatenated_binary_code, rs_build
from insdelcode.linear_insdel import SystematicInsdelCode, build_monte_carlo


def monte_carlo_gf11():
    return build_monte_carlo(rs_build(PrimeField(11), 10, 4), seed=5, f=0.34,
                             a=12)


@pytest.mark.parametrize("make", [
    lambda: rs_build(PrimeField(7), 6, 2),
    lambda: concatenated_binary_code(b=3, n_out=7, m_out=3, inner_len=6,
                                     seed=0),
    monte_carlo_gf11,
    lambda: SystematicInsdelCode(monte_carlo_gf11()),
    lambda: affine_params(0.25, 8, seed=2),
], ids=["linear", "concatenated", "insdel", "systematic", "affine"])
def test_every_code_kind_speaks_one_protocol(make):
    code = make()
    assert code.rate == code.m / code.n
    assert code.kappa >= 0
    again = type(code).from_json(code.to_json())
    assert again.to_json() == code.to_json()
    rng = np.random.default_rng(code.n)
    messages = [[0] * code.m] + [[int(v) for v in rng.integers(0, code.q,
                                                                code.m)]
                                 for _ in range(4)]
    for x in messages:
        z = [int(v) for v in code.encode(x)]
        assert len(z) == code.n
        assert set(z) <= set(range(code.q))
        assert code.decode(z) == x
        assert [int(v) for v in again.encode(x)] == z
