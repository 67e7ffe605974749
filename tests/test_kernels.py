"""The numpy kernels must agree with directly coded formulas."""

import numpy as np
import pytest

from gkdvlab import _kernels


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coupled_powers_backends_agree(p):
    rng = np.random.default_rng(11)
    u = rng.standard_normal(257)
    v = rng.standard_normal(257)
    a, b = _kernels.coupled_powers(u, v, p)
    direct_a = u**p * v ** (p + 1)
    direct_b = u ** (p + 1) * v**p
    assert np.allclose(a, direct_a, rtol=1e-13)
    assert np.allclose(b, direct_b, rtol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coupled_powers_can_overwrite_their_factors(p):
    # the RHS workspace has the products written over the padded samples
    rng = np.random.default_rng(12)
    u = rng.standard_normal((3, 257))
    v = rng.standard_normal((3, 257))
    fresh = _kernels.coupled_powers(u, v, p)
    a, b = _kernels.coupled_powers(u, v, p, out=(v, u))
    assert a is v and b is u
    assert np.array_equal(a, fresh[0]) and np.array_equal(b, fresh[1])


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("overwrite", [False, True])
def test_coupled_powers_equal_the_expression(p, overwrite):
    # bit for bit: p = 1 skips the power, p = 2 takes numpy's square and
    # p = 3 the generic power
    rng = np.random.default_rng(13)
    u = rng.standard_normal((2, 257))
    v = rng.standard_normal((2, 257))
    base = (u * v) ** p
    expect = (base * v, base * u)
    out = (v, u) if overwrite else (None, None)
    got = _kernels.coupled_powers(u, v, p, out=out)
    for a, b in zip(got, expect):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_bourgain_weight_backends_agree():
    zeta = np.linspace(-8, 8, 33)
    eta = np.linspace(-30, 30, 24)
    w = _kernels.bourgain_weight(zeta, eta, 0.3, 1.5, 0.55)
    assert w.shape == (24, 33)
    # spot-check the formula at a few entries
    for l, k in ((0, 0), (5, 17), (23, 32)):
        az = 1.0 + abs(zeta[k])
        expect = np.exp(0.3 * az) * az**1.5 * (1.0 + abs(eta[l] - zeta[k] ** 3)) ** 0.55
        assert np.isclose(w[l, k], expect, rtol=1e-13)

