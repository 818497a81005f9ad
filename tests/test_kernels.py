"""Kernel pair normalizations and manufactured forcing functions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlpg.kernels import (constant_kernel_pair, exact_sharp, exact_smooth, forcing_sharp,
                          forcing_smooth_local, forcing_smooth_nonlocal)

DELTAS = (1e-4, 1e-3, 1e-2, 1e-1)


def test_diffusion_kernel_values():
    k = constant_kernel_pair(0.1)
    assert k.eval_diffusion(0.05) == pytest.approx(1500.0)
    assert k.eval_diffusion(0.2) == 0.0
    assert k.eval_diffusion(-0.05) == pytest.approx(1500.0)


def test_convection_kernel_values():
    k = constant_kernel_pair(0.1)
    assert k.eval_convection(-0.05) == pytest.approx(75.0)
    assert k.eval_convection(0.0) == 0.0
    assert k.eval_convection_signed(0.0) == 0.0
    assert k.eval_convection_signed(-0.05) == pytest.approx(-75.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        constant_kernel_pair(0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            constant_kernel_pair(bad)


@pytest.mark.parametrize("delta", DELTAS)
def test_second_moment_normalization(delta):
    # independent adaptive-quadrature oracle
    k = constant_kernel_pair(delta)
    val, _ = quad(lambda s: k.eval_diffusion(s) * s * s, -delta, delta, points=[0.0],
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", DELTAS)
def test_first_moment_normalization(delta):
    k = constant_kernel_pair(delta)
    val, _ = quad(lambda s: k.eval_convection(s) * abs(s), -delta, delta, points=[0.0],
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_kernel_relation_pointwise():
    rng = np.random.default_rng(7)
    for delta in (1e-3, 0.1):
        k = constant_kernel_pair(delta)
        s = rng.uniform(-delta, delta, size=1000)
        np.testing.assert_allclose(k.eval_convection(s),
                                   np.abs(s) * k.eval_diffusion(s),
                                   rtol=1e-13)


def test_forcing_smooth_nonlocal_values():
    assert forcing_smooth_nonlocal(0.0, 0.01, 0.1) == pytest.approx((3.0 / 7.0) * 0.1**4)
    assert forcing_smooth_nonlocal(1.0, 0.01, 0.0) == pytest.approx(4.8)


def test_forcing_smooth_nonlocal_matches_operator_application():
    # oracle: apply -eps*L + G to x^5 by adaptive quadrature
    eps, delta, x = 0.01, 0.1, 0.5
    k = constant_kernel_pair(delta)
    u = exact_smooth

    def integrand(s):
        du = u(x + s) - u(x)
        return (-2.0 * eps * k.eval_diffusion(s) + k.eval_convection_signed(s)) * du

    val, _ = quad(integrand, -delta, delta, points=[0.0], epsabs=1e-14, limit=200)
    assert forcing_smooth_nonlocal(x, eps, delta) == pytest.approx(val, abs=1e-10)


def test_forcing_smooth_local_values():
    assert forcing_smooth_local(0.0, 0.01) == 0.0
    assert forcing_smooth_local(1.0, 0.01) == pytest.approx(4.8)
    assert forcing_smooth_local(0.5, 0.01) == pytest.approx(0.2875)


def test_forcing_nonlocal_to_local_is_second_order_in_delta():
    eps = 0.01
    for x in (0.3, 0.7, 1.0):
        d1 = forcing_smooth_nonlocal(x, eps, 1e-2) - forcing_smooth_local(x, eps)
        d2 = forcing_smooth_nonlocal(x, eps, 5e-3) - forcing_smooth_local(x, eps)
        assert 3.5 <= d1 / d2 <= 4.5


def test_exact_sharp_boundary_values():
    assert exact_sharp(1.0, 0.01) == 0.0
    assert exact_sharp(0.0, 0.01) == pytest.approx(1.0, abs=1e-12)
    assert exact_sharp(0.5, 0.25) == pytest.approx(
        math.expm1(-2.0) / math.expm1(-4.0))


def test_forcing_sharp_matches_operator_application():
    # high-precision operator application of (-eps*L + G) to the sharp solution
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    eps, delta, x = mp.mpf("0.01"), mp.mpf("0.001"), mp.mpf("0.5")

    def u(t):
        return mp.expm1((t - 1) / eps) / mp.expm1(-1 / eps)

    gd = 3 / (2 * delta**3)

    def integrand(s):
        return (-2 * eps * gd + gd * s) * (u(x + s) - u(x))

    oracle = mp.quad(integrand, [-delta, 0, delta])
    ours = forcing_sharp(0.5, 0.01, 0.001)
    assert abs(ours - float(oracle)) <= 1e-8 * abs(float(oracle))


def test_forcing_sharp_branches_agree():
    # series vs closed form around the switch point
    lo = forcing_sharp(0.7, 0.01, 0.01 * 0.499)
    hi = forcing_sharp(0.7, 0.01, 0.01 * 0.501)
    assert lo == pytest.approx(hi, rel=1e-3)
    # huge delta/eps takes the regrouped-exponential path without overflowing
    val = forcing_sharp(0.2, 1e-3, 0.9)
    assert np.isfinite(val)
