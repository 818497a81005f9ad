"""Error norms, rates, and the discrete optimal-norm diagnostic."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from nlpg.analysis import (compute_discrete_optimal_norm, energy_error_norms,
                           energy_seminorm, error_energy, error_l2, loglog_slope,
                           rate, rate_dof)
from nlpg.assembly import assemble_gram, assemble_nonlocal_forms
from nlpg.kernels import constant_kernel_pair, exact_smooth
from nlpg.mesh import initial_mesh, refine_marked, refine_uniform, uniform_mesh
from nlpg.space import Space


def test_error_energy_zero_for_representable_solution():
    sp = Space(initial_mesh(0.1), 1)
    kernel = constant_kernel_pair(0.1)
    coeffs = sp.interpolate(lambda x: x)
    assert error_energy(sp, coeffs, lambda x: np.asarray(x, dtype=float), kernel) <= 1e-10


def test_error_energy_rejects_zero_exact_norm():
    sp = Space(initial_mesh(0.1), 1)
    kernel = constant_kernel_pair(0.1)
    with pytest.raises(ValueError):
        error_energy(sp, np.zeros(sp.n_dofs), lambda x: np.ones_like(x), kernel)


def test_hat_seminorm_against_dense_integration():
    delta = 0.1
    mesh = initial_mesh(delta)
    sp = Space(mesh, 1)
    kernel = constant_kernel_pair(delta)
    c = np.zeros(sp.n_dofs)
    c[3] = 1.0   # hat at x = 0.4
    ours = energy_seminorm(sp, c, kernel)

    def phi(x):
        return max(0.0, 1.0 - abs(x - 0.4) / 0.2)

    def inner(x):
        lo, hi = max(-delta, x - delta), min(1 + delta, x + delta)
        breaks = [p for p in mesh.nodes if lo < p < hi]
        val, _ = quad(lambda y: kernel.eval_diffusion(y - x) * (phi(y) - phi(x)) ** 2,
                      lo, hi, points=breaks, limit=200, epsabs=1e-14)
        return val

    cuts = np.arange(0.1, 0.71, 0.1)
    oracle = sum(quad(inner, lo, hi, limit=200, epsabs=1e-13)[0]
                 for lo, hi in zip(cuts[:-1], cuts[1:]))
    assert ours**2 == pytest.approx(oracle, rel=1e-10)


def _x5_energy_norm(delta):
    # sqrt of int_0^1 int_{(0,1) ∩ B_delta(x)} (3/2) delta^-3 (y^5 - x^5)^2 dy dx,
    # with y = x + s and x mapped onto [0, 1] for each s
    with mpmath.workdps(30):
        d = mpmath.mpf(delta)

        def right(s, t):   # s in [0, delta], x in [0, 1 - s]
            x = (1 - s) * t
            return (1 - s) * ((x + s)**5 - x**5)**2

        def left(s, t):    # s in [-delta, 0], x in [-s, 1]
            x = -s + (1 + s) * t
            return (1 + s) * ((x + s)**5 - x**5)**2

        total = (mpmath.quad(right, [0, d], [0, 1], method="gauss-legendre")
                 + mpmath.quad(left, [-d, 0], [0, 1], method="gauss-legendre"))
        return float(mpmath.sqrt(mpmath.mpf(1.5) / d**3 * total))


@pytest.mark.parametrize("delta", [0.1, 0.01, 1e-4])
def test_exact_energy_norm_against_mpmath(delta):
    # the second value of energy_error_norms walks the contained, self and
    # clipped windows of the x^5 field; at delta = 0.1 the uniform mesh
    # (h = 0.05) has all three, the smaller horizons the last two
    graded = uniform_mesh(delta, 10)
    for _ in range(3):   # bisect towards x = 1 so neighbours differ in width
        graded = refine_marked(graded, [graded.n_elements - 2, graded.n_elements - 3])
    oracle = _x5_energy_norm(delta)
    kernel = constant_kernel_pair(delta)
    for mesh in (uniform_mesh(delta, 20), graded):
        for p in (1, 3):
            sp = Space(mesh, p)
            _, exact = energy_error_norms(sp, sp.interpolate(exact_smooth), exact_smooth,
                                          kernel)
            assert exact == pytest.approx(oracle, rel=1e-11)


def test_error_energy_triangle_inequality():
    sp = Space(refine_uniform(initial_mesh(0.05)), 2)
    kernel = constant_kernel_pair(0.05)
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.standard_normal(sp.n_dofs)
        b = rng.standard_normal(sp.n_dofs)
        na = energy_seminorm(sp, a, kernel)
        nb = energy_seminorm(sp, b, kernel)
        nab = energy_seminorm(sp, a + b, kernel)
        assert nab <= na + nb + 1e-12


def test_error_l2_basics():
    sp = Space(initial_mesh(0.1), 2)
    coeffs = sp.interpolate(lambda x: x**2)
    assert error_l2(sp, coeffs, lambda x: np.asarray(x, dtype=float) ** 2) <= 1e-14
    # known interpolation error against an adaptive-quadrature oracle
    sp1 = Space(initial_mesh(0.1), 1)
    c1 = sp1.interpolate(lambda x: x**2)
    num = sum(quad(lambda x: (np.interp(x, sp1.dof_positions[1:7],
                                        sp1.dof_positions[1:7] ** 2) - x**2) ** 2,
                   lo, lo + 0.2)[0] for lo in np.arange(0.0, 0.99, 0.2))
    den = quad(lambda x: x**4, 0, 1)[0]
    assert error_l2(sp1, c1, lambda x: np.asarray(x, dtype=float) ** 2) == \
        pytest.approx(math.sqrt(num / den), rel=1e-10)


def test_rate_values():
    assert rate(4e-2, 1e-2) == pytest.approx(2.0)
    assert rate(2e-3, 1e-3) == pytest.approx(1.0)
    assert math.isnan(rate(0.0, 1e-3))


def test_rates_reproduce_published_table_column():
    # fine-step halving rates recomputed from printed errors stay within 0.05
    # of the printed rates (printed rates are measured against DOF growth)
    errs = [7.36e-4, 1.80e-4, 4.46e-5, 1.11e-5, 2.77e-6]
    printed = [2.01, 2.01, 2.00, 2.00]
    ns = [79, 159, 319, 639, 1279]
    for k, target in enumerate(printed, start=1):
        assert abs(rate_dof(errs[k - 1], errs[k], ns[k - 1], ns[k]) - target) <= 0.05
        assert abs(rate(errs[k - 1], errs[k]) - target) <= 0.05


def test_loglog_slope():
    ns = np.array([10, 20, 40, 80])
    errs = 3.0 * ns**-2.0
    assert loglog_slope(ns, errs) == pytest.approx(-2.0)


def test_optimal_norm_zero_vector():
    test = Space(initial_mesh(0.1), 3)
    kernel = constant_kernel_pair(0.1)
    assert compute_discrete_optimal_norm(np.zeros(test.n_free), test, kernel, 0.01) == 0.0


def test_optimal_norm_local_limit_sine():
    # second term approaches ||v - mean(v)||^2 = 1/2 - 4/pi^2 as delta -> 0
    delta, eps = 1e-4, 0.01
    mesh = initial_mesh(delta)
    for _ in range(3):
        mesh = refine_uniform(mesh)
    test = Space(mesh, 3)
    kernel = constant_kernel_pair(delta)
    v = test.interpolate(lambda x: np.sin(np.pi * x))[test.free_dofs]
    total = compute_discrete_optimal_norm(v, test, kernel, eps)
    energy = energy_seminorm(test, _free_to_full(test, v), kernel)
    second = total**2 - eps**2 * energy**2
    assert second == pytest.approx(0.5 - 4.0 / np.pi**2, rel=0.02)


def test_optimal_norm_close_to_app_norm():
    delta, eps = 1e-3, 0.01
    mesh = refine_uniform(refine_uniform(initial_mesh(delta)))
    test = Space(mesh, 3)
    kernel = constant_kernel_pair(delta)
    (Avv, _), = assemble_nonlocal_forms(test, [(test, True, False)], kernel)
    G = assemble_gram(test, Avv[:, test.free_dofs], eps, "app")
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(test.n_free)
        app = math.sqrt(v @ G @ v)
        opt = compute_discrete_optimal_norm(v, test, kernel, eps)
        assert 0.8 <= app / opt <= 1.25


def test_optimal_norm_shrinks_toward_app_with_delta():
    # the gap to the app norm decreases monotonically over decreasing horizons
    # (the mesh must resolve the field so the horizon effect dominates)
    eps = 0.01
    gaps = []
    for delta in (1e-2, 1e-3, 1e-4):
        mesh = initial_mesh(delta)
        for _ in range(3):
            mesh = refine_uniform(mesh)
        test = Space(mesh, 2)
        kernel = constant_kernel_pair(delta)
        v = test.interpolate(lambda x: np.sin(2 * np.pi * x) + x * (1 - x))[test.free_dofs]
        (Avv, _), = assemble_nonlocal_forms(test, [(test, True, False)], kernel)
        G = assemble_gram(test, Avv[:, test.free_dofs], eps, "app")
        app = math.sqrt(v @ G @ v)
        opt = compute_discrete_optimal_norm(v, test, kernel, eps)
        gaps.append(abs(app - opt))
    assert gaps[0] > gaps[1] > gaps[2]


def _free_to_full(space, v):
    full = np.zeros(space.n_dofs)
    full[space.free_dofs] = v
    return full
