"""Error norms and rates, and the reference optimal norm against the app norm."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from nlpg.adapt import localize_indicator
from nlpg.analysis import energy_error_norms, error_l2, pair_energies, rate, rate_dof
from nlpg.assembly import assemble_nonlocal_forms
from nlpg.kernels import constant_kernel_pair, exact_smooth
from nlpg.mesh import initial_mesh, refine_marked, refine_uniform, uniform_mesh
from nlpg.quadrature import (CHUNK_VALUES, CLIPPED, CONTAINED, N_OVER, chunks, gauss_legendre,
                             mesh_pieces, row_dots)
from nlpg.space import Space
from reference import (compute_discrete_optimal_norm, contained_meshes, energy_seminorm, gram,
                       hat_energy_by_quad, interpolate, loglog_slope)


def test_error_energy_zero_for_representable_solution():
    sp = Space(initial_mesh(0.1), 1)
    coeffs = interpolate(sp, lambda x: x)
    err, exact = energy_error_norms(sp, coeffs, lambda x: np.asarray(x, dtype=float))
    assert err <= 1e-10 * exact


def test_hat_seminorm_against_dense_integration():
    delta = 0.1
    mesh = initial_mesh(delta)
    sp = Space(mesh, 1)
    kernel = constant_kernel_pair(delta)
    c = np.zeros(sp.n_dofs)
    c[3] = 1.0   # hat at x = 0.4
    ours = energy_seminorm(sp, c)
    assert ours**2 == pytest.approx(hat_energy_by_quad(mesh, kernel), rel=1e-10)


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
    for mesh in (uniform_mesh(delta, 20), graded):
        for p in (1, 3):
            sp = Space(mesh, p)
            _, exact = energy_error_norms(sp, interpolate(sp, exact_smooth), exact_smooth)
            assert exact == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("delta", [0.1, 1e-4])
@pytest.mark.parametrize("p", [1, 7])
def test_pair_energies_of_a_table_equal_those_of_its_rows_alone(delta, p):
    # the indicators add these values into eta^2 piece by piece, so a row's
    # value must not depend on the rows it is evaluated with (its chunk)
    mesh = uniform_mesh(delta, 20)
    sp = Space(mesh, p)
    kernel = constant_kernel_pair(delta)
    coeffs = np.random.default_rng(3).standard_normal(sp.n_dofs)
    fields = [(coeffs, np.sin), (coeffs, None)]
    pieces = mesh_pieces(mesh)
    n = p + N_OVER
    if p == 7:   # the clipped batch alone spans several chunks
        assert (pieces[4] == CLIPPED).sum() > 2 * CHUNK_VALUES // (2 * n * n * (p + 1))
    whole = pair_energies(sp, fields, kernel, pieces)
    alone = [pair_energies(sp, fields, kernel, [a[k:k + 1] for a in pieces])
             for k in range(len(pieces[0]))]
    for f, values in enumerate(whole):
        assert np.array_equal(values, [v[f][0] for v in alone])


@pytest.mark.parametrize("name", contained_meshes())
@pytest.mark.parametrize("p", [1, 3, 9])
def test_contained_sweep_rows_have_the_bits_of_the_kernel_weights(name, p):
    # the CONTAINED batch weighs by the diffusion kernel's one value inside
    # the horizon; each of its values must be byte for byte the sweep's
    # arithmetic with the kernel weights eval_diffusion(y - x) * w_y
    mesh = contained_meshes()[name]
    sp, kernel = Space(mesh, p), constant_kernel_pair(mesh.delta)
    coeffs = np.random.default_rng(5).standard_normal(sp.n_dofs)
    pieces = mesh_pieces(mesh)
    i, j, lo, hi, case = pieces
    co = np.flatnonzero(case == CONTAINED)
    values, = pair_energies(sp, [(coeffs, np.sin)], kernel, pieces)
    rule = gauss_legendre(p + N_OVER)
    elem_y, elem_w = rule.map_to(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    g = lambda e, x: sp.values(coeffs, e, x) - np.sin(x)
    for r in chunks(co, len(rule.points) ** 2):
        xb, wb = rule.map_to(lo[r, None], hi[r, None])
        y, wy = elem_y[j[r]][:, None, :], elem_w[j[r]][:, None, :]
        d = g(j[r], elem_y[j[r]])[:, None, :] - g(i[r], xb)[..., None]
        wK = kernel.eval_diffusion(y - xb[..., None]) * wy
        assert values[r].tobytes() == row_dots(wb, (wK * d * d).sum(axis=-1)).tobytes()


def test_energy_sweep_evaluates_a_shared_exact_solution_once_per_point():
    # energy_error_norms sweeps u_h - u and u with the same u: each point of
    # the sweep must reach u once, as in a sweep of u_h - u alone, and the
    # values must not change
    for mesh in (uniform_mesh(0.1, 20), uniform_mesh(1e-4, 20)):
        sp = Space(mesh, 1)
        kernel = constant_kernel_pair(mesh.delta)
        coeffs = interpolate(sp, exact_smooth) + 1e-3
        pieces = mesh_pieces(mesh)
        seen = []

        def counted(x):
            seen.append(np.size(x))
            return exact_smooth(x)

        alone, = pair_energies(sp, [(coeffs, counted)], kernel, pieces)
        points = sum(seen)
        seen.clear()
        both = pair_energies(sp, [(coeffs, counted), (None, counted)], kernel, pieces)
        assert sum(seen) == points
        assert both[0].tobytes() == alone.tobytes()
        assert both[1].tobytes() == pair_energies(sp, [(None, exact_smooth)], kernel,
                                                  pieces)[0].tobytes()


def test_energy_sweep_rejects_a_kernel_of_another_horizon():
    # pair_energies and through it the indicators, whose kernel the caller
    # passes
    sp = Space(uniform_mesh(0.1, 10), 3)
    kernel = constant_kernel_pair(0.05)
    coeffs = np.ones(sp.n_dofs)
    calls = (lambda: pair_energies(sp, [(coeffs, None)], kernel, mesh_pieces(sp.mesh)),
             lambda: localize_indicator(np.zeros(sp.n_free), sp, kernel, 0.01, "app"))
    for call in calls:
        with pytest.raises(ValueError, match=r"kernel horizon 0.05 is not the mesh's 0.1"):
            call()


def test_error_energy_triangle_inequality():
    sp = Space(refine_uniform(initial_mesh(0.05)), 2)
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.standard_normal(sp.n_dofs)
        b = rng.standard_normal(sp.n_dofs)
        na = energy_seminorm(sp, a)
        nb = energy_seminorm(sp, b)
        nab = energy_seminorm(sp, a + b)
        assert nab <= na + nb + 1e-12


def test_error_l2_basics():
    sp = Space(initial_mesh(0.1), 2)
    coeffs = interpolate(sp, lambda x: x**2)
    assert error_l2(sp, coeffs, lambda x: np.asarray(x, dtype=float) ** 2) <= 1e-14
    # known interpolation error against an adaptive-quadrature oracle
    sp1 = Space(initial_mesh(0.1), 1)
    c1 = interpolate(sp1, lambda x: x**2)
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
    assert compute_discrete_optimal_norm(np.zeros(test.n_free), test, 0.01) == 0.0


def test_optimal_norm_local_limit_sine():
    # second term approaches ||v - mean(v)||^2 = 1/2 - 4/pi^2 as delta -> 0
    delta, eps = 1e-4, 0.01
    mesh = initial_mesh(delta)
    for _ in range(3):
        mesh = refine_uniform(mesh)
    test = Space(mesh, 3)
    v = interpolate(test, lambda x: np.sin(np.pi * x))[test.free_dofs]
    total = compute_discrete_optimal_norm(v, test, eps)
    energy = energy_seminorm(test, _free_to_full(test, v))
    second = total**2 - eps**2 * energy**2
    assert second == pytest.approx(0.5 - 4.0 / np.pi**2, rel=0.02)


def test_optimal_norm_close_to_app_norm():
    delta, eps = 1e-3, 0.01
    mesh = refine_uniform(refine_uniform(initial_mesh(delta)))
    test = Space(mesh, 3)
    _, _, A_vv = assemble_nonlocal_forms(test, test)
    G = gram(test, A_vv.toarray(), eps, "app")
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(test.n_free)
        app = math.sqrt(v @ G @ v)
        opt = compute_discrete_optimal_norm(v, test, eps)
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
        v = interpolate(test, lambda x: np.sin(2 * np.pi * x) + x * (1 - x))[test.free_dofs]
        _, _, A_vv = assemble_nonlocal_forms(test, test)
        G = gram(test, A_vv.toarray(), eps, "app")
        app = math.sqrt(v @ G @ v)
        opt = compute_discrete_optimal_norm(v, test, eps)
        gaps.append(abs(app - opt))
    assert gaps[0] > gaps[1] > gaps[2]


def _free_to_full(space, v):
    full = np.zeros(space.n_dofs)
    full[space.free_dofs] = v
    return full
