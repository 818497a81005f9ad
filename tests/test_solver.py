"""Mixed saddle-point solves: consistency, uniqueness, norm-scaling invariance."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import nlpg.assembly
import nlpg.driver
from nlpg.assembly import mixed_system_from_parts
from nlpg.driver import solve_problem
from nlpg.mesh import initial_mesh, refine_uniform, uniform_mesh
from nlpg.problems import Problem, make_problem
from nlpg.solver import IndefiniteGramError, InfSupError, _kkt_band, solve_mixed
from nlpg.space import Space
from reference import graded_mesh, interpolate, refined_solve


@pytest.mark.parametrize("delta", [0.1, 1e-4])
@pytest.mark.parametrize("norm", ["app", "eng"])
def test_linear_solution_reproduced(delta, norm):
    mesh = refine_uniform(initial_mesh(delta))
    problem = make_problem("linear", 0.01, delta)
    res = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=(norm,))[norm]
    expected = interpolate(res.trial, lambda x: x)[res.trial.free_dofs]
    assert np.abs(res.solution.u - expected).max() <= 1e-10
    assert np.linalg.norm(res.solution.psi) <= 1e-10 * (1 + np.linalg.norm(res.system.F))
    assert res.solution.residual_orthogonality <= 1e-10


def test_quintic_solution_reproduced_at_p5():
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    res = solve_problem(mesh, problem, eps=0.01, p=5, dp=2)["app"]
    expected = interpolate(res.trial, problem.u_exact)
    assert np.abs(res.coeffs - expected).max() <= 1e-8
    assert res.err_energy <= 1e-8


def test_zero_data_gives_zero_solution():
    mesh = initial_mesh(0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    _, systems = mixed_system_from_parts(trial, test, 0.01, Problem("zero", zero, zero),
                                         ("app",))
    system = systems["app"]
    sol = solve_mixed(system)
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-14)
    np.testing.assert_allclose(sol.psi, 0.0, atol=1e-14)


def test_solution_invariant_under_gram_scaling():
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    system = mixed_system_from_parts(trial, test, 0.01, problem, ("app",))[1]["app"]
    base = solve_mixed(system)
    # the whole Gram matrix: its band and its mean term, 7 m m^T / |Omega|
    m, omega = system.G.mean
    system.G = replace(system.G, data=7.0 * system.G.data, mean=(m, omega / 7.0))
    scaled = solve_mixed(system)
    np.testing.assert_allclose(scaled.u, base.u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(7.0 * scaled.psi, base.psi, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(base.psi).max()))


def test_enrichment_monotonicity():
    # app-norm error may not grow by more than 5% when dp goes from 2 to 3
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    e2 = solve_problem(mesh, problem, eps=0.01, p=1, dp=2)["app"].err_energy
    e3 = solve_problem(mesh, problem, eps=0.01, p=1, dp=3)["app"].err_energy
    assert e3 <= 1.05 * e2


def test_indefinite_gram_reported():
    mesh = initial_mesh(0.1)
    problem = make_problem("linear", 0.01, 0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    system = mixed_system_from_parts(trial, test, 0.01, problem, ("app",))[1]["app"]
    system.G = replace(system.G, data=-system.G.data)
    with pytest.raises(IndefiniteGramError):
        solve_mixed(system)


def test_indefinite_mean_term_reported():
    # S = G + m m^T / |Omega| stays SPD, but |Omega| shrinks to half of
    # m^T S^-1 m, so the border |Omega| - m^T S^-1 m of the SPD test is
    # negative and G is indefinite
    mesh = initial_mesh(0.1)
    problem = make_problem("linear", 0.01, 0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    system = mixed_system_from_parts(trial, test, 0.01, problem, ("app",))[1]["app"]
    G = system.G
    m, omega = G.mean
    mSm = m @ np.linalg.solve(G.toarray() + np.outer(m, m) / omega, m)
    assert 0.0 < mSm <= omega
    system.G = replace(G, mean=(m, 0.5 * mSm))
    system.G.data = G.data + G.mean_band() - system.G.mean_band()
    with pytest.raises(IndefiniteGramError, match="its mean term"):
        solve_mixed(system)


@pytest.mark.parametrize("norm", ["app", "eng"])
def test_rank_deficient_B_reported(norm):
    # a zero column of B: the trial function it multiplies never meets the
    # test space, so the KKT matrix is singular and its LU has a zero pivot
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    system = mixed_system_from_parts(trial, test, 0.01, problem, (norm,))[1][norm]
    # trial column 1: the column of B's band that holds its slots
    system.B.data[:, system.B.slot(0, 1)[1]] = 0.0
    with pytest.raises(InfSupError):
        solve_mixed(system)


def test_small_horizon_solve_is_the_refined_solve():
    # delta = 1e-4 on 640 elements: the former dense Cholesky-Schur solve
    # left u 5.4e-12 (relative) from the refined solve of the same G, B, F
    mesh = uniform_mesh(1e-4, 640)
    problem = make_problem("smooth-nonlocal", 0.01, 1e-4)
    res = solve_problem(mesh, problem, eps=0.01, p=1, dp=2)["app"]
    _, u = refined_solve(res.system.G.toarray(), res.system.B.toarray(), res.system.F)
    assert np.abs(res.solution.u - u).max() <= 1e-12 * np.abs(u).max()


def test_solution_reports_the_half_band_of_its_system():
    mesh = uniform_mesh(0.1, 40)
    res = solve_problem(mesh, make_problem("smooth-nonlocal", 0.01, 0.1), eps=0.01, p=1,
                        dp=2)["app"]
    assert res.solution.half_band == res.system.B.half_band > 0


def test_residual_diagnostics_small():
    mesh = refine_uniform(initial_mesh(0.1))
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    res = solve_problem(mesh, problem, eps=0.01, p=1, dp=2)["app"]
    assert res.solution.residual_primal <= 1e-10
    assert res.solution.residual_orthogonality <= 1e-10
    assert res.solution.schur_cond_estimate >= 1.0


@pytest.mark.parametrize("name, delta, n_interior, dp", [
    ("smooth-nonlocal", 0.1, 40, 2),
    ("smooth-nonlocal", 1e-4, 80, 2),
    ("sharp", 1e-5, 5, 6),
])
def test_schur_cond_estimate_tracks_the_1norm_condition(name, delta, n_interior, dp):
    # the estimate must be of kappa_1(S) itself, S = B^T G^-1 B: at most a
    # factor 10 below it and never above it (up to roundoff)
    problem = make_problem(name, 0.01, delta)
    res = solve_problem(uniform_mesh(delta, n_interior), problem, eps=0.01, p=1,
                        dp=dp)["app"]
    B = res.system.B.toarray()
    kappa = np.linalg.cond(B.T @ np.linalg.solve(res.system.G.toarray(), B), 1)
    assert kappa / 10 <= res.solution.schur_cond_estimate <= kappa * (1 + 1e-10)


def test_two_norm_step_shares_the_norm_independent_parts():
    # only the Gram matrix depends on the test norm
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    results = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=("app", "eng"))
    app, eng = results["app"].system, results["eng"].system
    assert app.B is eng.B and app.F is eng.F
    assert not np.array_equal(app.G.toarray(), eng.G.toarray())


def test_two_norm_step_builds_lift_and_load_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("boundary_lift", "load_vector", "boundary_defect_load"):
        monkeypatch.setattr(nlpg.assembly, name, counted(name, getattr(nlpg.assembly, name)))
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=("app", "eng"))
    assert calls == {"boundary_lift": 1, "load_vector": 1, "boundary_defect_load": 1}


@pytest.mark.parametrize("norms", [("app", "eng"), ("eng", "app")])
def test_two_norm_step_equals_two_one_norm_steps(norms):
    # both Gram matrices are built from the band of A_vv, which neither
    # build may change
    mesh = refine_uniform(initial_mesh(0.1))
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    both = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
    for norm in norms:
        one = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=(norm,))[norm]
        assert np.array_equal(both[norm].system.F, one.system.F)
        for name in ("G", "B"):
            assert np.array_equal(getattr(both[norm].system, name).toarray(),
                                  getattr(one.system, name).toarray())
        assert both[norm].err_energy == one.err_energy


@pytest.mark.parametrize("delta, n_interior", [(0.1, 80), (1e-4, 160), (0.01, 40)])
def test_a_norms_results_do_not_depend_on_the_order_of_the_norms(delta, n_interior):
    # whatever the order of the norms, each G must be the same band, or
    # G @ psi and the primal residual differ in their last bits
    mesh = uniform_mesh(delta, n_interior)
    problem = make_problem("smooth-nonlocal", 0.01, delta)
    results = [solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
               for norms in (("app", "eng"), ("eng", "app"))]
    for norm in ("app", "eng"):
        first, last = (r[norm] for r in results)
        psi = first.solution.psi
        assert np.array_equal(last.solution.psi, psi)
        assert np.array_equal(first.system.G @ psi, last.system.G @ psi)
        assert first.solution.residual_primal == last.solution.residual_primal


def test_memory_guard_stops_a_solve_that_cannot_fit(monkeypatch):
    # initial mesh, p = 1, dp = 2: n_test = 14, n_trial = 4 and a KKT
    # half-band of 9, so bands of 2 * 9 + 1 = 19 rows.  By the bound of
    # _check_memory a k-norm step takes 8 * 19 (4 + (k + 3) * 14 + 3 * 18)
    # bytes: 17328 for one norm, 19456 for two
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    build = nlpg.assembly.assemble_nonlocal_forms

    def not_reached(*args):
        raise AssertionError("assembled before the memory check")

    for norms, need in ((("app",), 17328), (("app", "eng"), 19456)):
        monkeypatch.setattr(nlpg.assembly, "assemble_nonlocal_forms", not_reached)
        monkeypatch.setattr(nlpg.assembly, "_memory_limit", lambda: need - 1)
        with pytest.raises(MemoryError, match=r"n_test = 14, n_trial = 4\), more than"):
            solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
        monkeypatch.setattr(nlpg.assembly, "assemble_nonlocal_forms", build)
        monkeypatch.setattr(nlpg.assembly, "_memory_limit", lambda: need)
        results = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
        assert [r.n_test for r in results.values()] == [14] * len(norms)


def test_builder_called_directly_stops_a_step_that_cannot_fit(monkeypatch):
    # the builder guards the step itself: a direct call past the memory
    # limit used to go on to assemble
    def not_reached(*args):
        raise AssertionError("assembled before the memory check")

    monkeypatch.setattr(nlpg.assembly, "assemble_nonlocal_forms", not_reached)
    monkeypatch.setattr(nlpg.assembly, "_memory_limit", lambda: 17328 - 1)
    mesh = initial_mesh(0.1)
    with pytest.raises(MemoryError, match=r"n_test = 14, n_trial = 4\), more than"):
        mixed_system_from_parts(Space(mesh, 1), Space(mesh, 3), 0.01,
                                make_problem("smooth-nonlocal", 0.01, 0.1), ("app",))


@pytest.mark.parametrize("norms, message", [
    (("opt",), "unknown test norm 'opt'"),
    (("app", "app"), "distinct"),
    ((), "at least one"),
    ("app", "a tuple of names, got the string 'app'"),
])
def test_norm_list_rejected_before_anything_is_built(monkeypatch, norms, message):
    # an unknown norm used to fail only after the assembly, a repeated one
    # was solved twice, and no norm at all assembled and returned {}
    def not_reached(*args):
        raise AssertionError("reached with a bad norm list")

    for module, name in ((nlpg.driver, "Space"), (nlpg.assembly, "_check_memory"),
                         (nlpg.driver, "mixed_system_from_parts")):
        monkeypatch.setattr(module, name, not_reached)
    with pytest.raises(ValueError, match=message):
        solve_problem(uniform_mesh(0.1, 160), make_problem("smooth-nonlocal", 0.01, 0.1),
                      eps=0.01, p=1, dp=2, norms=norms)


def test_zero_exact_energy_norm_rejected():
    # a constant exact solution has zero energy norm; the relative energy
    # error used to die with a bare ZeroDivisionError
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zeros = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(ValueError, match="exact solution has zero energy norm"):
        solve_problem(initial_mesh(0.1), Problem("const", ones, zeros), eps=0.01, p=1, dp=2)


def test_problem_made_for_another_horizon_rejected(monkeypatch):
    # the forcing of make_problem is derived for its own (eps, delta): a mesh
    # at delta = 0.1 with a problem made for delta = 0.05 reported
    # err_energy 0.1167 against 0.0690 without an error
    def not_reached(*args):
        raise AssertionError("assembled before the horizon check")

    mesh = uniform_mesh(0.1, 10)
    build = nlpg.driver.mixed_system_from_parts
    monkeypatch.setattr(nlpg.driver, "mixed_system_from_parts", not_reached)
    for eps, delta in ((0.01, 0.05), (0.02, 0.1)):
        with pytest.raises(ValueError, match=r"made for \(eps, delta\) = "):
            solve_problem(mesh, make_problem("smooth-nonlocal", eps, delta), eps=0.01, p=1,
                          dp=2)
    # a problem built by hand records no (eps, delta) and is not checked
    monkeypatch.setattr(nlpg.driver, "mixed_system_from_parts", build)
    made = make_problem("smooth-nonlocal", 0.01, 0.05)
    res = solve_problem(mesh, Problem(made.name, made.u_exact, made.forcing), eps=0.01, p=1,
                        dp=2)["app"]
    assert res.err_energy > 0.1


def test_one_layout_per_solve(monkeypatch):
    # the memory guard, the assembly and the systems share the KKT layout
    # that mixed_system_from_parts computes once
    calls = Counter()
    layout = nlpg.assembly.kkt_layout

    def counted(*args):
        calls["kkt_layout"] += 1
        return layout(*args)

    monkeypatch.setattr(nlpg.assembly, "kkt_layout", counted)
    mesh = uniform_mesh(0.1, 10)
    solve_problem(mesh, make_problem("smooth-nonlocal", 0.01, 0.1), eps=0.01, p=1, dp=2,
                  norms=("app", "eng"))
    assert calls == {"kkt_layout": 1}


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 40), graded_mesh(0.01), uniform_mesh(0.3, 8)],
                         ids=["uniform", "graded", "horizon-past-elements"])
@pytest.mark.parametrize("norm", ["app", "eng"])
def test_kkt_band_is_the_band_of_the_dense_kkt_matrix(mesh, norm):
    # the band that the solve factors and multiplies holds K0 = [[S, B],
    # [B^T, 0]] in position order, S = G + m m^T / |Omega|, byte for byte as
    # taken from the dense K0, with zeros past either end; the Cholesky band
    # is the lower band of S + I, the identity at the trial positions
    trial, test = Space(mesh, 1), Space(mesh, 3)
    problem = make_problem("smooth-nonlocal", 0.01, mesh.delta)
    system = mixed_system_from_parts(trial, test, 0.01, problem, (norm,))[1][norm]
    n, k = test.n_free, system.B.half_band
    order = np.argsort(np.concatenate((system.B.rows, system.B.cols)))
    K0 = np.zeros((len(order),) * 2)
    K0[:n, :n] = system.G.toarray()
    if norm == "app":
        m, omega = system.G.mean
        K0[:n, :n] += np.outer(m, m) / omega
    K0[:n, n:] = system.B.toarray()
    K0[n:, :n] = K0[:n, n:].T
    K0 = K0[np.ix_(order, order)]
    S_plus_I = K0.copy()
    S_plus_I[:, system.B.cols] = 0.0
    S_plus_I[system.B.cols, :] = 0.0
    S_plus_I[system.B.cols, system.B.cols] = 1.0

    def band(A, slots):
        out = np.zeros((len(slots), len(A)), order="F")
        a = np.arange(len(A)) + slots[:, None]   # the row of each slot
        inside = (a >= 0) & (a < len(A))
        out[inside] = A[a[inside], np.broadcast_to(np.arange(len(A)), a.shape)[inside]]
        return out

    band_K0, lower = _kkt_band(system.G, system.B)
    assert band_K0.tobytes() == band(K0, np.arange(-k, k + 1)).tobytes()
    assert lower.tobytes() == band(S_plus_I, np.arange(k + 1)).tobytes()


@pytest.mark.parametrize("delta, n_interior", [(0.1, 40), (1e-4, 40), (0.01, 20), (0.3, 8)])
@pytest.mark.parametrize("norm", ["app", "eng"])
def test_reported_residuals_are_those_of_the_returned_system(delta, n_interior, norm):
    # the solve's residuals, bit for bit as recomputed from the system by the
    # band products that the benchmark's residual check takes
    mesh = uniform_mesh(delta, n_interior)
    res = solve_problem(mesh, make_problem("smooth-nonlocal", 0.01, delta), eps=0.01, p=1,
                        dp=2, norms=(norm,))[norm]
    G, B, F = res.system.G, res.system.B, res.system.F
    u, psi = res.solution.u, res.solution.psi
    scale = 1.0 + np.linalg.norm(F)
    assert res.solution.residual_primal == np.linalg.norm(G @ psi + B @ u - F) / scale
    assert res.solution.residual_orthogonality == np.linalg.norm(B.T @ psi) / scale


def test_solve_peaks_at_three_bands_over_all_unknowns():
    # beside the system it is given, the solve holds K0, the Cholesky band
    # and the LU band, about 3 w N values for N unknowns and w = 2k + 1.  At
    # dp = 6 a transposed band of B beside K0 and the Cholesky band, and the
    # gather of K0's test columns that it was added to, peaked at 3.26 w N
    mesh = uniform_mesh(0.1, 320)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    for dp, bound in ((2, 3.3), (6, 3.15)):
        trial, test = Space(mesh, 1), Space(mesh, 1 + dp)
        system = mixed_system_from_parts(trial, test, 0.01, problem, ("app",))[1]["app"]
        k, N = system.B.half_band, system.B.size
        tracemalloc.start()
        try:
            solve_mixed(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * (2 * k + 1) * N, dp


def test_builder_lets_the_mass_matrix_go_once_it_is_added():
    # the 'app' Gram build held the mass matrix beside the mean term and the
    # transpose, and the builder peaked at 4.73 w n values there
    mesh = uniform_mesh(0.01, 1280)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    problem = make_problem("smooth-nonlocal", 0.01, 0.01)
    tracemalloc.start()
    try:
        system = mixed_system_from_parts(trial, test, 0.01, problem, ("app",))[1]["app"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * (2 * system.B.half_band + 1) * test.n_free


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 40), uniform_mesh(1e-4, 40),
                                  graded_mesh(0.01)], ids=["wide", "small", "graded"])
def test_eng_solve_is_the_mean_term_solve_with_m_zero(mesh):
    # both test norms take one path: an 'eng' solve has the bits of the
    # same solve with the mean term m = 0, |Omega| = 1
    trial, test = Space(mesh, 1), Space(mesh, 3)
    problem = make_problem("smooth-nonlocal", 0.01, mesh.delta)
    system = mixed_system_from_parts(trial, test, 0.01, problem, ("eng",))[1]["eng"]
    bordered = replace(system, G=replace(system.G, mean=(np.zeros(test.n_free), 1.0)))
    plain, zero = solve_mixed(system), solve_mixed(bordered)
    for name in ("psi", "u"):
        assert getattr(plain, name).tobytes() == getattr(zero, name).tobytes()
    for name in ("residual_primal", "residual_orthogonality", "schur_cond_estimate"):
        assert getattr(plain, name) == getattr(zero, name)


def test_memory_limit_is_a_plausible_size():
    assert 2**27 <= nlpg.assembly._memory_limit() < 2**50
