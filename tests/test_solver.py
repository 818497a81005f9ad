"""Mixed saddle-point solves: consistency, uniqueness, norm-scaling invariance."""

from collections import Counter

import numpy as np
import pytest

import nlpg.assembly
import nlpg.driver
from nlpg.assembly import assemble_parts, mixed_system_from_parts
from nlpg.driver import solve_problem
from nlpg.kernels import constant_kernel_pair
from nlpg.mesh import initial_mesh, refine_uniform, uniform_mesh
from nlpg.problems import Problem, make_problem
from nlpg.solver import IndefiniteGramError, solve_mixed
from nlpg.space import Space


@pytest.mark.parametrize("delta", [0.1, 1e-4])
@pytest.mark.parametrize("norm", ["app", "eng"])
def test_linear_solution_reproduced(delta, norm):
    mesh = refine_uniform(initial_mesh(delta))
    problem = make_problem("linear", 0.01, delta)
    res = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=(norm,))[norm]
    expected = res.trial.interpolate(lambda x: x)[res.trial.free_dofs]
    assert np.abs(res.solution.u - expected).max() <= 1e-10
    assert np.linalg.norm(res.solution.psi) <= 1e-10 * (1 + np.linalg.norm(res.system.F))
    assert res.solution.residual_orthogonality <= 1e-10


def test_quintic_solution_reproduced_at_p5():
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    res = solve_problem(mesh, problem, eps=0.01, p=5, dp=2)["app"]
    expected = res.trial.interpolate(problem.u_exact)
    assert np.abs(res.coeffs - expected).max() <= 1e-8
    assert res.err_energy <= 1e-8


def test_zero_data_gives_zero_solution():
    mesh = initial_mesh(0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    kernel = constant_kernel_pair(0.1)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    parts = assemble_parts(trial, test, kernel, 0.01, Problem("zero", zero, zero))
    system = mixed_system_from_parts(parts, ("app",))["app"]
    sol = solve_mixed(system)
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-14)
    np.testing.assert_allclose(sol.psi, 0.0, atol=1e-14)


def test_solution_invariant_under_gram_scaling():
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    kernel = constant_kernel_pair(0.1)
    system = mixed_system_from_parts(assemble_parts(trial, test, kernel, 0.01, problem),
                                     ("app",))["app"]
    base = solve_mixed(system)
    system.G = 7.0 * system.G
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
    kernel = constant_kernel_pair(0.1)
    system = mixed_system_from_parts(assemble_parts(trial, test, kernel, 0.01, problem),
                                     ("app",))["app"]
    system.G = -system.G
    with pytest.raises(IndefiniteGramError):
        solve_mixed(system)


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
    B = res.system.B
    kappa = np.linalg.cond(B.T @ np.linalg.solve(res.system.G, B), 1)
    assert kappa / 10 <= res.solution.schur_cond_estimate <= kappa * (1 + 1e-10)


def test_two_norm_step_shares_the_norm_independent_parts():
    # only the Gram matrix depends on the test norm
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    results = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=("app", "eng"))
    app, eng = results["app"].system, results["eng"].system
    assert app.B is eng.B and app.F is eng.F
    assert not np.array_equal(app.G, eng.G)


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
    # the last norm's Gram matrix is built in the storage of A_vv, the other
    # in a copy of it; neither may see the other's build
    mesh = refine_uniform(initial_mesh(0.1))
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    both = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
    for norm in norms:
        one = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=(norm,))[norm]
        for name in ("G", "B", "F"):
            assert np.array_equal(getattr(both[norm].system, name), getattr(one.system, name))
        assert both[norm].err_energy == one.err_energy


def test_memory_guard_stops_a_solve_that_cannot_fit(monkeypatch):
    # initial mesh, p = 1, dp = 2: n_test = 14, n_trial = 4.  The solves
    # hold every norm's G, one Cholesky factor, B and G^-1 B, so the dense
    # arrays take 8 ((k + 1) * 14**2 + 2 * 14 * 4) bytes for k norms: 4032
    # for one norm, 5600 for two
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    assemble_parts = nlpg.driver.assemble_parts

    def not_reached(*args):
        raise AssertionError("assembled before the memory check")

    for norms, need in ((("app",), 4032), (("app", "eng"), 5600)):
        monkeypatch.setattr(nlpg.driver, "assemble_parts", not_reached)
        monkeypatch.setattr(nlpg.driver, "_memory_limit", lambda: need - 1)
        with pytest.raises(MemoryError, match=r"n_test = 14, n_trial = 4\), more than"):
            solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
        monkeypatch.setattr(nlpg.driver, "assemble_parts", assemble_parts)
        monkeypatch.setattr(nlpg.driver, "_memory_limit", lambda: need)
        results = solve_problem(mesh, problem, eps=0.01, p=1, dp=2, norms=norms)
        assert [r.n_test for r in results.values()] == [14] * len(norms)


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

    for name in ("Space", "_check_memory", "assemble_parts"):
        monkeypatch.setattr(nlpg.driver, name, not_reached)
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


def test_memory_limit_is_a_plausible_size():
    assert 2**27 <= nlpg.driver._memory_limit() < 2**50
