"""Error indicators, Doerfler marking, and adaptive studies."""

import numpy as np
import pytest

import nlpg.adapt
from nlpg import experiments
from nlpg.adapt import IndicatorSet, dorfler_mark, localize_indicator
from nlpg.assembly import assemble_nonlocal_forms
from nlpg.driver import solve_problem
from nlpg.experiments import RunConfig, run
from nlpg.kernels import constant_kernel_pair
from nlpg.mesh import initial_mesh, refine_uniform
from nlpg.space import Space
from reference import gram


def test_zero_field_zero_indicators():
    test = Space(initial_mesh(0.1), 3)
    ind = localize_indicator(np.zeros(test.n_free), test, constant_kernel_pair(0.1),
                             0.01, "app")
    np.testing.assert_allclose(ind.eta2, 0.0)
    assert ind.total == 0.0


@pytest.mark.parametrize("norm", ["APP", "l2"])
def test_localize_indicator_rejects_unknown_norm(norm):
    test = Space(initial_mesh(0.1), 3)
    with pytest.raises(ValueError, match="unknown test norm"):
        localize_indicator(np.zeros(test.n_free), test, constant_kernel_pair(0.1), 0.01, norm)


@pytest.mark.parametrize("shape", ["scalar", "length 1", "length n + 1", "(n, 1)"])
def test_localize_indicator_rejects_psi_of_the_wrong_shape(monkeypatch, shape):
    # a scalar or a length-1 psi used to broadcast over every free DOF
    def not_reached(*args):
        raise AssertionError("swept with a psi of the wrong shape")

    test = Space(initial_mesh(0.1), 3)
    n = test.n_free
    psi = {"scalar": 1.0, "length 1": np.array([2.0]), "length n + 1": np.ones(n + 1),
           "(n, 1)": np.ones((n, 1))}[shape]
    monkeypatch.setattr(nlpg.adapt, "mesh_pieces", not_reached)
    with pytest.raises(ValueError, match=f"expected psi of length {n}, got shape"):
        localize_indicator(psi, test, constant_kernel_pair(0.1), 0.01, "app")


def test_indicator_support_locality():
    # a single bubble on element 3 only reaches its horizon neighbors (eng norm:
    # the app norm's global-mean term spreads over every element)
    delta = 0.01
    test = Space(initial_mesh(delta), 3)
    psi = np.zeros(test.n_free)
    bubble = np.where(test.free_dofs == test.element_dofs(3)[1])[0][0]
    psi[bubble] = 1.0
    ind = localize_indicator(psi, test, constant_kernel_pair(delta), 0.01, "eng")
    active = set(ind.elements[ind.eta2 > 0.0])
    assert active == {2, 3, 4}


@pytest.mark.parametrize("norm", ["app", "eng"])
@pytest.mark.parametrize("delta", [0.1, 1e-4])
def test_indicator_sum_matches_gram_quadratic_form(norm, delta):
    mesh = refine_uniform(initial_mesh(delta))
    test = Space(mesh, 3)
    kernel = constant_kernel_pair(delta)
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(test.n_free)
    ind = localize_indicator(psi, test, kernel, 0.01, norm)
    _, _, A_vv = assemble_nonlocal_forms(test, test)
    target = psi @ gram(test, A_vv.toarray(), 0.01, norm) @ psi
    assert ind.eta2.sum() == pytest.approx(target, rel=1e-10)


def test_dorfler_unit_cases():
    ind = IndicatorSet(elements=np.array([1, 2, 3, 4]),
                       eta2=np.array([4.0, 3.0, 2.0, 1.0]))
    assert list(dorfler_mark(ind, 0.1)) == [1]
    equal = IndicatorSet(elements=np.arange(1, 21), eta2=np.full(20, 0.3))
    assert len(dorfler_mark(equal, 0.1)) == 2
    assert len(dorfler_mark(ind, 1.0)) == 4
    with_zero = IndicatorSet(elements=np.array([1, 2, 3]),
                             eta2=np.array([1.0, 0.0, 2.0]))
    assert list(dorfler_mark(with_zero, 1.0)) == [1, 3]


def test_dorfler_empty_when_all_zero():
    ind = IndicatorSet(elements=np.arange(1, 6), eta2=np.zeros(5))
    assert dorfler_mark(ind, 0.1).size == 0


def test_dorfler_tie_break_prefers_lower_index():
    ind = IndicatorSet(elements=np.array([1, 2, 3]), eta2=np.array([2.0, 2.0, 2.0]))
    assert list(dorfler_mark(ind, 0.3)) == [1]


def test_dorfler_monotone_in_theta():
    rng = np.random.default_rng(1)
    ind = IndicatorSet(elements=np.arange(1, 31), eta2=rng.random(30))
    marked = [set(dorfler_mark(ind, th)) for th in (0.05, 0.1, 0.3, 0.6, 1.0)]
    for small, big in zip(marked[:-1], marked[1:]):
        assert small <= big


def test_dorfler_rejects_bad_theta():
    ind = IndicatorSet(elements=np.array([1]), eta2=np.array([1.0]))
    with pytest.raises(ValueError):
        dorfler_mark(ind, 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(ind, 1.5)


def test_adaptive_zero_steps_single_record():
    cfg = RunConfig(problem="smooth-nonlocal", delta=0.1, refinement="adaptive",
                    steps=0)
    recs = run(cfg)
    assert len(recs) == 1


def test_adaptive_run_reduces_smooth_error():
    cfg = RunConfig(problem="smooth-nonlocal", delta=0.1, refinement="adaptive",
                    steps=12)
    recs = run(cfg)
    assert recs[-1].err_energy < 0.1 * recs[0].err_energy
    assert recs[-1].n_trial > recs[0].n_trial


def test_adaptive_run_rejects_bad_theta_before_any_solve(monkeypatch):
    solves = []
    for module in (experiments, nlpg.adapt):
        monkeypatch.setattr(module, "solve_problem", lambda *args, **kw: solves.append(args))
    with pytest.raises(ValueError, match="theta: must lie in"):
        run(RunConfig(refinement="adaptive", theta=1.5, steps=2))
    assert solves == []


def test_adaptive_terminates_on_exactly_representable_solution():
    cfg = RunConfig(problem="linear", delta=0.1, refinement="adaptive", steps=50)
    recs = run(cfg)
    assert len(recs) < 50   # zero indicators end the loop early


def test_adaptive_sharp_concentrates_near_layer():
    # after 20 refinements the smallest element sits inside the boundary layer
    delta, eps = 1e-5, 0.01
    cfg = RunConfig(problem="sharp", delta=delta, eps=eps, dp=6, theta=0.1,
                    refinement="adaptive", steps=21)
    state = {}

    def watch(step, mesh, result, ind):
        state["mesh"] = mesh

    run(cfg, on_step=watch)
    mesh = state["mesh"]
    k = int(np.argmin(mesh.interior_widths))
    lo, hi = mesh.bounds(mesh.interior_elements[k])
    assert 1.0 - 10.0 * delta - 10.0 * eps < lo and hi <= 1.0
