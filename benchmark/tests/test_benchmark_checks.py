"""Each benchmark check accepts the program's output and rejects a wrong one.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

import dataclasses
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, net_seconds, self_seconds  # noqa: E402

from nlpg.adapt import dorfler_mark, localize_indicator  # noqa: E402
from nlpg.driver import solve_problem  # noqa: E402
from nlpg.kernels import constant_kernel_pair  # noqa: E402
from nlpg.mesh import initial_mesh, refine_marked  # noqa: E402
from nlpg.problems import make_problem  # noqa: E402

SMOOTH = workloads.WORKLOADS["smooth-uniform-h"]
SMALL = workloads.WORKLOADS["small-horizon-uniform-h"]
SHARP = workloads.WORKLOADS["sharp-adaptive"]


def _with_problem(workload, problem):
    return dataclasses.replace(
        workload, config=dataclasses.replace(workload.config, problem=problem))


@pytest.fixture(scope="module")
def smooth_run():
    return workloads.run_study(SMOOTH, traced=False)


@pytest.fixture(scope="module")
def reference():
    return checks.exact_energy_norm(SMOOTH.config.delta)


def test_smooth_uniform_h_passes_every_check(smooth_run, reference):
    assert smooth_run["error"] is None
    assert len(smooth_run["solves"]) == SMOOTH.config.steps
    assert checks.failures(SMOOTH, smooth_run["solves"], reference) == {}


def test_perturbed_reference_norm_is_rejected(smooth_run, reference):
    bad = checks.failures(SMOOTH, smooth_run["solves"], reference * (1 + 1e-9))
    assert sorted(bad) == list(range(SMOOTH.config.steps))
    assert all("exact-solution norm" in why[0] for why in bad.values())


def test_local_forcing_fails_the_rate_window(reference):
    # x^5 is not the nonlocal solution for the local forcing: the error
    # stalls at the O(delta^2) model error and the h^2 rate is lost
    wrong = _with_problem(SMOOTH, "smooth-local-forcing")
    run = workloads.run_study(wrong, traced=False)
    bad = checks.failures(wrong, run["solves"], reference)
    last = range(SMOOTH.config.steps - checks.RATE_STEPS, SMOOTH.config.steps)
    assert set(last) <= set(bad)
    assert all(any("rate" in why for why in bad[k]) for k in last)


def _rate_obs(errs_energy, errs_l2):
    return [{"norms": {"app": {"residual": 0.0, "err_energy": e, "err_l2": l}},
             "exact_norm": []} for e, l in zip(errs_energy, errs_l2)]


def test_small_horizon_rate_windows():
    h = 0.5 ** np.arange(9)
    assert checks.failures(SMALL, _rate_obs(h**1.05, h**2)) == {}
    # an h^2 energy rate is as wrong here as a first-order L2 rate
    assert sorted(checks.failures(SMALL, _rate_obs(h**2, h**2))) == [6, 7, 8]
    assert sorted(checks.failures(SMALL, _rate_obs(h**1.05, h))) == [6, 7, 8]


def _sharp_step(psi_scale=1.0, refine=None):
    """Observations of one sharp-adaptive step on the initial mesh.

    ``psi_scale`` perturbs the representer before the observer sees it;
    ``refine`` picks the elements bisected (default: the Doerfler set).
    """
    cfg = SHARP.config
    mesh = initial_mesh(cfg.delta)
    problem = make_problem(cfg.problem, cfg.eps, cfg.delta)
    results = solve_problem(mesh, problem, eps=cfg.eps, p=cfg.p, dp=cfg.dp,
                            norms=(cfg.norm,))
    res = results[cfg.norm]
    indicators = localize_indicator(res.solution.psi, res.test,
                                    constant_kernel_pair(cfg.delta), cfg.eps, cfg.norm)
    res.solution.psi = res.solution.psi * psi_scale
    observer = workloads.StudyObserver(SHARP)
    observer.on_solve(results, mesh, problem)
    observer.on_indicators(indicators)
    marked = dorfler_mark(indicators, cfg.theta) if refine is None else refine(indicators)
    observer.on_refine(refine_marked(mesh, marked), mesh, marked)
    return observer.solves


def test_sharp_step_passes():
    assert checks.failures(SHARP, _sharp_step()) == {}


def test_perturbed_psi_fails_residual_and_indicator_sum():
    (why,) = checks.failures(SHARP, _sharp_step(psi_scale=1 + 1e-6)).values()
    assert any("residual" in w for w in why)
    assert any("indicator sum" in w for w in why)


def test_marking_below_theta_is_rejected():
    def smallest(ind):
        return ind.elements[[np.argmin(ind.eta2)]]
    (why,) = checks.failures(SHARP, _sharp_step(refine=smallest)).values()
    assert any("marked share" in w for w in why)


def test_overshoot_is_measured_at_the_vertices():
    mesh = initial_mesh(1e-5)
    coeffs = np.linspace(0.0, 1.0, mesh.n_elements + 1)
    assert workloads.overshoot_p1(coeffs, mesh) == 0.0
    coeffs[3] = 1.25
    assert workloads.overshoot_p1(coeffs, mesh) == pytest.approx(0.25)
    (obs,) = _sharp_step()
    obs["overshoot"] = 0.25
    assert checks.failures(SHARP, [obs]) == {0: [f"overshoot 0.25 > {checks.OVERSHOOT_MAX}"]}


def _adaptive_obs(ns, errs):
    (base,) = _sharp_step()
    return [dict(base, norms={"app": dict(base["norms"]["app"], n_trial=n, err_energy=e)})
            for n, e in zip(ns, errs)]


def test_adaptive_error_and_slope_checks():
    ns = np.arange(10, 50)
    assert checks.failures(SHARP, _adaptive_obs(ns, 1.0 / ns)) == {}
    rising = 1.0 / ns
    rising[5] = rising[4] * 1.01
    assert sorted(checks.failures(SHARP, _adaptive_obs(ns, rising))) == [5]
    slow = checks.failures(SHARP, _adaptive_obs(ns, ns**-0.5))
    assert sorted(slow) == list(range(20, 40))
    assert all("slope" in why[0] for why in slow.values())


def test_self_times_add_up_and_exclude_observers():
    calls = types.SimpleNamespace()
    calls.inner = lambda: time.sleep(0.01)

    def outer():
        calls.inner()
        time.sleep(0.01)
    calls.outer = outer
    tracer = Tracer()
    tracer.wrap(calls, "inner", "inner", observe=lambda out: time.sleep(0.02))
    tracer.wrap(calls, "outer", "outer")
    with tracer.span("root") as root:
        calls.outer()
    tracer.restore()
    assert calls.outer is outer
    own = self_seconds(tracer.spans)
    assert sum(own.values()) == pytest.approx(net_seconds(root), abs=1e-9)
    assert net_seconds(root) < 0.02 + 0.015       # the 0.02 s observer is left out
    assert own["inner"] >= 0.01 and own["outer"] >= 0.01
