"""Checks of a study's outputs against independent values and method properties.

Nothing here compares with a stored copy of earlier output.  The checks are:

* residuals of the mixed system recomputed from G, B and F at every solve;
* the exact-solution energy norm that the errors are divided by, against an
  mpmath integral of the same double integral;
* convergence-rate windows on the last three steps of the uniform studies;
* for the adaptive study: indicators summing to the representer's Gram
  energy, Doerfler marking carrying theta of it, a falling energy error, the
  log-log slope over the last 20 steps, and the overshoot of [0, 1].

`failures` maps each solve a check covers to the reasons it failed.
"""

import math

import mpmath
import numpy as np

RESIDUAL_TOL = 1e-10      # relative to 1 + |F|
NORM_TOL = 1e-11          # relative; measured <= 2.2e-13
RATE_STEPS = 3            # rate windows apply to the last three steps
# (energy window, L2 window) of the halving rates.  The smooth L2 rates
# approach 2 from above (eng: 2.104, 2.049, 2.024), hence the 2.15.
RATE_WINDOWS = {
    "smooth-uniform-h": ((1.9, 2.1), (1.9, 2.15)),
    "small-horizon-uniform-h": ((0.9, 1.2), (1.9, 2.1)),
}
GAP_TOL = 1e-10           # relative indicator-sum gap; measured <= 1.2e-11
SLOPE_STEPS = 20
SLOPE_WINDOW = (-1.3, -0.8)
OVERSHOOT_MAX = 0.05


def exact_energy_norm(delta, dps=20):
    """sqrt of int_0^1 int_{(0,1) ∩ B_delta(x)} 3/(2 delta^3) (y^5 - x^5)^2 dy dx.

    The nonlocal energy norm of x^5 on the solution domain, by mpmath
    quadrature split where the integrand's limits or smoothness change.
    """
    with mpmath.workdps(dps):
        d = mpmath.mpf(delta)

        def inner(x):
            lo, hi = max(mpmath.mpf(0), x - d), min(mpmath.mpf(1), x + d)
            return mpmath.quad(lambda y: (y**5 - x**5) ** 2, [lo, x, hi])

        breaks = sorted({mpmath.mpf(0), d, 1 - d, mpmath.mpf(1)})
        return float(mpmath.sqrt(3 / (2 * d**3) * mpmath.quad(inner, breaks)))


def rates(errs):
    """Halving rates log2(e_{k-1} / e_k); rates[k - 1] belongs to step k."""
    errs = np.asarray(errs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(errs[:-1] / errs[1:])


def loglog_slope(ns, errs):
    """Least-squares slope of log(err) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(errs, dtype=float)), 1)[0])


def _inside(x, window):
    return window[0] <= x <= window[1]     # False for NaN


def failures(workload, solves, reference_norm=None):
    """{solve index: [reason, ...]} for every check that fails.

    ``solves`` are the observations of workloads.StudyObserver, one per solve
    in study order; ``reference_norm`` is exact_energy_norm(delta) for the
    x^5 problems and None otherwise.
    """
    cfg = workload.config
    bad = {}

    def fail(k, why):
        bad.setdefault(k, []).append(why)

    for k, obs in enumerate(solves):
        for norm, o in obs["norms"].items():
            if not o["residual"] <= RESIDUAL_TOL:
                fail(k, f"{norm} residual {o['residual']:.3e} > {RESIDUAL_TOL:g}")
        if reference_norm is not None:
            if len(obs["exact_norm"]) != len(obs["norms"]):
                fail(k, "exact-solution norm not observed")
            for v in obs["exact_norm"]:
                dev = abs(v - reference_norm) / reference_norm
                if not dev <= NORM_TOL:
                    fail(k, f"exact-solution norm off the mpmath value by {dev:.3e}")

    if workload.name in RATE_WINDOWS:
        energy_window, l2_window = RATE_WINDOWS[workload.name]
        for norm in workload.norms:
            for key, window in (("err_energy", energy_window), ("err_l2", l2_window)):
                r = rates([obs["norms"][norm][key] for obs in solves])
                for k in range(max(1, len(solves) - RATE_STEPS), len(solves)):
                    if not _inside(r[k - 1], window):
                        fail(k, f"{norm} {key} rate {r[k - 1]:.3f} outside {window}")

    if cfg.refinement == "adaptive":
        errs = [obs["norms"][cfg.norm]["err_energy"] for obs in solves]
        for k, obs in enumerate(solves):
            gap = indicator_gap(obs)
            if not gap <= GAP_TOL:
                fail(k, f"indicator sum off psi^T G psi by {gap:.3e}")
            if not obs.get("marked_share", -1.0) >= cfg.theta * (1.0 - 1e-12):
                fail(k, f"marked share {obs.get('marked_share')} < theta {cfg.theta}")
            if not obs.get("overshoot", math.inf) <= OVERSHOOT_MAX:
                fail(k, f"overshoot {obs.get('overshoot')} > {OVERSHOOT_MAX}")
            if k and not errs[k] < errs[k - 1]:
                fail(k, f"energy error rose: {errs[k - 1]:.4e} -> {errs[k]:.4e}")
        if len(solves) >= SLOPE_STEPS:
            tail = solves[-SLOPE_STEPS:]
            slope = loglog_slope([o["norms"][cfg.norm]["n_trial"] for o in tail],
                                 errs[-SLOPE_STEPS:])
            if not _inside(slope, SLOPE_WINDOW):
                for k in range(len(solves) - SLOPE_STEPS, len(solves)):
                    fail(k, f"log-log slope {slope:.3f} outside {SLOPE_WINDOW}")
    return bad


def indicator_gap(obs):
    """|sum eta^2 - psi^T G psi| / psi^T G psi of one adaptive solve."""
    if "eta2_sum" not in obs:
        return math.inf
    return abs(obs["eta2_sum"] - obs["gram_energy"]) / obs["gram_energy"]
