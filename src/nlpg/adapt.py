"""Residual-representer error indicators, Doerfler marking, adaptive loop."""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ExperimentRecord, pairwise_energy_contributions, rate
from .driver import solve_problem
from .kernels import constant_kernel_pair
from .mesh import initial_mesh, refine_marked
from .quadrature import gauss_legendre


@dataclass
class IndicatorSet:
    """Per-interior-element squared indicators; their sum is the exact
    test-norm energy of the residual representer (not an estimate)."""

    elements: np.ndarray   # global element indices, ascending
    eta2: np.ndarray

    @property
    def total(self):
        return math.sqrt(self.eta2.sum())


def localize_indicator(psi, test, kernel, eps, norm, n_over=13):
    """Split the test-norm energy of psi into per-interior-element indicators.

    The seminorm part integrates x over each interior element; the part with
    x in an exterior element (where psi vanishes) is attributed to the inner
    element, so the indicators sum exactly to the global quadratic form.  The
    app norm adds the mean-free L2 density with the *global* mean; the eng
    norm is the plain seminorm density (no eps^2 factor - constant scalings
    do not change the marked set).
    """
    mesh = test.mesh
    interior = mesh.interior_elements
    coeffs = np.zeros(test.n_dofs)
    coeffs[test.free_dofs] = np.asarray(psi, dtype=float)

    eta2 = np.zeros(len(interior))
    scale = eps**2 if norm == "app" else 1.0
    for i, js, (val,) in pairwise_energy_contributions(
            test, [(coeffs, None)], kernel, range(mesh.n_elements), n_over):
        target = np.full(len(js), i) if mesh.is_interior(i) else js
        inside = (target > 0) & (target < mesh.n_elements - 1)
        # unbuffered, in piece order: interior element e is entry e - 1
        np.add.at(eta2, target[inside] - 1, scale * val[inside])

    if norm == "app":
        rule = gauss_legendre(test.order + n_over)
        weights, values = [], []
        for e in interior:
            xs, ws = rule.map_to(*mesh.bounds(e))
            weights.append(ws)
            values.append(test.local_basis(e, xs) @ coeffs[test.element_dofs(e)])
        omega = mesh.nodes[-2] - mesh.nodes[1]
        mean = sum(ws @ vals for ws, vals in zip(weights, values)) / omega
        for k, (ws, vals) in enumerate(zip(weights, values)):
            eta2[k] += ws @ (vals - mean)**2
    return IndicatorSet(elements=np.asarray(interior, dtype=int), eta2=eta2)


def dorfler_mark(indicators, theta):
    """Smallest set of elements carrying >= theta of the squared indicator sum.

    Elements are taken in decreasing eta2 order, ties broken by lower index.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"marking fraction theta must lie in (0, 1], got {theta}")
    total = indicators.eta2.sum()
    if total <= 0.0:
        return np.empty(0, dtype=int)
    order = np.lexsort((indicators.elements, -indicators.eta2))
    csum = np.cumsum(indicators.eta2[order])
    k = int(np.searchsorted(csum, theta * total * (1.0 - 1e-12))) + 1
    return np.sort(indicators.elements[order[:k]])


def adaptive_loop(problem, config, on_step=None):
    """Drive {assemble, solve, record, localize, mark, refine} for config.steps solves.

    ``config`` needs attributes delta, eps, p, dp, norm, steps, theta, n_over.
    The loop stops early when every indicator is zero.  ``on_step`` (optional)
    receives (step, mesh, result, indicators) after each solve.
    """
    mesh = initial_mesh(config.delta)
    kernel = constant_kernel_pair(config.delta)
    records = []
    prev = None
    for step in range(max(1, config.steps)):
        result = solve_problem(mesh, problem, eps=config.eps, p=config.p,
                               dp=config.dp, norms=(config.norm,),
                               n_over=config.n_over)[config.norm]
        rec = ExperimentRecord(
            step=step,
            h_min=float(mesh.interior_widths.min()),
            h_max=float(mesh.interior_widths.max()),
            delta=config.delta,
            n_trial=result.n_trial,
            n_test=result.n_test,
            err_energy=result.err_energy,
            rate_energy=rate(prev.err_energy, result.err_energy) if prev else math.nan,
            err_l2=result.err_l2,
            rate_l2=rate(prev.err_l2, result.err_l2) if prev else math.nan,
        )
        records.append(rec)
        prev = rec

        indicators = localize_indicator(result.solution.psi, result.test, kernel,
                                        config.eps, config.norm, config.n_over)
        if on_step is not None:
            on_step(step, mesh, result, indicators)
        # stop once the representer energy is solver noise (exactly
        # representable solutions); marking roundoff would refine arbitrarily
        if indicators.total <= 1e-12 * (1.0 + float(np.linalg.norm(result.system.F))):
            break
        marked = dorfler_mark(indicators, config.theta)
        if marked.size == 0:
            break
        mesh = refine_marked(mesh, marked)
    return records
