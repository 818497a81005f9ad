"""Residual-representer error indicators, Doerfler marking, adaptive loop."""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import pair_energies, step_record
from .assembly import check_norms
from .driver import solve_problem
from .kernels import constant_kernel_pair
from .mesh import initial_mesh, refine_marked
from .problems import make_problem
from .quadrature import N_OVER, gauss_legendre, mesh_pieces, row_dots


@dataclass
class IndicatorSet:
    """Per-interior-element squared indicators; their sum is the exact
    test-norm energy of the residual representer (not an estimate)."""

    elements: np.ndarray   # global element indices, ascending
    eta2: np.ndarray

    @property
    def total(self):
        return math.sqrt(self.eta2.sum())


def localize_indicator(psi, test, kernel, eps, norm):
    """Split the test-norm energy of psi into per-interior-element indicators.

    The seminorm part integrates x over each interior element; the part with
    x in an exterior element (where psi vanishes) is attributed to the inner
    element, so the indicators sum exactly to the global quadratic form.  The
    app norm adds the mean-free L2 density with the *global* mean; the eng
    norm is the plain seminorm density (no eps^2 factor - constant scalings
    do not change the marked set).  Any other norm raises ValueError.
    """
    check_norms((norm,))
    mesh = test.mesh
    interior = mesh.interior_elements
    coeffs = np.zeros(test.n_dofs)
    coeffs[test.free_dofs] = np.asarray(psi, dtype=float)

    pieces = mesh_pieces(mesh)
    val, = pair_energies(test, [(coeffs, None)], kernel, pieces)
    i, j = pieces[:2]
    last = mesh.n_elements - 1
    target = np.where((i > 0) & (i < last), i, j)
    inside = (target > 0) & (target < last)
    eta2 = np.zeros(len(interior))
    scale = eps**2 if norm == "app" else 1.0
    # unbuffered, in piece order: interior element e is entry e - 1
    np.add.at(eta2, target[inside] - 1, scale * val[inside])

    if norm == "app":
        nodes = mesh.nodes
        xs, ws = gauss_legendre(test.order + N_OVER).map_to(nodes[interior, None],
                                                            nodes[interior + 1, None])
        vals = test.values(coeffs, interior, xs)
        omega = nodes[-2] - nodes[1]
        # builtin sum adds the element sums in order (ndarray.sum would pair them)
        mean = sum(row_dots(ws, vals)) / omega
        eta2 += row_dots(ws, (vals - mean)**2)
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


def adaptive_loop(config, on_step=None):
    """Drive {assemble, solve, record, localize, mark, refine} for config.steps solves.

    ``config`` needs attributes problem, delta, eps, p, dp, norm, steps and
    theta; the problem is built from it.  The loop stops early when every
    indicator is zero.  ``on_step`` (optional) receives (step, mesh, result,
    indicators) after each solve.
    """
    mesh = initial_mesh(config.delta)
    kernel = constant_kernel_pair(mesh.delta)
    problem = make_problem(config.problem, config.eps, mesh.delta)
    records = []
    for step in range(max(1, config.steps)):
        result = solve_problem(mesh, problem, eps=config.eps, p=config.p,
                               dp=config.dp, norms=(config.norm,))[config.norm]
        records.append(step_record(step, mesh, result, records[-1] if records else None))

        indicators = localize_indicator(result.solution.psi, result.test, kernel,
                                        config.eps, config.norm)
        if on_step is not None:
            on_step(step, mesh, result, indicators)
        # stop once the representer energy is solver noise (exactly
        # representable solutions); marking roundoff would refine arbitrarily
        if indicators.total <= 1e-12 * (1.0 + float(np.linalg.norm(result.system.F))):
            break
        marked = dorfler_mark(indicators, config.theta)
        if marked.size == 0:
            break
        # free this step's G and B before the next step assembles
        del result
        mesh = refine_marked(mesh, marked)
    return records
