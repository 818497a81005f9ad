"""Residual-representer error indicators, Doerfler marking and the adaptive step."""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import pair_energies
from .assembly import check_norms
# not called here: benchmark/workloads.py wraps nlpg.adapt.solve_problem
from .driver import solve_problem
from .kernels import constant_kernel_pair
from .mesh import refine_marked
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
    do not change the marked set).  Any other norm, and a psi that is not a
    vector over the free test DOFs, raise ValueError.
    """
    check_norms((norm,))
    if np.shape(psi) != (test.n_free,):
        raise ValueError(f"expected psi of length {test.n_free}, got shape {np.shape(psi)}")
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


def adaptive_step(mesh, result, config):
    """Localize, mark and bisect after one adaptive solve on ``mesh``.

    ``result`` is the solve's StepResult for ``config.norm``; ``config``
    needs eps, norm and theta.  Returns (indicators, next mesh), the next
    mesh None when the study should stop: every indicator is solver noise.
    """
    indicators = localize_indicator(result.solution.psi, result.test,
                                    constant_kernel_pair(mesh.delta), config.eps, config.norm)
    # stop once the representer energy is solver noise (exactly
    # representable solutions); marking roundoff would refine arbitrarily.
    # Past this test the eta2 sum is positive, so the marked set is not empty.
    if indicators.total <= 1e-12 * (1.0 + float(np.linalg.norm(result.system.F))):
        return indicators, None
    return indicators, refine_marked(mesh, dorfler_mark(indicators, config.theta))
