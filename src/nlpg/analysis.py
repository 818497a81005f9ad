"""Error norms, convergence rates, and the discrete optimal-norm diagnostic."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .assembly import assemble_nonlocal_forms
from .mesh import horizon_neighbors
from .quadrature import CONTAINED, gauss_legendre, inner_points, pair_pieces, unit_rule
from .solver import IndefiniteGramError


@dataclass
class ExperimentRecord:
    """One refinement-study row."""

    step: int
    h_min: float
    h_max: float
    delta: float
    n_trial: int
    n_test: int
    err_energy: float
    rate_energy: float
    err_l2: float
    rate_l2: float


def _element_values(space, field, e, pts):
    coeffs, exact = field
    if coeffs is None:
        vals = np.zeros(len(pts))
    else:
        vals = space.local_basis(e, pts) @ coeffs[space.element_dofs(e)]
    if exact is not None:
        vals = vals - exact(pts)
    return vals


def pairwise_energy_contributions(space, fields, kernel, outer_elements, n_over=13,
                                  inner_interior=False):
    """Per element pair, the gamma-weighted squared-difference double integral.

    ``fields`` is a list of (coeffs, exact) pairs defining g = u_h - exact
    (either part may be None).  Yields (i, j, values) with

        values[k] = int_{K_i} int_{K_j ∩ B_delta(x)} gamma_diff (g(y)-g(x))^2 dy dx

    using the same pair layer and nested quadrature as the assembly, so the
    sums agree with the assembled quadratic forms to roundoff.  ``inner_interior``
    skips exterior inner elements (the Omega x Omega error convention).
    """
    mesh = space.mesh
    delta = mesh.delta
    n = space.order + n_over
    rule = gauss_legendre(n)
    q_in, w_in = unit_rule(n)

    elem_y = [rule.map_to(*mesh.bounds(j)) for j in range(mesh.n_elements)]
    elem_vals = [[_element_values(space, f, j, elem_y[j][0]) for f in fields]
                 for j in range(mesh.n_elements)]

    for i in outer_elements:
        for j in horizon_neighbors(mesh, i):
            if inner_interior and not mesh.is_interior(j):
                continue
            bj = mesh.bounds(j)
            for lo, hi, case in pair_pieces(mesh, i, j):
                xs, wx = rule.map_to(lo, hi)
                fx = [_element_values(space, f, i, xs) for f in fields]
                if case == CONTAINED:
                    y, wy = elem_y[j]
                    fy = elem_vals[j]
                    s = y[None, :] - xs[:, None]
                    diff = [v[None, :] - u[:, None] for v, u in zip(fy, fx)]
                else:
                    # both self cases split the inner interval at x
                    y, wy = inner_points(xs, bj, delta, q_in, w_in, split=j == i)
                    nq = y.shape[1]
                    fy = [_element_values(space, f, j, y.ravel()).reshape(-1, nq)
                          for f in fields]
                    s = y - xs[:, None]
                    diff = [v - u[:, None] for v, u in zip(fy, fx)]
                wK = kernel.eval_diffusion(s) * wy
                yield i, j, [float(wx @ (wK * d * d).sum(axis=-1)) for d in diff]


def energy_error_norms(space, coeffs, u_exact, kernel, n_over=13):
    """Absolute energy-norm error of u_h and the matching norm of u_exact.

    Both double integrals run over Omega x (Omega ∩ B_delta(x)): errors are
    reported on the solution domain, with the volumetric data held exact on
    the interaction collar.
    """
    err2 = 0.0
    ex2 = 0.0
    fields = [(coeffs, u_exact), (None, u_exact)]
    for _, _, (a, b) in pairwise_energy_contributions(
            space, fields, kernel, space.mesh.interior_elements, n_over,
            inner_interior=True):
        err2 += a
        ex2 += b
    return math.sqrt(err2), math.sqrt(ex2)


def error_energy(space, coeffs, u_exact, kernel, n_over=13):
    """Relative error in the nonlocal energy norm (see energy_error_norms)."""
    err, ex = energy_error_norms(space, coeffs, u_exact, kernel, n_over)
    if ex == 0.0:
        raise ValueError("exact solution has zero energy norm")
    return err / ex


def energy_seminorm(space, coeffs, kernel, n_over=13):
    """S_delta seminorm of a discrete function, over the full Omega_delta."""
    total = sum(v[0] for _, _, v in pairwise_energy_contributions(
        space, [(coeffs, None)], kernel, range(space.mesh.n_elements), n_over))
    return math.sqrt(total)


def error_l2(space, coeffs, u_exact, n_over=13):
    """Relative L2(Omega) error; the interior domain only."""
    rule = gauss_legendre(space.order + n_over)
    num = 0.0
    den = 0.0
    coeffs = np.asarray(coeffs, dtype=float)
    for e in space.mesh.interior_elements:
        xs, ws = rule.map_to(*space.mesh.bounds(e))
        uh = space.local_basis(e, xs) @ coeffs[space.element_dofs(e)]
        ue = np.asarray(u_exact(xs), dtype=float)
        num += ws @ (uh - ue) ** 2
        den += ws @ ue**2
    if den == 0.0:
        raise ValueError("exact solution has zero L2 norm")
    return math.sqrt(num / den)


def rate(e_prev, e_next):
    """Halving rate log2(e_prev / e_next)."""
    if e_prev <= 0.0 or e_next <= 0.0:
        return math.nan
    return math.log2(e_prev / e_next)


def rate_dof(e_prev, e_next, n_prev, n_next):
    """Rate against DOF growth, ln(e_prev/e_next) / ln(n_next/n_prev)."""
    if e_prev <= 0.0 or e_next <= 0.0 or n_next <= n_prev:
        return math.nan
    return math.log(e_prev / e_next) / math.log(n_next / n_prev)


def loglog_slope(ns, errs):
    """Least-squares slope of log(err) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(errs, dtype=float)), 1)[0])


def compute_discrete_optimal_norm(v, test, kernel, eps, n_over=13):
    """Discrete optimal test norm of a free test-space vector.

    Evaluates eps^2 * energy + (w, A^{-1} w) with w the Galerkin image of the
    nonlocal gradient of v; an offline diagnostic, not a solver norm.
    """
    v = np.asarray(v, dtype=float)
    (A, C), = assemble_nonlocal_forms(test, [(test, True, True)], kernel, n_over)
    Aff = A[:, test.free_dofs]
    Aff = 0.5 * (Aff + Aff.T)
    w = C[:, test.free_dofs] @ v
    try:
        fac = cho_factor(Aff, lower=True)
    except LinAlgError as exc:
        raise IndefiniteGramError("diffusion Gram failed to factorize") from exc
    z = cho_solve(fac, w)
    return float(math.sqrt(eps**2 * (v @ Aff @ v) + w @ z))
