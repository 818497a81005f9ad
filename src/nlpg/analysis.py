"""Error norms, convergence rates, and the discrete optimal-norm diagnostic.

The energy-norm errors, the energy seminorm and the indicators of ``adapt``
share one sweep, ``pairwise_energy_contributions``.  It takes the pieces of
each outer element from the pair layer (``quadrature.element_pieces``) and
evaluates them in three array batches, so its cost per element is a fixed
number of numpy calls rather than one Python iteration per piece.  u_h is
evaluated by matrix-vector products (``@``), one per piece as for a single
element: g(y) - g(x) cancels for |y - x| <= delta, and a contraction that
sums in another order (``einsum``) moved the relative energy error at
delta = 1e-5 by 1.3e-11.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .assembly import assemble_nonlocal_forms
from .quadrature import (CLIPPED, CONTAINED, element_pieces, gauss_legendre, inner_points,
                         unit_rule)
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


def _field_values(space, field, elems, pts):
    """g = u_h - exact at pts, whose row k lies in element elems[k]."""
    coeffs, exact = field
    if coeffs is None:
        vals = np.zeros(pts.shape)
    else:
        basis = space.local_basis(elems.reshape((-1,) + (1,) * (pts.ndim - 1)), pts)
        # one matrix-vector product per row, as for a single element
        local = coeffs[space.element_dofs(elems)][:, :, None]
        vals = (basis.reshape(len(elems), -1, basis.shape[-1]) @ local).reshape(pts.shape)
    if exact is not None:
        vals = vals - exact(pts)
    return vals


def pairwise_energy_contributions(space, fields, kernel, outer_elements, n_over=13,
                                  inner_interior=False):
    """Per outer element, the gamma-weighted squared-difference double integrals.

    ``fields`` is a list of (coeffs, exact) pairs defining g = u_h - exact
    (either part may be None).  Yields (i, js, values) for every outer element
    K_i, where js[k] is the inner element of the k-th piece of
    ``element_pieces`` and

        values[f][k] = int_{piece k} int_{K_j ∩ B_delta(x)} gamma_diff (g(y)-g(x))^2 dy dx

    for field f, with the same pair layer and nested quadrature as the
    assembly, so the sums agree with the assembled quadratic forms to roundoff.
    The pieces of one element are evaluated in three batches (K_j contained in
    the ball, the self window split at x, and the clipped windows), each with
    one set of array operations.  ``inner_interior`` skips exterior inner
    elements (the Omega x Omega error convention).
    """
    mesh = space.mesh
    delta = mesh.delta
    n = space.order + n_over
    rule = gauss_legendre(n)
    q_in, w_in = unit_rule(n)
    nodes = mesh.nodes

    # per-element grids and field values for the contained case
    elem_y, elem_w = rule.map_to(nodes[:-1, None], nodes[1:, None])
    every = np.arange(mesh.n_elements)
    elem_vals = [_field_values(space, f, every, elem_y) for f in fields]

    for i in outer_elements:
        js, lo, hi, case = element_pieces(mesh, i)
        if inner_interior:
            interior = (js > 0) & (js < mesh.n_elements - 1)
            js, lo, hi, case = js[interior], lo[interior], hi[interior], case[interior]
        xs, wx = rule.map_to(lo[:, None], hi[:, None])
        fx = [_field_values(space, f, np.full(len(js), i), xs) for f in fields]
        values = [np.empty(len(js)) for _ in fields]
        contained, self_window = case == CONTAINED, js == i
        for batch in (contained, self_window, case == CLIPPED):
            if not batch.any():
                continue
            jb, xb, wb = js[batch], xs[batch], wx[batch]
            if batch is contained:
                y, wy = elem_y[jb][:, None, :], elem_w[jb][:, None, :]
                fy = [v[jb][:, None, :] for v in elem_vals]
            else:
                # both self cases split the inner interval at x
                y, wy = inner_points(xb, (nodes[jb, None], nodes[jb + 1, None]), delta,
                                     q_in, w_in, split=batch is self_window)
                fy = [_field_values(space, f, jb, y) for f in fields]
            wK = kernel.eval_diffusion(y - xb[..., None]) * wy
            for v, u, out in zip(fy, fx, values):
                d = v - u[batch][..., None]
                inner = (wK * d * d).sum(axis=-1)
                out[batch] = (wb[:, None, :] @ inner[..., None])[:, 0, 0]
        yield i, js, values


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
        err2 += a.sum()
        ex2 += b.sum()
    return math.sqrt(err2), math.sqrt(ex2)


def error_energy(space, coeffs, u_exact, kernel, n_over=13):
    """Relative error in the nonlocal energy norm (see energy_error_norms)."""
    err, ex = energy_error_norms(space, coeffs, u_exact, kernel, n_over)
    if ex == 0.0:
        raise ValueError("exact solution has zero energy norm")
    return err / ex


def energy_seminorm(space, coeffs, kernel, n_over=13):
    """S_delta seminorm of a discrete function, over the full Omega_delta."""
    total = sum(v[0].sum() for _, _, v in pairwise_energy_contributions(
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
