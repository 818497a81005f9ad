"""Error norms, convergence rates and the records of a refinement study.

The energy-norm errors and the indicators of ``adapt`` share one sweep,
``pair_energies``, over the piece table of the pair layer
(``quadrature.mesh_pieces``); each caller masks the rows it needs.  The rows
of all elements are evaluated together, in three array batches cut into
chunks under the budget that the assembly uses too (``quadrature.chunks``),
so the sweep has no fixed cost per element.  On a row with K_j contained in
the ball every (x, y) lies inside the horizon (see
``assembly.assemble_nonlocal_forms``), so its kernel weights are the
diffusion kernel's one value there times w_y, with no kernel evaluation; an
exact solution that several fields share is evaluated once per point set.
u_h is evaluated by ``Space.values``, whose rows sum as a single element's
do; the quadrature sums per piece (``quadrature.row_dots``) are dot products
for the same reason.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelPair
from .quadrature import (CLIPPED, CONTAINED, N_OVER, chunks, gauss_legendre, inner_points,
                         mesh_pieces, row_dots)


@dataclass
class ExperimentRecord:
    """One refinement-study row."""

    step: int
    h_min: float
    delta: float
    n_trial: int
    n_test: int
    err_energy: float
    rate_energy: float
    err_l2: float
    rate_l2: float


def step_record(step, mesh, result, prev, dof_rates=False):
    """The record of one solve; rates against ``prev``, the record before it.

    Rates are halving rates, or with ``dof_rates`` rates against trial-DOF
    growth; they are NaN at the first step (``prev`` None).
    """
    r_e = r_l = math.nan
    if prev is not None:
        if dof_rates:
            r_e = rate_dof(prev.err_energy, result.err_energy, prev.n_trial, result.n_trial)
            r_l = rate_dof(prev.err_l2, result.err_l2, prev.n_trial, result.n_trial)
        else:
            r_e = rate(prev.err_energy, result.err_energy)
            r_l = rate(prev.err_l2, result.err_l2)
    return ExperimentRecord(
        step=step, h_min=float(mesh.interior_widths.min()), delta=mesh.delta,
        n_trial=result.n_trial, n_test=result.n_test,
        err_energy=result.err_energy, rate_energy=r_e,
        err_l2=result.err_l2, rate_l2=r_l)


def _field_values(space, fields, elems, pts):
    """g = u_h - exact of every field at pts, whose row k lies in element
    elems[k]; an exact function that several fields share is evaluated once."""
    exact_at = {}
    out = []
    for coeffs, exact in fields:
        vals = np.zeros(pts.shape) if coeffs is None else space.values(coeffs, elems, pts)
        if exact is not None:
            if exact not in exact_at:
                exact_at[exact] = exact(pts)
            vals = vals - exact_at[exact]
        out.append(vals)
    return out


def pair_energies(space, fields, kernel, pieces):
    """The gamma-weighted squared-difference double integral of every piece.

    ``pieces`` is the table (i, j, lo, hi, case) of ``quadrature.mesh_pieces``
    or some of its rows; ``fields`` holds (coeffs, exact) pairs defining
    g = u_h - exact (either part may be None).  Returns one array per field,
    aligned with the rows:

        values[f][k] = int_{lo[k]}^{hi[k]} int_{K_j[k] ∩ B_delta(x)} gamma_diff (g(y)-g(x))^2 dy dx

    with the nested quadrature of the assembly, so the sums agree with the
    assembled quadratic forms to roundoff.  The rows run in three batches (K_j
    contained in the ball, the self window split at x, the clipped windows),
    in chunks of at most ``CHUNK_VALUES`` values (1 MB) per temporary.  No
    operation mixes rows, so each value equals that of its row alone.
    """
    i, j, lo, hi, case = pieces
    mesh = space.mesh
    if kernel.delta != mesh.delta:
        raise ValueError(f"kernel horizon {kernel.delta} is not the mesh's {mesh.delta}")
    n = space.order + N_OVER
    rule = gauss_legendre(n)
    q_in, w_in = rule.map_to(0.0, 1.0)
    nodes = mesh.nodes

    # per-element grids and field values for the contained case
    elem_y, elem_w = rule.map_to(nodes[:-1, None], nodes[1:, None])
    elem_vals = _field_values(space, fields, np.arange(mesh.n_elements), elem_y)

    values = [np.empty(len(i)) for _ in fields]
    contained, self_window = case == CONTAINED, i == j
    # pieces x outer points x split inner points x basis values of Space.values
    runs = [(batch, r) for batch in (contained, self_window, case == CLIPPED)
            for r in chunks(np.flatnonzero(batch), n * 2 * n * (space.order + 1))]
    for batch, r in runs:
        ib, jb = i[r], j[r]
        xb, wb = rule.map_to(lo[r, None], hi[r, None])
        if batch is contained:
            y, wy = elem_y[jb][:, None, :], elem_w[jb][:, None, :]
            fy = [v[jb][:, None, :] for v in elem_vals]
            # every (x, y) lies inside the horizon (see
            # ``assembly.assemble_nonlocal_forms``), where the kernel has one
            # value: the weights of every outer point are the same
            wK = kernel.diffusion_inside * wy
        else:
            # both self cases split the inner interval at x
            y, wy = inner_points(xb, (nodes[jb, None], nodes[jb + 1, None]), mesh.delta,
                                 q_in, w_in, split=batch is self_window)
            fy = _field_values(space, fields, jb, y)
            wK = kernel.eval_diffusion(y - xb[..., None]) * wy
        for v, vx, out in zip(fy, _field_values(space, fields, ib, xb), values):
            d = v - vx[..., None]
            out[r] = row_dots(wb, (wK * d * d).sum(axis=-1))
    return values


def energy_error_norms(space, coeffs, u_exact):
    """Absolute energy-norm error of u_h and the matching norm of u_exact.

    Both double integrals run over Omega x (Omega ∩ B_delta(x)) with the
    built-in kernel pair of the mesh's horizon: errors are reported on the
    solution domain, with the volumetric data held exact on the interaction
    collar.
    """
    pieces = mesh_pieces(space.mesh)
    i, j = pieces[:2]
    last = space.mesh.n_elements - 1
    interior = (i > 0) & (i < last) & (j > 0) & (j < last)
    err2, ex2 = pair_energies(space, [(coeffs, u_exact), (None, u_exact)],
                              KernelPair(space.mesh.delta), [a[interior] for a in pieces])
    return math.sqrt(err2.sum()), math.sqrt(ex2.sum())


def error_l2(space, coeffs, u_exact):
    """Relative L2(Omega) error; the interior domain only."""
    interior = space.mesh.interior_elements
    nodes = space.mesh.nodes
    xs, ws = gauss_legendre(space.order + N_OVER).map_to(nodes[interior, None],
                                                         nodes[interior + 1, None])
    ue = np.asarray(u_exact(xs), dtype=float)
    # builtin sum adds the element sums in order (ndarray.sum would pair them)
    num = sum(row_dots(ws, (space.values(coeffs, interior, xs) - ue) ** 2))
    den = sum(row_dots(ws, ue**2))
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
