"""Assembly of the discrete nonlocal operators and the mixed system.

The bilinear form is assembled in operator form, following the nested
integration driver: rows are (free) test functions integrated over the
interior domain, columns are trial basis functions fed through the nonlocal
diffusion/convection operators.  Since every test function vanishes on the
exterior elements, this operator form coincides with the symmetric
double-integral form of the diffusion inner product.

All matrices carry columns for *all* DOFs of the column space (free and
constrained); the constrained columns are what the boundary lift multiplies.
Rows are restricted to free test DOFs throughout.

The geometry of every element pair (its smooth pieces, their cases and the
inner nodes) comes from the pair layer in ``quadrature``, the only place that
holds the case logic.  This module keeps the integrands.  Both nonlocal forms,
(-L_delta u, v) and (G_delta u, v), read factor * int v(x) int (u(y) - u(x))
K(y - x) dy dx with their own factor and kernel K; the two-entry table
``FORMS`` holds them.  So each integrand case (the Taylor and the mirrored self
window, the clipped self window, and the off-diagonal pair with its
per-element tables for the contained case and its shared-vertex shift) is
written once, yields local blocks (columns, block) for every wanted form, and
one statement adds them into the matrices.  ``boundary_defect_load`` builds
its density from the same table.

One path builds the discrete problem, in two stages.  ``assemble_parts``
builds all but the Gram matrix once per mesh (the lift, B and F, freeing the
trial-column operators), and ``mixed_system_from_parts`` adds one test norm's
Gram matrix, so the systems of several norms share B, F and the lift.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import KernelPair
from .quadrature import (CONTAINED, N_OVER, SELF_CLIPPED, SELF_INSIDE, gauss_legendre,
                         inner_points, mesh_pieces, unit_rule)
from .space import boundary_lift


def _check_meshes(trial, test):
    if trial.mesh is not test.mesh and not np.array_equal(trial.mesh.nodes, test.mesh.nodes):
        raise ValueError("trial and test spaces must share one mesh")


def _free_row_data(space):
    rowmap = np.full(space.n_dofs, -1, dtype=int)
    rowmap[space.free_dofs] = np.arange(space.n_free)
    per_element = []
    for e in range(space.mesh.n_elements):
        rows = rowmap[space.element_dofs(e)]
        keep = rows >= 0
        per_element.append((rows[keep], keep))
    return per_element


class _Form(NamedTuple):
    """One nonlocal form: factor * int v(x) int (u(y) - u(x)) K(y - x) dy dx."""

    factor: float       # -2 or 1, folded into the kernel weights (an exact scaling)
    signed: Callable    # K on signed separations y - x
    mirrored: Callable  # K(|t|) for the mirrored self window y = x -+ t
    parity: int         # 0 for an even K, 1 for an odd one: the surviving Taylor powers


# diffusion (-L_delta u, v) and convection (G_delta u, v), in the order of the
# (A, C) pairs of assemble_nonlocal_forms
FORMS = (_Form(-2.0, KernelPair.eval_diffusion, KernelPair.eval_diffusion, 0),
         _Form(1.0, KernelPair.eval_convection_signed, KernelPair.eval_convection, 1))


def _taylor_matrix(space, wK_t, tau, parity):
    # finite Taylor expansion of L(xi +- tau) around xi: exact for polynomials
    # and free of the eps-level evaluation noise that the kernel would amplify
    M = np.zeros((space.order + 1, space.order + 1))
    fact = 1.0
    for m in range(1, space.order + 1):
        fact *= m
        if m % 2 == parity:
            M += 2.0 * (wK_t @ (tau**m)) / fact * space.diff_powers[m]
    return M


def assemble_nonlocal_forms(test, columns, kernel):
    """Assemble (-L_delta u, v) and (b.G_delta u, v) matrices in one sweep.

    ``columns`` is a sequence of (space, with_convection) pairs sharing the
    test space's mesh; the returned list holds one (A, C) pair per entry, C
    None where convection is not requested.  Rows are free test DOFs, columns
    all DOFs of the respective column space.
    """
    mesh = test.mesh
    delta = mesh.delta
    for space, _ in columns:
        _check_meshes(space, test)

    n_out = test.order + N_OVER
    n_in = max(test.order, max(s.order for s, _ in columns)) + N_OVER
    rule_out = gauss_legendre(n_out)
    rule_in = gauss_legendre(n_in)
    q_in, w_in = unit_rule(n_in)

    # indices into FORMS wanted by each column space: diffusion, then convection
    wants = [range(1 + conv) for _, conv in columns]

    # per-element inner grids and, per column space, basis tables for the
    # fully-contained case
    every = np.arange(mesh.n_elements)
    elem_y, elem_w = rule_in.map_to(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    tables = [space.local_basis(every[:, None], elem_y) for space, _ in columns]

    rows_of = _free_row_data(test)
    mats = [(np.zeros((test.n_free, s.n_dofs)),
             np.zeros((test.n_free, s.n_dofs)) if conv else None) for s, conv in columns]

    pieces = mesh_pieces(mesh)
    interior = (pieces[0] > 0) & (pieces[0] < mesh.n_elements - 1)
    for i, j, lo, hi, case in zip(*(a[interior] for a in pieces)):
        rows, keep = rows_of[i]
        bj = mesh.bounds(j)
        xs, wx = rule_out.map_to(lo, hi)
        Btx = test.local_basis(i, xs)
        wBtx = Btx * wx[:, None]
        contained = case == CONTAINED
        if case == SELF_INSIDE:
            # unclipped self window: pair mirrored points y = x -+ t so the
            # O(delta^-3) kernel multiplies symmetric differences of the basis
            # instead of two huge cancelling half-integrals
            t = delta * q_in
            wK = [form.factor * form.mirrored(kernel, t) * (delta * w_in) for form in FORMS]
            tau = 2.0 * t / (bj[1] - bj[0])
            taylor = tau[-1] <= 0.1
            yp, ym = xs[:, None] + t, xs[:, None] - t
        else:
            if contained:
                y, wy = elem_y[j], elem_w[j]
            else:
                y, wy = inner_points(xs, bj, delta, q_in, w_in,
                                     split=case == SELF_CLIPPED)
            s = (y[None, :] if contained else y) - xs[:, None]
            wK = [form.factor * form.signed(kernel, s) * wy for form in FORMS]
            sK = [w.sum(axis=-1) for w in wK]

        for (space, _), table, forms, mat in zip(columns, tables, wants, mats):
            Bx = Btx if space is test else space.local_basis(i, xs)
            cols_i = space.element_dofs(i)
            if case == SELF_INSIDE and not taylor:
                Byp = space.local_basis(i, yp)
                Bym = space.local_basis(i, ym)
            elif case != SELF_INSIDE:
                By = table[j] if contained else space.local_basis(j, y)
                if j == i:
                    # same column block: difference the basis values before
                    # applying the O(delta^-3) kernel weights, so the huge
                    # x-part/y-part cancellation never reaches the matrix
                    D = By - Bx[:, None, :]
                elif not contained and abs(j - i) == 1:
                    # adjacent window: shift both sides by the shared-vertex
                    # cardinal (exactly 1 at the shared node, so the two
                    # shifts cancel analytically); keeps the summands at the
                    # size of the continuous difference for delta << h
                    By = By.copy()
                    Bx = Bx.copy()
                    By[..., 0 if j > i else -1] -= 1.0
                    Bx[:, -1 if j > i else 0] -= 1.0

            # local blocks (columns, block) of each wanted form
            for f in forms:
                parity, wKf = FORMS[f].parity, wK[f]
                if case == SELF_INSIDE and taylor:
                    M = _taylor_matrix(space, wKf, tau, parity)
                    blocks = [(cols_i, wBtx.T @ (Bx @ M))]
                elif case == SELF_INSIDE:
                    # even part of the basis shift for an even kernel,
                    # odd part for an odd one
                    sym = Byp + Bym - 2.0 * Bx[:, None, :] if parity == 0 else Byp - Bym
                    blocks = [(cols_i, wBtx.T @ (wKf[None, :, None] * sym).sum(axis=1))]
                elif j == i:
                    blocks = [(cols_i, wBtx.T @ (wKf[:, :, None] * D).sum(axis=1))]
                else:
                    Z = wKf @ By if contained else (wKf[:, :, None] * By).sum(axis=1)
                    blocks = [(space.element_dofs(j), wBtx.T @ Z),
                              (cols_i, -((wBtx * sK[f][:, None]).T @ Bx))]
                for cols, block in blocks:
                    mat[f][rows[:, None], cols[None, :]] += block[keep]
    return mats


def assemble_mass_mean(test):
    """L2(Omega) mass matrix and mean vector on the free test DOFs."""
    rule = gauss_legendre(test.order + 1)
    rows_of = _free_row_data(test)
    M = np.zeros((test.n_free, test.n_free))
    m = np.zeros(test.n_free)
    for e in test.mesh.interior_elements:
        xs, ws = rule.map_to(*test.mesh.bounds(e))
        rows, keep = rows_of[e]
        Bk = test.local_basis(e, xs)[:, keep]
        M[np.ix_(rows, rows)] += Bk.T @ (Bk * ws[:, None])
        m[rows] += Bk.T @ ws
    return M, m


def load_vector(test, forcing):
    """(f, v) for all free test functions; f is evaluated on (0, 1) only."""
    rule = gauss_legendre(test.order + N_OVER)
    rows_of = _free_row_data(test)
    F = np.zeros(test.n_free)
    for e in test.mesh.interior_elements:
        xs, ws = rule.map_to(*test.mesh.bounds(e))
        rows, keep = rows_of[e]
        f = np.asarray(forcing(xs), dtype=float)
        F[rows] += test.local_basis(e, xs)[:, keep].T @ (ws * f)
    return F


def boundary_defect_load(test, trial, lift, boundary, eps, kernel):
    """b(w, v) for the collar interpolation defect w = g - (nodal lift of g).

    The volumetric data is imposed with its exact values: the discrete
    solution carries the nodal interpolant of g on the exterior elements and
    this functional accounts for the remainder, which is supported on the
    collar only (so only its y-part survives).  Without it the data error on
    the never-refined exterior elements caps the attainable accuracy.
    """
    mesh = test.mesh
    delta = mesh.delta
    rule_out = gauss_legendre(test.order + N_OVER)
    q_in, w_in = unit_rule(max(test.order, trial.order) + N_OVER)
    rows_of = _free_row_data(test)
    last = mesh.n_elements - 1
    i, j, lo, hi, _ = mesh_pieces(mesh)
    collar = (i > 0) & (i < last) & ((j == 0) | (j == last))

    F = np.zeros(test.n_free)
    for i, j, lo, hi in zip(i[collar], j[collar], lo[collar], hi[collar]):
        rows, keep = rows_of[i]
        bj = mesh.bounds(j)
        # the defect is integrated on the clipped window in every case
        xs, wx = rule_out.map_to(lo, hi)
        wBtx = test.local_basis(i, xs) * wx[:, None]
        y, wy = inner_points(xs, bj, delta, q_in, w_in, split=False)
        s = y - xs[:, None]
        defect = (np.asarray(boundary(y.ravel()), dtype=float).reshape(y.shape)
                  - trial.values(lift, np.full(len(y), j), y))
        # b(w, v) = eps (-L_delta w, v) + (G_delta w, v) by the form table
        dens = sum(form.factor * weight * form.signed(kernel, s)
                   for form, weight in zip(FORMS, (eps, 1.0))) * wy * defect
        F[rows] += (wBtx.T @ dens.sum(axis=1))[keep]
    return F


@dataclass
class SystemParts:
    """All of the discrete problem on one mesh but the norm's Gram matrix."""

    trial: object
    test: object
    eps: float
    A_vv: np.ndarray
    B: np.ndarray
    F: np.ndarray
    lift: np.ndarray


@dataclass
class MixedSystem:
    """Gram + bilinear-form matrix + load of the discrete mixed problem."""

    G: np.ndarray
    B: np.ndarray
    F: np.ndarray
    trial: object
    lift: np.ndarray


def assemble_parts(trial, test, kernel, eps, problem):
    """The norm-independent parts: A_vv, the lift, B = op on the free trial
    columns and F = (f, v) - op lift - b(w, v), op = eps A_vu + C_vu."""
    if test.n_free <= trial.n_free:
        raise ValueError("test space must be strictly richer than the trial space (dp >= 1)")
    (A_vu, C_vu), (A_vv, _) = assemble_nonlocal_forms(test, [(trial, True), (test, False)],
                                                      kernel)
    lift = boundary_lift(trial, problem.boundary)
    op = eps * A_vu + C_vu
    F = (load_vector(test, problem.forcing) - op @ lift
         - boundary_defect_load(test, trial, lift, problem.boundary, eps, kernel))
    return SystemParts(trial, test, eps, A_vv[:, test.free_dofs], op[:, trial.free_dofs],
                       F, lift)


def check_norm(norm):
    """Raise ValueError unless ``norm`` names a test norm, 'app' or 'eng'."""
    if norm not in ("app", "eng"):
        raise ValueError(f"unknown test norm {norm!r}, expected 'app' or 'eng'")


def assemble_gram(test, diffusion_vv, eps, norm):
    """Gram matrix of the chosen test-space norm on the free test DOFs.

    ``diffusion_vv`` is the free-column block of the test-space diffusion
    matrix.  'eng' is the nonlocal energy inner product; 'app' is
    eps^2 * energy + mean-free L2, the computable optimal-norm surrogate.
    """
    check_norm(norm)
    if norm == "eng":
        G = diffusion_vv
    else:
        M, m = assemble_mass_mean(test)
        omega = test.mesh.nodes[-2] - test.mesh.nodes[1]
        G = eps**2 * diffusion_vv + M - np.outer(m, m) / omega
    return 0.5 * (G + G.T)


def mixed_system_from_parts(parts, norm):
    """The discrete mixed problem for one test norm: the parts plus its Gram matrix."""
    return MixedSystem(G=assemble_gram(parts.test, parts.A_vv, parts.eps, norm),
                       B=parts.B, F=parts.F, trial=parts.trial, lift=parts.lift)
