"""Assembly of the discrete nonlocal operators and the mixed system.

The bilinear form is assembled in operator form, by the nested integration
of ``quadrature``: rows are (free) test functions integrated over the
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
``FORMS`` holds them.  The assembly walks the piece table in chunks of
consecutive rows (``quadrature.chunks``).  Within a chunk each integrand case
(the Taylor and the mirrored self window, the clipped self window, K_j
contained in the ball, and the clipped pair with its shared-vertex shift)
evaluates all of its rows at once with stacked ``@``, and fills the two local
blocks of every piece and wanted form: the j block, then the i block.  One
unbuffered ``np.add.at`` per chunk and matrix adds them in table order, so
every entry receives its additions one by one in the order of the table, as a
loop over the pieces would add them, whatever the chunk size.
``boundary_defect_load`` walks the collar rows of the same table the same way
and builds its density from the same form table.

The mass matrix, the mean vector and the load are summed the same way: the
products of all interior elements at once, then one unbuffered ``np.add.at``
in element order.

One path builds the discrete problem, in two stages.  ``assemble_parts``
builds all but the Gram matrices once per mesh (the lift, B and F, forming
op = eps A_vu + C_vu in the storage of A_vu), and ``mixed_system_from_parts``
adds the Gram matrix of each test norm of the step, so the systems of the
norms share B and F.  It checks the norm list (``check_norms``) before it
takes the diffusion block A_vv over.  It is the only Gram path: each Gram
matrix is built in place, the last norm's in the storage of A_vv and the
others' in copies of it, so a build holds one n_test x n_test array, plus the
mass matrix for 'app'.  Its steps, each entry getting the same IEEE
operations as in G = 0.5 (X + X^T), X = eps^2 A_vv + M - m m^T / |Omega|
('eng': X = A_vv):

1. 'app' only: G *= eps^2, then G += M.  Most pages of M are never
   written, as only the entries of element neighbours are nonzero.
2. 'app' only: for each band of ``GRAM_BAND`` rows,
   G[band] -= outer(m[band], m) / |Omega|.
3. For each band of rows r:r+b, S = 0.5 (G[r:r+b, r:] + G[r:, r:r+b]^T) is
   written to G[r:r+b, r:] and its transpose to G[r:, r:r+b].  No earlier
   band has touched these entries, and a + b == b + a in IEEE arithmetic, so
   each pair of mirror entries gets the bits of 0.5 (X + X^T).
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernels import KernelPair
from .quadrature import (CLIPPED, CONTAINED, N_OVER, SELF_CLIPPED, SELF_INSIDE, chunks,
                         gauss_legendre, inner_points, mesh_pieces, row_dots)
from .space import boundary_lift

GRAM_BAND = 256   # rows per pass of the in-place Gram build


def _row_map(space):
    """Row of every DOF among the free DOFs, -1 for a constrained one."""
    rows = np.full(space.n_dofs, -1)
    rows[space.free_dofs] = np.arange(space.n_free)
    return rows


class _Form(NamedTuple):
    """One nonlocal form: factor * int v(x) int (u(y) - u(x)) K(y - x) dy dx."""

    factor: float       # -2 or 1, folded into the kernel weights (an exact scaling)
    signed: Callable    # K on signed separations y - x
    parity: int         # 0 for an even K, 1 for an odd one: the surviving Taylor powers


# diffusion (-L_delta u, v) and convection (G_delta u, v), in the order of the
# matrices of assemble_nonlocal_forms
FORMS = (_Form(-2.0, KernelPair.eval_diffusion, 0),
         _Form(1.0, KernelPair.eval_convection_signed, 1))


def _signed_weights(kernel, xs, y, wy):
    """Kernel weights of every form at inner nodes y of the outer nodes xs."""
    s = y - xs[..., None]
    return [form.factor * form.signed(kernel, s) * wy for form in FORMS]


def assemble_nonlocal_forms(test, trial, kernel):
    """Assemble the operator matrices of the mixed system in one sweep.

    Returns (A_vu, C_vu, A_vv): (-L_delta u, v) and (b.G_delta u, v) for u in
    the trial space, and (-L_delta w, v) for w in the test space.  Rows are
    free test DOFs, columns all DOFs of the respective column space.
    """
    mesh = test.mesh
    delta = mesh.delta
    if trial.mesh is not mesh and not np.array_equal(trial.mesh.nodes, mesh.nodes):
        raise ValueError("trial and test spaces must share one mesh")

    order = max(test.order, trial.order)
    n_out, n_in = test.order + N_OVER, order + N_OVER
    rule_out = gauss_legendre(n_out)
    q_in, w_in = gauss_legendre(n_in).map_to(0.0, 1.0)
    elem_y, elem_w = gauss_legendre(n_in).map_to(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    # unclipped self window: pair mirrored points y = x -+ t so the
    # O(delta^-3) kernel multiplies symmetric differences of the basis
    # instead of two huge cancelling half-integrals; t > 0, so the signed
    # kernels give K(|t|) here
    t = delta * q_in
    wK_in = [form.factor * form.signed(kernel, t) * (delta * w_in) for form in FORMS]

    # each column space with its matrices, in the order of FORMS: the trial
    # space gets both forms, the test space the diffusion form only
    A_vu, C_vu = (np.zeros((test.n_free, trial.n_dofs)) for _ in FORMS)
    A_vv = np.zeros((test.n_free, test.n_dofs))
    columns = ((trial, (A_vu, C_vu)), (test, (A_vv,)))
    row_map = _row_map(test)

    i, j, lo, hi, case = mesh_pieces(mesh)
    interior = np.flatnonzero((i > 0) & (i < mesh.n_elements - 1))
    # pieces x outer points x split inner points x basis values
    for r in chunks(interior, n_out * 2 * n_in * (order + 1)):
        ib, jb, cb = i[r], j[r], case[r]
        xs, wx = rule_out.map_to(lo[r, None], hi[r, None])
        wBtx = test.local_basis(ib[:, None], xs) * wx[..., None]
        bj = (mesh.nodes[jb, None], mesh.nodes[jb + 1, None])
        tau = 2.0 * t / (bj[1] - bj[0])
        # the row sets of the chunk: the self window inside K_i by a finite
        # Taylor expansion (exact for polynomials and free of the eps-level
        # evaluation noise that the kernel would amplify) or mirrored, the
        # clipped self window, K_j contained in the ball and clipped by it
        taylor = (cb == SELF_INSIDE) & (tau[:, -1] <= 0.1)
        mirror = (cb == SELF_INSIDE) & ~taylor
        sc, co, cl = cb == SELF_CLIPPED, cb == CONTAINED, cb == CLIPPED
        y_sc, wy_sc = inner_points(xs[sc], (bj[0][sc], bj[1][sc]), delta, q_in, w_in, split=True)
        y_cl, wy_cl = inner_points(xs[cl], (bj[0][cl], bj[1][cl]), delta, q_in, w_in, split=False)
        wK_sc = _signed_weights(kernel, xs[sc], y_sc, wy_sc)
        wK_co = _signed_weights(kernel, xs[co], elem_y[jb[co], None], elem_w[jb[co], None])
        wK_cl = _signed_weights(kernel, xs[cl], y_cl, wy_cl)
        y_mirror = xs[mirror, :, None] + t, xs[mirror, :, None] - t
        # the j block of a self piece and the constrained rows are not added
        rows = row_map[test.element_dofs(ib)]
        keep = (((jb != ib)[:, None] | [False, True])[:, :, None, None]
                & (rows >= 0)[:, None, :, None])
        # the i block of a self piece carries all of its integral; that of a
        # pair is -(wBtx * sK)^T @ Bx with sK the row sums of the weights
        sign = np.where(jb == ib, 1.0, -1.0)[:, None, None]

        for space, mats in columns:
            Bx = space.local_basis(ib[:, None], xs)
            Byp, Bym = (space.local_basis(ib[mirror, None, None], y) for y in y_mirror)
            # same column block: difference the basis values before applying
            # the O(delta^-3) kernel weights, so the huge x-part/y-part
            # cancellation never reaches the matrix
            D = space.local_basis(jb[sc, None, None], y_sc) - Bx[sc, :, None]
            By_co = space.local_basis(jb[co, None], elem_y[jb[co]])
            By_cl = space.local_basis(jb[cl, None, None], y_cl)
            # adjacent clipped window: shift both sides by the shared-vertex
            # cardinal (exactly 1 at the shared node, so the two shifts cancel
            # analytically); keeps the summands at the size of the continuous
            # difference for delta << h
            right, left = cl & (jb == ib + 1), cl & (jb == ib - 1)
            By_cl[right[cl], ..., 0] -= 1.0
            By_cl[left[cl], ..., -1] -= 1.0
            Bx[right, :, -1] -= 1.0
            Bx[left, :, 0] -= 1.0
            cols = np.stack((space.element_dofs(jb), space.element_dofs(ib)), axis=1)
            R, C, K = np.broadcast_arrays(rows[:, None, :, None], cols[:, :, None, :], keep)

            for f, mat in enumerate(mats):
                parity = FORMS[f].parity
                M = np.zeros((taylor.sum(), space.order + 1, space.order + 1))
                wt = np.broadcast_to(wK_in[f], tau[taylor].shape)
                for m in range(2 - parity, space.order + 1, 2):
                    M += ((2.0 * row_dots(wt, tau[taylor]**m) / math.factorial(m))[:, None, None]
                          * space.diff_powers[m])
                # even part of the mirrored basis shift for an even kernel,
                # odd part for an odd one
                sym = Byp + Bym - 2.0 * Bx[mirror, :, None] if parity == 0 else Byp - Bym
                Zi, Zj, sK = Bx.copy(), np.zeros_like(Bx), np.ones(xs.shape)
                Zi[taylor] = Bx[taylor] @ M
                Zi[mirror] = (wK_in[f][:, None] * sym).sum(axis=2)
                Zi[sc] = (wK_sc[f][..., None] * D).sum(axis=2)
                Zj[co] = wK_co[f] @ By_co
                Zj[cl] = (wK_cl[f][..., None] * By_cl).sum(axis=2)
                sK[co], sK[cl] = wK_co[f].sum(axis=-1), wK_cl[f].sum(axis=-1)
                wBt, wBs = (np.swapaxes(w, 1, 2) for w in (wBtx, wBtx * sK[..., None]))
                blocks = np.stack((wBt @ Zj, sign * (wBs @ Zi)), axis=1)
                # unbuffered and in table order: every entry receives the
                # additions of its pieces one by one, in the order of the table
                np.add.at(mat, (R[K], C[K]), blocks[K])
    return A_vu, C_vu, A_vv


def _interior_products(test, n_points, weights):
    """Bk^T (Bk w) and Bk^T w of every interior element, on its free DOFs.

    Bk holds the element's test basis values at its n_points Gauss points,
    w = (quadrature weight) * weights(points).  Returns the free row of each
    element DOF (-1 for a constrained one) and both products, zero at the
    constrained DOFs (elements x DOFs x DOFs and elements x DOFs).  BLAS sums
    a product in an order that depends on its shape and layout, so the
    elements are taken in groups with the same free DOFs, and each group's
    stacked products see one element's ``local_basis(e, x)[:, free]`` in the
    layout that this indexing gives it: they keep the per-element bits.
    """
    interior = test.mesh.interior_elements
    nodes = test.mesh.nodes
    xs, ws = gauss_legendre(n_points).map_to(nodes[interior, None], nodes[interior + 1, None])
    w = ws * np.asarray(weights(xs), dtype=float)
    B = test.local_basis(interior[:, None], xs)
    rows = _row_map(test)[test.element_dofs(interior)]
    keep = rows >= 0
    mass, vec = np.zeros(rows.shape + rows.shape[-1:]), np.zeros(rows.shape)
    for free in np.unique(keep, axis=0):
        sel = np.flatnonzero((keep == free).all(axis=1))
        # elements x free DOFs x points, each block C-contiguous
        Bt = np.ascontiguousarray(np.swapaxes(B[sel][:, :, free], 1, 2))
        mass[np.ix_(sel, free, free)] = Bt @ np.swapaxes(Bt * w[sel, None, :], 1, 2)
        vec[np.ix_(sel, free)] = (Bt @ w[sel, :, None])[..., 0]
    return rows, mass, vec


def assemble_mass_mean(test):
    """L2(Omega) mass matrix and mean vector on the free test DOFs."""
    rows, mass, vec = _interior_products(test, test.order + 1, np.ones_like)
    keep = rows >= 0
    both = keep[:, :, None] & keep[:, None, :]
    R, C = np.broadcast_arrays(rows[:, :, None], rows[:, None, :])
    # np.zeros leaves the pages of M that no element touches unwritten
    M = np.zeros((test.n_free, test.n_free))
    m = np.zeros(test.n_free)
    # unbuffered and in element order, as a loop over the elements adds them
    np.add.at(M, (R[both], C[both]), mass[both])
    np.add.at(m, rows[keep], vec[keep])
    return M, m


def load_vector(test, forcing):
    """(f, v) for all free test functions; f is evaluated on (0, 1) only."""
    rows, _, vec = _interior_products(test, test.order + N_OVER, forcing)
    F = np.zeros(test.n_free)
    np.add.at(F, rows[rows >= 0], vec[rows >= 0])
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
    n_out = test.order + N_OVER
    rule_out = gauss_legendre(n_out)
    q_in, w_in = gauss_legendre(max(test.order, trial.order) + N_OVER).map_to(0.0, 1.0)
    row_map = _row_map(test)
    last = mesh.n_elements - 1
    i, j, lo, hi, _ = mesh_pieces(mesh)
    collar = np.flatnonzero((i > 0) & (i < last) & ((j == 0) | (j == last)))

    F = np.zeros(test.n_free)
    # pieces x outer points x inner points x trial basis values
    for r in chunks(collar, n_out * len(q_in) * (trial.order + 1)):
        # the defect is integrated on the clipped window in every case
        xs, wx = rule_out.map_to(lo[r, None], hi[r, None])
        wBtx = test.local_basis(i[r, None], xs) * wx[..., None]
        y, wy = inner_points(xs, (mesh.nodes[j[r], None], mesh.nodes[j[r] + 1, None]),
                             mesh.delta, q_in, w_in, split=False)
        s = y - xs[..., None]
        defect = (np.asarray(boundary(y.ravel()), dtype=float).reshape(y.shape)
                  - trial.values(lift, np.repeat(j[r], n_out), y.reshape(-1, len(q_in)))
                  .reshape(y.shape))
        # b(w, v) = eps (-L_delta w, v) + (G_delta w, v) by the form table
        dens = sum(form.factor * weight * form.signed(kernel, s)
                   for form, weight in zip(FORMS, (eps, 1.0))) * wy * defect
        rows = row_map[test.element_dofs(i[r])]
        np.add.at(F, rows[rows >= 0],
                  (np.swapaxes(wBtx, 1, 2) @ dens.sum(axis=-1)[..., None])[rows >= 0, 0])
    return F


@dataclass
class SystemParts:
    """All of the discrete problem on one mesh but the norms' Gram matrices."""

    test: object
    eps: float
    A_vv: Optional[np.ndarray]   # None once the systems have taken it over
    B: np.ndarray
    F: np.ndarray
    lift: np.ndarray


@dataclass
class MixedSystem:
    """Gram + bilinear-form matrix + load of the discrete mixed problem."""

    G: np.ndarray
    B: np.ndarray
    F: np.ndarray


def assemble_parts(trial, test, kernel, eps, problem):
    """The norm-independent parts: A_vv, the lift, B = op on the free trial
    columns and F = (f, v) - op lift - b(w, v), op = eps A_vu + C_vu."""
    if not 0 < trial.n_free < test.n_free:
        raise ValueError(f"need 0 < trial < test free DOFs, got {trial.n_free}, {test.n_free}")
    op, C_vu, A_vv = assemble_nonlocal_forms(test, trial, kernel)
    lift = boundary_lift(trial, problem.boundary)
    # op = eps A_vu + C_vu, in the storage of A_vu
    op *= eps
    op += C_vu
    del C_vu
    F = (load_vector(test, problem.forcing) - op @ lift
         - boundary_defect_load(test, trial, lift, problem.boundary, eps, kernel))
    return SystemParts(test, eps, A_vv[:, test.free_dofs], op[:, trial.free_dofs], F, lift)


NORMS = ("app", "eng")


def check_norms(norms):
    """The test norms as a tuple; ValueError unless they are distinct names
    of NORMS, at least one."""
    if isinstance(norms, str):   # a string would be split into its letters
        raise ValueError(f"test norms must be a tuple of names, got the string {norms!r}")
    norms = tuple(norms)
    for norm in norms:
        if norm not in NORMS:
            raise ValueError(f"unknown test norm {norm!r}, expected one of {NORMS}")
    if not norms or len(set(norms)) < len(norms):
        raise ValueError(f"need distinct test norms, at least one, got {norms}")
    return norms


def _gram_in_place(test, G, eps, norm):
    """Turn the free diffusion block G into the norm's Gram matrix in its own
    storage and return it; the order of the steps is in the module docstring."""
    n = len(G)
    if norm == "app":
        G *= eps**2
        M, m = assemble_mass_mean(test)
        G += M
        del M
        omega = test.mesh.nodes[-2] - test.mesh.nodes[1]
        for r in range(0, n, GRAM_BAND):
            band = np.outer(m[r:r + GRAM_BAND], m)
            band /= omega
            G[r:r + GRAM_BAND] -= band
            del band   # before the next band is allocated
    for r in range(0, n, GRAM_BAND):
        # rows r:r+b right of the diagonal and their mirror, both still as built
        S = G[r:r + GRAM_BAND, r:] + G[r:, r:r + GRAM_BAND].T
        S *= 0.5
        G[r:r + GRAM_BAND, r:] = S
        G[r:, r:r + GRAM_BAND] = S.T
        del S
    return G


def mixed_system_from_parts(parts, norms):
    """The discrete mixed problem of every test norm: {norm: MixedSystem}.

    The systems share B and F.  Each Gram matrix is built in place, all but
    the last in a copy of ``parts.A_vv`` and the last in ``parts.A_vv``
    itself, which the systems take over: ``parts.A_vv`` is None afterwards.
    The norms are checked before that.
    """
    norms = check_norms(norms)
    if parts.A_vv is None:
        raise ValueError("parts.A_vv has been taken over by an earlier call")
    A_vv, parts.A_vv = parts.A_vv, None
    return {norm: MixedSystem(_gram_in_place(parts.test, A_vv if norm == norms[-1]
                                             else A_vv.copy(), parts.eps, norm),
                              parts.B, parts.F)
            for norm in norms}
