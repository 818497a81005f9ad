"""Assembly of the discrete nonlocal operators and the mixed system.

The bilinear form is assembled in operator form, by the nested integration
of ``quadrature``: rows are (free) test functions integrated over the
interior domain, columns are trial basis functions fed through the nonlocal
diffusion/convection operators.  Since every test function vanishes on the
exterior elements, this operator form coincides with the symmetric
double-integral form of the diffusion inner product.

Rows are restricted to free test DOFs throughout.  The trial matrices carry
columns for *all* trial DOFs (free and constrained), since the constrained
columns are what the boundary lift multiplies; the diffusion block A_vv of
the test space has the free test columns only.  The kernel is always the
built-in pair of the mesh's horizon, ``KernelPair(mesh.delta)``.

The geometry of every element pair (its smooth pieces, their cases and the
inner nodes) comes from the pair layer in ``quadrature``, the only place that
holds the case logic.  This module keeps the integrands.  Both nonlocal forms,
(-L_delta u, v) and (G_delta u, v), read factor * int v(x) int (u(y) - u(x))
K(y - x) dy dx with their own factor and kernel K; the two-entry table
``FORMS`` holds them.  The assembly walks the piece table in chunks of
consecutive rows, cut by the cost of each row (``quadrature.chunks``): a
CONTAINED row holds n_out x n_in kernel weights, any other row up to
n_out x 2 n_in x (p + 1) values of the split self window.  Within a chunk
each integrand case (the Taylor and the mirrored self window, the clipped
self window, K_j contained in the ball, and the clipped pair with its
shared-vertex shift) evaluates all of its rows at once with stacked ``@``,
and fills the two local blocks of every piece and wanted form: the j block,
then the i block.  A CONTAINED row integrates over all of K_j at K_j's own
Gauss points, all inside the horizon, where the diffusion kernel has one
value.  So its diffusion weights are those of K_j alone, and the row
gathers the products and sums of its diffusion block from per-element
tables, built once per call for the elements that such a row pairs with
(none at a small horizon); only its convection weights are evaluated per
row, by the kernel's formula inside the horizon.  Its basis values are
gathered from a table of each column space's basis at those elements'
Gauss points; a gathered row has the bits of its own ``local_basis`` call,
and every CONTAINED value those of the kernel evaluation it replaces (see
``assemble_nonlocal_forms``).  One unbuffered ``np.add.at`` per chunk and
matrix adds the blocks in table order, so every entry receives its additions
one by one in the order of the table, as a loop over the pieces would add
them, whatever the chunk size.
``boundary_defect_load`` walks the collar rows of the same table the same way
and builds its density from the same form table.

The mass matrix, the mean vector and the load are summed the same way: the
products of all interior elements at once, then one unbuffered ``np.add.at``
in element order.

Every matrix is a ``Band`` in the one layout of ``kkt_layout``: in 1-D two
DOFs couple only when their elements are a candidate pair of the pair layer
(``quadrature.horizon_runs``), so with all
the unknowns (free test DOFs, then free trial DOFs) at the positions that
sort them by ``Space.dof_positions``, and with the half-bandwidth k that
``kkt_layout`` computes, each matrix is its band (the mean term of 'app'
aside).  A band holds the positions of its rows and of its columns, and
each of its columns, in DOF order, holds 2k + 1 slots, at the rows within k
positions of it: a test x test matrix (A_vv, M, G) has the free test DOFs
as its columns, a trial block (A_vu, C_vu, B) the free trial DOFs, and
keeps its few constrained columns dense (its ``edge``).  So each band, put
in the columns of its positions, is a part of the band of the KKT matrix,
which the solve copies as it is.  A_vv, A_vu, C_vu and the mass matrix M
are scattered into their storage by the same unbuffered ``np.add.at`` in
table order; only the target index differs from a dense matrix, so every
entry keeps its additions and their order.  No n_test x n_test or n_test x
n_trial array is ever formed.

One call builds the discrete problem of a step,
``mixed_system_from_parts``.  It checks the norm list (``check_norms``) and
the spaces, computes the step's layout once and checks that the step's
bands fit in memory (``_check_memory``), all before it assembles anything.
It builds the lift, B and F once per mesh:
op = eps A_vu + C_vu is formed entry by entry in the storage of A_vu, B is
op's band, and op @ lift takes the rows of op that meet a constrained
column, over all trial columns with zeros at the free ones: the lift is
zero there, so each product there is zero, as with the dense op, and the
nonzero terms keep their column indices, so BLAS sums each row as it sums a
row of the dense op.  Then it
builds the Gram matrix of each test norm of the step from A_vv, which no
build changes, so the systems of the norms share B and F.  The Gram build
is elementwise on the band, each entry getting the same IEEE operations as
in the dense G = 0.5 (X + X^T), X = eps^2 A_vv + M - m m^T / |Omega|
('eng': X = A_vv):

1. 'app' only: X = A_vv eps^2, then X += M, then X -= c with
   c_ab = (m_a m_b) / |Omega| on the band.
2. X += X^T on the band, the data of its transpose ``Band.T``, which
   only moves values, then X *= 0.5: the slot of entry (a, b) gets
   0.5 (X_ab + X_ba), and a + b == b + a in IEEE arithmetic, so each pair
   of mirror entries gets the bits of 0.5 (X + X^T).

Off the band X is 0.0 - c_ab for 'app', so G is 0.0 - c_ab there (two equal
values halved), the ``mean`` of the Band; for 'eng' it is zero.  The solve
reads the layout from G and B: a system is G, B and F.
"""

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.blas import dgbmv

from .kernels import KernelPair
from .quadrature import (CLIPPED, CONTAINED, N_OVER, SELF_CLIPPED, SELF_INSIDE, chunks,
                         gauss_legendre, horizon_runs, inner_points, mesh_pieces, row_dots)
from .space import boundary_lift


class _Form(NamedTuple):
    """One nonlocal form: factor * int v(x) int (u(y) - u(x)) K(y - x) dy dx."""

    factor: float       # -2 or 1, folded into the kernel weights (an exact scaling)
    signed: Callable    # K on signed separations y - x
    parity: int         # 0 for an even K, 1 for an odd one: the surviving Taylor powers


# diffusion (-L_delta u, v) and convection (G_delta u, v), in the order of the
# matrices of assemble_nonlocal_forms
FORMS = (_Form(-2.0, KernelPair.eval_diffusion, 0),
         _Form(1.0, KernelPair.eval_convection_signed, 1))


@dataclass
class Band:
    """A matrix whose rows are the free test DOFs, held by its band in the
    layout of ``kkt_layout``.

    ``rows`` and ``cols`` hold the position of each row and of each column
    among the ``size`` unknowns of the step.  The columns are the rows again
    (A_vv, M, G) or the free trial DOFs (a trial block: A_vu, C_vu, B).  With
    half-bandwidth k, column c holds one slot for each position within k of
    its own: entry (r, c), at positions a = rows[r] and b = cols[c] with
    |a - b| <= k, is data[k + a - b, c].  So every band of a step numbers its
    slots as the band of the KKT matrix does: put in the columns of their
    positions, the data of B and of G (its mean term aside) are the KKT
    band's columns there.  The slots past either end of the positions and
    those at a position that holds no row are zero.  Off the band the matrix
    is -m m^T / |Omega| for mean = (m, |Omega|), the mean term of the 'app'
    Gram matrix, and zero for mean None.  The trial blocks of the assembly
    also hold ``edge``, their dense columns of the constrained trial DOFs,
    which only the boundary lift multiplies; B holds none.  ``T`` is the
    transpose, a band again: its rows are these columns and its columns
    these rows, its slots hold the values moved, and it holds no edge.
    """

    data: np.ndarray            # (2k + 1, columns)
    rows: np.ndarray            # the position of each row
    cols: np.ndarray            # the position of each column
    size: int                   # the positions: the free unknowns of the step
    mean: tuple = None
    edge: np.ndarray = None     # (rows, constrained trial DOFs)

    @classmethod
    def zeros(cls, layout, rows, square=False, **fields):
        """The zero matrix on the first ``rows`` unknowns of the layout
        (position, k) of ``kkt_layout``, with these as its columns too
        (square) or the rest."""
        position, k = layout
        cols = position[:rows] if square else position[rows:]
        return cls(np.zeros((2 * k + 1, len(cols))), position[:rows], cols, len(position),
                   **fields)

    @property
    def half_band(self):
        return len(self.data) // 2

    @property
    def shape(self):
        return len(self.rows), len(self.cols)

    def slot(self, r, c):
        """The band slots (row, column of data) of the entries (r, c), which
        must lie on the band (``kkt_layout`` takes its half-band from the
        runs of ``quadrature.horizon_runs``, the candidate pairs of
        ``mesh_pieces``)."""
        return self.half_band + self.rows[r] - self.cols[c], c

    def mean_band(self):
        """(m_a m_b) / |Omega| on every slot, with m = 0 at the trial
        positions and past the corners."""
        m_at = np.zeros(self.size)
        m_at[self.rows] = self.mean[0]
        # row r of the window is m at the positions b + r - k
        out = np.lib.stride_tricks.sliding_window_view(np.pad(m_at, self.half_band),
                                                       self.size)[:, self.cols]
        out *= m_at[self.cols]
        out /= self.mean[1]
        return out

    def core(self):
        """The data of the banded part: of S = G + m m^T / |Omega| for a Gram
        matrix, the data itself without a mean term."""
        if self.mean is None:
            return self.data
        S = self.mean_band()
        S += self.data
        return S

    def _row_at(self):
        """The row at each position, shifted by k; len(rows), a row that is
        dropped, at any other position."""
        k = self.half_band
        row = np.full(self.size + 2 * k, len(self.rows))
        row[self.rows + k] = np.arange(len(self.rows))
        return row

    @property
    def T(self):
        """The transpose, a band in columns at the rows' positions: entry
        (a, b), in slot k + a - b of b's column, goes to slot k + b - a of
        a's column.  Only values move, so a band plus its transpose has the
        bits of X + X^T, as a + b == b + a."""
        k, row = self.half_band, self._row_at()
        out = np.zeros((2 * k + 1, len(self.rows) + 1))
        for s in range(2 * k + 1):
            out[2 * k - s, row[self.cols + s]] = self.data[s]
        return Band(out[:, :-1], self.cols, self.rows, self.size, self.mean)

    def __matmul__(self, x):
        """(S - m m^T / |Omega|) x for a vector x: the ``core`` in the
        columns of its positions, by ``band_times``."""
        if np.shape(x) != (len(self.cols),):
            raise ValueError(f"expected a vector of length {len(self.cols)}, "
                             f"got shape {np.shape(x)}")
        S = np.zeros((len(self.data), self.size), order="F")
        S[:, self.cols] = self.core()
        x_at = np.zeros(self.size)
        x_at[self.cols] = x
        y = band_times(S, x_at)[self.rows]
        if self.mean is not None:
            y -= self.mean[0] * ((self.mean[0] @ x) / self.mean[1])
        return y

    def toarray(self):
        """The dense matrix: 0.0 - m m^T / |Omega| (the bits of 0.5 (X + X^T)
        where X is 0.0 - (m_a m_b) / |Omega|) or zero, and the band on it."""
        out = np.zeros((len(self.rows) + 1, len(self.cols)))
        if self.mean is not None:
            out[:-1] -= np.outer(self.mean[0], self.mean[0]) / self.mean[1]
        slots = self.cols + np.arange(len(self.data))[:, None]
        out[self._row_at()[slots], np.arange(len(self.cols))] = self.data
        return out[:-1]


def _memory_limit():
    """Bytes of memory this process may use: the physical memory, or the
    cgroup v2 ``memory.max`` of its cgroup where that is readable and smaller."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/proc/self/cgroup") as fh:
            path = next((line[3:].strip() for line in fh if line.startswith("0::")), None)
        if path is None:
            return limit
        with open(f"/sys/fs/cgroup{path.rstrip('/')}/memory.max") as fh:
            value = fh.read().strip()
    except OSError:
        return limit
    return min(limit, int(value)) if value.isdigit() else limit


def _check_memory(n_test, n_trial, n_norms, half_band):
    """Raise MemoryError if the arrays of the step cannot fit.

    With n = n_test, t = n_trial, N = n + t and k = half_band, in float64
    values; every matrix is a band of w = 2k + 1 slots per column.  The
    assembly holds A_vv, w n, the trial bands A_vu and C_vu, w t each, and
    then, for op @ lift only, the strip of op that the lift multiplies: the
    rows that meet a constrained column, over all trial columns, about one
    trial band as those rows lie within the band of the first or last free
    trial column.  B keeps the storage of A_vu.  The Gram builds follow, all
    before the first solve; each holds A_vv, B, the earlier norms' bands
    and its own, and one more test band at a time: the mass matrix, let go
    once it is added, then the mean term, then the transpose ``G.T``.
    Nothing N-wide is built there, so the last of k' norms peaks at
    w (t + (k' + 2) n).  The solves come
    last, one at a time, with B and every norm's Gram band alive, as the
    StepResults keep them.  A solve holds three bands over all the
    positions: K0, w N, the Cholesky band of S + I, (k + 1) N, and the LU
    band, (3k + 1) N, 3 w N in all.  Before the LU band, while it builds
    K0, it holds K0 and S, w (N + n), then K0 and the Cholesky band,
    3 w N / 2, and adds B^T into K0 one slot row of B at a time, with no
    band of its own; both are less than 3 w N as n < N.  Nothing
    N-wide outlives its solve.  So w (t + (k' + 3) n + 3 N) values bound a
    k'-norm step: at least 2 w n above the solves' peak, below
    w (t + (k' + 1) n + 3 N), and w (n + 3 N) above the Gram builds',
    w (t + (k' + 2) n), which are above the assembly's, w (3t + n); the
    margin covers what is left out below.  At the tenth delta = sqrt(h)
    step (n = 7679, t = 2559, k = 209, one norm) tracemalloc reads 99 MiB
    at the builder's peak, in the assembly while ``mesh_pieces`` builds the
    piece table (84 MiB in the Gram build), and 134 MiB at the solve's,
    against the bound's 205 MiB.
    Left out: the chunk temporaries of the assembly, at most a few tens of MB, the
    build of the piece table (55 MiB at that step), the dense edge columns of the constrained trial DOFs, the vectors, and the
    zero columns that pad a band to 2k + 1 columns when it has fewer.
    """
    need = 8 * (2 * half_band + 1) * (n_trial + (n_norms + 3) * n_test + 3 * (n_test + n_trial))
    limit = _memory_limit()
    if need > limit:
        raise MemoryError(
            f"the step's bands need about {need / 2**30:.2f} GiB (n_test = {n_test}, "
            f"n_trial = {n_trial}), more than the {limit / 2**30:.2f} GiB of memory available")


def band_times(S, x):
    """S x for a square matrix S in LAPACK band storage with one column per
    position (Fortran order), by LAPACK's dgbmv.  scipy's dgbmv takes no
    fewer than 2k + 1 columns, so a narrower band is padded with zero
    columns."""
    k, N = len(S) // 2, S.shape[1]
    if N < 2 * k + 1:
        S, x = np.pad(S, ((0, 0), (0, 2 * k + 1 - N))), np.pad(x, (0, 2 * k + 1 - N))
    return dgbmv(len(x), len(x), k, k, 1.0, S, x)[:N]


def _signed_weights(kernel, xs, y, wy):
    """Kernel weights of every form at inner nodes y of the outer nodes xs."""
    s = y - xs[..., None]
    return [form.factor * form.signed(kernel, s) * wy for form in FORMS]


def _contained_convection(kernel, xs, y, wy):
    """The convection form's weights at inner nodes y of the outer nodes xs,
    all of them inside the horizon and none at y = x: the kernel's inside
    value, with the form's factor, a power of two, scaling wy exactly."""
    return kernel.convection_inside((y - xs[..., None]) / kernel.delta) * (FORMS[1].factor * wy)


def _diffusion_tables(kernel, elem_w, n_out, bases):
    """The diffusion form's weights w = (factor K) elem_w on the Gauss
    weights of some elements, one row each, with K the kernel's one value
    inside the horizon.  Returns the sums of w and, for each basis table
    (elements x inner points x basis values), w repeated over n_out outer
    points times the basis: the row sums and the product wK @ By of a
    CONTAINED row with that element.  Built in element runs under the chunk
    budget."""
    w = (FORMS[0].factor * kernel.diffusion_inside) * elem_w
    Z = [np.empty((len(w), n_out, basis.shape[-1])) for basis in bases]
    for e in chunks(np.arange(len(w)), n_out * elem_w.shape[-1]):
        W = np.repeat(w[e, None], n_out, axis=1)
        for out, basis in zip(Z, bases):
            out[e] = W @ basis[e]
    return w.sum(axis=-1), Z


def assemble_nonlocal_forms(test, trial, layout=None):
    """Assemble the operator matrices of the mixed system in one sweep.

    Returns (A_vu, C_vu, A_vv): (-L_delta u, v) and (b.G_delta u, v) for u in
    the trial space, and (-L_delta w, v) for w in the test space, each a
    ``Band`` in the layout ``kkt_layout(test, trial)`` (computed unless
    given).  Rows are free test DOFs.  A_vu and C_vu are trial blocks: their
    bands hold the free trial columns and their ``edge`` the constrained
    ones.  A_vv is on the free test DOFs.

    A CONTAINED row evaluates neither kernel through ``_signed_weights``,
    and keeps the bits that it would give.  Its piece (lo, hi) has
    lo >= b_j - delta - tol and hi <= a_j + delta + tol, tol =
    1e-12 max(1, delta) (``mesh_pieces``), and the first of the n_in Gauss
    nodes of K_j lies c h_j inside K_j, c = (1 + x_1) / 2: 0.0053 at 16
    nodes, at least 0.0015 up to 30.  So each of its (x, y) has
    0 < |y - x| <= delta - c h_j + tol, inside the horizon for every K_j
    wider than about 1e-9 max(1, delta).  There the kernels' ``np.where``
    takes its first branch, so
    - the diffusion weights are (factor K) w_y with K the kernel's one value
      inside (``KernelPair.diffusion_inside``), the same at every outer
      point: the tables of ``_diffusion_tables`` hold their products with
      each column space's basis, the row's product wK @ By with the same
      slice shape and layout, and their sums, the row's sums;
    - the convection weights are ``KernelPair.convection_inside`` at
      (y - x) / delta times w_y: the sign of y - x is carried by the
      scaled separation, and the factors sign(s) = +-1.0 and the form's 1.0
      that ``_signed_weights`` multiplies by are exact.
    """
    mesh = test.mesh
    delta = mesh.delta
    kernel = KernelPair(delta)
    if trial.mesh is not mesh and not np.array_equal(trial.mesh.nodes, mesh.nodes):
        raise ValueError("trial and test spaces must share one mesh")
    layout = kkt_layout(test, trial) if layout is None else layout

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

    # each column space with its targets: the column of each of its DOFs (-1
    # for one the target does not hold), the target's matrices, in the order
    # of FORMS, and the map from (row, column) to their index.  The trial
    # space gets both forms, its free DOFs in the slots of the trial bands and
    # its constrained DOFs in their dense edges; the test space the diffusion
    # form on its free DOFs, in the slots of A_vv's band
    n_edge = len(trial.constrained_dofs)
    A_vu, C_vu = (Band.zeros(layout, test.n_free, edge=np.zeros((test.n_free, n_edge)))
                  for _ in FORMS)
    A_vv = Band.zeros(layout, test.n_free, square=True)
    edge_col = np.full(trial.n_dofs, -1)
    edge_col[trial.constrained_dofs] = np.arange(n_edge)
    columns = ((trial, ((trial.free_row, (A_vu.data, C_vu.data), A_vu.slot),
                        (edge_col, (A_vu.edge, C_vu.edge), lambda r, c: (r, c)))),
               (test, ((test.free_row, (A_vv.data,), A_vv.slot),)))

    i, j, lo, hi, case = mesh_pieces(mesh)
    interior = np.flatnonzero((i > 0) & (i < mesh.n_elements - 1))
    # the tables of the elements K_j that a CONTAINED row pairs with, one row
    # each: each column space's basis at K_j's Gauss points elem_y, and the
    # row sums and the products of the diffusion weights there
    held = np.unique(j[interior][case[interior] == CONTAINED])
    bases = [space.local_basis(held[:, None], elem_y[held]) for space, _ in columns]
    s_diff, Z_diff = _diffusion_tables(kernel, elem_w[held], n_out, bases)
    # outer points x inner points for a CONTAINED piece, and outer points x
    # split inner points x basis values for any other
    cost = np.where(case[interior] == CONTAINED, n_out * n_in, n_out * 2 * n_in * (order + 1))
    for r in chunks(interior, cost):
        ib, jb, cb = i[r], j[r], case[r]
        xs, wx = rule_out.map_to(lo[r, None], hi[r, None])
        Btx = test.local_basis(ib[:, None], xs)
        wBtx = Btx * wx[..., None]
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
        wK_cl = _signed_weights(kernel, xs[cl], y_cl, wy_cl)
        held_co = np.searchsorted(held, jb[co])   # the table row of each CONTAINED row
        wC_co = _contained_convection(kernel, xs[co], elem_y[jb[co], None], elem_w[jb[co], None])
        y_mirror = xs[mirror, :, None] + t, xs[mirror, :, None] - t
        # the j block of a self piece and the constrained rows are not added
        rows = test.free_row[test.element_dofs(ib)]
        keep = (((jb != ib)[:, None] | [False, True])[:, :, None, None]
                & (rows >= 0)[:, None, :, None])
        # the i block of a self piece carries all of its integral; that of a
        # pair is -(wBtx * sK)^T @ Bx with sK the row sums of the weights
        sign = np.where(jb == ib, 1.0, -1.0)[:, None, None]

        for (space, targets), basis, Z_space in zip(columns, bases, Z_diff):
            # a copy: the clipped-pair shift below changes Bx in place
            Bx = Btx.copy() if space is test else space.local_basis(ib[:, None], xs)
            Byp, Bym = (space.local_basis(ib[mirror, None, None], y) for y in y_mirror)
            # same column block: difference the basis values before applying
            # the O(delta^-3) kernel weights, so the huge x-part/y-part
            # cancellation never reaches the matrix
            D = space.local_basis(jb[sc, None, None], y_sc) - Bx[sc, :, None]
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
            dofs = np.stack((space.element_dofs(jb), space.element_dofs(ib)), axis=1)
            scatter = []
            for col_of, mats, index in targets:
                cols = col_of[dofs]
                R, C, K = np.broadcast_arrays(rows[:, None, :, None], cols[:, :, None, :],
                                              keep & (cols >= 0)[:, :, None, :])
                if K.any():
                    scatter.append((mats, index(R[K], C[K]), K))

            for f in range(len(targets[0][1])):
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
                # a CONTAINED row: its diffusion block from the tables, its
                # convection block from its weights and the basis table
                if f == 0:
                    Zj[co], sK[co] = Z_space[held_co], s_diff[held_co, None]
                else:
                    Zj[co], sK[co] = wC_co @ basis[held_co], wC_co.sum(axis=-1)
                Zj[cl] = (wK_cl[f][..., None] * By_cl).sum(axis=2)
                sK[cl] = wK_cl[f].sum(axis=-1)
                wBt, wBs = (np.swapaxes(w, 1, 2) for w in (wBtx, wBtx * sK[..., None]))
                blocks = np.stack((wBt @ Zj, sign * (wBs @ Zi)), axis=1)
                # unbuffered and in table order: every entry receives the
                # additions of its pieces one by one, in the order of the table
                for mats, target, K in scatter:
                    np.add.at(mats[f], target, blocks[K])
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
    rows = test.free_row[test.element_dofs(interior)]
    keep = rows >= 0
    mass, vec = np.zeros(rows.shape + rows.shape[-1:]), np.zeros(rows.shape)
    for free in np.unique(keep, axis=0):
        sel = np.flatnonzero((keep == free).all(axis=1))
        # elements x free DOFs x points, each block C-contiguous
        Bt = np.ascontiguousarray(np.swapaxes(B[sel][:, :, free], 1, 2))
        mass[np.ix_(sel, free, free)] = Bt @ np.swapaxes(Bt * w[sel, None, :], 1, 2)
        vec[np.ix_(sel, free)] = (Bt @ w[sel, :, None])[..., 0]
    return rows, mass, vec


def assemble_mass_mean(test, like):
    """L2(Omega) mass matrix, a ``Band`` in the layout of the test x test
    band ``like``, and mean vector on the free test DOFs."""
    rows, mass, vec = _interior_products(test, test.order + 1, np.ones_like)
    keep = rows >= 0
    both = keep[:, :, None] & keep[:, None, :]
    R, C = np.broadcast_arrays(rows[:, :, None], rows[:, None, :])
    M = replace(like, data=np.zeros(like.data.shape))
    m = np.zeros(test.n_free)
    # unbuffered and in element order, as a loop over the elements adds them
    np.add.at(M.data, M.slot(R[both], C[both]), mass[both])
    np.add.at(m, rows[keep], vec[keep])
    return M, m


def load_vector(test, forcing):
    """(f, v) for all free test functions; f is evaluated on (0, 1) only."""
    rows, _, vec = _interior_products(test, test.order + N_OVER, forcing)
    F = np.zeros(test.n_free)
    np.add.at(F, rows[rows >= 0], vec[rows >= 0])
    return F


def boundary_defect_load(test, trial, lift, boundary, eps):
    """b(w, v) for the collar interpolation defect w = g - (nodal lift of g).

    The volumetric data is imposed with its exact values: the discrete
    solution carries the nodal interpolant of g on the exterior elements and
    this functional accounts for the remainder, which is supported on the
    collar only (so only its y-part survives).  Without it the data error on
    the never-refined exterior elements caps the attainable accuracy.
    """
    mesh = test.mesh
    kernel = KernelPair(mesh.delta)
    n_out = test.order + N_OVER
    rule_out = gauss_legendre(n_out)
    q_in, w_in = gauss_legendre(max(test.order, trial.order) + N_OVER).map_to(0.0, 1.0)
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
        rows = test.free_row[test.element_dofs(i[r])]
        np.add.at(F, rows[rows >= 0],
                  (np.swapaxes(wBtx, 1, 2) @ dens.sum(axis=-1)[..., None])[rows >= 0, 0])
    return F


@dataclass
class MixedSystem:
    """Gram + bilinear-form matrix + load of the discrete mixed problem; G and
    B hold the layout of its banded KKT matrix (see ``kkt_layout``)."""

    G: Band             # with its mean term (m, |Omega|) for 'app'
    B: Band             # a trial block, on the free trial columns
    F: np.ndarray


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


def _gram(test, A_vv, eps, norm):
    """The norm's Gram matrix, a ``Band`` like the diffusion block A_vv,
    which is left as it is; the steps are in the module docstring."""
    G = replace(A_vv, data=A_vv.data.copy())
    if norm == "app":
        M, m = assemble_mass_mean(test, A_vv)
        G.mean = (m, test.mesh.nodes[-2] - test.mesh.nodes[1])
        G.data *= eps**2
        G.data += M.data
        del M
        G.data -= G.mean_band()
    G.data += G.T.data
    G.data *= 0.5
    return G


def kkt_layout(test, trial):
    """The position of each unknown of [[G, B], [B^T, 0]] and the matrix's
    half-bandwidth in position order, the mean term of 'app' taken out of G.

    Unknown k < test.n_free is free test DOF k, unknown test.n_free + j free
    trial DOF j; their positions sort them stably by ``Space.dof_positions``.
    Two unknowns couple only if their elements do, and the elements that can
    couple are the runs of the pair layer, ``quadrature.horizon_runs``,
    which pair i with j as they pair j with i.  In position order the
    unknowns of element i run from the first at or after a_i to the last at
    or before b_i; both ends are nondecreasing in i, so of the unknowns that
    element i couples to, those of its last candidate, stop[i] - 1, reach
    furthest on.  The half-bandwidth is the longest such reach.
    """
    pos = np.concatenate((test.dof_positions[test.free_dofs],
                          trial.dof_positions[trial.free_dofs]))
    order = np.argsort(pos, kind="stable")
    ordered, nodes = pos[order], test.mesh.nodes
    first = np.searchsorted(ordered, nodes[:-1])
    last = np.searchsorted(ordered, nodes[1:], side="right") - 1
    stop = horizon_runs(test.mesh)[1]
    return np.argsort(order), int((last[stop - 1] - first).max(initial=0))


def mixed_system_from_parts(trial, test, eps, problem, norms):
    """The discrete mixed problem of every test norm: (lift, {norm: MixedSystem}).

    The systems share B = op on the free trial columns and
    F = (f, v) - op lift - b(w, v), op = eps A_vu + C_vu, and the KKT layout
    ``kkt_layout(test, trial)``, computed once here.  B is op's band.
    The lift is nonzero only at the constrained trial DOFs, so op @ lift
    comes from the edge columns of the rows of op that meet one.  Each Gram
    matrix is built on the band of the diffusion block A_vv.  The norms and
    the spaces are checked before anything is assembled, and then the
    memory of the step (``_check_memory``): a step whose bands cannot fit
    raises ``MemoryError`` before the assembly starts.
    """
    norms = check_norms(norms)
    if not 0 < trial.n_free < test.n_free:
        raise ValueError(f"need 0 < trial < test free DOFs, got {trial.n_free}, {test.n_free}")
    layout = kkt_layout(test, trial)
    _check_memory(test.n_free, trial.n_free, len(norms), layout[1])
    op, C_vu, A_vv = assemble_nonlocal_forms(test, trial, layout)
    lift = boundary_lift(trial, problem.u_exact)
    # op = eps A_vu + C_vu, entry by entry in the storage of A_vu
    for mine, theirs in ((op.data, C_vu.data), (op.edge, C_vu.edge)):
        mine *= eps
        mine += theirs
    del C_vu
    # op @ lift from the rows of op that meet a constrained column, over all
    # trial columns with zeros at the free ones, where the lift is zero: the
    # nonzero terms keep their column indices, so BLAS sums each row as it
    # sums a row of the dense op; every other row is zero
    near = np.flatnonzero(op.edge.any(axis=1))
    strip = np.zeros((len(near), trial.n_dofs))
    strip[:, trial.constrained_dofs] = op.edge[near]
    op_lift = np.zeros(test.n_free)
    op_lift[near] = strip @ lift
    del strip
    F = (load_vector(test, problem.forcing) - op_lift
         - boundary_defect_load(test, trial, lift, problem.u_exact, eps))
    B = replace(op, edge=None)
    return lift, {norm: MixedSystem(_gram(test, A_vv, eps, norm), B, F) for norm in norms}
