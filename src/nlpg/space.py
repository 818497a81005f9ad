"""Continuous piecewise-polynomial spaces with constrained exterior DOFs.

The nodal basis sits on Gauss-Lobatto points per element (well conditioned up
to the orders used here).  DOF numbering is deterministic: all vertex DOFs
left-to-right first, then element-interior bubbles element by element.  A DOF
is *free* when its basis function vanishes identically on the exterior
elements and at x in {0, 1}; everything else is *constrained* and carries
boundary data.

Every evaluation of a discrete function at points of known elements goes
through one method, ``Space.values``, and every basis value through one
function, ``cardinals``: one row per basis function, the layout that the
assembly's inner-point sums read (``Space.node_basis``), and transposed
once by ``lagrange_basis`` into one row per point for the matrix products
(``Space.local_basis``).  It is the hottest function of a study, so its
barycentric sum over the nodes is written out as whole-row adds in the order
of numpy's own pairwise ``ndarray.sum``: the values keep the bits of the
plain ``t.sum(axis=1)`` without one short reduction per point.
"""

import numpy as np
from scipy.special import roots_jacobi


def gauss_lobatto_nodes(n):
    """n Gauss-Lobatto points on [-1, 1], endpoints included (n >= 2)."""
    if n < 2:
        raise ValueError("need at least two Gauss-Lobatto nodes")
    if n == 2:
        return np.array([-1.0, 1.0])
    interior = np.sort(roots_jacobi(n - 2, 1.0, 1.0)[0])
    return np.concatenate(([-1.0], interior, [1.0]))


def barycentric_weights(nodes):
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / diff.prod(axis=1)


def _pairwise_rows(a):
    """``a.sum(axis=0)`` of a (n, N) array in the order of numpy's pairwise sum.

    ``ndarray.sum(axis=1)`` of an (N, n) array sums each row of n values with
    numpy's ``pairwise_sum``; this adds whole rows of ``a`` with the same
    operations in the same order, so every one of the N sums keeps its bits:
    below 8 terms one after another; up to 128 into eight accumulators,
    r[j] += a[8 m + j], which are then added pairwise and followed by the
    remaining terms one after another; above 128 split at n / 2, rounded
    down to a multiple of 8, and each half summed so.  numpy starts the sum
    from 0.0, which would change only the sign of a sum of negative zeros;
    the barycentric terms alternate in sign, so they never give one.
    """
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_rows(a[:half]) + _pairwise_rows(a[half:])
    if n < 8:
        s = a[0] + a[1]
        tail = a[2:]
    else:
        r = a[:8].copy()
        for m in range(8, n - n % 8, 8):
            r += a[m:m + 8]
        s = (r[0] + r[1]) + (r[2] + r[3])
        s += (r[4] + r[5]) + (r[6] + r[7])
        tail = a[n - n % 8:]
    for row in tail:
        s += row
    return s


def cardinals(nodes, weights, x):
    """All Lagrange cardinal polynomials at points x, one row per node: shape
    (len(nodes), len(x)).

    The barycentric formula t_j / sum_k t_k, t_j = w_j / (x - x_j) (Berrut &
    Trefethen, SIAM Review 46, 2004), with the exact cardinal values at a
    point within 1e-14 of a node.  With one row per node the sum over the
    nodes is a few whole-row adds, not one short reduction per point;
    ``_pairwise_rows`` adds them in the order of ``t.sum(axis=1)`` on the
    (len(x), len(nodes)) array, so every value keeps the bits of the plain
    formula.  Each value depends on its own point only, so the values do
    not depend on the layout of the points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x[None, :] - nodes[:, None]
    hit = np.abs(d) < 1e-14
    any_hit = hit.any()
    if any_hit:
        d[hit] = 1.0
    t = weights[:, None] / d
    t /= _pairwise_rows(t)
    if any_hit:
        cols = hit.any(axis=0)
        t[:, cols] = hit[:, cols]
    return t


def lagrange_basis(nodes, weights, x):
    """The ``cardinals`` one row per point, shape (len(x), len(nodes)), and
    C-contiguous: the layout that matrix products of the basis values sum
    in, so every product downstream keeps its bits."""
    return np.ascontiguousarray(cardinals(nodes, weights, x).T)


def _diff_powers(nodes, w):
    """Powers of the reference differentiation matrix, (I, D, ..., D^order).

    D[i, j] = L_j'(xi_i) on the reference nodes, so values of the m-th
    cardinal derivatives at arbitrary points are B @ D^m.
    """
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    powers = [np.eye(len(nodes))]
    for _ in range(len(nodes) - 1):
        powers.append(powers[-1] @ D)
    for P in powers:
        P.flags.writeable = False
    return tuple(powers)


class Space:
    """Trial/test space of uniform order on a mesh; see module docstring."""

    def __init__(self, mesh, order):
        if order < 1:
            raise ValueError(f"polynomial order must be >= 1, got {order}")
        self.mesh = mesh
        self.order = order
        self.ref_nodes = gauss_lobatto_nodes(order + 1)
        self._bary = barycentric_weights(self.ref_nodes)
        self.diff_powers = _diff_powers(self.ref_nodes, self._bary)

        nel = mesh.n_elements
        n_vertex = nel + 1
        nb = order - 1
        self.n_dofs = n_vertex + nel * nb

        dofs = np.empty((nel, order + 1), dtype=int)
        dofs[:, 0] = np.arange(nel)
        dofs[:, -1] = np.arange(1, nel + 1)
        dofs[:, 1:-1] = n_vertex + nb * np.arange(nel)[:, None] + np.arange(nb)[None, :]
        self._element_dofs = dofs

        pos = np.empty(self.n_dofs)
        pos[:n_vertex] = mesh.nodes
        a = mesh.nodes[:-1, None]
        b = mesh.nodes[1:, None]
        interior = 0.5 * (a + b) + 0.5 * (b - a) * self.ref_nodes[None, 1:-1]
        pos[n_vertex:] = interior.ravel()
        self.dof_positions = pos

        free = np.zeros(self.n_dofs, dtype=bool)
        free[2:n_vertex - 2] = True          # vertices strictly inside (0, 1)
        bubbles = free[n_vertex:].reshape(nel, nb)
        bubbles[1:-1] = True                 # bubbles of interior elements
        self.free_dofs = np.flatnonzero(free)
        self.constrained_dofs = np.flatnonzero(~free)
        self.n_free = len(self.free_dofs)
        # row of every DOF among the free DOFs, -1 for a constrained one
        self.free_row = np.full(self.n_dofs, -1)
        self.free_row[self.free_dofs] = np.arange(self.n_free)

    def element_dofs(self, e):
        return self._element_dofs[e]

    def _reference(self, e, x):
        """Points x mapped onto the reference element [-1, 1] of element e."""
        a, b = self.mesh.bounds(e)
        return (2.0 * np.asarray(x, dtype=float) - a - b) / (b - a)

    def local_basis(self, e, x):
        """Values of the element-e basis functions at global points x.

        ``e`` is one element or an index array that broadcasts against x;
        the result has shape x.shape + (order + 1,), or (1, order + 1) for a
        scalar x, C-contiguous: the layout of the matrix products of
        ``values``, the assembly's block products and its CONTAINED tables.
        """
        xi = self._reference(e, x)
        return lagrange_basis(self.ref_nodes, self._bary, xi.ravel()).reshape(
            (xi.shape if xi.ndim else (1,)) + (self.order + 1,))

    def node_basis(self, e, x):
        """The values of ``local_basis`` with the basis axis first: shape
        (order + 1,) + x.shape (x and e broadcast), C-contiguous, with the
        same bits.  The assembly's sums over the inner points add whole
        slabs of this layout."""
        xi = self._reference(e, x)
        return cardinals(self.ref_nodes, self._bary, xi.ravel()).reshape(
            (self.order + 1,) + xi.shape)

    def values(self, coeffs, elems, x):
        """Values at x of the function with these coefficients.

        Row k of x (x[k], of any shape) lies in element elems[k].  Each row is
        one matrix-vector product (``@``), so it equals a single element's
        ``local_basis(e, x[k]) @ coeffs[element_dofs(e)]`` bit for bit.  The
        energy norm needs that: g(y) - g(x) cancels for |y - x| <= delta, and
        a contraction that sums in another order (``einsum``) moved the
        relative energy error at delta = 1e-5 by 1.3e-11.
        """
        elems = np.asarray(elems)
        x = np.asarray(x, dtype=float)
        basis = self.local_basis(elems.reshape((-1,) + (1,) * (x.ndim - 1)), x)
        local = np.asarray(coeffs, dtype=float)[self._element_dofs[elems]][:, :, None]
        rows = basis.reshape(len(elems), np.prod(x.shape[1:], dtype=int), self.order + 1)
        return (rows @ local).reshape(x.shape)

    def evaluate(self, coeffs, x):
        """Evaluate the piecewise polynomial with these coefficients at x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nodes = self.mesh.nodes
        tol = 1e-12 * max(1.0, self.mesh.delta)
        if np.any(x < nodes[0] - tol) or np.any(x > nodes[-1] + tol):
            raise ValueError("evaluation point outside the computational domain")
        elems = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, self.mesh.n_elements - 1)
        return self.values(coeffs, elems.ravel(), x.ravel()).reshape(x.shape)


def boundary_lift(space, g):
    """Full-length coefficient vector: g at constrained DOFs, zero at free ones."""
    lift = np.zeros(space.n_dofs)
    lift[space.constrained_dofs] = np.asarray(
        g(space.dof_positions[space.constrained_dofs]), dtype=float)
    return lift
