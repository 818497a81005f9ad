"""Continuous piecewise-polynomial spaces with constrained exterior DOFs.

The nodal basis sits on Gauss-Lobatto points per element (well conditioned up
to the orders used here).  DOF numbering is deterministic: all vertex DOFs
left-to-right first, then element-interior bubbles element by element.  A DOF
is *free* when its basis function vanishes identically on the exterior
elements and at x in {0, 1}; everything else is *constrained* and carries
boundary data.
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


def lagrange_basis(nodes, weights, x):
    """All Lagrange cardinal polynomials at points x, shape (len(x), len(nodes))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x[:, None] - nodes[None, :]
    hit = np.abs(d) < 1e-14
    d = np.where(hit, 1.0, d)
    t = weights[None, :] / d
    out = t / t.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    if rows.any():
        out[rows] = hit[rows].astype(float)
    return out


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
        if nb:
            dofs[:, 1:-1] = n_vertex + nb * np.arange(nel)[:, None] + np.arange(nb)[None, :]
        self._element_dofs = dofs

        pos = np.empty(self.n_dofs)
        pos[:n_vertex] = mesh.nodes
        if nb:
            a = mesh.nodes[:-1, None]
            b = mesh.nodes[1:, None]
            interior = 0.5 * (a + b) + 0.5 * (b - a) * self.ref_nodes[None, 1:-1]
            pos[n_vertex:] = interior.ravel()
        self.dof_positions = pos

        free = np.zeros(self.n_dofs, dtype=bool)
        free[2:n_vertex - 2] = True          # vertices strictly inside (0, 1)
        if nb:
            bubbles = free[n_vertex:].reshape(nel, nb)
            bubbles[1:-1] = True             # bubbles of interior elements
        self.free_dofs = np.flatnonzero(free)
        self.constrained_dofs = np.flatnonzero(~free)
        self.n_free = len(self.free_dofs)

    def element_dofs(self, e):
        return self._element_dofs[e]

    def local_basis(self, e, x):
        """Values of the element-e basis functions at global points x.

        ``e`` is one element or an index array that broadcasts against x;
        the result has shape x.shape + (order + 1,), or (1, order + 1) for a
        scalar x.
        """
        a, b = self.mesh.bounds(e)
        xi = (2.0 * np.asarray(x, dtype=float) - a - b) / (b - a)
        return lagrange_basis(self.ref_nodes, self._bary, xi.ravel()).reshape(
            xi.shape + (-1,) if xi.ndim else (1, -1))

    def interpolate(self, f):
        """Coefficients matching f at the interpolation nodes."""
        return np.asarray(f(self.dof_positions), dtype=float).copy()

    def evaluate(self, coeffs, x):
        """Evaluate the piecewise polynomial with these coefficients at x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nodes = self.mesh.nodes
        tol = 1e-12 * max(1.0, self.mesh.delta)
        if np.any(x < nodes[0] - tol) or np.any(x > nodes[-1] + tol):
            raise ValueError("evaluation point outside the computational domain")
        elems = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, self.mesh.n_elements - 1)
        out = np.empty_like(x)
        coeffs = np.asarray(coeffs, dtype=float)
        for e in np.unique(elems):
            sel = elems == e
            out[sel] = self.local_basis(e, x[sel]) @ coeffs[self._element_dofs[e]]
        return out


def boundary_lift(space, g):
    """Full-length coefficient vector: g at constrained DOFs, zero at free ones."""
    lift = np.zeros(space.n_dofs)
    lift[space.constrained_dofs] = np.asarray(
        g(space.dof_positions[space.constrained_dofs]), dtype=float)
    return lift
