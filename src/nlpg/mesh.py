"""1-D meshes on (-delta, 1+delta) with fixed interaction-domain elements."""

import math
from dataclasses import dataclass

import numpy as np

_REL_TOL = 1e-12


@dataclass(frozen=True)
class Mesh1d:
    """Partition of (-delta, 1+delta) into elements K_i = (x_i, x_{i+1}).

    The first and last elements are the interaction-domain elements
    (-delta, 0) and (1, 1+delta); they carry boundary data and are never
    refined.  Meshes are immutable; refinement returns a new mesh.
    """

    nodes: np.ndarray
    delta: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if not 0.0 < self.delta < math.inf:   # NaN fails both comparisons
            raise ValueError(f"horizon delta must be positive and finite, got {self.delta}")
        if len(nodes) < 4 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("mesh nodes must be strictly increasing with >= 3 elements")
        tol = _REL_TOL * max(1.0, self.delta)
        if (abs(nodes[0] + self.delta) > tol or abs(nodes[1]) > tol
                or abs(nodes[-2] - 1.0) > tol or abs(nodes[-1] - 1.0 - self.delta) > tol):
            raise ValueError("mesh must span (-delta, 0, ..., 1, 1+delta)")

    @property
    def n_elements(self):
        return len(self.nodes) - 1

    @property
    def widths(self):
        return np.diff(self.nodes)

    def bounds(self, i):
        return self.nodes[i], self.nodes[i + 1]

    @property
    def interior_elements(self):
        return np.arange(1, self.n_elements - 1)

    @property
    def interior_widths(self):
        return self.widths[1:-1]


def uniform_mesh(delta, n_interior):
    """Mesh with ``n_interior`` equal elements on (0, 1) plus the two exterior ones."""
    if n_interior < 1:
        raise ValueError("need at least one interior element")
    nodes = np.concatenate(([-delta], np.linspace(0.0, 1.0, n_interior + 1), [1.0 + delta]))
    return Mesh1d(nodes, delta)


def initial_mesh(delta):
    """Seven-element starting mesh: exterior collars plus five elements of width 0.2."""
    return uniform_mesh(delta, 5)


def refine_uniform(mesh):
    """Bisect every interior element; exterior elements are kept as-is."""
    return refine_marked(mesh, mesh.interior_elements)


def refine_marked(mesh, marked):
    """Bisect the marked interior elements at their midpoints."""
    marked = np.unique(np.asarray(marked))
    if marked.size == 0:   # checked first: an empty list is float64
        return Mesh1d(mesh.nodes.copy(), mesh.delta)
    if marked.dtype.kind not in "iu":
        raise ValueError(f"element indices must be integers, got {marked}")
    if marked[0] < 0 or marked[-1] >= mesh.n_elements:
        raise ValueError(f"element index out of range: {marked}")
    if marked[0] == 0 or marked[-1] == mesh.n_elements - 1:
        raise ValueError("exterior (interaction-domain) elements cannot be refined")
    mids = 0.5 * (mesh.nodes[marked] + mesh.nodes[marked + 1])
    return Mesh1d(np.sort(np.concatenate((mesh.nodes, mids))), mesh.delta)


def horizon_neighbors(mesh, i):
    """Indices j of all elements with dist(K_i, K_j) <= delta (including i)."""
    lo, hi = mesh.nodes[:-1], mesh.nodes[1:]
    dist = np.maximum(np.maximum(lo - hi[i], lo[i] - hi), 0.0)
    return np.flatnonzero(dist <= mesh.delta * (1.0 + _REL_TOL))


def write_nodes_csv(mesh, path):
    """Dump node coordinates, one per line (plotting helper)."""
    with open(path, "w") as fh:
        for x in mesh.nodes:
            fh.write(f"{x:.16g}\n")
