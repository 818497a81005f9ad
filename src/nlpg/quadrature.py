"""Gauss rules and the pair layer for horizon-restricted double integrals.

Integrals of the form

    I_i = int_{K_i} F(x, sum_j int_{K_j ∩ B_delta(x)} G(x, y) dy) dx

are computed with Gauss-Legendre rules on both levels.  Two structural
refinements make this accurate for every delta/h ratio:

* The map x -> K_j ∩ B_delta(x) changes its description at the points
  a_j -+ delta, b_j -+ delta.  The outer rule is applied per smooth piece of
  K_i (the pieces are delimited by those crossings), never across one.  For
  delta much smaller than h the nonlocal operator content concentrates in
  O(delta)-wide windows at the element ends; a single whole-element rule
  cannot see them.
* Any inner interval that contains the outer point x_p strictly inside is
  split at x_p, so kernels that are merely continuous (or signed) across
  y = x_p are integrated on smooth pieces only.

With the built-in kernels every piece integrand is polynomial, so the nested
values are exact up to roundoff.

The pair layer, ``horizon_runs``, ``mesh_pieces`` and ``inner_points``, is
the only place that decides the geometry of element pairs: which pairs can
couple (for each element the run of ``horizon_runs``, which also gives
``assembly.kkt_layout`` its half-band), which interact (those with a piece),
which smooth pieces of K_i each has,
which case each piece is (self window inside K_i, self window clipped by an
end of K_i, K_j contained in the ball, or clipped), and where the inner nodes
sit.  ``mesh_pieces(mesh)`` returns the pieces of all pairs of the mesh as one
table of arrays (i, j, lo, hi, case); each caller masks the rows it needs and
keeps only its integrands.  Every sweep over the table (the assembly, the
collar data functional and the energy sweep) walks its rows in the runs of
``chunks``, cut by a cost per row (the values its temporaries hold) so that
every run stays within one budget, ``CHUNK_VALUES``, and sums each row's
quadrature with ``row_dots``.

``smooth_pieces`` is the same cut rule for one pair, and
``mesh.horizon_neighbors`` a distance rule for the pairs of one element.  The
program uses neither: they stay public because the benchmark counts pairs and
pieces with them, and the tests hold ``mesh_pieces`` to them bit for bit.
The independent scalar reference of the nested integration, one quadrature
point at a time, lives with the tests (``tests/reference.py``).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Gauss points added to the polynomial order of the spaces in every rule.
# The piece integrands of the operators are polynomial, but the forcing, the
# exact solutions and the boundary data are not, and every reported number
# depends on this value.
N_OVER = 13

# values per temporary (1 MB) of every sweep over the piece table
CHUNK_VALUES = 2**17


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre rule on [-1, 1]; exact for polynomials up to degree 2n-1."""

    points: np.ndarray
    weights: np.ndarray

    def map_to(self, a, b):
        """Points and weights mapped onto (a, b)."""
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.points, half * self.weights


@lru_cache(maxsize=None)
def gauss_legendre(n):
    if n < 1:
        raise ValueError("quadrature order must be >= 1")
    pts, wts = np.polynomial.legendre.leggauss(n)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadRule(pts, wts)


def smooth_pieces(outer, inner, delta):
    """Subintervals of ``outer`` where x -> inner ∩ B_delta(x) is one smooth map.

    Only the part of ``outer`` with a nonempty intersection is returned.
    """
    ai, bi = outer
    aj, bj = inner
    lo = max(ai, aj - delta)
    hi = min(bi, bj + delta)
    tol = 1e-12 * max(bi - ai, delta)
    if hi - lo <= tol:
        return []
    cuts = sorted(c for c in (aj - delta, aj + delta, bj - delta, bj + delta)
                  if lo + tol < c < hi - tol)
    edges = [lo, *cuts, hi]
    return [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)
            if edges[k + 1] - edges[k] > tol]


# piece cases of the pair layer (see module docstring)
SELF_INSIDE = 0     # j == i and B_delta(x) inside K_i over the piece
SELF_CLIPPED = 1    # j == i and B_delta(x) crosses an end of K_i
CONTAINED = 2       # K_j inside B_delta(x) at both ends of the piece
CLIPPED = 3         # every other piece: K_j ∩ B_delta(x) moves with x


def horizon_runs(mesh):
    """The candidate pairs of every element: (start, stop), the run
    start[i] <= j < stop[i] of the elements whose window K_j ∩ B_delta(x),
    x in K_i, can be nonempty, b_j + delta > a_i and a_j - delta < b_i.

    This is the one rule of which elements couple: ``mesh_pieces`` cuts the
    pieces of these pairs, and ``assembly.kkt_layout`` takes its half-band
    from them.
    """
    a, b = mesh.nodes[:-1], mesh.nodes[1:]
    return (np.searchsorted(b + mesh.delta, a, side="right"),
            np.searchsorted(a - mesh.delta, b))


def mesh_pieces(mesh):
    """Smooth pieces of every element against its horizon neighbours, as arrays.

    Returns (i, j, lo, hi, case): piece k is (lo[k], hi[k]) of K_i[k] paired
    with K_j[k] of the run of ``horizon_runs``, ordered by i, then j, then
    along K_i.  The pieces of each pair are those of ``smooth_pieces``,
    evaluated for all pairs at once; the case is decided with the one
    tolerance 1e-12 * max(1, delta).
    """
    delta = mesh.delta
    a, b = mesh.nodes[:-1], mesh.nodes[1:]
    start, stop = horizon_runs(mesh)
    count = stop - start
    i, k = np.nonzero(np.arange(count.max()) < count[:, None])
    j = start[i] + k
    ai, bi, aj, bj = a[i], b[i], a[j], b[j]
    lo = np.maximum(ai, aj - delta)
    hi = np.minimum(bi, bj + delta)
    cut_tol = 1e-12 * np.maximum(bi - ai, delta)   # the tolerance of smooth_pieces
    # the crossings strictly inside (lo, hi) cut the window; the others are
    # moved onto hi, where they only add empty pieces
    cuts = np.stack((aj - delta, aj + delta, bj - delta, bj + delta), axis=1)
    inside = ((lo + cut_tol)[:, None] < cuts) & (cuts < (hi - cut_tol)[:, None])
    edges = np.sort(np.column_stack((lo, np.where(inside, cuts, hi[:, None]), hi)), axis=1)
    keep = (edges[:, 1:] - edges[:, :-1] > cut_tol[:, None]) & (hi - lo > cut_tol)[:, None]
    row = np.nonzero(keep)[0]
    i, j, lo, hi = i[row], j[row], edges[:, :-1][keep], edges[:, 1:][keep]
    aj, bj = aj[row], bj[row]
    tol = 1e-12 * max(1.0, delta)
    self_inside = (lo >= aj + delta - tol) & (hi <= bj - delta + tol)
    contained = (lo >= bj - delta - tol) & (hi <= aj + delta + tol)
    case = np.where(j == i, np.where(self_inside, SELF_INSIDE, SELF_CLIPPED),
                    np.where(contained, CONTAINED, CLIPPED))
    return i, j, lo, hi, case


def chunks(rows, values_per_row):
    """Consecutive runs of ``rows`` whose temporaries hold <= CHUNK_VALUES values.

    ``values_per_row`` is one cost for every row or one cost per row.  A run
    ends where its summed cost would pass CHUNK_VALUES, and takes at least
    one row; the runs keep the rows in their order.
    """
    cost = np.broadcast_to(values_per_row, np.shape(rows))
    ends = np.cumsum(cost)
    runs, k = [], 0
    while k < len(rows):
        stop = max(k + 1, np.searchsorted(ends, ends[k] - cost[k] + CHUNK_VALUES, side="right"))
        runs.append(rows[k:stop])
        k = stop
    return runs


def row_dots(w, v):
    """w[k] @ v[k] for every row k, each as the one dot product of a single element."""
    return (w[:, None, :] @ v[..., None])[:, 0, 0]


def inner_points(xs, bj, delta, q_in, w_in, split):
    """Inner nodes and weights on K_j ∩ B_delta(x) for every outer node x.

    ``q_in``, ``w_in`` is a rule on [0, 1] (``QuadRule.map_to(0.0, 1.0)``);
    with ``split`` the interval is split at x.  ``bj`` holds the bounds of
    K_j, scalars or arrays that broadcast against ``xs``.  Returns arrays of shape xs.shape + (n,)
    with n the rule order, or twice that when split.
    """
    l = np.maximum(bj[0], xs - delta)
    u = np.minimum(bj[1], xs + delta)
    if split:
        y = np.concatenate((l[..., None] + (xs - l)[..., None] * q_in,
                            xs[..., None] + (u - xs)[..., None] * q_in), axis=-1)
        wy = np.concatenate(((xs - l)[..., None] * w_in,
                             (u - xs)[..., None] * w_in), axis=-1)
        return y, wy
    return l[..., None] + (u - l)[..., None] * q_in, (u - l)[..., None] * w_in
