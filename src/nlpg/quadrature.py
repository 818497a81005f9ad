"""Gauss rules and the nested driver for horizon-restricted double integrals.

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

The pair layer, ``element_pieces`` and ``inner_points``, is the only place
that decides the geometry of an element pair: which smooth pieces of K_i it
has, which case each piece is (self window inside K_i, self window clipped by
an end of K_i, K_j contained in the ball, or clipped), and where the inner
nodes sit.  ``element_pieces(mesh, i)`` returns the pieces of K_i against all
its horizon neighbours as arrays (j, lo, hi, case).  Assembly and the collar
data functional walk those rows one by one; the energy sweep behind the
errors, the seminorm and the indicators evaluates all pieces of one element
in a few array batches.  Every caller keeps only its integrands.

``smooth_pieces`` is the same cut rule for one pair.  It stays public, with
``mesh.horizon_neighbors``, because the benchmark counts pieces with them, and
the tests hold ``element_pieces`` to it bit for bit.  ``nested_integrate``
stays apart as the independent reference.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import horizon_neighbors


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre rule on [-1, 1]; exact for polynomials up to degree 2n-1."""

    points: np.ndarray
    weights: np.ndarray
    n: int

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
    return QuadRule(pts, wts, n)


def intersect(element, center, delta):
    """Intersection of an element interval with B_delta(center); None if empty."""
    a, b = element
    lo = max(a, center - delta)
    hi = min(b, center + delta)
    if hi - lo <= 0.0:
        return None
    return lo, hi


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


def element_pieces(mesh, i):
    """Smooth pieces of K_i against all its horizon neighbours, as arrays.

    Returns (j, lo, hi, case): piece k is (lo[k], hi[k]) of K_i paired with
    K_j[k], ordered by j and then along K_i.  The pieces are those of
    ``smooth_pieces`` for each pair, evaluated for every neighbour at once;
    the case is decided with the one tolerance 1e-12 * max(1, delta).
    """
    delta = mesh.delta
    ai, bi = mesh.bounds(i)
    js = horizon_neighbors(mesh, i)
    aj, bj = mesh.nodes[js], mesh.nodes[js + 1]
    lo = np.maximum(ai, aj - delta)
    hi = np.minimum(bi, bj + delta)
    cut_tol = 1e-12 * max(bi - ai, delta)   # the tolerance of smooth_pieces
    # the crossings strictly inside (lo, hi) cut the window; the others are
    # moved onto hi, where they only add empty pieces
    cuts = np.stack((aj - delta, aj + delta, bj - delta, bj + delta), axis=1)
    inside = ((lo + cut_tol)[:, None] < cuts) & (cuts < (hi - cut_tol)[:, None])
    edges = np.sort(np.column_stack((lo, np.where(inside, cuts, hi[:, None]), hi)), axis=1)
    keep = (edges[:, 1:] - edges[:, :-1] > cut_tol) & (hi - lo > cut_tol)[:, None]
    row = np.nonzero(keep)[0]
    j, lo, hi = js[row], edges[:, :-1][keep], edges[:, 1:][keep]
    aj, bj = aj[row], bj[row]
    tol = 1e-12 * max(1.0, delta)
    self_inside = (lo >= aj + delta - tol) & (hi <= bj - delta + tol)
    contained = (lo >= bj - delta - tol) & (hi <= aj + delta + tol)
    case = np.where(j == i, np.where(self_inside, SELF_INSIDE, SELF_CLIPPED),
                    np.where(contained, CONTAINED, CLIPPED))
    return j, lo, hi, case


@lru_cache(maxsize=None)
def unit_rule(n):
    """Gauss-Legendre points and weights of order n on [0, 1]."""
    rule = gauss_legendre(n)
    q = 0.5 * (rule.points + 1.0)
    w = 0.5 * rule.weights
    q.flags.writeable = False
    w.flags.writeable = False
    return q, w


def inner_points(xs, bj, delta, q_in, w_in, split):
    """Inner nodes and weights on K_j ∩ B_delta(x) for every outer node x.

    ``q_in``, ``w_in`` is a rule on [0, 1] (``unit_rule``); with ``split`` the
    interval is split at x.  ``bj`` holds the bounds of K_j, scalars or arrays
    that broadcast against ``xs``.  Returns arrays of shape xs.shape + (n,)
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


def _union_pieces(mesh, i, neighbors):
    """Pieces of K_i delimited by every neighbor's intersection-pattern crossings."""
    ai, bi = mesh.bounds(i)
    tol = 1e-12 * max(bi - ai, mesh.delta)
    cuts = set()
    for j in neighbors:
        aj, bj = mesh.bounds(j)
        for c in (aj - mesh.delta, aj + mesh.delta, bj - mesh.delta, bj + mesh.delta):
            if ai + tol < c < bi - tol:
                cuts.add(c)
    edges = [ai, *sorted(cuts), bi]
    return [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)
            if edges[k + 1] - edges[k] > tol]


def nested_integrate(mesh, i, inner_kernel, outer_weight, *, n_out, n_in):
    """Reference nested integral over element i (see module docstring).

    ``inner_kernel(x, y_array)`` returns G(x, y) values; ``outer_weight(x, v)``
    maps the accumulated inner value v at x to the outer integrand.
    """
    delta = mesh.delta
    neighbors = horizon_neighbors(mesh, i)
    rule_out = gauss_legendre(n_out)
    rule_in = gauss_legendre(n_in)
    bounds = [mesh.bounds(j) for j in neighbors]

    total = 0.0
    for lo, hi in _union_pieces(mesh, i, neighbors):
        xs, ws = rule_out.map_to(lo, hi)
        for x_p, w_p in zip(xs, ws):
            inner = 0.0
            for seg_bounds in bounds:
                seg = intersect(seg_bounds, x_p, delta)
                if seg is None:
                    continue
                a, b = seg
                parts = ((a, x_p), (x_p, b)) if a < x_p < b else ((a, b),)
                for pa, pb in parts:
                    if pb - pa <= 0.0:
                        continue
                    ys, wy = rule_in.map_to(pa, pb)
                    inner += wy @ np.asarray(inner_kernel(x_p, ys), dtype=float)
            total += w_p * outer_weight(x_p, inner)
    return total
