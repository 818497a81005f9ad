"""Independent references that only the tests use.

None of them is on the program's path, and each is written for clarity, not
speed: a scalar nested integration over one element at a time, the Gram
matrix as the plain dense expression whose bits the band build keeps, the
discrete optimal test norm, the energy seminorm of a discrete function, a
least-squares log-log slope, a dense quadrature of one hat function's
energy, the graded mesh that several tests share, the interpolant of a
function in a space, and the barycentric Lagrange basis as the plain
expression whose bits ``space.lagrange_basis`` keeps.  ``dense_block`` and
``dense_B`` give the trial blocks of the assembly and B as the dense
matrices the band storage replaced.  The refined solve of the mixed system,
``refined_solve``, is the one of ``tools/parity.py``.

Import with ``from reference import ...``; pytest puts this directory on the
path of the test modules beside it.
"""

import math
import os
import sys

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve

from nlpg.analysis import pair_energies
from nlpg.assembly import Band, assemble_mass_mean, assemble_nonlocal_forms, kkt_layout
from nlpg.kernels import constant_kernel_pair
from nlpg.mesh import horizon_neighbors, refine_marked, uniform_mesh
from nlpg.quadrature import gauss_legendre, mesh_pieces

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
from parity import refined_solve  # noqa: E402


def intersect(element, center, delta):
    """Intersection of an element interval with B_delta(center); None if empty."""
    a, b = element
    lo = max(a, center - delta)
    hi = min(b, center + delta)
    if hi - lo <= 0.0:
        return None
    return lo, hi


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
    """int_{K_i} outer_weight(x, sum_j int_{K_j ∩ B_delta(x)} inner_kernel(x, y) dy) dx.

    Gauss rules on both levels, one outer point at a time: the outer rule per
    smooth piece of K_i, and every inner interval that holds x strictly
    inside split at x.  ``inner_kernel(x, y_array)`` returns the inner values;
    ``outer_weight(x, v)`` maps the accumulated inner value v at x to the
    outer integrand.
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


def gram(test, diffusion_vv, eps, norm):
    """Gram matrix of the test norm as the plain dense expression 0.5 (X + X^T).

    X = eps^2 A + M - m m^T / |Omega| for 'app', X = A for 'eng', with A the
    dense free-column block ``diffusion_vv`` of the test-space diffusion
    matrix and M, m the mass matrix and mean vector.  ``diffusion_vv`` is
    left as it is.
    """
    X = diffusion_vv
    if norm == "app":
        # M in the layout of the test space beside itself, whose band holds
        # every pair within the horizon
        M, m = assemble_mass_mean(
            test, Band.zeros(kkt_layout(test, test), test.n_free, square=True))
        M = M.toarray()
        omega = test.mesh.nodes[-2] - test.mesh.nodes[1]
        X = eps**2 * diffusion_vv + M - np.outer(m, m) / omega
    return 0.5 * (X + X.T)


def dense_block(block, space):
    """A trial block of ``assemble_nonlocal_forms`` as the dense matrix on
    every DOF of its column space: the band at the free DOFs and the dense
    edge at the constrained ones."""
    out = np.zeros((block.shape[0], space.n_dofs))
    out[:, space.free_dofs] = block.toarray()
    out[:, space.constrained_dofs] = block.edge
    return out


def dense_B(test, trial, eps):
    """B as the plain dense expression (eps A_vu + C_vu) on the free trial
    columns, with the dense trial blocks of ``dense_block``."""
    A, C = (dense_block(M, trial) for M in assemble_nonlocal_forms(test, trial)[:2])
    return (eps * A + C)[:, trial.free_dofs]


def compute_discrete_optimal_norm(v, test, eps):
    """Discrete optimal test norm of a free test-space vector.

    Evaluates eps^2 * energy + (w, A^{-1} w) with w the Galerkin image of the
    nonlocal gradient of v; an offline diagnostic, not a solver norm.
    """
    v = np.asarray(v, dtype=float)
    A, C, _ = assemble_nonlocal_forms(test, test)
    Aff = A.toarray()
    Aff = 0.5 * (Aff + Aff.T)
    w = C.toarray() @ v
    z = cho_solve(cho_factor(Aff, lower=True), w)
    return float(math.sqrt(eps**2 * (v @ Aff @ v) + w @ z))


def energy_seminorm(space, coeffs):
    """S_delta seminorm of a discrete function, over the full Omega_delta."""
    total, = pair_energies(space, [(coeffs, None)], constant_kernel_pair(space.mesh.delta),
                           mesh_pieces(space.mesh))
    return math.sqrt(total.sum())


def loglog_slope(ns, errs):
    """Least-squares slope of log(err) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(errs, dtype=float)), 1)[0])


def graded_mesh(delta):
    """Ten interior elements of width 0.1, the one at x = 1 bisected three
    times: widths down to 0.0125."""
    mesh = uniform_mesh(delta, 10)
    for _ in range(3):
        mesh = refine_marked(mesh, [mesh.n_elements - 2])
    return mesh


def contained_meshes():
    """Meshes where K_j lies inside the ball for most pairs, by name: uniform
    at delta/h = 1.5, 8 and 32 (an integer delta/h puts the ends of some
    CONTAINED pieces within the case tolerance past a crossing), ``graded_mesh(0.1)``
    and a uniform delta = 0.05 mesh whose first two interior elements are
    bisected four times, widths down to 1/640."""
    graded_left = uniform_mesh(0.05, 40)
    for _ in range(4):
        graded_left = refine_marked(graded_left, [1, 2])
    return {"1.5": uniform_mesh(0.15, 10), "8": uniform_mesh(0.1, 80),
            "32": uniform_mesh(0.1, 320), "graded": graded_mesh(0.1),
            "graded-left": graded_left}


def hat(x):
    """The hat function at x = 0.4 of the initial mesh, support (0.2, 0.6)."""
    return max(0.0, 1.0 - abs(x - 0.4) / 0.2)


def hat_energy_by_quad(mesh, kernel):
    """int int K(y - x) (hat(y) - hat(x))^2 dy dx over x in (0.1, 0.7) and y
    in B_delta(x) within the mesh, by adaptive quadrature (``scipy quad``)
    with the mesh nodes as break points.  For delta <= 0.1 this is the whole
    energy of the hat."""
    delta = kernel.delta

    def inner(x):
        lo, hi = max(mesh.nodes[0], x - delta), min(mesh.nodes[-1], x + delta)
        breaks = [p for p in mesh.nodes if lo < p < hi]
        val, _ = quad(lambda y: kernel.eval_diffusion(y - x) * (hat(y) - hat(x)) ** 2,
                      lo, hi, points=breaks, limit=200, epsabs=1e-14)
        return val

    cuts = np.arange(0.1, 0.71, 0.1)
    return sum(quad(inner, lo, hi, limit=200, epsabs=1e-13)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def interpolate(space, f):
    """Coefficients of ``space`` matching f at its interpolation nodes."""
    return np.asarray(f(space.dof_positions), dtype=float).copy()


def lagrange_basis_plain(nodes, weights, x):
    """All Lagrange cardinal polynomials at points x, shape (len(x), len(nodes)),
    one point per row, the barycentric sum taken by ``ndarray.sum``."""
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
