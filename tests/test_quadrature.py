"""Gauss rules, the pair layer and the reference nested integration driver."""

import numpy as np
import pytest
from scipy.integrate import quad

from nlpg.kernels import constant_kernel_pair
from nlpg.mesh import horizon_neighbors, initial_mesh, refine_marked, refine_uniform
from nlpg.quadrature import (CHUNK_VALUES, CLIPPED, CONTAINED, SELF_CLIPPED, SELF_INSIDE, chunks,
                             gauss_legendre, inner_points, mesh_pieces, smooth_pieces)
from reference import intersect, nested_integrate


@pytest.mark.parametrize("n", [1, 2, 5, 16, 24])
def test_rule_polynomial_exactness(n):
    rule = gauss_legendre(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert rule.weights @ rule.points**k == pytest.approx(exact, abs=1e-13)


def test_rule_mapping():
    xs, ws = gauss_legendre(8).map_to(0.25, 0.75)
    assert ws.sum() == pytest.approx(0.5)
    assert ws @ xs**3 == pytest.approx((0.75**4 - 0.25**4) / 4)


def test_intersect_geometry():
    assert intersect((0.4, 0.6), 0.5, 0.05) == (0.45, 0.55)
    assert intersect((0.8, 1.0), 0.5, 0.05) is None
    lo, hi = intersect((0.4, 0.6), 0.41, 0.05)
    assert (lo, hi) == pytest.approx((0.40, 0.46))


def test_nested_constant_inner():
    # G = 1 integrates the ball length: inner value 2*delta at every x
    mesh = initial_mesh(0.01)
    val = nested_integrate(mesh, 3, lambda x, y: np.ones_like(y), lambda x, v: v,
                           n_out=8, n_in=8)
    assert val == pytest.approx(2 * 0.01 * 0.2, rel=1e-13)


def _hat(node, width):
    def phi(x):
        return max(0.0, 1.0 - abs(x - node) / width)
    return phi


def test_nested_recovers_nonlocal_diffusion_image():
    # inner kernel 2*gamma*(y^5 - x^5) accumulates L_delta x^5 = 20x^3 + 6 delta^2 x
    delta = 0.1
    mesh = initial_mesh(delta)
    k = constant_kernel_pair(delta)
    phi = _hat(0.4, 0.2)

    def g(x, y):
        return 2.0 * k.eval_diffusion(y - x) * (y**5 - x**5)

    val = sum(nested_integrate(mesh, i, g, lambda x, v: v * phi(x), n_out=16, n_in=16)
              for i in (2, 3))
    oracle, _ = quad(lambda x: phi(x) * (20 * x**3 + 6 * delta**2 * x), 0.2, 0.6,
                     points=[0.4], limit=100, epsabs=1e-14)
    assert val == pytest.approx(oracle, rel=1e-10)


def test_nested_recovers_nonlocal_gradient_of_identity():
    # first-moment identity: the gradient operator maps u = x to 1
    delta = 0.1
    mesh = initial_mesh(delta)
    k = constant_kernel_pair(delta)

    def g(x, y):
        return k.eval_convection_signed(y - x) * (y - x)

    val = nested_integrate(mesh, 3, g, lambda x, v: v, n_out=16, n_in=16)
    assert val == pytest.approx(0.2, rel=1e-12)   # integral of 1 over K_3


def test_nested_matches_adaptive_oracle_with_small_horizon():
    # delta below the element width exercises the smooth-piece outer splitting
    delta = 0.05
    mesh = initial_mesh(delta)
    k = constant_kernel_pair(delta)

    def g(x, y):
        return k.eval_diffusion(y - x) * (y - x) ** 2 * (1.0 + y)

    def outer(x):
        breaks = [p for p in mesh.nodes if x - delta < p < x + delta]
        val, _ = quad(lambda y: g(x, y), x - delta, x + delta, points=breaks,
                      limit=200, epsabs=1e-14)
        return val * x

    i = 2
    ours = nested_integrate(mesh, i, g, lambda x, v: v * x, n_out=16, n_in=16)
    a, b = mesh.bounds(i)
    cuts = sorted({a, b} | {p + s * delta for p in mesh.nodes for s in (-1, 1)
                            if a < p + s * delta < b})
    oracle = sum(quad(outer, lo, hi, limit=200, epsabs=1e-14)[0]
                 for lo, hi in zip(cuts[:-1], cuts[1:]))
    assert ours == pytest.approx(oracle, rel=1e-12)


def test_inner_split_makes_convection_order_insensitive():
    delta = 0.1
    mesh = initial_mesh(delta)
    k = constant_kernel_pair(delta)

    def g(x, y):
        return k.eval_convection_signed(y - x) * (y**3 - x**3)

    v1 = nested_integrate(mesh, 3, g, lambda x, v: v, n_out=16, n_in=16)
    v2 = nested_integrate(mesh, 3, g, lambda x, v: v, n_out=16, n_in=32)
    assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


def _pair_layer_meshes(delta):
    graded = initial_mesh(delta)
    for _ in range(4):   # bisect towards x = 1 so neighbours differ in width
        graded = refine_marked(graded, [graded.n_elements - 2, graded.n_elements - 3])
    return [refine_uniform(refine_uniform(initial_mesh(delta))), graded]


def _pairs(mesh):
    ii, jj, lo, hi, case = mesh_pieces(mesh)
    for i in range(mesh.n_elements):
        for j in horizon_neighbors(mesh, i):
            pair = (ii == i) & (jj == j)
            yield i, j, list(zip(lo[pair], hi[pair], case[pair]))


@pytest.mark.parametrize("delta", [0.1, 1e-4])
def test_mesh_pieces_match_the_scalar_cut_and_case_rule(delta):
    # mesh_pieces evaluates smooth_pieces and the case rule for all pairs of
    # the mesh at once; every value must come out bit for bit, in this order
    for mesh in _pair_layer_meshes(delta):
        tol = 1e-12 * max(1.0, delta)
        expected = []
        for i in range(mesh.n_elements):
            for j in horizon_neighbors(mesh, i):
                aj, bj = mesh.bounds(j)
                for lo, hi in smooth_pieces(mesh.bounds(i), (aj, bj), delta):
                    if j == i:
                        inside = lo >= aj + delta - tol and hi <= bj - delta + tol
                        case = SELF_INSIDE if inside else SELF_CLIPPED
                    elif lo >= bj - delta - tol and hi <= aj + delta + tol:
                        case = CONTAINED
                    else:
                        case = CLIPPED
                    expected.append((i, j, lo, hi, case))
        assert list(zip(*mesh_pieces(mesh))) == expected


@pytest.mark.parametrize("delta", [0.1, 1e-4])
def test_pair_pieces_tile_the_interaction_window(delta):
    for mesh in _pair_layer_meshes(delta):
        tol = 1e-12 * max(1.0, delta)
        for i, j, pieces in _pairs(mesh):
            (ai, bi), (aj, bj) = mesh.bounds(i), mesh.bounds(j)
            lo, hi = max(ai, aj - delta), min(bi, bj + delta)
            if hi - lo <= tol:
                assert pieces == []
                continue
            assert pieces[0][0] == pytest.approx(lo, abs=tol)
            assert pieces[-1][1] == pytest.approx(hi, abs=tol)
            for (_, end, _), (start, _, _) in zip(pieces[:-1], pieces[1:]):
                assert start == pytest.approx(end, abs=tol)
            assert all(b > a for a, b, _ in pieces)


@pytest.mark.parametrize("delta", [0.1, 1e-4])
def test_pair_piece_cases(delta):
    seen = set()
    for mesh in _pair_layer_meshes(delta):
        tol = 1e-12 * max(1.0, delta)
        for i, j, pieces in _pairs(mesh):
            (ai, bi), (aj, bj) = mesh.bounds(i), mesh.bounds(j)
            for lo, hi, case in pieces:
                seen.add(case)
                assert (case in (SELF_INSIDE, SELF_CLIPPED)) == (j == i)
                if case == SELF_INSIDE:   # B_delta(x) inside K_i on the whole piece
                    assert lo - delta >= ai - tol and hi + delta <= bi + tol
                if case == CONTAINED:     # K_j inside B_delta(x) at both ends
                    for x in (lo, hi):
                        assert x - delta <= aj + tol and x + delta >= bj - tol
    # delta = 0.1 spans elements of width 0.05 and less; delta = 1e-4 never does
    assert seen == ({SELF_CLIPPED, CONTAINED, CLIPPED} if delta == 0.1
                    else {SELF_INSIDE, SELF_CLIPPED, CLIPPED})


@pytest.mark.parametrize("delta", [0.1, 1e-4])
def test_inner_weights_measure_the_intersection(delta):
    rule = gauss_legendre(8)
    q, w = gauss_legendre(10).map_to(0.0, 1.0)
    for mesh in _pair_layer_meshes(delta):
        for i, j, pieces in _pairs(mesh):
            aj, bj = mesh.bounds(j)
            for lo, hi, case in pieces:
                xs, _ = rule.map_to(lo, hi)
                y, wy = inner_points(xs, (aj, bj), delta, q, w, split=j == i)
                length = np.minimum(bj, xs + delta) - np.maximum(aj, xs - delta)
                np.testing.assert_allclose(wy.sum(axis=1), length, rtol=0, atol=1e-13)
                if case == CONTAINED:
                    np.testing.assert_allclose(wy.sum(axis=1), bj - aj, rtol=0, atol=1e-13)
                assert np.all(y >= np.maximum(aj, xs - delta)[:, None])
                assert np.all(y <= np.minimum(bj, xs + delta)[:, None])


def test_chunks_cut_consecutive_runs_by_the_cost_of_each_row():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 600):
        rows = np.sort(rng.choice(10 * n + 1, n, replace=False))   # distinct, increasing
        for cost in (rng.integers(1, 2 * CHUNK_VALUES, n), rng.choice([256, 2048], n),
                     rng.integers(1, CHUNK_VALUES // 50, n)):
            runs = chunks(rows, cost)
            # nonempty runs that together are rows, in order: consecutive slices
            assert all(len(run) for run in runs)
            assert np.array_equal(np.concatenate([rows[:0], *runs]), rows)
            stops = np.cumsum([len(run) for run in runs])
            for start, stop in zip([0, *stops[:-1]], stops):
                # within the budget unless a single row, and cut only where the
                # next row would pass it
                assert cost[start:stop].sum() <= CHUNK_VALUES or stop - start == 1
                if stop < n:
                    assert cost[start:stop + 1].sum() > CHUNK_VALUES
        for cost in (1, 256, 2048, CHUNK_VALUES, 3 * CHUNK_VALUES):
            size = max(1, CHUNK_VALUES // cost)
            old = [rows[k:k + size] for k in range(0, n, size)]
            runs = chunks(rows, cost)
            assert len(runs) == len(old)
            assert all(np.array_equal(a, b) for a, b in zip(runs, old))
