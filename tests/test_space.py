"""Nodal spaces: DOF layout, interpolation, evaluation, boundary lift."""

import numpy as np
import pytest

from nlpg.mesh import initial_mesh, refine_uniform, uniform_mesh
from nlpg.space import (Space, barycentric_weights, boundary_lift, gauss_lobatto_nodes,
                        lagrange_basis)
from reference import graded_mesh, interpolate, lagrange_basis_plain


def test_dof_counts_p1():
    sp = Space(initial_mesh(0.1), 1)
    assert sp.n_dofs == 8
    assert sp.n_free == 4
    np.testing.assert_allclose(sp.dof_positions[sp.free_dofs], [0.2, 0.4, 0.6, 0.8])


def test_dof_counts_p2():
    sp = Space(initial_mesh(0.1), 2)
    assert sp.n_dofs == 15
    assert sp.n_free == 9   # 4 interior vertices + 5 interior bubbles


def test_dof_counts_refined():
    sp = Space(refine_uniform(initial_mesh(0.1)), 1)
    assert sp.n_free == 9


def test_order_validation():
    with pytest.raises(ValueError):
        Space(initial_mesh(0.1), 0)


def test_interpolate_reproduces_linears():
    sp = Space(initial_mesh(0.1), 1)
    c = interpolate(sp, lambda x: x)
    xs = np.linspace(-0.1, 1.1, 301)
    np.testing.assert_allclose(sp.evaluate(c, xs), xs, atol=1e-14)


def test_interpolate_reproduces_quintic_at_p5():
    sp = Space(initial_mesh(0.1), 5)
    c = interpolate(sp, lambda x: x**5)
    xs = np.linspace(-0.1, 1.1, 301)
    np.testing.assert_allclose(sp.evaluate(c, xs), xs**5, atol=1e-13)


def test_linear_interpolant_error_bound():
    # max error of the piecewise-linear interpolant of x^5 on (0, 1) against
    # the (5/8) * max|u''| * h^2 bound, sampled densely
    sp = Space(initial_mesh(0.1), 1)
    c = interpolate(sp, lambda x: x**5)
    xs = np.linspace(0.0, 1.0, 20001)
    err = np.abs(sp.evaluate(c, xs) - xs**5).max()
    assert 0.0 < err <= (5.0 / 8.0) * 20.0 * 0.2**2


def test_evaluate_basics():
    sp = Space(initial_mesh(0.1), 2)
    ones = np.ones(sp.n_dofs)
    xs = np.linspace(-0.1, 1.1, 57)
    np.testing.assert_allclose(sp.evaluate(ones, xs), 1.0, atol=1e-13)
    # hat coefficient peaks at one at its node
    c = np.zeros(sp.n_dofs)
    c[3] = 1.0
    assert sp.evaluate(c, sp.dof_positions[3]) == pytest.approx(1.0)
    # continuity at shared nodes
    for node in (0.2, 0.4, 0.8):
        left, right = sp.evaluate(c, np.array([node - 1e-13, node + 1e-13]))
        assert abs(left - right) <= 1e-11


@pytest.mark.parametrize("p", [1, 3, 7])
@pytest.mark.parametrize("make_mesh", [lambda: uniform_mesh(0.1, 10), lambda: graded_mesh(0.1)],
                         ids=["uniform", "graded"])
def test_values_match_per_element_products(make_mesh, p):
    # bit for bit the product a single element gives, for rows of several
    # points and of one point, in elements drawn in mixed order
    sp = Space(make_mesh(), p)
    rng = np.random.default_rng(p)
    coeffs = rng.standard_normal(sp.n_dofs)
    elems = rng.integers(0, sp.mesh.n_elements, size=60)
    a, b = sp.mesh.nodes[elems], sp.mesh.nodes[elems + 1]
    for x in (a[:, None] + rng.uniform(size=(60, 17)) * (b - a)[:, None],
              a + rng.uniform(size=60) * (b - a)):
        ref = [sp.local_basis(e, xk) @ coeffs[sp.element_dofs(e)] for e, xk in zip(elems, x)]
        assert np.array_equal(sp.values(coeffs, elems, x), np.reshape(ref, x.shape))


@pytest.mark.parametrize("k", [*range(2, 22), *range(129, 141)])
def test_lagrange_basis_keeps_the_bits_of_the_plain_formula(k):
    # the row-wise sum follows numpy's pairwise order for every branch: k < 8
    # one term after another, 8 <= k <= 128 eight accumulators and a tail,
    # k > 128 the split halves; a numpy that sums in another order fails here
    nodes = gauss_lobatto_nodes(k)
    weights = barycentric_weights(nodes)
    rng = np.random.default_rng(k)
    inside = rng.uniform(-1.0, 1.0, 1000)
    near = np.concatenate([nodes + 9e-15, nodes - 5e-15, nodes + 2e-14])
    outside = np.concatenate([rng.uniform(1.0, 5.0, 50), -rng.uniform(1.0, 5.0, 50),
                              [-1e3, 1e3]])
    mixed = rng.permutation(np.concatenate([inside[:100], nodes, near, outside]))
    for x in (inside, nodes, near, outside, mixed, np.empty(0), inside[:1], nodes[1:2]):
        # far outside, the terms can cancel to a zero sum: both give inf/nan there
        with np.errstate(divide="ignore", invalid="ignore"):
            basis = lagrange_basis(nodes, weights, x)
            plain = lagrange_basis_plain(nodes, weights, x)
        assert basis.shape == (len(x), k)
        assert basis.flags.c_contiguous
        assert basis.tobytes() == plain.tobytes()


def test_values_of_an_empty_point_set():
    # a chunk of the piece table may hold no row of some case
    sp = Space(initial_mesh(0.1), 3)
    assert sp.local_basis(np.empty((0, 1), int), np.empty((0, 4))).shape == (0, 4, 4)
    assert sp.values(np.ones(sp.n_dofs), np.empty(0, int), np.empty((0, 4))).shape == (0, 4)


def test_evaluate_outside_domain_raises():
    sp = Space(initial_mesh(0.1), 1)
    with pytest.raises(ValueError):
        sp.evaluate(np.zeros(sp.n_dofs), np.array([1.2]))
    with pytest.raises(ValueError):
        sp.evaluate(np.zeros(sp.n_dofs), np.array([-0.11]))


def test_partition_of_unity():
    rng = np.random.default_rng(11)
    sp = Space(initial_mesh(0.05), 4)
    ones = np.ones(sp.n_dofs)
    for e in range(sp.mesh.n_elements):
        a, b = sp.mesh.bounds(e)
        xs = rng.uniform(a, b, size=100)
        np.testing.assert_allclose(sp.local_basis(e, xs).sum(axis=1), 1.0, atol=1e-13)
        np.testing.assert_allclose(sp.evaluate(ones, xs), 1.0, atol=1e-13)


def test_free_basis_vanishes_on_collar():
    sp = Space(initial_mesh(0.1), 3)
    rng = np.random.default_rng(2)
    c = np.zeros(sp.n_dofs)
    c[sp.free_dofs] = rng.standard_normal(sp.n_free)
    xs = np.concatenate([np.linspace(-0.1, 0.0, 40), np.linspace(1.0, 1.1, 40)])
    np.testing.assert_allclose(sp.evaluate(c, xs), 0.0, atol=1e-14)


def test_free_row_numbers_the_free_dofs():
    sp = Space(refine_uniform(initial_mesh(0.1)), 3)
    assert np.array_equal(sp.free_row[sp.free_dofs], np.arange(sp.n_free))
    assert (sp.free_row[sp.constrained_dofs] == -1).all()


def test_boundary_lift_matches_data_at_nodes():
    sp = Space(initial_mesh(0.1), 3)
    g = lambda x: x**5
    lift = boundary_lift(sp, g)
    pos = sp.dof_positions
    np.testing.assert_allclose(lift[sp.constrained_dofs], g(pos[sp.constrained_dofs]))
    np.testing.assert_allclose(lift[sp.free_dofs], 0.0)
