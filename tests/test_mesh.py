"""Mesh construction, refinement, and horizon queries."""

import numpy as np
import pytest

from nlpg.mesh import (Mesh1d, horizon_neighbors, initial_mesh, refine_marked,
                       refine_uniform, uniform_mesh, write_nodes_csv)


def test_initial_mesh_nodes():
    m = initial_mesh(0.1)
    np.testing.assert_allclose(m.nodes, [-0.1, 0, 0.2, 0.4, 0.6, 0.8, 1, 1.1])
    assert m.n_elements == 7


def test_initial_mesh_small_delta():
    m = initial_mesh(1e-4)
    assert m.nodes[0] == -1e-4 and m.nodes[-1] == 1 + 1e-4
    np.testing.assert_allclose(m.nodes[1:-1], np.linspace(0, 1, 6))
    assert m.n_elements == 7


def test_initial_mesh_rejects_bad_delta():
    with pytest.raises(ValueError):
        initial_mesh(0.0)
    with pytest.raises(ValueError):
        initial_mesh(-0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            initial_mesh(bad)


def test_refine_uniform():
    m = refine_uniform(initial_mesh(0.1))
    assert m.n_elements == 12
    np.testing.assert_allclose(m.interior_widths, 0.1)
    # exterior elements untouched
    assert m.nodes[0] == -0.1 and m.nodes[-1] == 1.1
    for _ in range(3):
        m = refine_uniform(m)
    np.testing.assert_allclose(m.interior_widths, 0.2 / 2**4)


def test_refine_marked():
    m = initial_mesh(0.1)
    r = refine_marked(m, [1])
    np.testing.assert_allclose(r.nodes[:4], [-0.1, 0.0, 0.1, 0.2])
    assert r.n_elements == 8
    same = refine_marked(m, [])
    np.testing.assert_allclose(same.nodes, m.nodes)
    both = refine_marked(m, m.interior_elements)
    np.testing.assert_allclose(both.nodes, refine_uniform(m).nodes)


def test_refine_marked_rejects_exterior():
    m = initial_mesh(0.1)
    with pytest.raises(ValueError):
        refine_marked(m, [0])
    with pytest.raises(ValueError):
        refine_marked(m, [6])
    with pytest.raises(ValueError):
        refine_marked(m, [99])


def test_refine_marked_rejects_non_integer_indices():
    # a float index used to be truncated: 2.7 bisected element 2
    m = initial_mesh(0.1)
    for marked in ([2.7], [2.0], np.array([1, 2.5]), [True]):
        with pytest.raises(ValueError, match="element indices must be integers"):
            refine_marked(m, marked)
    assert refine_marked(m, np.array([2], dtype=np.uint8)).n_elements == 8


def test_interior_tiles_unit_interval_after_refinements():
    rng = np.random.default_rng(3)
    m = initial_mesh(0.02)
    for _ in range(6):
        marked = rng.choice(m.interior_elements,
                            size=rng.integers(1, 4), replace=False)
        m = refine_marked(m, marked)
        assert abs(m.interior_widths.sum() - 1.0) <= 1e-14
        assert m.nodes[1] == 0.0 and m.nodes[-2] == 1.0


def test_horizon_neighbors_cases():
    m = initial_mesh(0.1)
    assert list(horizon_neighbors(m, 3)) == [2, 3, 4]
    m2 = initial_mesh(1e-4)
    assert list(horizon_neighbors(m2, 3)) == [2, 3, 4]
    m3 = uniform_mesh(1.5, 5)
    assert list(horizon_neighbors(m3, 2)) == list(range(7))


def test_horizon_neighbors_symmetry():
    rng = np.random.default_rng(5)
    m = initial_mesh(0.17)
    m = refine_marked(m, rng.choice(m.interior_elements, size=2, replace=False))
    m = refine_marked(m, rng.choice(m.interior_elements, size=3, replace=False))
    neigh = [set(horizon_neighbors(m, i)) for i in range(m.n_elements)]
    for i in range(m.n_elements):
        assert i in neigh[i]
        for j in neigh[i]:
            assert i in neigh[j]


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1d(np.array([-0.1, 0.0, 0.5, 0.4, 1.0, 1.1]), 0.1)
    with pytest.raises(ValueError):
        Mesh1d(np.array([-0.2, 0.0, 0.5, 1.0, 1.1]), 0.1)


def test_nodes_csv_dump(tmp_path):
    m = initial_mesh(0.1)
    path = tmp_path / "nodes.csv"
    write_nodes_csv(m, path)
    vals = [float(line) for line in path.read_text().splitlines()]
    np.testing.assert_allclose(vals, m.nodes)
