"""Discrete operator matrices: annihilation, symmetry, SPD, load consistency."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import nlpg.assembly
from nlpg import quadrature
from nlpg.assembly import (Band, _gram, assemble_mass_mean, assemble_nonlocal_forms,
                           boundary_defect_load, kkt_layout, load_vector,
                           mixed_system_from_parts)
from nlpg.driver import solve_problem
from nlpg.kernels import KernelPair, constant_kernel_pair, forcing_smooth_nonlocal
from nlpg.mesh import initial_mesh, refine_uniform, uniform_mesh
from nlpg.problems import Problem, make_problem
from nlpg.quadrature import CONTAINED, N_OVER, gauss_legendre, mesh_pieces
from nlpg.space import Space, boundary_lift
from reference import (contained_meshes, dense_B, dense_block, graded_mesh, gram, hat,
                       hat_energy_by_quad, interpolate, nested_integrate)


@pytest.fixture(scope="module", params=[0.1, 0.02, 1e-4])
def setup(request):
    delta = request.param
    mesh = refine_uniform(initial_mesh(delta))
    trial = Space(mesh, 1)
    test = Space(mesh, 3)
    A, C = (dense_block(M, trial) for M in assemble_nonlocal_forms(test, trial)[:2])
    Avv, Cvv = (dense_block(M, test) for M in assemble_nonlocal_forms(test, test)[:2])
    return mesh, trial, test, A, C, Avv, Cvv


# the first three hold the mirrored and the Taylor self windows and adjacent
# clipped windows, the last (h < delta) K_j contained in the ball and several
# chunks
SWEEP_MESHES = pytest.mark.parametrize(
    "mesh", [*(refine_uniform(initial_mesh(d)) for d in (0.1, 0.02, 1e-4)),
             uniform_mesh(0.1, 40)], ids=["0.1", "0.02", "0.0001", "0.1-contained"])


@SWEEP_MESHES
def test_matrices_do_not_depend_on_the_chunking(mesh, monkeypatch):
    # one piece per chunk adds the pieces in the order of a loop over the
    # table; every chunking must give each entry the same additions in the
    # same order, so the bits must not change
    trial, test = Space(mesh, 1), Space(mesh, 3)
    g = lambda x: np.asarray(x) ** 5 + 1.0
    lift = boundary_lift(trial, g)

    def assemble():
        A_vu, C_vu, A_vv = assemble_nonlocal_forms(test, trial)
        _, C_ww, A_ww = assemble_nonlocal_forms(test, test)
        return (A_vu.data, A_vu.edge, C_vu.data, C_vu.edge, A_vv.data, C_ww.data, C_ww.edge,
                A_ww.data, boundary_defect_load(test, trial, lift, g, 0.01))

    runs = []   # the run count of every walk over the table

    def counted(rows, cost):
        found = quadrature.chunks(rows, cost)
        runs.append(len(found))
        return found

    monkeypatch.setattr(nlpg.assembly, "chunks", counted)
    whole = assemble()
    if (mesh_pieces(mesh)[4] == CONTAINED).any():
        # the default walk of the operator assembly, the second walk after
        # that of the CONTAINED tables, must not be one chunk, or the
        # comparison below would show nothing
        assert runs[1] > 1
    # 2**12 values mix CONTAINED rows and others in one run
    for budget in (2**12, 1):
        monkeypatch.setattr(quadrature, "CHUNK_VALUES", budget)
        for new, old in zip(assemble(), whole):
            assert np.array_equal(new, old)


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 40), graded_mesh(0.1)],
                         ids=["uniform", "graded"])
@pytest.mark.parametrize("p", [1, 3, 7])
def test_element_basis_table_gives_the_bits_of_the_per_row_basis(mesh, p):
    # the assembly evaluates each element's basis at the element's own inner
    # Gauss points once and gathers the rows of its CONTAINED pieces from that
    # table; every gathered row must be the per-row local_basis call's
    space = Space(mesh, p)
    j = mesh_pieces(mesh)[1]
    for n_in in {p + N_OVER, 7 + N_OVER}:
        elem_y, _ = gauss_legendre(n_in).map_to(mesh.nodes[:-1, None], mesh.nodes[1:, None])
        table = space.local_basis(np.arange(mesh.n_elements)[:, None], elem_y)
        for jb in (j[:1], j[::7], j):
            assert np.array_equal(table[jb], space.local_basis(jb[:, None], elem_y[jb]))


@pytest.mark.parametrize("name", contained_meshes())
@pytest.mark.parametrize("p", [1, 3, 9])
def test_contained_rows_have_the_bits_of_the_kernel_weights(name, p):
    # a CONTAINED row evaluates no kernel: its diffusion products and row
    # sums come from the per-element tables and its convection weights from
    # the kernel's formula inside the horizon.  Each must be byte for byte
    # what the kernel weights of _signed_weights give, with the per-piece
    # product wK @ By and sum, at n_out = p + N_OVER outer and one more inner
    # points, as for a trial space of order p + 1
    mesh = contained_meshes()[name]
    space, kernel = Space(mesh, p), KernelPair(mesh.delta)
    n_out, n_in = p + N_OVER, p + 1 + N_OVER
    i, j, lo, hi, case = mesh_pieces(mesh)
    co = np.flatnonzero((case == CONTAINED) & (i > 0) & (i < mesh.n_elements - 1))
    if name in ("8", "32", "graded-left"):
        # some pieces end within the case tolerance past a crossing
        assert ((hi[co] > mesh.nodes[j[co]] + mesh.delta)
                | (lo[co] < mesh.nodes[j[co] + 1] - mesh.delta)).any()
    elem_y, elem_w = gauss_legendre(n_in).map_to(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    held = np.unique(j[co])
    basis = space.local_basis(held[:, None], elem_y[held])
    s_diff, (Z_diff,) = nlpg.assembly._diffusion_tables(kernel, elem_w[held], n_out, [basis])
    for r in quadrature.chunks(co, n_out * n_in):
        xs, _ = gauss_legendre(n_out).map_to(lo[r, None], hi[r, None])
        y, wy = elem_y[j[r], None], elem_w[j[r], None]
        w_diff, w_conv = nlpg.assembly._signed_weights(kernel, xs, y, wy)
        row = np.searchsorted(held, j[r])
        assert Z_diff[row].tobytes() == (w_diff @ basis[row]).tobytes()
        assert (np.broadcast_to(s_diff[row, None], xs.shape).tobytes()
                == w_diff.sum(axis=-1).tobytes())
        assert (nlpg.assembly._contained_convection(kernel, xs, y, wy).tobytes()
                == w_conv.tobytes())


@SWEEP_MESHES
def test_test_space_as_trial_space_gives_the_diffusion_block(mesh):
    # the tests that need C_vv assemble with trial = test; the free columns
    # of the A_vu they get must be the A_vv that the program builds beside
    # its trial columns, bit for bit, on the band of the KKT layout
    for p, dp in ((1, 2), (2, 3)):
        trial, test = Space(mesh, p), Space(mesh, p + dp)
        A_vv = assemble_nonlocal_forms(test, trial)[2]
        k = kkt_layout(test, trial)[1]
        assert A_vv.data.shape == (2 * k + 1, test.n_free) and A_vv.mean is None
        assert np.array_equal(assemble_nonlocal_forms(test, test)[0].toarray(),
                              A_vv.toarray())


@pytest.mark.parametrize("delta", [0.1, 0.02])
def test_boundary_defect_load_against_nested_integration(delta):
    # b(w, v) = int v(x) int (-2 eps K_A + K_C)(y - x) w(y) dy dx for the
    # collar defect w = g - I_h g, by the scalar reference driver element by
    # element (delta = 1e-4 is left out: there the reference loses digits)
    eps = 0.01
    mesh = refine_uniform(initial_mesh(delta))
    trial, test = Space(mesh, 1), Space(mesh, 3)
    kernel = constant_kernel_pair(delta)
    g = lambda x: np.asarray(x, dtype=float) ** 5 + 1.0
    F = boundary_defect_load(test, trial, boundary_lift(trial, g), g, eps)

    nodes, last = mesh.nodes, mesh.n_elements - 1
    collar = lambda y: (y < nodes[1]) | (y > nodes[-2])
    w = lambda y: np.where(collar(y), g(y) - np.interp(y, nodes, g(nodes)), 0.0)
    density = lambda x, ys: (-2.0 * eps * kernel.eval_diffusion(ys - x)
                             + kernel.eval_convection_signed(ys - x)) * w(ys)
    ref = np.zeros(test.n_dofs)
    for e in range(1, last):
        ref[test.element_dofs(e)] += nested_integrate(
            mesh, e, density, lambda x, v: test.local_basis(e, x)[0] * v,
            n_out=test.order + N_OVER, n_in=test.order + N_OVER)
    ref = ref[test.free_dofs]
    assert np.abs(ref).max() > 0.0
    assert np.abs(F - ref).max() <= 1e-12 * np.abs(F).max()


def test_diffusion_annihilates_constants(setup):
    _, trial, _, A, _, _, _ = setup
    resid = A @ np.ones(trial.n_dofs)
    assert np.abs(resid).max() <= 1e-12 * np.abs(A).max()


def test_diffusion_annihilates_linears(setup):
    _, trial, _, A, _, _, _ = setup
    resid = A @ interpolate(trial, lambda x: x)
    assert np.abs(resid).max() <= 1e-12 * np.abs(A).max()


def test_diffusion_free_block_symmetric_positive(setup):
    _, _, test, _, _, Avv, _ = setup
    ff = Avv[:, test.free_dofs]
    assert np.abs(ff - ff.T).max() <= 1e-10 * np.abs(ff).max()
    assert np.linalg.eigvalsh(0.5 * (ff + ff.T)).min() > 0.0


def test_convection_annihilates_constants(setup):
    _, trial, _, _, C, _, _ = setup
    resid = C @ np.ones(trial.n_dofs)
    assert np.abs(resid).max() <= 1e-12 * np.abs(C).max()


def test_convection_of_identity_is_mass_vector(setup):
    _, trial, test, _, C, _, _ = setup
    _, m = assemble_mass_mean(test, Band.zeros(kkt_layout(test, trial), test.n_free,
                                               square=True))
    np.testing.assert_allclose(C @ interpolate(trial, lambda x: x), m,
                               rtol=0, atol=1e-12 * np.abs(m).max())


def test_convection_free_block_antisymmetric(setup):
    _, _, test, _, _, _, Cvv = setup
    ff = Cvv[:, test.free_dofs]
    defect = np.abs(ff + ff.T).max() / np.abs(ff).max()
    print(f"antisymmetry defect (delta={test.mesh.delta:g}): {defect:.3e}")
    assert defect <= 1e-10


def test_bilinear_form_definite_on_random_vectors(setup):
    _, _, test, _, _, Avv, Cvv = setup
    eps = 0.01
    Aff = Avv[:, test.free_dofs]
    Cff = Cvv[:, test.free_dofs]
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.standard_normal(test.n_free)
        quad_form = v @ (eps * Aff + Cff) @ v
        energy = eps * (v @ Aff @ v)
        assert quad_form > 0.0
        assert quad_form == pytest.approx(energy, rel=1e-10)


def test_gram_app_eps_zero_is_spd(setup):
    _, trial, test, _, _, _, _ = setup
    G = _gram(test, assemble_nonlocal_forms(test, trial)[2], 0.0, "app")
    assert np.linalg.eigvalsh(G.toarray()).min() > 0.0


def test_gram_eng_equals_diffusion_block(setup):
    _, trial, test, _, _, Avv, _ = setup
    ff = Avv[:, test.free_dofs]
    G = _gram(test, assemble_nonlocal_forms(test, trial)[2], 0.01, "eng")
    np.testing.assert_allclose(G.toarray(), 0.5 * (ff + ff.T))


def _not_reached(*args):
    raise AssertionError("assembled")


def test_gram_rejects_unknown_norm(setup, monkeypatch):
    # every bad norm list, an unknown norm among them, is rejected before
    # anything is assembled
    _, trial, test, _, _, _, _ = setup
    problem = make_problem("smooth-nonlocal", 0.01, test.mesh.delta)
    monkeypatch.setattr(nlpg.assembly, "assemble_nonlocal_forms", _not_reached)
    for bad, message in ((("opt",), "unknown test norm 'opt'"),
                         (("app", "opt"), "unknown test norm 'opt'"),
                         (("app", "app"), "distinct"), ((), "at least one"),
                         ("app", "got the string 'app'")):
        with pytest.raises(ValueError, match=message):
            mixed_system_from_parts(trial, test, 0.01, problem, bad)


@pytest.mark.parametrize("norm", ["app", "eng"])
def test_gram_equals_the_plain_expression(norm):
    # a random, unsymmetric band checks every slot of the symmetrization on
    # the band, and the densified G every entry off it (the mean term of
    # 'app'), byte for byte; G @ x, with the mean term, is the dense product
    # up to the order of the sums.  The second mesh's band is wider than its
    # matrix, so slots lie past both corners.
    rng = np.random.default_rng(3)
    for mesh in (uniform_mesh(1e-4, 200), uniform_mesh(0.3, 8)):
        test = Space(mesh, 3)
        A = Band.zeros(kkt_layout(test, Space(mesh, 1)), test.n_free, square=True)
        A.data[:] = rng.standard_normal(A.data.shape)
        expected = gram(test, A.toarray(), 0.01, norm)
        G = _gram(test, A, 0.01, norm)
        assert G.toarray().tobytes() == expected.tobytes()
        # mirror slots are bit-equal: G.T.T is G without the slots that
        # hold no entry, which the random band fills and the transpose drops
        assert G.T.data.tobytes() == G.T.T.data.tobytes()
        x = rng.standard_normal(test.n_free)
        assert np.abs(G @ x - expected @ x).max() <= 1e-14 * (np.abs(expected) @ np.abs(x)).max()


@pytest.mark.parametrize("norm", ["app", "eng"])
def test_system_build_holds_no_dense_test_array(norm):
    # delta = 1e-4 on 640 elements, dp = 6: n_test = 4479 and n_trial = 639,
    # so one n_test x n_test array takes 160 MB and one n_test x n_trial
    # array 23 MB, where the build holds bands of 35 rows and the chunk
    # temporaries of the assembly (6.7 MB in all; 51 MB with the dense
    # trial blocks)
    mesh = uniform_mesh(1e-4, 640)
    trial, test = Space(mesh, 1), Space(mesh, 7)
    problem = make_problem("smooth-nonlocal", 0.01, 1e-4)
    tracemalloc.start()
    try:
        mixed_system_from_parts(trial, test, 0.01, problem, (norm,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert test.n_free == 4479 and peak <= 0.4 * 8 * test.n_free**2
    assert trial.n_free == 639 and peak <= 0.5 * 8 * test.n_free * trial.n_free


def test_systems_share_B_and_F():
    # one B and one F for every norm; each norm has its own G
    mesh = initial_mesh(0.1)
    trial, test = Space(mesh, 1), Space(mesh, 3)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    for norms in (("app", "eng"), ("eng", "app")):
        lift, systems = mixed_system_from_parts(trial, test, 0.01, problem, norms)
        assert list(systems) == list(norms) and lift.shape == (trial.n_dofs,)
        first, last = systems.values()
        assert first.B is last.B and first.F is last.F and first.G is not last.G
        assert first.B.shape == (test.n_free, trial.n_free) and first.B.edge is None


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 20), graded_mesh(0.01),
                                  uniform_mesh(1e-4, 40), uniform_mesh(0.3, 8)],
                         ids=["uniform", "graded", "small-horizon", "horizon-past-elements"])
@pytest.mark.parametrize("p, dp", [(1, 2), (2, 3)])
def test_B_is_the_band_of_the_dense_B(mesh, p, dp):
    # B is op's band on the free trial columns: densified, the plain dense
    # expression bit for bit; its products and its transpose's, the dense
    # ones up to the order of the sums.  The last mesh's band is wider than
    # B has rows
    trial, test = Space(mesh, p), Space(mesh, p + dp)
    problem = make_problem("smooth-nonlocal", 0.01, mesh.delta)
    B = mixed_system_from_parts(trial, test, 0.01, problem, ("app",))[1]["app"].B
    expected = dense_B(test, trial, 0.01)
    assert B.shape == expected.shape and B.T.shape == expected.T.shape
    assert B.T.rows is B.cols and B.T.cols is B.rows
    assert all(getattr(B.T.T, f).tobytes() == getattr(B, f).tobytes()
               for f in ("data", "rows", "cols"))
    assert B.toarray().tobytes() == expected.tobytes()
    assert np.array_equal(B.T.toarray(), expected.T)
    rng = np.random.default_rng(5)
    u, psi = rng.standard_normal(trial.n_free), rng.standard_normal(test.n_free)
    for band, dense, x in ((B, expected, u), (B.T, expected.T, psi)):
        assert np.abs(band @ x - dense @ x).max() <= 1e-14 * (np.abs(dense) @ np.abs(x)).max()


@pytest.mark.parametrize("band", ["B", "B.T", "G"])
def test_band_product_rejects_a_vector_of_the_wrong_shape(band, monkeypatch):
    # a scalar or a vector of another length must not broadcast: the
    # product raises before it builds anything
    mesh = initial_mesh(0.1)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    system = mixed_system_from_parts(Space(mesh, 1), Space(mesh, 3), 0.01, problem,
                                     ("app",))[1]["app"]
    matrix = {"B": system.B, "B.T": system.B.T, "G": system.G}[band]
    monkeypatch.setattr(Band, "core", _not_reached)
    for x in (1.0, np.array([2.0]), np.ones(matrix.shape[1] + 1),
              np.ones((matrix.shape[1], 1))):
        with pytest.raises(ValueError, match=f"vector of length {matrix.shape[1]}"):
            matrix @ x


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 20), graded_mesh(0.01),
                                  uniform_mesh(1e-4, 40), uniform_mesh(0.3, 8),
                                  uniform_mesh(0.6, 5)],
                         ids=["uniform", "graded", "small-horizon", "horizon-past-elements",
                              "rows-meet-both-ends"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_F_is_the_plain_dense_expression(mesh, p):
    # F = (f, v) - op lift - b(w, v), op = eps A_vu + C_vu, byte for byte as
    # the plain dense expression with the dense trial blocks: op @ lift is
    # taken over the rows that meet a constrained column only.  On the last
    # mesh some rows meet both ends
    trial, test = Space(mesh, p), Space(mesh, p + 2)
    A, C = (dense_block(M, trial) for M in assemble_nonlocal_forms(test, trial)[:2])
    for name in ("smooth-nonlocal", "sharp"):
        problem = make_problem(name, 0.01, mesh.delta)
        lift, systems = mixed_system_from_parts(trial, test, 0.01, problem, ("eng",))
        expected = (load_vector(test, problem.forcing) - (0.01 * A + C) @ lift
                    - boundary_defect_load(test, trial, lift, problem.u_exact, 0.01))
        assert systems["eng"].F.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 20), graded_mesh(0.01),
                                  uniform_mesh(1e-4, 12), uniform_mesh(0.3, 8)],
                         ids=["wide", "graded", "small-horizon", "horizon-past-elements"])
@pytest.mark.parametrize("p, dp", [(1, 2), (2, 3), (1, 6)])
def test_kkt_band_holds_every_coupling(mesh, p, dp):
    # in the position order of kkt_layout, every nonzero of
    # K0 = [[G + m m^T / |Omega|, B], [B^T, 0]] lies within the half-band: off
    # the band, G is exactly the mean term -m m^T / |Omega| of 'app'.  The
    # band reaches as far as the runs of quadrature.horizon_runs, the
    # candidate pairs of mesh_pieces, so it may hold one element more than
    # the nonzeros where an element ends delta (up to rounding) before
    # another starts, as on a uniform mesh with delta / h an integer
    trial, test = Space(mesh, p), Space(mesh, p + dp)
    problem = make_problem("smooth-nonlocal", 0.01, mesh.delta)
    _, systems = mixed_system_from_parts(trial, test, 0.01, problem, ("app", "eng"))
    position, half_band = kkt_layout(test, trial)
    n = test.n_free
    order = np.argsort(position)
    for norm, system in systems.items():
        # the solve copies the bands as they are: both hold the step's layout,
        # their rows and columns at the positions of their unknowns
        for band, cols in ((system.G, position[:n]), (system.B, position[n:])):
            assert (np.array_equal(band.rows, position[:n]) and np.array_equal(band.cols, cols)
                    and band.size == len(position) and band.half_band == half_band)
        K0 = np.zeros((len(order),) * 2)
        K0[:n, :n] = system.G.toarray()
        if norm == "app":
            m, omega = system.G.mean
            K0[:n, :n] += np.outer(m, m) / omega
        else:
            assert system.G.mean is None
        K0[:n, n:], K0[n:, :n] = system.B.toarray(), system.B.T.toarray()
        rows, cols = np.nonzero(K0[np.ix_(order, order)])
        reach = np.abs(rows - cols).max()
        assert reach <= half_band <= reach + (p + dp) + p
    assert np.array_equal(np.sort(order), np.arange(n + trial.n_free))
    positions = np.concatenate((test.dof_positions[test.free_dofs],
                                trial.dof_positions[trial.free_dofs]))
    assert np.all(np.diff(positions[order]) >= 0.0)


def _uniform_h_step(step):
    mesh = initial_mesh(0.1)
    for _ in range(step):
        mesh = refine_uniform(mesh)
    return mesh


@pytest.mark.parametrize("mesh, half_bands", [
    *((_uniform_h_step(s), k) for s, k in enumerate(
        [(9, 17), (9, 17), (17, 33), (25, 49), (41, 81), (73, 145), (137, 273)])),
    (uniform_mesh(0.1, 20), (17, 33)), (uniform_mesh(1e-4, 1280), (9, 17)),
    (uniform_mesh(math.sqrt(0.2 / 2**9), 2560), (209, 417)), (graded_mesh(0.1), (19, 39))],
    ids=[*(f"uniform-h-{s}" for s in range(7)), "wide-20", "small-horizon-1280",
         "sqrt-h-2560", "graded"])
def test_kkt_layout_pins_positions_and_half_band(mesh, half_bands):
    # the half-bands of the candidate reach (the runs of the pair layer) at
    # (p, dp) = (1, 2) and (1, 6): the seven meshes of the smooth uniform-h
    # study, a wide and a small horizon, the tenth delta = sqrt(h) mesh and
    # a graded one.  A band cut to the pieces' own pairs would be narrower,
    # and the banded factorizations order their operations by k
    for (p, dp), k in zip([(1, 2), (1, 6)], half_bands):
        trial, test = Space(mesh, p), Space(mesh, p + dp)
        position, half_band = kkt_layout(test, trial)
        positions = np.concatenate((test.dof_positions[test.free_dofs],
                                    trial.dof_positions[trial.free_dofs]))
        assert half_band == k
        assert np.array_equal(position, np.argsort(np.argsort(positions, kind="stable")))


def test_two_calls_give_bit_equal_systems():
    # the builder keeps nothing between calls
    mesh = refine_uniform(initial_mesh(0.1))
    trial, test = Space(mesh, 1), Space(mesh, 3)
    problem = make_problem("smooth-nonlocal", 0.01, 0.1)
    (lift, first), (lift2, second) = (
        mixed_system_from_parts(trial, test, 0.01, problem, ("app", "eng")) for _ in range(2))
    assert lift.tobytes() == lift2.tobytes()
    for norm in ("app", "eng"):
        for name in ("G", "B", "F"):
            one, two = (getattr(s[norm], name) for s in (first, second))
            if name != "F":
                one, two = one.toarray(), two.toarray()
            assert one.tobytes() == two.tobytes(), (norm, name)


def _mass_mean_load_by_elements(test, forcing):
    """M, m and F by the loop over the interior elements that the batched
    assembly replaced: the reference for its bits."""
    rows_of = np.full(test.n_dofs, -1)
    rows_of[test.free_dofs] = np.arange(test.n_free)
    M, m, F = np.zeros((test.n_free, test.n_free)), np.zeros(test.n_free), np.zeros(test.n_free)
    for e in test.mesh.interior_elements:
        rows = rows_of[test.element_dofs(e)]
        keep = rows >= 0
        xs, ws = gauss_legendre(test.order + 1).map_to(*test.mesh.bounds(e))
        Bk = test.local_basis(e, xs)[:, keep]
        M[np.ix_(rows[keep], rows[keep])] += Bk.T @ (Bk * ws[:, None])
        m[rows[keep]] += Bk.T @ ws
        xs, ws = gauss_legendre(test.order + N_OVER).map_to(*test.mesh.bounds(e))
        f = np.asarray(forcing(xs), dtype=float)
        F[rows[keep]] += test.local_basis(e, xs)[:, keep].T @ (ws * f)
    return M, m, F


@pytest.mark.parametrize("mesh", [uniform_mesh(0.1, 10), graded_mesh(0.01),
                                  uniform_mesh(1e-4, 37), uniform_mesh(0.1, 1)],
                         ids=["uniform", "graded", "small-horizon", "one-element"])
@pytest.mark.parametrize("order", range(1, 9))
def test_mass_mean_and_load_equal_the_element_loop(mesh, order):
    # the two elements next to the boundary have a constrained vertex DOF
    # and so fewer free DOFs; the batched products must match theirs too
    test = Space(mesh, order)
    for name in ("smooth-nonlocal", "sharp"):
        forcing = make_problem(name, 0.01, mesh.delta).forcing
        M, m, F = _mass_mean_load_by_elements(test, forcing)
        assert np.array_equal(load_vector(test, forcing), F)
    Mb, mb = assemble_mass_mean(test, Band.zeros(kkt_layout(test, test), test.n_free,
                                                 square=True))
    assert np.array_equal(Mb.toarray(), M) and np.array_equal(mb, m)


def test_mismatched_meshes_rejected():
    m1, m2 = initial_mesh(0.1), refine_uniform(initial_mesh(0.1))
    with pytest.raises(ValueError):
        assemble_nonlocal_forms(Space(m2, 3), Space(m1, 1))


def test_app_gram_hat_against_dense_integration():
    # eps^2 a(phi,phi) + ||phi||^2 - (int phi)^2 for one hat function, with the
    # double integral evaluated by adaptive quadrature
    delta, eps = 0.1, 0.01
    mesh = initial_mesh(delta)
    test = Space(mesh, 1)
    kernel = constant_kernel_pair(delta)
    _, _, A_vv = assemble_nonlocal_forms(test, test)
    G = _gram(test, A_vv, eps, "app").toarray()
    idx = 1   # hat at x = 0.4
    e = np.zeros(test.n_free)
    e[idx] = 1.0
    ours = e @ G @ e

    a_phi = hat_energy_by_quad(mesh, kernel)
    mass = quad(lambda x: hat(x) ** 2, 0.2, 0.6, points=[0.4])[0]
    mean = quad(hat, 0.2, 0.6, points=[0.4])[0]
    oracle = eps**2 * a_phi + mass - mean**2
    assert ours == pytest.approx(oracle, rel=1e-10)


def test_load_zero_data_gives_zero(setup):
    _, trial, test, _, _, _, _ = setup
    zero = lambda x: np.zeros_like(x)
    _, systems = mixed_system_from_parts(trial, test, 0.01, Problem("zero", zero, zero),
                                         ("app",))
    F = systems["app"].F
    np.testing.assert_allclose(F, 0.0, atol=1e-15)


def test_load_consistency_linear(setup):
    # u = x solves the problem with f = 1; the discrete residual vanishes
    _, trial, test, A, C, _, _ = setup
    eps = 0.01
    g = lambda x: np.asarray(x, dtype=float)
    _, systems = mixed_system_from_parts(trial, test, eps,
                                         Problem("linear", g, lambda x: np.ones_like(x)), ("app",))
    F = systems["app"].F
    coeffs = interpolate(trial, g)
    resid = F - (eps * A + C)[:, trial.free_dofs] @ coeffs[trial.free_dofs]
    assert np.abs(resid).max() <= 1e-11 * max(1.0, np.abs(F).max())


def test_load_consistency_quintic():
    # p = 5 reproduces x^5 exactly, so the residual drops to quadrature roundoff
    delta, eps = 0.1, 0.01
    mesh = initial_mesh(delta)
    trial, test = Space(mesh, 5), Space(mesh, 7)
    g = lambda x: np.asarray(x, dtype=float) ** 5
    forcing = lambda x: forcing_smooth_nonlocal(x, eps, delta)
    _, systems = mixed_system_from_parts(trial, test, eps, Problem("quintic", g, forcing),
                                         ("app",))
    F, B = systems["app"].F, systems["app"].B
    coeffs = interpolate(trial, g)
    resid = F - B @ coeffs[trial.free_dofs]
    assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(F).max())


def test_trial_space_without_free_dofs_rejected():
    # one interior element: no free p = 1 vertex; the solve used to die in
    # the Schur complement with a ZeroDivisionError
    with pytest.raises(ValueError, match="got 0, 2"):
        solve_problem(uniform_mesh(0.1, 1), make_problem("smooth-nonlocal", 0.01, 0.1),
                      eps=0.01, p=1, dp=2)


def test_enrichment_required(monkeypatch):
    # rejected before anything is assembled
    mesh = initial_mesh(0.1)
    monkeypatch.setattr(nlpg.assembly, "assemble_nonlocal_forms", _not_reached)
    with pytest.raises(ValueError, match="got 9, 9"):
        mixed_system_from_parts(Space(mesh, 2), Space(mesh, 2), 0.01,
                                Problem("linear", lambda x: x, lambda x: np.ones_like(x)),
                                ("app",))
