"""Numerical parity of this checkout against another git revision.

    python tools/parity.py REV

Extracts ``src/`` at the revision REV (``git archive``, no network) into a
temporary directory and runs the same grid on that tree and on this
checkout's ``src/``, each in its own process:

    (delta in {0.1, 0.01, 1e-4, 1e-5} x uniform and graded 10-element
    meshes, plus the wide-horizon uniform 80-element mesh at delta = 0.1)
    x problems smooth-nonlocal and sharp
    x (p, dp) in {(1, 2), (2, 3), (1, 6), (1, 8)}
    x test norms app and eng                                  (144 cases)

The 80-element mesh has delta/h = 8, so most of its pieces are of the
CONTAINED case, and its Gram band is wide: a half-bandwidth of 81 of its
559 test DOFs at (p, dp) = (1, 6).  At (p, dp) = (1, 8) the test space has order 9, ten basis
functions per element, so the barycentric sum of ``space.cardinals``
runs its eight-accumulator branch with a tail.

For each case it keeps G, B (both densified: a tree that holds a matrix by
its band has ``toarray``) and F of the mixed system, the relative energy
and L2 errors, the squared indicators eta^2, and the energy seminorm of the
residual representer psi (the square root of the summed ``pair_energies``
of psi over the whole piece table of the test space).  It
prints, per quantity, the largest relative drift max|new - old| / max|old|
over the grid and the number of cases that are not bit-identical.  It
prints the same for the solver's diagnostics ``schur_cond_estimate``,
``residual_primal`` and ``residual_orthogonality``, for information only:
they do not enter the verdict below.

A change that moves the numbers on purpose, to make them more accurate, is
judged by a second table: for each case and each tree, the relative distance
of u, psi, err_l2 and err_energy to those of the refined solve of that tree's
own (G, B, F) (``refined_solve``: a dense LU of the KKT matrix and iterative
refinement with residuals in ``np.longdouble``).  It counts, per quantity,
the cases whose new distance exceeds the old one by more than 1e-13, and
the small-horizon cases (delta 1e-4 and 1e-5) that moved closer.  These
counts inform; they do not change the verdict below.

It then writes the study CSVs of the CLI with both trees (``nlpg run`` with
each of this checkout's ``configs/*.cfg``, a uniform-p run, a delta = h
local-limit run, two adaptive runs (one that stops after its first step
and one in the eng norm), the three table presets, and the sampled solution
curves of ``sharp-demo``, each preset once with its defaults and once with
every flag set).  Three ``nlpg run`` calls (an adaptive run, a uniform-p run and a
delta = h run) also write the final mesh (``--mesh_out``) and the final G,
B and F (``--dump_matrices``).  It lists every file written by the runs that
is not byte-identical, and for a CSV file of unchanged shape every cell that
moved.  It exits 1 if any drift exceeds 1e-12 (a shape change
counts as infinite drift) or if any file differs.
"""

import csv
import glob
import io
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np
from scipy.linalg import lu_factor, lu_solve

BOUND = 1e-12
EPS = 0.01
DELTAS = (0.1, 0.01, 1e-4, 1e-5)
MESHES = ("uniform", "graded")
WIDE = (0.1, "uniform-80")   # (delta, kind) of the wide-horizon mesh
PROBLEMS = ("smooth-nonlocal", "sharp")
ORDERS = ((1, 2), (2, 3), (1, 6), (1, 8))
NORMS = ("app", "eng")
QUANTITIES = ("G", "B", "F", "err_energy", "err_l2", "eta2", "seminorm")
# the solver's own diagnostics, printed for information, outside the verdict
DIAGNOSTICS = ("schur_cond_estimate", "residual_primal", "residual_orthogonality")
REFINED = ("u", "psi", "err_l2", "err_energy")   # distances to the refined solve
REFINED_SLACK = 1e-13                    # a distance that grows by more is counted
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _with_dumps(stem, args):
    """A run that also writes its final mesh and G, B, F, named after ``stem``."""
    return f"{stem}.csv", [*args, "--mesh_out", f"{stem}_mesh.csv", "--dump_matrices", f"{stem}_"]


# CLI runs whose files are compared byte for byte, (CSV name, arguments); the
# runs of the config files are added in _cli_runs
CLI_RUNS = (
    ("uniform_p.csv", ["run", "--refinement", "uniform-p", "--steps", "4"]),
    ("local_h.csv", ["run", "--problem", "smooth-local-forcing", "--coupling", "h",
                     "--steps", "7"]),
    *((f"{t}.csv", [t, "--steps", "3"]) for t in ("table1", "table3", "table7")),
    ("sharp_demo.csv", ["sharp-demo"]),
    # a value other than the default for every flag of each preset
    ("table1_flags.csv", ["table1", "--steps", "3", "--norm", "eng"]),
    ("table3_flags.csv", ["table3", "--steps", "3", "--dp", "3"]),
    ("table7_flags.csv", ["table7", "--steps", "3", "--norm", "eng"]),
    ("sharp_demo_flags.csv", ["sharp-demo", "--delta", "1e-4", "--eps", "0.02", "--dp", "5"]),
    # the dumps of the last solve, kept by the step callback of ``run``
    _with_dumps("adaptive_dumps", ["run", "--config",
                                   os.path.join(ROOT, "configs", "sharp_adaptive.cfg"),
                                   "--steps", "6"]),
    _with_dumps("uniform_p_dumps", ["run", "--refinement", "uniform-p", "--steps", "3"]),
    _with_dumps("local_h_dumps", ["run", "--problem", "smooth-local-forcing", "--coupling",
                                  "h", "--steps", "3"]),
    # the adaptive early stop (an exactly representable solution ends the run
    # after one step) and an adaptive run in the other test norm
    ("adaptive_stop.csv", ["run", "--problem", "linear", "--refinement", "adaptive",
                           "--steps", "50"]),
    ("adaptive_eng.csv", ["run", "--refinement", "adaptive", "--norm", "eng", "--steps", "8"]),
)


def _mesh(kind, delta):
    from nlpg.mesh import refine_marked, uniform_mesh

    mesh = uniform_mesh(delta, 80 if kind == "uniform-80" else 10)
    if kind == "graded":
        # bisect the element at x = 1 three times: widths 0.1 down to 0.0125
        for _ in range(3):
            mesh = refine_marked(mesh, [mesh.n_elements - 2])
    return mesh


def refined_solve(G, B, F):
    """(psi, u) of [[G, B], [B^T, 0]] [psi; u] = [F; 0], refined to longdouble.

    A dense LU in float64, then iterative refinement with the residual
    computed in ``np.longdouble`` (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 12), until the correction stops shrinking
    or falls below the longdouble unit roundoff, ten steps at most.
    """
    n, m = B.shape
    K = np.block([[G, B], [B.T, np.zeros((m, m))]])
    lu = lu_factor(K)
    K = K.astype(np.longdouble)
    b = np.concatenate((F, np.zeros(m))).astype(np.longdouble)
    x = np.zeros(n + m, dtype=np.longdouble)
    last = np.inf
    for _ in range(10):
        dx = lu_solve(lu, (b - K @ x).astype(float))
        x += dx
        size = np.abs(dx).max() / np.abs(x).max()
        if size >= last or size <= np.finfo(np.longdouble).eps:
            break
        last = size
    x = x.astype(float)
    return x[:n], x[n:]


def dump(path):
    """Run the grid with the nlpg on sys.path and save every quantity to path."""
    from nlpg.adapt import localize_indicator
    from nlpg.analysis import energy_error_norms, error_l2, pair_energies
    from nlpg.driver import solve_problem
    from nlpg.kernels import constant_kernel_pair
    from nlpg.problems import make_problem
    from nlpg.quadrature import mesh_pieces

    out = {}
    for delta, kind in [(d, k) for d in DELTAS for k in MESHES] + [WIDE]:
        kernel = constant_kernel_pair(delta)
        mesh = _mesh(kind, delta)
        for name in PROBLEMS:
            problem = make_problem(name, EPS, delta)
            for p, dp in ORDERS:
                results = solve_problem(mesh, problem, eps=EPS, p=p, dp=dp, norms=NORMS)
                for norm, res in results.items():
                    case = f"delta={delta:g} {kind} {name} p={p} dp={dp} {norm}"
                    psi = res.solution.psi
                    eta2 = localize_indicator(psi, res.test, kernel, EPS, norm).eta2
                    coeffs = np.zeros(res.test.n_dofs)
                    coeffs[res.test.free_dofs] = psi
                    seminorm2, = pair_energies(res.test, [(coeffs, None)], kernel,
                                               mesh_pieces(mesh))
                    G, B = (M.toarray() if hasattr(M, "toarray") else M
                            for M in (res.system.G, res.system.B))
                    values = (G, B, res.system.F,
                              res.err_energy, res.err_l2, eta2, np.sqrt(seminorm2.sum()))
                    for q, v in zip(QUANTITIES, values):
                        out[f"{case}|{q}"] = np.asarray(v, dtype=float)
                    for q in DIAGNOSTICS:
                        out[f"{case}|{q}"] = np.asarray(getattr(res.solution, q))
                    psi_ref, u = refined_solve(G, B, res.system.F)
                    coeffs = res.coeffs.copy()
                    coeffs[res.trial.free_dofs] = u
                    err, exact = energy_error_norms(res.trial, coeffs, problem.u_exact)
                    refined = (u, psi_ref, error_l2(res.trial, coeffs, problem.u_exact),
                               err / exact)
                    computed = (res.solution.u, psi, res.err_l2, res.err_energy)
                    for q, value, ref in zip(REFINED, computed, refined):
                        distance = _drift(np.asarray(value), np.asarray(ref))
                        out[f"{case}|refined {q}"] = np.asarray(distance)
    np.savez(path, **out)


def _run_grid(src, path):
    tools = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tools)))
    subprocess.run([sys.executable, "-c", "import sys, parity; parity.dump(sys.argv[1])",
                    path], env=env, check=True)
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _cli_runs():
    configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
    return [(os.path.basename(c)[:-4] + ".csv", ["run", "--config", c])
            for c in configs] + list(CLI_RUNS)


def _write_files(src, outdir):
    """Run every CLI call of _cli_runs with the nlpg in src; {file name: bytes}
    of every file the runs wrote, None for the CSV of a run that failed."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=src)
    failed = []
    for name, args in _cli_runs():
        path = os.path.join(outdir, name)
        flag = "--output" if args[0] == "run" else "--out"
        proc = subprocess.run([sys.executable, "-m", "nlpg.cli", *args, flag, path],
                              env=env, cwd=outdir, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: run failed with {src}: {proc.stderr.strip()}", file=sys.stderr)
            failed.append(name)
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return {**out, **dict.fromkeys(failed)}


def _drift(new, old):
    if new.shape != old.shape:
        return np.inf
    scale = np.abs(old).max(initial=0.0)
    diff = np.abs(new - old).max(initial=0.0)
    drift = diff / scale if scale > 0.0 else diff
    return np.inf if np.isnan(drift) else drift


def _moved_cells(name, old, new):
    """'name row r column c: old -> new' for every cell of a CSV file that
    moved; None unless both files parse to tables of the same shape."""
    if not name.endswith(".csv") or old is None or new is None:
        return None
    old, new = (list(csv.reader(io.StringIO(data.decode()))) for data in (old, new))
    if [len(row) for row in old] != [len(row) for row in new]:
        return None
    return [f"{name} row {r} column {c}: {a} -> {b}"
            for r, (row_a, row_b) in enumerate(zip(old, new))
            for c, (a, b) in enumerate(zip(row_a, row_b)) if a != b]


def _refined_report(cases, old, new):
    """Print each case's distances to its tree's refined solve and the counts."""
    print("\ndistance to the refined solve of each tree's own (G, B, F), old / new:")
    print(f"{'case':<48}" + "".join(f"{q:>24}" for q in REFINED))
    for c in cases:
        print(f"{c:<48}" + "".join(f"{float(old[f'{c}|refined {q}']):>11.2e} /"
                                   f"{float(new[f'{c}|refined {q}']):>10.2e}"
                                   for q in REFINED))
    small = [c for c in cases if c.startswith(("delta=0.0001 ", "delta=1e-05 "))]
    for q in REFINED:
        d_old = {c: float(old[f"{c}|refined {q}"]) for c in cases}
        d_new = {c: float(new[f"{c}|refined {q}"]) for c in cases}
        farther = sum(d_new[c] > d_old[c] + REFINED_SLACK for c in cases)
        closer = sum(d_new[c] < d_old[c] for c in small)
        print(f"{q}: {farther} of {len(cases)} cases farther than old + {REFINED_SLACK:g}; "
              f"{closer} of {len(small)} small-horizon cases closer")


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        old = _run_grid(os.path.join(tmp, "src"), os.path.join(tmp, "old.npz"))
        new = _run_grid(os.path.join(ROOT, "src"), os.path.join(tmp, "new.npz"))
        old_files = _write_files(os.path.join(tmp, "src"), os.path.join(tmp, "old_files"))
        new_files = _write_files(os.path.join(ROOT, "src"), os.path.join(tmp, "new_files"))

    cases = sorted({key.split("|")[0] for key in old})
    worst = 0.0
    print(f"{len(cases)} cases, {rev} -> working tree")
    print(f"{'quantity':<12}{'max rel drift':>15}{'cases differing':>18}")
    for q in QUANTITIES:
        drifts = [_drift(new[f"{c}|{q}"], old[f"{c}|{q}"]) for c in cases]
        differing = sum(not np.array_equal(new[f"{c}|{q}"], old[f"{c}|{q}"]) for c in cases)
        worst = max(worst, max(drifts))
        print(f"{q:<12}{max(drifts):>15.3e}{differing:>18d}")
    print("solver diagnostics, for information only (not in the verdict):")
    for q in DIAGNOSTICS:
        drifts = [_drift(new[f"{c}|{q}"], old[f"{c}|{q}"]) for c in cases]
        differing = sum(not np.array_equal(new[f"{c}|{q}"], old[f"{c}|{q}"]) for c in cases)
        print(f"{q:<24}{max(drifts):>15.3e}{differing:>18d}")
    names = sorted(old_files.keys() | new_files.keys())
    differ = [name for name in names
              if old_files.get(name) is None or new_files.get(name) != old_files[name]]
    for name in differ:
        print(f"file differs: {name}")
        for line in _moved_cells(name, old_files.get(name), new_files.get(name)) or ():
            print(f"  {line}")
    print(f"{len(names) - len(differ)} of {len(names)} files byte-identical")
    _refined_report(cases, old, new)
    ok = worst <= BOUND and not differ
    print(f"max drift {worst:.3e} {'<=' if worst <= BOUND else '>'} {BOUND:g}, "
          f"{len(differ)} files differing: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
