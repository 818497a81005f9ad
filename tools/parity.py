"""Numerical parity of this checkout against another git revision.

    python tools/parity.py REV

Extracts ``src/`` at the revision REV (``git archive``, no network) into a
temporary directory and runs the same grid on that tree and on this
checkout's ``src/``, each in its own process:

    (delta in {0.1, 0.01, 1e-4, 1e-5} x uniform and graded 10-element
    meshes, plus the wide-horizon uniform 80-element mesh at delta = 0.1)
    x problems smooth-nonlocal and sharp x (p, dp) in {(1, 2), (2, 3), (1, 6)}
    x test norms app and eng                                  (108 cases)

The 80-element mesh has delta/h = 8, so most of its pieces are of the
CONTAINED case, and at (p, dp) = (1, 6) its 559 test DOFs span three row
bands of the in-place Gram build.

For each case it keeps G, B and F of the mixed system, the relative energy
and L2 errors, the squared indicators eta^2, and the energy seminorm of the
residual representer psi (``energy_seminorm`` on the test space).  It
prints, per quantity, the largest relative drift max|new - old| / max|old|
over the grid and the number of cases that are not bit-identical.

It then writes the study CSVs of the CLI with both trees (``nlpg run`` with
each of this checkout's ``configs/*.cfg``, a uniform-p run, a delta = h
local-limit run, the three table presets, and the sampled solution curves
of ``sharp-demo``, each preset once with its defaults and once with every
flag set) and lists every CSV that is not byte-identical.  It exits
1 if any drift exceeds 1e-12 (a shape change counts as infinite drift) or if
any CSV differs.
"""

import glob
import io
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

BOUND = 1e-12
EPS = 0.01
DELTAS = (0.1, 0.01, 1e-4, 1e-5)
MESHES = ("uniform", "graded")
WIDE = (0.1, "uniform-80")   # (delta, kind) of the wide-horizon mesh
PROBLEMS = ("smooth-nonlocal", "sharp")
ORDERS = ((1, 2), (2, 3), (1, 6))
NORMS = ("app", "eng")
QUANTITIES = ("G", "B", "F", "err_energy", "err_l2", "eta2", "seminorm")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# CLI runs whose CSV is compared byte for byte, (CSV name, arguments); the
# runs of the config files are added in _csv_runs
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
)


def _mesh(kind, delta):
    from nlpg.mesh import refine_marked, uniform_mesh

    mesh = uniform_mesh(delta, 80 if kind == "uniform-80" else 10)
    if kind == "graded":
        # bisect the element at x = 1 three times: widths 0.1 down to 0.0125
        for _ in range(3):
            mesh = refine_marked(mesh, [mesh.n_elements - 2])
    return mesh


def dump(path):
    """Run the grid with the nlpg on sys.path and save every quantity to path."""
    from nlpg.adapt import localize_indicator
    from nlpg.analysis import energy_seminorm
    from nlpg.driver import solve_problem
    from nlpg.kernels import constant_kernel_pair
    from nlpg.problems import make_problem

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
                    values = (res.system.G, res.system.B, res.system.F,
                              res.err_energy, res.err_l2, eta2,
                              energy_seminorm(res.test, coeffs, kernel))
                    for q, v in zip(QUANTITIES, values):
                        out[f"{case}|{q}"] = np.asarray(v, dtype=float)
    np.savez(path, **out)


def _run_grid(src, path):
    tools = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tools)))
    subprocess.run([sys.executable, "-c", "import sys, parity; parity.dump(sys.argv[1])",
                    path], env=env, check=True)
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _csv_runs():
    configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
    return [(os.path.basename(c)[:-4] + ".csv", ["run", "--config", c])
            for c in configs] + list(CLI_RUNS)


def _write_csvs(src, outdir):
    """Write every CSV of _csv_runs with the nlpg in src; None where a run fails."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    for name, args in _csv_runs():
        path = os.path.join(outdir, name)
        flag = "--output" if args[0] == "run" else "--out"
        proc = subprocess.run([sys.executable, "-m", "nlpg.cli", *args, flag, path],
                              env=env, cwd=outdir, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: run failed with {src}: {proc.stderr.strip()}", file=sys.stderr)
            out[name] = None
        else:
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def _drift(new, old):
    if new.shape != old.shape:
        return np.inf
    scale = np.abs(old).max(initial=0.0)
    diff = np.abs(new - old).max(initial=0.0)
    drift = diff / scale if scale > 0.0 else diff
    return np.inf if np.isnan(drift) else drift


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
        old_csv = _write_csvs(os.path.join(tmp, "src"), os.path.join(tmp, "old_csv"))
        new_csv = _write_csvs(os.path.join(ROOT, "src"), os.path.join(tmp, "new_csv"))

    cases = sorted({key.split("|")[0] for key in old})
    worst = 0.0
    print(f"{len(cases)} cases, {rev} -> working tree")
    print(f"{'quantity':<12}{'max rel drift':>15}{'cases differing':>18}")
    for q in QUANTITIES:
        drifts = [_drift(new[f"{c}|{q}"], old[f"{c}|{q}"]) for c in cases]
        differing = sum(not np.array_equal(new[f"{c}|{q}"], old[f"{c}|{q}"]) for c in cases)
        worst = max(worst, max(drifts))
        print(f"{q:<12}{max(drifts):>15.3e}{differing:>18d}")
    differ = [name for name in old_csv if old_csv[name] is None or new_csv[name] != old_csv[name]]
    for name in differ:
        print(f"CSV differs: {name}")
    print(f"{len(old_csv) - len(differ)} of {len(old_csv)} CSVs byte-identical")
    ok = worst <= BOUND and not differ
    print(f"max drift {worst:.3e} {'<=' if worst <= BOUND else '>'} {BOUND:g}, "
          f"{len(differ)} CSVs differing: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
