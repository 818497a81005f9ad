"""The benchmark's end-to-end metrics and a parity fingerprint, in one file.

    python tools/bench.py TAG

Runs ``benchmark/run.py --workload W --seed 1 --seconds 30 --trace 0`` for
every workload of ``BENCHMARK.json``, one after another (about 2 minutes in
all), and writes ``BENCH_<TAG>.json`` at the root of the checkout with:

* ``commit``, the checked-out commit, and ``dirty``, whether tracked files
  differ from it;
* ``machine``: the CPU count, the platform and the numpy version;
* ``workloads``: each workload's result object, the JSON object that the
  benchmark prints as its last line (``correct``, ``attempted``, ``failed``
  and the medians of ``metrics``);
* ``fingerprint``: err_energy, err_l2 and the summed eta^2 of the fixed
  cases of ``FINGERPRINT``, computed with this checkout's ``src/``.  Floats
  are written with all their digits, so two files tell whether two trees
  give the same numbers.

One such file per change gives a trajectory of the metrics that later
readers can take from the files.  Nothing under ``benchmark/`` is written
except the benchmark's own result files in ``benchmark/results/``.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EPS = 0.01
# (delta, mesh kind of tools/parity.py, problem, p, dp, test norm): the wide
# horizon, a graded small-horizon mesh and the order-7 test space
FINGERPRINT = ((0.1, "uniform-80", "smooth-nonlocal", 1, 2, "app"),
               (1e-4, "graded", "sharp", 2, 3, "eng"),
               (0.01, "uniform", "smooth-nonlocal", 1, 6, "app"))


def fingerprint():
    """{case: {err_energy, err_l2, eta2}} of every FINGERPRINT case."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nlpg.adapt import localize_indicator
    from nlpg.driver import solve_problem
    from nlpg.kernels import constant_kernel_pair
    from nlpg.problems import make_problem
    from parity import _mesh

    out = {}
    for delta, kind, name, p, dp, norm in FINGERPRINT:
        res = solve_problem(_mesh(kind, delta), make_problem(name, EPS, delta), eps=EPS,
                            p=p, dp=dp, norms=(norm,))[norm]
        eta2 = localize_indicator(res.solution.psi, res.test, constant_kernel_pair(delta),
                                  EPS, norm).eta2
        out[f"delta={delta:g} {kind} {name} p={p} dp={dp} {norm}"] = {
            "err_energy": float(res.err_energy), "err_l2": float(res.err_l2),
            "eta2": float(eta2.sum())}
    return out


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
                               "--workload", name, "--seed", "1", "--seconds", "30",
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited with {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: " + ", ".join(f"{k} = {m['value']:.6g} {m['unit']}"
                                      for k, m in results[name]["metrics"].items()))
    out = {"commit": _git("rev-parse", "HEAD"),
           "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
           "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                       "numpy": np.__version__},
           "workloads": results,
           "fingerprint": fingerprint()}
    path = os.path.join(ROOT, f"BENCH_{argv[0]}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
