"""Benchmark of nlpg's refinement studies; see README.md in this directory.

    python3 benchmark/run.py --workload smooth-uniform-h --seed 1 --seconds 30 --trace 0

runs one workload for about --seconds seconds, checks every solve and prints,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  --workload all runs every workload in turn.  The inputs are
fixed by the studies; --seed is recorded but draws nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(SRC))

import checks      # noqa: E402  (needs SRC on the path)
import workloads   # noqa: E402

SETUP_PROBES = 6          # set-up-only processes per run, besides the rounds
DEADLINE_S = 170.0        # every run ends within this, set-up included
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

END_TO_END_UNITS = {"study_s": "s", "final_step_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(args, deadline):
    """Run worker.py with ``args``; returns its parsed last line and its start time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    started = _monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - _monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _rounds(name, seconds, trace, deadline):
    """One fresh worker per round, until the round count whose end lies nearest
    to ``seconds``; with ``trace`` the rounds alternate untraced and traced."""
    rounds = []
    start = _monotonic()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        rnd, started = _worker(["--workload", name, "--trace", str(int(traced))], deadline)
        rnd["traced"] = traced
        rnd["setup_s"] = rnd["ready"] - started
        rounds.append(rnd)
        elapsed = _monotonic() - start
        if (len(rounds) >= (2 if trace else 1)
                and elapsed + 0.5 * elapsed / len(rounds) > seconds):
            return rounds


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the result object of the benchmark's last line."""
    deadline = _monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[name]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, started = _worker(["--workload", name, "--setup-only"], deadline)
            setup.append(probe["ready"] - started)
    rounds = _rounds(name, seconds, trace, deadline)
    untraced = [r for r in rounds if not r["traced"]]
    setup += [r["setup_s"] for r in untraced]

    problem = workload.config.problem
    reference = (checks.exact_energy_norm(workload.config.delta)
                 if problem == "smooth-nonlocal" else None)
    steps = workload.config.steps
    attempted = failed = 0
    reasons = []
    for k, rnd in enumerate(rounds):
        bad = checks.failures(workload, rnd["solves"], reference)
        missing = steps - len(rnd["solves"])
        attempted += steps
        failed += len(bad) + missing
        reasons += [f"round {k} solve {i}: {'; '.join(why)}" for i, why in sorted(bad.items())]
        if rnd["error"]:
            reasons.append(f"round {k} stopped after {len(rnd['solves'])} solves: {rnd['error']}")
    correct = True

    if trace:
        traced = [r for r in rounds if r["traced"]]
        pick = sorted(traced, key=lambda r: r["study_s"])[(len(traced) - 1) // 2]
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for k, rnd in enumerate(traced):
                for span in rnd["spans"]:
                    fh.write(json.dumps(dict(span, round=k, workload=name)) + "\n")
        values = _layer_values(pick)
        values["trace.study_s"] = (pick["study_s"], "s")
        values["trace.overhead_s"] = (
            pick["study_s"] - statistics.median(r["study_s"] for r in untraced), "s")
        layer_sum = sum(pick["self_s"].values())
        if abs(layer_sum - pick["study_s"]) > 1e-6 * pick["study_s"]:
            correct = False
            reasons.append(f"layer self times sum to {layer_sum} s, study {pick['study_s']} s")
        if pick["missing_layers"]:
            reasons.append(f"layers not found: {', '.join(pick['missing_layers'])}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    else:
        finals = [t for r in untraced for t in r["final_step_s"]]
        values = {"study_s": statistics.median(r["study_s"] for r in untraced),
                  "final_step_s": statistics.median(finals) if finals else float("nan"),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                  "setup_s": statistics.median(setup)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for line in reasons:
        print(f"{name}: {line}")
    print(f"{name}: {len(rounds)} rounds ({len(untraced)} untraced), "
          f"{attempted} solves attempted, {failed} failed")
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _layer_values(rnd):
    """Per-layer metrics of one traced round: {name: (value, unit)}."""
    counts = rnd["counts"]
    # span "driver" -> driver.self_s, span "solver.solve" -> solver.solve_s
    values = {n + ("_s" if "." in n else ".self_s"): (rnd["self_s"].get(n, 0.0), "s")
              for n in workloads.LAYER_NAMES}
    solves = rnd["solves"]
    norms = [o for obs in solves for o in obs["norms"].values()]
    costs = [workloads.dense_solver_cost(o["n_test"], o["n_trial"]) for o in norms]
    adaptive = [obs for obs in solves if "marked" in obs]
    values.update({
        "driver.solves": (len(solves), "count"),
        "driver.trial_dofs": (sum(next(iter(obs["norms"].values()))["n_trial"]
                                  for obs in solves), "count"),
        "driver.test_dofs_max": (max(o["n_test"] for o in norms), "count"),
        "mesh.element_pairs": (counts["pairs"], "count"),
        "quadrature.smooth_pieces": (counts["pieces"], "count"),
        "assembly.distinct_geometries": (counts["geometries"], "count"),
        "assembly.geometry_reuse": (1.0 - counts["geometries"] / counts["pairs"], "ratio"),
        "solver.flops_computed": (sum(c[0] for c in costs), "count"),
        "solver.dense_bytes_computed": (max(c[1] for c in costs), "bytes"),
        "solver.residual_max": (max(o["residual"] for o in norms), "ratio"),
        "adapt.marked_elements": (sum(obs["marked"] for obs in adaptive), "count"),
        "adapt.indicator_gap_max": (max((checks.indicator_gap(obs) for obs in adaptive),
                                        default=0.0), "ratio"),
    })
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(workloads.nlpg.__file__).resolve().parent != SRC / "nlpg":
        parser.error(f"nlpg was imported from {workloads.nlpg.__file__}, not from {SRC}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
