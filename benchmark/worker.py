"""Measured process: runs one workload's study once.

Started by run.py, one fresh process per round, so that each round pays
what a user's run pays (imports, first-call costs, a fresh heap) and its
peak resident memory is that of a process running this workload alone.
The last line of its standard output is a JSON object:

    ready         CLOCK_MONOTONIC reading just before the first solve
    study_s, final_step_s, error, solves     see workloads.run_study
    peak_rss_mb   peak resident memory of this process
    traced runs add self_s, missing_layers, spans and counts (element
    pairs, smooth pieces, distinct pair geometries of the study's meshes)

With --setup-only it stops at ``ready``.
"""

import argparse
import json
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workload.config.validate()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = workloads.run_study(workload, bool(args.trace))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ready"] = ready
    meshes = out.pop("meshes")
    if args.trace:
        counts = [workloads.geometry_counts(mesh) for mesh in meshes]
        out["counts"] = dict(zip(("pairs", "pieces", "geometries"),
                                 (sum(c) for c in zip(*counts))))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
