"""Command-line entry point: configured runs plus the benchmark presets."""

import argparse
import inspect
import sys
from dataclasses import fields

import numpy as np

from . import experiments
from .assembly import NORMS
from .mesh import write_nodes_csv

_CONFIG_KEYS = tuple(f.name for f in fields(experiments.RunConfig))

# preset command -> (library function, help); the function's parameters are
# the command's flags and keep their defaults
PRESETS = {
    "table1": (experiments.run_table1, "smooth solution, uniform h, four horizons"),
    "table3": (experiments.run_table3, "smooth solution, uniform p, four horizons"),
    "table7": (experiments.run_table7, "local-limit couplings, uniform h"),
    "sharp-demo": (experiments.run_sharp_demo, "test-norm stability comparison"),
}


def _add_config_flags(parser):
    # every config-file key is also a flag of the same name; flags win
    parser.add_argument("--config", help="flat key = value config file")
    for key in _CONFIG_KEYS:
        parser.add_argument(f"--{key}")
    parser.add_argument("--mesh_out", help="write the final mesh nodes as CSV")
    parser.add_argument("--dump_matrices", metavar="PREFIX",
                        help="debug: dump final G/B/F as dense row-major text")


def _add_preset_flags(parser, name, func):
    # a flag per parameter but ``out``, typed by its default; a flag that is
    # not given is not passed on, so the function's default holds
    for param in inspect.signature(func).parameters.values():
        if param.name != "out":
            parser.add_argument(f"--{param.name}", type=type(param.default),
                                choices=NORMS if param.name == "norm" else None,
                                default=argparse.SUPPRESS)
    parser.add_argument("--out", default=name.replace("-", "_") + ".csv")


def build_parser():
    parser = argparse.ArgumentParser(prog="nlpg",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured study")
    _add_config_flags(run)

    for name, (func, doc) in PRESETS.items():
        _add_preset_flags(sub.add_parser(name, help=doc), name, func)
    return parser


def _run_command(args):
    cfg = (experiments.config_from_file(args.config) if args.config
           else experiments.RunConfig())
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS
                 if getattr(args, key) is not None}
    cfg = experiments.apply_overrides(cfg, overrides)
    # the dumps show the state of the run's last solve, kept as it happens
    last = {}

    def keep_last(step, mesh, result, indicators):
        # the system only if it is dumped: it holds this step's Gram matrix
        # through the next step's solve
        last.update(mesh=mesh, system=result.system if args.dump_matrices else None)

    dumps = args.mesh_out or args.dump_matrices
    records = experiments.run(cfg, on_step=keep_last if dumps else None)
    text = experiments.records_to_csv(records, cfg.output or None)
    if cfg.output:
        print(f"wrote {cfg.output} ({len(records)} steps)")
    else:
        sys.stdout.write(text)

    if args.mesh_out:
        write_nodes_csv(last["mesh"], args.mesh_out)
        print(f"wrote {args.mesh_out}")
    if args.dump_matrices:
        system = last["system"]
        for name, arr in (("G", system.G), ("B", system.B), ("F", system.F)):
            path = f"{args.dump_matrices}{name}.txt"
            np.savetxt(path, np.atleast_2d(arr))
            print(f"wrote {path}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_command(args)
        kwargs = {key: val for key, val in vars(args).items() if key != "command"}
        result = PRESETS[args.command][0](**kwargs)
        if args.command == "sharp-demo":
            for norm, value in result[1].items():
                print(f"overshoot[{norm}] = {value:.6f}")
        print(f"wrote {args.out}")
        return 0
    except Exception as exc:  # CLI contract: nonzero exit with one diagnostic line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
