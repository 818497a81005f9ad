"""Refinement studies, their CSV output and the presets of the paper's tables."""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .adapt import adaptive_loop
from .analysis import step_record
from .assembly import NORMS, check_norms
from .driver import solve_problem
from .mesh import initial_mesh, refine_uniform, uniform_mesh
from .problems import PROBLEM_NAMES, make_problem

# horizon of each local-limit coupling as a function of the interior width h
COUPLING_DELTA = {"h": lambda h: h, "2h": lambda h: 2.0 * h, "h^2": lambda h: h * h,
                  "sqrt(h)": math.sqrt}
COUPLINGS = ("fixed", *COUPLING_DELTA)
REFINEMENTS = ("uniform-h", "uniform-p", "adaptive")

# CSV cells of a record, (attribute, format): the energy pair that the wide
# tables report, and the stable per-run schema
_ERR_CELLS = (("err_energy", ".6e"), ("rate_energy", ".4f"))
_RECORD_CELLS = (("step", "d"), ("h_min", ".10g"), ("delta", ".10g"), ("n_trial", "d"),
                 ("n_test", "d"), *_ERR_CELLS, ("err_l2", ".6e"), ("rate_l2", ".4f"))
CSV_HEADER = ",".join(name for name, _ in _RECORD_CELLS)
_TABLE_DELTAS = (0.1, 0.01, 0.001, 0.0001)

_INITIAL_H = 0.2   # width of the five starting interior elements


@dataclass
class RunConfig:
    """One benchmark run.  ``steps`` counts solves; refinement happens between
    them (so a uniform-h run with steps=9 ends at h = 0.2 / 2**8)."""

    problem: str = "smooth-nonlocal"
    eps: float = 0.01
    delta: float = 0.1
    coupling: str = "fixed"
    p: int = 1
    dp: int = 2
    norm: str = "app"
    refinement: str = "uniform-h"
    steps: int = 9
    theta: float = 0.1
    output: str = ""

    def validate(self):
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"problem: unknown value {self.problem!r}, expected {PROBLEM_NAMES}")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling: unknown value {self.coupling!r}, expected {COUPLINGS}")
        if self.norm not in NORMS:
            raise ValueError(f"norm: unknown value {self.norm!r}, expected {NORMS}")
        if self.refinement not in REFINEMENTS:
            raise ValueError(
                f"refinement: unknown value {self.refinement!r}, expected {REFINEMENTS}")
        if self.coupling != "fixed" and self.refinement != "uniform-h":
            raise ValueError("coupling: delta couplings require refinement = uniform-h")
        # NaN fails both comparisons
        if self.coupling == "fixed" and not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta: must be positive and finite, got {self.delta}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps: must be positive and finite, got {self.eps}")
        if self.p < 1:
            raise ValueError(f"p: must be >= 1, got {self.p}")
        if self.dp < 1:
            raise ValueError(f"dp: test-space enrichment must be >= 1, got {self.dp}")
        if self.steps < 0:
            raise ValueError(f"steps: must be >= 0, got {self.steps}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta: must lie in (0, 1], got {self.theta}")


def _study(cfg, norms, steps, on_step, dof_rates=False):
    """Solve every (mesh, problem, p) of ``steps`` for the test norms; {norm: [records]}."""
    norms = check_norms((cfg.norm,) if norms is None else norms)
    if on_step is not None and cfg.norm not in norms:
        raise ValueError(f"on_step gets the result of norm {cfg.norm!r}, not among {norms}")
    out = {n: [] for n in norms}
    for step, (mesh, problem, p) in enumerate(steps):
        results = solve_problem(mesh, problem, eps=cfg.eps, p=p, dp=cfg.dp, norms=norms)
        for n in norms:
            prev = out[n][-1] if out[n] else None
            out[n].append(step_record(step, mesh, results[n], prev, dof_rates))
        if on_step is not None:
            on_step(step, mesh, results[cfg.norm], None)
        # free this step's G and B before the next step assembles
        del results
    return out


def uniform_h_study(cfg, norms=None, on_step=None):
    """Uniform h-refinement records for one or several test norms at once.

    Assembly is shared across norms per step; returns {norm: [records]}.
    ``on_step`` (optional) receives (step, mesh, result, None) after each
    solve, as in ``adaptive_loop``; result is that of ``cfg.norm``, which
    must then be among ``norms``.
    """
    cfg.validate()

    def steps():
        mesh = None
        for step in range(max(1, cfg.steps)):
            if cfg.coupling != "fixed":
                mesh = uniform_mesh(COUPLING_DELTA[cfg.coupling](_INITIAL_H / 2**step),
                                    5 * 2**step)
            else:
                mesh = initial_mesh(cfg.delta) if mesh is None else refine_uniform(mesh)
            yield mesh, make_problem(cfg.problem, cfg.eps, mesh.delta), cfg.p

    return _study(cfg, norms, steps(), on_step)


def run(cfg, on_step=None):
    """Execute one configured study and return its records.

    ``on_step`` (optional) receives (step, mesh, result, indicators) after
    each solve; indicators is None except in adaptive runs.
    """
    cfg.validate()
    if cfg.refinement == "uniform-h":
        return uniform_h_study(cfg, on_step=on_step)[cfg.norm]
    problem = make_problem(cfg.problem, cfg.eps, cfg.delta)
    if cfg.refinement == "adaptive":
        return adaptive_loop(problem, cfg, on_step)
    # uniform p on the fixed initial mesh, trial orders 1..steps; rates are
    # taken against DOF growth, which matches halving rates only asymptotically
    mesh = initial_mesh(cfg.delta)
    steps = ((mesh, problem, p) for p in range(1, max(1, cfg.steps) + 1))
    return _study(cfg, None, steps, on_step, dof_rates=True)[cfg.norm]


def overshoot_metric(space, coeffs):
    """Largest violation of the [0, 1] solution range on (0, 1).

    Sampled at 1000 equispaced points per interior element.
    """
    interior = space.mesh.interior_elements
    nodes = space.mesh.nodes
    xs = np.linspace(nodes[interior], nodes[interior + 1], 1000, endpoint=False, axis=1)
    vals = space.values(coeffs, interior, xs)
    return max(0.0, float(vals.max()) - 1.0, -float(vals.min()))


def _cell(record, name, spec):
    value = getattr(record, name)
    # rates are undefined at the first step and left empty there
    return "" if name.startswith("rate") and math.isnan(value) else format(value, spec)


def _write_csv(header, rows, file):
    """CSV text of the header and rows of cells; also written to ``file`` if given."""
    text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
    if file:
        with open(file, "w") as fh:
            fh.write(text)
    return text


def records_to_csv(records, file=None):
    """Render records in the stable CSV schema; returns the text."""
    return _write_csv(CSV_HEADER.split(","),
                      [[_cell(r, *c) for c in _RECORD_CELLS] for r in records], file)


def _wide_table(first, key, values, file, **common):
    """One study per value of the config ``key``, the other fields in ``common``.

    The CSV has the leading column ``first`` = (header, record attribute,
    format), read from the first study, then err(rate) pairs per study.
    """
    cols = {f"delta={v}": run(RunConfig(**common, **{key: v})) for v in values}
    header = [first[0]] + [f"{kind}[{name}]" for name in cols for kind in ("err", "rate")]
    rows = [[_cell(rec, *first[1:])]
            + [_cell(recs[k], *c) for recs in cols.values() for c in _ERR_CELLS]
            for k, rec in enumerate(next(iter(cols.values())))]
    return _write_csv(header, rows, file)


def run_table1(norm="app", steps=9, out=None):
    """Smooth-solution uniform-h sweep over the four horizon sizes."""
    return _wide_table(("h", "h_min", ".10g"), "delta", _TABLE_DELTAS, out,
                       problem="smooth-nonlocal", norm=norm, steps=steps)


def run_table3(norm="app", dp=2, steps=4, out=None):
    """Smooth-solution uniform-p sweep over the four horizon sizes."""
    return _wide_table(("N", "n_trial", "d"), "delta", _TABLE_DELTAS, out,
                       problem="smooth-nonlocal", norm=norm, dp=dp,
                       refinement="uniform-p", steps=steps)


def run_table7(norm="app", steps=9, out=None):
    """Local-limit couplings delta = h, 2h, h^2, sqrt(h) under uniform h."""
    return _wide_table(("h", "h_min", ".10g"), "coupling", ("h", "2h", "h^2", "sqrt(h)"),
                       out, problem="smooth-local-forcing", norm=norm, steps=steps)


def run_sharp_demo(delta=1e-5, eps=0.01, dp=6, out=None):
    """Sharp-gradient stability comparison on the initial mesh, trial order 1.

    Solves with both test norms, reports the overshoot of each, and (when
    ``out`` is given) writes sampled solution curves x,exact,u_app,u_eng.
    """
    RunConfig(problem="sharp", eps=eps, delta=delta, dp=dp).validate()
    mesh = initial_mesh(delta)
    problem = make_problem("sharp", eps, delta)
    results = solve_problem(mesh, problem, eps=eps, p=1, dp=dp, norms=NORMS)
    overshoot = {n: overshoot_metric(results[n].trial, results[n].coeffs) for n in NORMS}
    if out:
        interior = mesh.interior_elements
        xs = np.append(np.linspace(mesh.nodes[interior], mesh.nodes[interior + 1], 201,
                                   axis=1)[:, :-1], 1.0)
        curves = [results[n].trial.evaluate(results[n].coeffs, xs) for n in NORMS]
        _write_csv(["x", "exact", *(f"u_{n}" for n in NORMS)],
                   [[format(v, ".8e") for v in row]
                    for row in zip(xs, problem.u_exact(xs), *curves)], out)
    return results, overshoot


def config_from_file(path):
    """Parse a flat ``key = value`` config file into a RunConfig; later lines win."""
    cfg = RunConfig()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            try:
                cfg = apply_overrides(cfg, {key.strip(): val.strip()})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cfg


def apply_overrides(cfg, values):
    """Apply string key/value overrides onto a RunConfig, converted by field type."""
    types = {f.name: f.type for f in fields(RunConfig)}
    converted = {}
    for key, val in values.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        try:
            converted[key] = types[key](val)
        except ValueError:
            raise ValueError(f"{key}: expected {types[key].__name__}, got {val!r}") from None
    return replace(cfg, **converted)
