"""Run configuration, CSV output, determinism, presets, CLI."""

import functools
import importlib
import math
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nlpg import cli, experiments
from nlpg.assembly import check_norms
from nlpg.experiments import (COUPLING_DELTA, COUPLINGS, CSV_HEADER, RunConfig,
                              apply_overrides, config_from_file, overshoot_metric,
                              records_to_csv, run, run_sharp_demo, uniform_h_study)
from nlpg.mesh import initial_mesh, refine_uniform
from nlpg.space import Space
from reference import interpolate


def test_config_validation_messages():
    with pytest.raises(ValueError, match="problem"):
        RunConfig(problem="bogus").validate()
    with pytest.raises(ValueError, match="norm"):
        RunConfig(norm="optimal").validate()
    with pytest.raises(ValueError, match="coupling"):
        RunConfig(coupling="3h").validate()
    with pytest.raises(ValueError, match="coupling"):
        RunConfig(coupling="h", refinement="adaptive").validate()
    with pytest.raises(ValueError, match="dp"):
        RunConfig(dp=0).validate()
    with pytest.raises(ValueError, match="theta"):
        RunConfig(theta=0.0).validate()
    with pytest.raises(ValueError, match="delta"):
        RunConfig(delta=-1.0).validate()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"delta: must be positive and finite, got {bad}"):
            RunConfig(delta=bad).validate()
        with pytest.raises(ValueError, match=f"eps: must be positive and finite, got {bad}"):
            RunConfig(eps=bad).validate()


def test_coupling_delta_values():
    assert COUPLINGS == ("fixed", "h", "2h", "h^2", "sqrt(h)")
    assert COUPLING_DELTA["h"](0.2) == 0.2
    assert COUPLING_DELTA["2h"](0.2) == 0.4
    assert COUPLING_DELTA["h^2"](0.2) == pytest.approx(0.04)
    assert COUPLING_DELTA["sqrt(h)"](0.04) == pytest.approx(0.2)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("problem = sharp\n# comment\ndelta = 1e-3\nsteps = 2\nnorm=eng\n")
    cfg = config_from_file(path)
    assert cfg.problem == "sharp" and cfg.delta == 1e-3
    assert cfg.steps == 2 and cfg.norm == "eng"
    cfg = apply_overrides(cfg, {"norm": "app"})
    assert cfg.norm == "app"
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(cfg, {"stepz": "3"})


def test_override_errors_name_the_key_and_line(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^steps: expected int, got 'abc'$"):
        apply_overrides(RunConfig(), {"steps": "abc"})
    with pytest.raises(ValueError, match=r"^delta: expected float, got 'abc'$"):
        apply_overrides(RunConfig(), {"delta": "abc"})
    path = tmp_path / "bad.cfg"
    path.write_text("problem = sharp\nsteps = x\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: steps: expected int, got 'x'")):
        config_from_file(path)
    path.write_text("# comment\nstepz = 3\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: unknown config key 'stepz'")):
        config_from_file(path)
    assert cli.main(["run", "--steps", "abc"]) == 1
    assert "error: steps: expected int, got 'abc'" in capsys.readouterr().err


def test_csv_schema_and_determinism(tmp_path):
    cfg = RunConfig(problem="smooth-nonlocal", delta=0.1, steps=3)
    text1 = records_to_csv(run(cfg), tmp_path / "a.csv")
    text2 = records_to_csv(run(cfg))
    assert text1.splitlines()[0] == CSV_HEADER
    assert text1 == text2   # byte-identical rerun
    assert (tmp_path / "a.csv").read_text() == text1
    first = text1.splitlines()[1].split(",")
    assert first[0] == "0" and first[6] == "" and first[8] == ""   # no rate on step 0
    assert len(first) == len(CSV_HEADER.split(","))


def test_uniform_p_reports_free_dof_counts():
    cfg = RunConfig(problem="smooth-nonlocal", delta=0.1, refinement="uniform-p",
                    steps=4)
    recs = run(cfg)
    assert [r.n_trial for r in recs] == [4, 9, 14, 19]
    assert all(r.n_test > r.n_trial for r in recs)


def test_study_rejects_a_bad_norm_list():
    # a repeated norm used to be solved and recorded twice per step, the
    # second record with zero rates; an empty list used to solve cfg.norm
    for norms in (("app", "app"), ()):
        with pytest.raises(ValueError, match="distinct test norms, at least one"):
            uniform_h_study(RunConfig(problem="linear", steps=2), norms=norms)


def test_uniform_h_study_rejects_bad_input_before_any_solve(monkeypatch):
    # the study validates its config as run does; a norm string used to be
    # split into its letters ("unknown test norm 'a'")
    solves = []
    monkeypatch.setattr(experiments, "solve_problem", lambda *args, **kw: solves.append(args))
    for cfg, message in ((RunConfig(coupling="3h"), "coupling: unknown value '3h'"),
                         (RunConfig(eps=math.nan), "eps: must be positive and finite")):
        with pytest.raises(ValueError, match=message):
            uniform_h_study(cfg)
    message = "test norms must be a tuple of names, got the string 'app'"
    with pytest.raises(ValueError, match=message):
        check_norms("app")
    with pytest.raises(ValueError, match=message):
        uniform_h_study(RunConfig(steps=2), norms="app")
    assert solves == []


def test_uniform_h_study_rejects_other_refinements(monkeypatch):
    # the study builds uniform-h steps whatever the config says, so it
    # refuses any other refinement
    solves = []
    monkeypatch.setattr(experiments, "solve_problem", lambda *args, **kw: solves.append(args))
    for refinement in ("adaptive", "uniform-p"):
        with pytest.raises(ValueError, match=f"refinement: .*'uniform-h', got '{refinement}'"):
            uniform_h_study(RunConfig(refinement=refinement, steps=3))
    assert solves == []


def test_every_benchmark_layer_exists(monkeypatch):
    # the benchmark wraps each layer at the module attribute the program
    # calls it by: a renamed function would drop its span or its observer
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    workloads = importlib.import_module("workloads")
    missing = {f"{module.__name__}.{attr}" for module, attr, _ in workloads.LAYERS
               if not hasattr(module, attr)}
    # a known stale entry of the benchmark: the mass matrix moved to assembly
    assert missing <= {"nlpg.adapt.assemble_mass_mean"}


def test_benchmark_observers_see_every_step(monkeypatch):
    # the benchmark checks each solve through wrappers at module attributes:
    # every solve must pass one wrapped solve_problem, every solved norm one
    # energy_error_norms, and every adaptive solve, the last included, one
    # indicator, marking and refinement call
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    workloads = importlib.import_module("workloads")
    observed = []

    class Recorder(workloads.Tracer):
        def wrap(self, module, attr, name, observe=None):
            observed.append((module, attr))
            super().wrap(module, attr, name, observe)

    # a traced run wraps every layer the benchmark times or observes; this
    # config fails its validation before any solve
    monkeypatch.setattr(workloads, "Tracer", Recorder)
    bad = workloads.Workload("invalid", RunConfig(steps=-1), ("app",))
    assert workloads.run_study(bad, traced=True)["error"].startswith("ValueError")
    calls = Counter()

    def counted(key, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    for module, attr in observed:
        key = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, counted(key, getattr(module, attr)))
    # (study, norms solved per step, refinement kind)
    studies = (
        (lambda: uniform_h_study(RunConfig(problem="linear", steps=3),
                                 norms=("app", "eng"))["app"], ("app", "eng"), "uniform-h"),
        (lambda: run(RunConfig(problem="smooth-local-forcing", coupling="h", steps=2)), ("app",),
         "coupling"),
        (lambda: run(RunConfig(refinement="uniform-p", norm="eng", steps=2)), ("eng",),
         "uniform-p"),
        (lambda: run(RunConfig(problem="sharp", delta=1e-5, refinement="adaptive",
                               steps=3)), ("app",), "adaptive"),
    )
    for study, norms, kind in studies:
        calls.clear()
        n = len(study())
        assert calls["nlpg.experiments.solve_problem"] + calls["nlpg.adapt.solve_problem"] == n
        # the timed layers: one system build per solve with the assembly it
        # drives, and per solved norm one solve and both error measures
        per_solve = {"nlpg.driver.mixed_system_from_parts": 1,
                     "nlpg.assembly.assemble_nonlocal_forms": 1,
                     "nlpg.assembly.load_vector": 1,
                     "nlpg.assembly.boundary_defect_load": 1,
                     "nlpg.assembly.assemble_mass_mean": norms.count("app"),
                     "nlpg.driver.solve_mixed": len(norms),
                     "nlpg.driver.energy_error_norms": len(norms),
                     "nlpg.driver.error_l2": len(norms)}
        for key, count in per_solve.items():
            assert calls[key] == count * n, (kind, key)
        # a uniform study bisects between its solves, not after the last
        assert calls["nlpg.experiments.refine_uniform"] == (n - 1 if kind == "uniform-h" else 0)
        for attr in ("localize_indicator", "dorfler_mark", "refine_marked"):
            assert calls[f"nlpg.adapt.{attr}"] == (n if kind == "adaptive" else 0)


def test_steps_zero_single_solve():
    cfg = RunConfig(problem="linear", delta=0.1, steps=0)
    assert len(run(cfg)) == 1


def test_overshoot_metric_zero_for_exact():
    # linear interpolation of in-range samples of the exact solution stays in
    # range (up to evaluation roundoff)
    from nlpg.kernels import exact_sharp
    sp = Space(initial_mesh(1e-3), 1)
    coeffs = interpolate(sp, lambda x: exact_sharp(x, 0.01))
    assert overshoot_metric(sp, coeffs) <= 1e-12
    # order 3 reproduces this quadratic; its maximum 1 lies at x = 0.5, inside
    # the element (0.4, 0.6)
    sp = Space(initial_mesh(1e-3), 3)
    coeffs = interpolate(sp, lambda x: 1.0 - 4.0 * (x - 0.5)**2)
    assert overshoot_metric(sp, coeffs) <= 1e-12


def test_overshoot_metric_measures_range_violation():
    sp = Space(initial_mesh(0.1), 1)
    coeffs = interpolate(sp, lambda x: np.asarray(x, dtype=float))
    coeffs[sp.free_dofs[0]] = 1.3
    assert overshoot_metric(sp, coeffs) == pytest.approx(0.3, abs=1e-3)
    # maximum 1.3 at x = 0.5, inside the element (0.4, 0.6); its nodes reach
    # 1.25 at the vertices and 1.29 inside
    sp = Space(initial_mesh(0.1), 3)
    coeffs = interpolate(sp, lambda x: 1.3 - 5.0 * (x - 0.5)**2)
    assert overshoot_metric(sp, coeffs) == pytest.approx(0.3, abs=1e-6)


def test_sharp_demo_writes_samples(tmp_path):
    out = tmp_path / "sharp.csv"
    results, overshoot = run_sharp_demo(delta=1e-5, out=out)
    assert set(overshoot) == {"app", "eng"}
    lines = out.read_text().splitlines()
    assert lines[0] == "x,exact,u_app,u_eng"
    assert len(lines) > 100


@pytest.mark.parametrize("eps", ["-0.01", "0", "nan", "inf"])
def test_cli_sharp_demo_rejects_bad_eps(tmp_path, capsys, eps):
    out = tmp_path / "sharp.csv"
    assert cli.main(["sharp-demo", "--eps", eps, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: eps: must be positive and finite, got {float(eps)}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli.PRESETS))
def test_cli_preset_rejects_an_empty_out(monkeypatch, capsys, command):
    # an empty name wrote no file, yet the preset printed "wrote " and
    # exited 0; it is rejected before any solve
    solves = []
    monkeypatch.setattr(experiments, "solve_problem", lambda *args, **kw: solves.append(args))
    assert cli.main([command, "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert "error: --out: need a file name, got ''" in err and "wrote" not in out
    assert solves == []


def test_cli_run_and_presets(tmp_path):
    out = tmp_path / "run.csv"
    cmd = [sys.executable, "-m", "nlpg.cli", "run", "--problem", "linear",
           "--delta", "0.1", "--steps", "2", "--output", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == CSV_HEADER

    bad = subprocess.run([sys.executable, "-m", "nlpg.cli", "run", "--norm", "bogus"],
                         capture_output=True, text=True)
    assert bad.returncode != 0
    assert "error:" in bad.stderr


def test_cli_presets_pass_on_only_the_flags_given(monkeypatch, capsys):
    # the preset defaults are those of the library functions: the CLI passes
    # on the flags given, typed by the defaults, and its own --out name
    calls = []
    typed = lambda kwargs: {key: (type(val), val) for key, val in kwargs.items()}
    for name, (func, doc) in list(cli.PRESETS.items()):
        record = functools.wraps(func)(lambda **kw: calls.append(kw) or (None, {}))
        monkeypatch.setitem(cli.PRESETS, name, (record, doc))
    for argv, passed in ((["table3"], {"out": "table3.csv"}),
                         (["table3", "--dp", "3", "--steps", "2"],
                          {"dp": 3, "steps": 2, "out": "table3.csv"}),
                         (["sharp-demo", "--eps", "0.02"], {"eps": 0.02, "out": "sharp_demo.csv"})):
        assert cli.main(argv) == 0
        assert typed(calls.pop()) == typed(passed), argv
    # each command keeps its flags
    for name, flags in (("table1", {"--norm", "--steps", "--out"}),
                        ("table3", {"--norm", "--steps", "--dp", "--out"}),
                        ("table7", {"--norm", "--steps", "--out"}),
                        ("sharp-demo", {"--delta", "--eps", "--dp", "--out"})):
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main([name, "--help"])
        assert set(re.findall(r"^  (--\w+)", capsys.readouterr().out, re.M)) == flags, name
    with pytest.raises(SystemExit):
        cli.main(["table1", "--norm", "opt"])
    assert "invalid choice: 'opt'" in capsys.readouterr().err


def test_cli_run_flag_for_every_config_key(tmp_path, monkeypatch):
    # each RunConfig field is a `run` flag whose value reaches the config
    values = {}
    for f in fields(RunConfig):
        if f.name == "output":
            values[f.name] = str(tmp_path / "run.csv")
        elif f.type in (int, "int"):
            values[f.name] = f.default + 7
        elif f.type in (float, "float"):
            values[f.name] = f.default + 0.5
        else:
            values[f.name] = f"{f.default}-flag"
    seen = []
    monkeypatch.setattr(RunConfig, "validate", lambda self: None)
    monkeypatch.setattr(cli.experiments, "run", lambda cfg, on_step=None: seen.append(cfg) or [])
    argv = ["run"]
    for key, val in values.items():
        argv += [f"--{key}", str(val)]
    assert cli.main(argv) == 0
    assert seen == [RunConfig(**values)]


def test_cli_mesh_dump_alone(tmp_path):
    # without --dump_matrices only the mesh of the last solve is kept
    mesh_csv = tmp_path / "mesh.csv"
    assert cli.main(["run", "--problem", "linear", "--delta", "0.1", "--steps", "2",
                     "--output", str(tmp_path / "r.csv"), "--mesh_out", str(mesh_csv)]) == 0
    nodes = [float(v) for v in mesh_csv.read_text().split()]
    np.testing.assert_allclose(nodes, refine_uniform(initial_mesh(0.1)).nodes)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["mesh.csv", "r.csv"]


def test_cli_mesh_and_matrix_dump(tmp_path):
    out = tmp_path / "r.csv"
    cmd = [sys.executable, "-m", "nlpg.cli", "run", "--problem", "linear",
           "--delta", "0.1", "--steps", "1", "--output", str(out),
           "--mesh_out", str(tmp_path / "mesh.csv"),
           "--dump_matrices", str(tmp_path / "dbg_")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    nodes = [float(v) for v in (tmp_path / "mesh.csv").read_text().split()]
    np.testing.assert_allclose(nodes, initial_mesh(0.1).nodes)
    G = np.loadtxt(tmp_path / "dbg_G.txt")
    assert G.shape[0] == G.shape[1] == 14   # free test dofs, p~=3 on 7 elements

    # every refinement kind and coupling dumps the state of its last solve
    for flags, p in ((["--problem", "sharp", "--delta", "1e-5", "--dp", "6",
                       "--refinement", "adaptive", "--steps", "6"], 1),
                     (["--problem", "linear", "--delta", "0.1",
                       "--refinement", "uniform-p", "--steps", "3"], 3),
                     (["--problem", "smooth-local-forcing", "--coupling", "h",
                       "--steps", "3"], 1)):
        proc = subprocess.run([*cmd[:4], *flags, "--output", str(out),
                               "--mesh_out", str(tmp_path / "mesh.csv"),
                               "--dump_matrices", str(tmp_path / "dbg_")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        last = out.read_text().splitlines()[-1].split(",")
        delta, n_trial, n_test = float(last[2]), int(last[3]), int(last[4])
        nodes = [float(v) for v in (tmp_path / "mesh.csv").read_text().split()]
        # order-p free trial DOFs on n interior elements: n * p - 1
        assert len(nodes) == (n_trial + 1) // p + 3, flags
        assert nodes[0] == pytest.approx(-delta, rel=1e-12), flags
        B = np.loadtxt(tmp_path / "dbg_B.txt", ndmin=2)
        assert B.shape == (n_test, n_trial), flags
