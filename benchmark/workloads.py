"""The three refinement studies, run through nlpg's public functions.

Each study is one call of a public study function of ``nlpg.experiments``.
The solves inside it are observed through wrappers at the module attributes
the program calls them by (see spans.py); the observers compute, apart from
the program, what the checks in checks.py need: solver residuals from the
assembled system, the exact-solution norm the error is divided by, the
indicator sum against the representer's Gram energy, the Doerfler share of
the elements the refinement bisected, and the overshoot of the solution.

The inputs are fixed by the paper's studies; nothing is drawn at random.
"""

from dataclasses import dataclass

import numpy as np

import nlpg
import nlpg.adapt
import nlpg.assembly
import nlpg.driver
import nlpg.experiments
from nlpg.experiments import RunConfig
from nlpg.mesh import horizon_neighbors
from nlpg.quadrature import smooth_pieces

from spans import Tracer, clock, net_seconds, self_seconds


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig
    norms: tuple          # test norms solved per step, from one assembly


WORKLOADS = {w.name: w for w in (
    Workload("smooth-uniform-h",
             RunConfig(problem="smooth-nonlocal", eps=0.01, delta=0.1, p=1, dp=2,
                       refinement="uniform-h", steps=7),
             ("app", "eng")),
    Workload("small-horizon-uniform-h",
             RunConfig(problem="smooth-nonlocal", eps=0.01, delta=1e-4, p=1, dp=2,
                       norm="app", refinement="uniform-h", steps=9),
             ("app",)),
    Workload("sharp-adaptive",
             RunConfig(problem="sharp", eps=0.01, delta=1e-5, p=1, dp=6, norm="app",
                       refinement="adaptive", steps=40, theta=0.1),
             ("app",)),
)}


# (module, attribute, span name): every layer call the traced run records.
# Each function is wrapped at the module that calls it.
LAYERS = (
    (nlpg.experiments, "solve_problem", "driver"),
    (nlpg.adapt, "solve_problem", "driver"),
    (nlpg.driver, "Space", "space.build"),
    (nlpg.assembly, "assemble_nonlocal_forms", "assembly.nonlocal_forms"),
    (nlpg.assembly, "assemble_mass_mean", "assembly.mass_mean"),
    (nlpg.adapt, "assemble_mass_mean", "assembly.mass_mean"),
    (nlpg.assembly, "load_vector", "assembly.load"),
    (nlpg.assembly, "boundary_defect_load", "assembly.boundary_defect"),
    (nlpg.driver, "mixed_system_from_parts", "assembly.system"),
    (nlpg.driver, "solve_mixed", "solver.solve"),
    (nlpg.driver, "energy_error_norms", "analysis.energy_error"),
    (nlpg.driver, "error_l2", "analysis.l2_error"),
    (nlpg.adapt, "localize_indicator", "adapt.indicators"),
    (nlpg.adapt, "dorfler_mark", "adapt.mark"),
    (nlpg.experiments, "refine_uniform", "mesh.refine"),
    (nlpg.adapt, "refine_marked", "mesh.refine"),
)
ROOT = "experiments"
FINAL_REPEAT_SHARE = 0.25
LAYER_NAMES = tuple(dict.fromkeys([ROOT] + [name for _, _, name in LAYERS]))


def residual_ratio(system, u, psi):
    """max(|G psi + B u - F|, |B^T psi|) / (1 + |F|), recomputed from the system."""
    G, B, F = system.G, system.B, system.F
    r_primal = np.linalg.norm(G @ psi + B @ u - F)
    r_orth = np.linalg.norm(B.T @ psi)
    return float(max(r_primal, r_orth) / (1.0 + np.linalg.norm(F)))


def overshoot_p1(coeffs, mesh):
    """Violation of [0, 1] by a continuous p = 1 function on (0, 1).

    A piecewise-linear function takes its extremes at the mesh vertices,
    whose values are the vertex coefficients, so no sampling is needed.
    """
    vals = np.asarray(coeffs)[1:mesh.n_elements]   # vertices 0 = x_1 .. x_{n-1} = 1
    return float(max(0.0, vals.max() - 1.0, -vals.min()))


def bisected_elements(old, new):
    """Elements of mesh ``old`` whose midpoint is a node of mesh ``new``."""
    mids = 0.5 * (old.nodes[:-1] + old.nodes[1:])
    k = np.clip(np.searchsorted(new.nodes, mids), 0, len(new.nodes) - 1)
    tol = 1e-9 * np.diff(old.nodes)
    return np.flatnonzero(np.abs(new.nodes[k] - mids) <= tol)


class StudyObserver:
    """Collects one observation per solve while a study runs."""

    def __init__(self, workload):
        self.workload = workload
        self.solves = []
        self.meshes = []
        self._exact_norms = []
        self._indicators = None

    def on_energy_norms(self, out, *args, **kwargs):
        self._exact_norms.append(out[1])

    def on_solve(self, results, mesh, problem, **kwargs):
        self.last_call = (mesh, problem), kwargs
        obs = {"norms": {}, "exact_norm": self._exact_norms}
        self._exact_norms = []
        for norm, res in results.items():
            obs["norms"][norm] = {
                "residual": residual_ratio(res.system, res.solution.u, res.solution.psi),
                "n_trial": res.n_trial, "n_test": res.n_test,
                "err_energy": res.err_energy, "err_l2": res.err_l2}
        if self.workload.config.refinement == "adaptive":
            res = results[self.workload.config.norm]
            psi = res.solution.psi
            obs["gram_energy"] = float(psi @ (res.system.G @ psi))
            if self.workload.config.p == 1:
                obs["overshoot"] = overshoot_p1(res.coeffs, mesh)
        self.solves.append(obs)
        self.meshes.append(mesh)

    def on_indicators(self, indicators, *args, **kwargs):
        obs = self.solves[-1]
        obs["eta2_sum"] = float(indicators.eta2.sum())
        self._indicators = indicators

    def on_refine(self, new_mesh, mesh, marked):
        bisected = bisected_elements(mesh, new_mesh)
        on = np.isin(self._indicators.elements, bisected)
        obs = self.solves[-1]
        obs["marked"] = int(on.sum())
        obs["marked_share"] = float(self._indicators.eta2[on].sum() / self._indicators.eta2.sum())


def run_study(workload, traced):
    """Run the workload's study once.

    Returns a dict with the study seconds, samples of the last solve's
    seconds (the solve in the study, then repeats of it when it is short and
    the round untraced), the per-solve observations, the meshes, the spans
    (when traced) and the exception text if the study raised.
    """
    tracer = Tracer()
    observer = StudyObserver(workload)
    observed = {
        (nlpg.experiments, "solve_problem"): observer.on_solve,
        (nlpg.adapt, "solve_problem"): observer.on_solve,
        (nlpg.driver, "energy_error_norms"): observer.on_energy_norms,
        (nlpg.adapt, "localize_indicator"): observer.on_indicators,
        (nlpg.adapt, "refine_marked"): observer.on_refine,
    }
    missing = []
    for module, attr, name in LAYERS:
        observe = observed.get((module, attr))
        if observe is None and not traced:
            continue
        if observe is None and not hasattr(module, attr):
            missing.append(f"{module.__name__}.{attr}")
            continue
        tracer.wrap(module, attr, name, observe)
    cfg = workload.config
    error = None
    try:
        with tracer.span(ROOT) as root:
            if cfg.refinement == "adaptive":
                nlpg.experiments.run(cfg)
            else:
                nlpg.experiments.uniform_h_study(cfg, norms=workload.norms)
    except Exception as exc:  # a failed solve is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.restore()
    solve_spans = [s for s in tracer.spans if s["name"] == "driver"]
    finals = [net_seconds(solve_spans[-1])] if solve_spans and error is None else []
    if finals and not traced:
        # a short final solve is noisy: repeat it until its samples add up
        # to a quarter of the study (the uniform studies' final solve alone
        # takes more than that)
        args, kwargs = observer.last_call
        while sum(finals) < FINAL_REPEAT_SHARE * net_seconds(root):
            t0 = clock()
            nlpg.driver.solve_problem(*args, **kwargs)
            finals.append(clock() - t0)
    out = {"study_s": net_seconds(root), "final_step_s": finals,
           "solves": observer.solves, "meshes": observer.meshes, "error": error}
    if traced:
        out["spans"] = tracer.spans
        out["self_s"] = self_seconds(tracer.spans)
        out["missing_layers"] = missing
    return out


def geometry_counts(mesh):
    """Element pairs, smooth pieces and distinct pair geometries of one mesh.

    Pairs are (interior outer element, element within the horizon), as the
    assembly visits them.  A geometry is (h_i, h_j, a_j - a_i), each rounded
    to 9 significant digits so that roundoff in the nodes does not split one
    geometry into several.
    """
    delta = mesh.delta
    pairs = pieces = 0
    geometries = set()
    for i in mesh.interior_elements:
        bi = mesh.bounds(i)
        for j in horizon_neighbors(mesh, i):
            bj = mesh.bounds(j)
            pairs += 1
            pieces += len(smooth_pieces(bi, bj, delta))
            geometries.add(tuple(float(f"{v:.9g}") for v in
                                 (bi[1] - bi[0], bj[1] - bj[0], bj[0] - bi[0])))
    return pairs, pieces, len(geometries)


def dense_solver_cost(n, m):
    """Flops and bytes of the dense Cholesky/Schur solve from the shapes.

    n = n_test (G is n x n), m = n_trial (B is n x m).  Flops: Cholesky of G
    (n^3/3), G^-1 B and G^-1 F (2 n^2 (m + 1)), S = B^T G^-1 B (2 n m^2),
    Cholesky of S (m^3/3).  Bytes: G and its factor, B and G^-1 B, and S,
    in float64.
    """
    flops = n**3 / 3 + 2 * n**2 * (m + 1) + 2 * n * m**2 + m**3 / 3
    return flops, 8 * (2 * n * n + 2 * n * m + m * m)
