"""Single-mesh solve pipeline shared by the refinement studies."""

import os
from dataclasses import dataclass

import numpy as np

from .analysis import energy_error_norms, error_l2
from .assembly import check_norms, mixed_system_from_parts
from .solver import solve_mixed
from .space import Space


@dataclass
class StepResult:
    """Solution of one problem on one mesh, with its error measures."""

    trial: object
    test: object
    system: object
    solution: object
    coeffs: np.ndarray      # full trial coefficients (lift + free solution)
    err_energy: float
    err_l2: float

    @property
    def n_trial(self):
        return self.trial.n_free

    @property
    def n_test(self):
        return self.test.n_free


def _memory_limit():
    """Bytes of memory this process may use: the physical memory, or the
    cgroup v2 ``memory.max`` of its cgroup where that is readable and smaller."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/proc/self/cgroup") as fh:
            path = next((line[3:].strip() for line in fh if line.startswith("0::")), None)
        if path is None:
            return limit
        with open(f"/sys/fs/cgroup{path.rstrip('/')}/memory.max") as fh:
            value = fh.read().strip()
    except OSError:
        return limit
    return min(limit, int(value)) if value.isdigit() else limit


def _check_memory(n_test, n_trial, n_norms):
    """Raise MemoryError if the dense arrays of the step cannot fit.

    Every norm's G stays alive, as its StepResult keeps it, and so does B
    (n_test x n_trial).  Besides them a step holds, one at a time: the mass
    matrix M at the Gram build of an 'app' norm; the bands of the solve
    (LU and Cholesky), about 0.7 n_test^2 values at delta = 0.1 and fewer
    at smaller horizons, once the mesh has some 40 elements; and before
    both, in the assembly, the two trial-column blocks A_vu and C_vu.  So
    (k + 1) n_test^2 + 2 n_test n_trial float64 values bound a k-norm step.
    """
    need = 8 * ((n_norms + 1) * n_test**2 + 2 * n_test * n_trial)
    limit = _memory_limit()
    if need > limit:
        raise MemoryError(
            f"the dense arrays need about {need / 2**30:.2f} GiB (n_test = {n_test}, "
            f"n_trial = {n_trial}), more than the {limit / 2**30:.2f} GiB of memory available")


def solve_problem(mesh, problem, *, eps, p, dp, norms=("app",)):
    """Assemble once, solve for each requested test norm; returns {norm: StepResult}."""
    norms = check_norms(norms)
    trial = Space(mesh, p)
    test = Space(mesh, p + dp)
    _check_memory(test.n_free, trial.n_free, len(norms))
    lift, systems = mixed_system_from_parts(trial, test, eps, problem, norms)
    out = {}
    for norm, system in systems.items():
        solution = solve_mixed(system)
        # full trial coefficients: the boundary lift plus the free solution
        coeffs = lift.copy()
        coeffs[trial.free_dofs] = solution.u
        err, exact = energy_error_norms(trial, coeffs, problem.u_exact)
        if exact == 0.0:
            raise ValueError("exact solution has zero energy norm")
        out[norm] = StepResult(
            trial=trial, test=test, system=system, solution=solution,
            coeffs=coeffs, err_energy=err / exact,
            err_l2=error_l2(trial, coeffs, problem.u_exact))
    return out
