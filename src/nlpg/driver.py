"""Single-mesh solve pipeline shared by the refinement studies."""

import os
from dataclasses import dataclass

import numpy as np

from .analysis import energy_error_norms, error_l2
from .assembly import check_norms, kkt_layout, mixed_system_from_parts
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


def _check_memory(n_test, n_trial, n_norms, half_band):
    """Raise MemoryError if the arrays of the step cannot fit.

    With n = n_test, t = n_trial, N = n + t and k = half_band, in float64
    values, a band being (2k + 1) n of them: the assembly holds the dense
    trial-column blocks A_vu and C_vu, 2 n t, and then op and B as long.  B
    (n t) stays alive, and so do every norm's Gram band and, once the norm
    is solved, the band of its S, as the StepResults keep them.  The Gram
    builds come first: the one of a norm holds A_vv, its own band, the mass
    matrix and two temporaries of the mean term, besides the earlier
    norms' bands.  Each solve then holds its S and the temporaries that
    make it (three bands), the Cholesky factor of S (k + 1 of its rows) and
    the KKT band, (3k + 1) N.  So 2 n t + (2k' + 4) bands + (3k + 1) N
    values bound a k'-norm step, the assembly and the rest summed, not
    maximized.  Left out: the chunk temporaries of the assembly, at most a
    few tens of MB, and the zero columns that pad S to 2k + 1 columns when
    n is smaller.
    """
    need = 8 * (2 * n_test * n_trial + (2 * n_norms + 4) * (2 * half_band + 1) * n_test
                + (3 * half_band + 1) * (n_test + n_trial))
    limit = _memory_limit()
    if need > limit:
        raise MemoryError(
            f"the dense arrays need about {need / 2**30:.2f} GiB (n_test = {n_test}, "
            f"n_trial = {n_trial}), more than the {limit / 2**30:.2f} GiB of memory available")


def solve_problem(mesh, problem, *, eps, p, dp, norms=("app",)):
    """Assemble once, solve for each requested test norm; returns {norm: StepResult}.

    A problem from ``make_problem`` must have been made for (eps, mesh.delta);
    one built by hand records no (eps, delta) and is not checked.
    """
    norms = check_norms(norms)
    if problem.made_for not in (None, (eps, mesh.delta)):
        raise ValueError(f"problem {problem.name!r} was made for (eps, delta) = "
                         f"{problem.made_for}, not ({eps}, {mesh.delta})")
    trial = Space(mesh, p)
    test = Space(mesh, p + dp)
    _check_memory(test.n_free, trial.n_free, len(norms), kkt_layout(test, trial)[1])
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
