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
    values; every matrix is a band of w = 2k + 1 slots per column.  The
    assembly holds A_vv, w n, the trial bands A_vu and C_vu, w t each, and
    then the strip of op that the lift multiplies: the rows that meet a
    constrained column, over all trial columns, about one trial band
    as those rows lie within the band of the first or last free trial
    column.  B keeps the storage of A_vu.  The Gram builds follow, all
    before the first solve; each holds A_vv, B, the earlier norms' bands,
    its own and the mass matrix, and one more test band at a time: the
    mean term, then the transpose ``G.T``.  Nothing N-wide is built there,
    so the last of k' norms peaks at w (t + (k' + 3) n).  The solves come
    last, one at a time, with B and every norm's Gram band alive, as the
    StepResults keep them.  A solve holds three bands over all the
    positions: K0, w N, the Cholesky band of S + I, (k + 1) N, and the LU
    band, (3k + 1) N, 3 w N in all.  Before the LU band, while it builds
    K0, it holds K0, the Cholesky band and two test bands at a time (S,
    then ``B.T`` and the test columns of K0 that it is added to),
    w (3 N / 2 + 2 n), which is less than w (3 N + n) as n < N.  Nothing
    N-wide outlives its solve.  So w (t + (k' + 3) n + 3 N) values bound a
    k'-norm step, at least 2 w n above both the solves' peak, below
    w (t + (k' + 1) n + 3 N), and the Gram builds', w (t + (k' + 3) n),
    which are above the assembly's, w (3t + n); the margin covers what is
    left out below.  At the tenth delta = sqrt(h) step (n = 7679,
    t = 2559, k = 209, one norm) tracemalloc reads 113 MiB at the Gram
    build's peak and 134 MiB at the solve's, against the bound's 205 MiB.
    Left out: the chunk temporaries of the assembly, at most a few tens of MB, the
    dense edge columns of the constrained trial DOFs, the vectors, and the
    zero columns that pad a band to 2k + 1 columns when it has fewer.
    """
    need = 8 * (2 * half_band + 1) * (n_trial + (n_norms + 3) * n_test + 3 * (n_test + n_trial))
    limit = _memory_limit()
    if need > limit:
        raise MemoryError(
            f"the step's bands need about {need / 2**30:.2f} GiB (n_test = {n_test}, "
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
    layout = kkt_layout(test, trial)
    _check_memory(test.n_free, trial.n_free, len(norms), layout[1])
    lift, systems = mixed_system_from_parts(trial, test, eps, problem, norms, layout)
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
