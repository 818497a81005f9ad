"""Single-mesh solve pipeline shared by the refinement studies."""

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
