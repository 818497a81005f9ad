"""Single-mesh solve pipeline shared by the refinement studies."""

from dataclasses import dataclass

import numpy as np

from .analysis import energy_error_norms, error_l2
from .assembly import assemble_parts, mixed_system_from_parts
from .kernels import constant_kernel_pair
from .solver import expand_solution, solve_mixed
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
    """Assemble once, solve for each requested test norm; returns {norm: StepResult}."""
    trial = Space(mesh, p)
    test = Space(mesh, p + dp)
    kernel = constant_kernel_pair(mesh.delta)
    parts = assemble_parts(trial, test, kernel, eps, problem)
    out = {}
    for norm in norms:
        system = mixed_system_from_parts(parts, norm)
        solution = solve_mixed(system)
        coeffs = expand_solution(system, solution)
        err, exact = energy_error_norms(trial, coeffs, problem.u_exact, kernel)
        out[norm] = StepResult(
            trial=trial, test=test, system=system, solution=solution,
            coeffs=coeffs, err_energy=err / exact,
            err_l2=error_l2(trial, coeffs, problem.u_exact))
    return out
