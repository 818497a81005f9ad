"""Petrov-Galerkin solver for 1-D nonlocal convection-dominated diffusion.

Mixed formulation with an enriched test space; the test-space norm is either
the nonlocal energy norm ('eng') or the computable approximation of the
optimal test norm ('app').  The operators are pure functions of immutable
inputs.
"""

from .adapt import IndicatorSet, adaptive_step, dorfler_mark, localize_indicator
from .analysis import ExperimentRecord, error_l2, rate, rate_dof
from .assembly import (Band, MixedSystem, assemble_mass_mean, assemble_nonlocal_forms,
                       mixed_system_from_parts)
from .driver import solve_problem
from .kernels import (KernelPair, constant_kernel_pair, exact_sharp,
                      exact_smooth, forcing_sharp, forcing_smooth_local,
                      forcing_smooth_nonlocal)
from .mesh import (Mesh1d, horizon_neighbors, initial_mesh, refine_marked,
                   refine_uniform, uniform_mesh, write_nodes_csv)
from .problems import Problem, make_problem
from .quadrature import QuadRule, gauss_legendre
from .solver import IndefiniteGramError, InfSupError, MixedSolution, solve_mixed
from .space import Space, boundary_lift
from .experiments import (RunConfig, overshoot_metric, records_to_csv, run,
                          run_sharp_demo, run_table1, run_table3, run_table7,
                          uniform_h_study)

__version__ = "0.1.0"
