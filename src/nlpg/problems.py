"""Benchmark problem definitions (manufactured solution + matching forcing)."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels

PROBLEM_NAMES = ("smooth-nonlocal", "smooth-local-forcing", "sharp", "linear")


@dataclass(frozen=True)
class Problem:
    """Exact solution and forcing for one (eps, delta) instance.

    The boundary data on the interaction domain is ``u_exact`` itself; the
    forcing is valid only for the (eps, delta) it was made with, which
    ``make_problem`` records in ``made_for`` (None for a problem built by hand).
    """

    name: str
    u_exact: Callable
    forcing: Callable
    made_for: tuple = None


def make_problem(name, eps, delta):
    if name == "smooth-nonlocal":
        return Problem(name, kernels.exact_smooth,
                       lambda x: kernels.forcing_smooth_nonlocal(x, eps, delta), (eps, delta))
    if name == "smooth-local-forcing":
        return Problem(name, kernels.exact_smooth,
                       lambda x: kernels.forcing_smooth_local(x, eps), (eps, delta))
    if name == "sharp":
        return Problem(name, lambda x: kernels.exact_sharp(x, eps),
                       lambda x: kernels.forcing_sharp(x, eps, delta), (eps, delta))
    if name == "linear":
        return Problem(name, lambda x: np.asarray(x, dtype=float),
                       lambda x: np.ones_like(np.asarray(x, dtype=float)), (eps, delta))
    raise ValueError(f"unknown problem {name!r}, expected one of {PROBLEM_NAMES}")
