"""Dense solver for the mixed saddle-point system."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon


class IndefiniteGramError(RuntimeError):
    """The Gram matrix failed its Cholesky factorization (assembly bug)."""


class InfSupError(RuntimeError):
    """The Schur complement is rank deficient (discrete inf-sup failure)."""


@dataclass
class MixedSolution:
    """Free trial/test coefficients of the mixed solve plus cheap diagnostics."""

    u: np.ndarray
    psi: np.ndarray
    residual_primal: float
    residual_orthogonality: float
    schur_cond_estimate: float


def solve_mixed(system):
    """Solve G psi + B u = F, B^T psi = 0 by Cholesky + Schur complement."""
    G, B, F = system.G, system.B, system.F
    try:
        gfac = cho_factor(G, lower=True)
    except LinAlgError as exc:
        raise IndefiniteGramError(
            "Gram matrix is not positive definite; the test-norm assembly is broken"
        ) from exc
    GinvB = cho_solve(gfac, B)
    GinvF = cho_solve(gfac, F)
    S = B.T @ GinvB
    S = 0.5 * (S + S.T)
    try:
        sfac = cho_factor(S, lower=True)
    except LinAlgError as exc:
        raise InfSupError(
            "Schur complement is rank deficient: discrete inf-sup failure; "
            "raise the test-space enrichment dp"
        ) from exc
    u = cho_solve(sfac, B.T @ GinvF)
    psi = GinvF - GinvB @ u

    scale = 1.0 + np.linalg.norm(F)
    res1 = np.linalg.norm(G @ psi + B @ u - F) / scale
    res2 = np.linalg.norm(B.T @ psi) / scale
    # LAPACK 1-norm estimate of kappa_1(S) from the Cholesky factor of S
    rcond, _ = dpocon(sfac[0], np.linalg.norm(S, 1), uplo="L")
    cond = 1.0 / rcond
    return MixedSolution(u=u, psi=psi, residual_primal=float(res1),
                         residual_orthogonality=float(res2), schur_cond_estimate=cond)

