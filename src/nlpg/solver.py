"""Banded solver for the mixed saddle-point system.

The system is G psi + B u = F, B^T psi = 0 (Cohen, Dahmen & Welper, M2AN 46,
2012).  Every test and trial DOF couples only to the DOFs within the horizon
of it, so in the position order of ``assembly.kkt_layout`` the KKT matrix
K = [[G, B], [B^T, 0]] is banded, except for the mean term of the 'app' norm:
G = S - m m^T / |Omega| with S banded.  That term is one border row and
column (Benzi, Golub & Liesen, Acta Numerica 14, 2005), eliminated by the
Sherman-Morrison formula: with K0 = [[S, B], [B^T, 0]] and e = [m; 0],

    x = y + z (e^T y) / (|Omega| - e^T z),   K0 y = [F; 0],   K0 z = e.

K0 is gathered in band storage from the dense G and B and factored once
with LAPACK's banded LU with partial pivoting (``dgbtrf``, Golub & Van Loan
section 4.3); ``dgbtrs`` solves for [F; 0] and e.  One step of iterative
refinement, with the residual taken against the dense G, follows.  The LU
pivots across the indefinite matrix: on the grid of ``tools/parity.py`` its
u was up to 1.2e-13 (relative) from a longdouble-refined solve without the
step, and is within 9e-15 with it.

G is SPD exactly when the banded Cholesky factorization of S succeeds and
|Omega| - m^T S^-1 m > 0, by Haynsworth inertia additivity applied to
[[S, m], [m^T, |Omega|]] (a failure is an ``IndefiniteGramError``).  Given
that, K is nonsingular exactly when B has full column rank; a zero pivot of
the LU is an ``InfSupError``.  The residuals are taken against the dense G,
and the condition estimate of the Schur complement B^T G^-1 B is the product
of two 1-norm estimates, one over products with it and one over KKT solves.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

GATHER = 2**16   # band entries gathered per pass


class IndefiniteGramError(RuntimeError):
    """The Gram matrix is not positive definite (assembly bug)."""


class InfSupError(RuntimeError):
    """The KKT matrix is singular: B is rank deficient (discrete inf-sup failure)."""


@dataclass
class MixedSolution:
    """Free trial/test coefficients of the mixed solve plus cheap diagnostics."""

    u: np.ndarray
    psi: np.ndarray
    residual_primal: float
    residual_orthogonality: float
    schur_cond_estimate: float
    half_band: int          # of the factored KKT matrix, in position order


def _norm1(apply, n):
    """A lower bound of ||A||_1 for a symmetric n x n matrix A known by its
    products: Hager's walk from the mean vector to unit vectors (Higham, ACM
    TOMS 14, 1988), the estimate of LAPACK's condition estimators.  It is
    deterministic and needs no import of ``scipy.sparse``.
    """
    x, est = np.full(n, 1.0 / n), 0.0
    for _ in range(5):
        y = apply(x)
        if np.abs(y).sum() <= est:
            break
        est = np.abs(y).sum()
        z = apply(np.where(y >= 0.0, 1.0, -1.0))
        j = np.argmax(np.abs(z))
        if np.abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    return est


def _band(system, order, k, lead=0, upper=True):
    """LAPACK band storage of K0[order][:, order], K0 = [[S, B], [B^T, 0]] and
    S = G + m m^T / |Omega|, of half-bandwidth k: entry (a, b) in row
    lead + u + a - b of column b, with u = k if ``upper`` else 0 (the lower
    band alone, as ``cholesky_banded`` takes it), below lead rows of zeros.

    Unknown i < n is test unknown i, n + j trial unknown j.  K0 is
    symmetric, so only its lower band is gathered from G and B, a run of
    columns at a time and G along its rows; the upper band is its mirror.
    """
    G, B = system.G, system.B
    n, N = len(G), len(order)
    u = k if upper else 0
    ab = np.zeros((lead + u + k + 1, N), order="F")
    # window[t, b]: the unknown in row b + t of column b, -1 past the last row
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate((order, np.full(k, -1))), N)
    width = max(1, GATHER // (k + 1))
    for c0 in range(0, N, width):
        rows = window[:, c0:c0 + width]
        cols = np.broadcast_to(order[c0:c0 + width], rows.shape)
        test_row, test_col = (rows >= 0) & (rows < n), cols < n
        vals = np.zeros(rows.shape)
        tt = test_row & test_col
        vals[tt] = G[cols[tt], rows[tt]]
        if system.mean is not None:
            m, omega = system.mean
            # (m_i m_j) / |Omega|, as the Gram build subtracted it
            vals[tt] += m[rows[tt]] * m[cols[tt]] / omega
        tu, ut = test_row & ~test_col, (rows >= n) & test_col
        vals[tu] = B[rows[tu], cols[tu] - n]
        vals[ut] = B[cols[ut], rows[ut] - n]
        ab[lead + u:, c0:c0 + width] = vals
    for d in range(1, u + 1):
        ab[lead + u - d, d:] = ab[lead + u + d, :N - d]
    return ab


def solve_mixed(system):
    """Solve G psi + B u = F, B^T psi = 0 by one banded LU of the KKT matrix."""
    G, B, F = system.G, system.B, system.F
    (n, nt), k, order = B.shape, system.half_band, system.order
    # SPD test of G: banded Cholesky of S in the position order of the test
    # unknowns, whose band is within the KKT one
    test = order[order < n]
    try:
        chol = (cholesky_banded(_band(system, test, k, upper=False), lower=True), True)
    except LinAlgError as exc:
        raise IndefiniteGramError(
            "Gram matrix is not positive definite; the test-norm assembly is broken") from exc
    if system.mean is not None:
        m, omega = system.mean
        Sinv_m = np.empty(n)
        Sinv_m[test] = cho_solve_banded(chol, m[test])
        border = omega - m @ Sinv_m
        if not border > 0.0:
            raise IndefiniteGramError(
                "Gram matrix is not positive definite (its mean term); "
                "the test-norm assembly is broken")

    lu, piv, info = dgbtrf(_band(system, order, k, lead=k), k, k, overwrite_ab=True)
    if info > 0:
        raise InfSupError(
            "the KKT matrix is singular: discrete inf-sup failure; "
            "raise the test-space enrichment dp")

    def band_solve(rhs):
        """K0^-1 rhs, in the unknowns' numbering."""
        x, _ = dgbtrs(lu, k, k, rhs[order], piv)
        out = np.empty_like(x)
        out[order] = x
        return out

    if system.mean is not None:
        z = band_solve(np.concatenate((m, np.zeros(nt))))
        denom = omega - m @ z[:n]

    def kkt_solve(rhs):
        """K^-1 rhs: the solve with K0, then the border unknown
        lambda = m^T psi / |Omega| eliminated."""
        y = band_solve(rhs)
        return y if system.mean is None else y + z * ((m @ y[:n]) / denom)

    b = np.concatenate((F, np.zeros(nt)))

    def residual(x):
        """[F; 0] - K [psi; u], with the dense G."""
        psi, u = x[:n], x[n:]
        return b - np.concatenate((G @ psi + B @ u, B.T @ psi))

    x = kkt_solve(b)
    # one step of iterative refinement in working precision (Skeel, Math.
    # Comp. 35, 1980; Higham 2002, ch. 12) wins back what the pivot growth
    # of the indefinite LU costs; see the module docstring
    x += kkt_solve(residual(x))
    psi, u = x[:n], x[n:]
    r = residual(x)
    scale = 1.0 + np.linalg.norm(F)
    res1 = np.linalg.norm(r[:n]) / scale
    res2 = np.linalg.norm(r[n:]) / scale

    # kappa_1 of the Schur complement B^T G^-1 B (symmetric): its products
    # apply G^-1 by the Cholesky factor of S and the border, and its inverse
    # is -u of the KKT solve with right-hand side [0; r]
    def gram_solve(w):
        out = np.empty_like(w)
        out[test] = cho_solve_banded(chol, w[test])
        if system.mean is not None:
            out += Sinv_m * ((m @ out) / border)
        return out

    def schur(v):
        return B.T @ gram_solve(B @ v)

    def schur_inv(r):
        return -kkt_solve(np.concatenate((np.zeros(n), r)))[n:]

    cond = _norm1(schur, nt) * _norm1(schur_inv, nt)
    return MixedSolution(u=u, psi=psi, residual_primal=float(res1),
                         residual_orthogonality=float(res2),
                         schur_cond_estimate=float(cond), half_band=k)
