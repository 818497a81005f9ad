"""Banded solver for the mixed saddle-point system.

The system is G psi + B u = F, B^T psi = 0 (Cohen, Dahmen & Welper, M2AN 46,
2012).  Every test and trial DOF couples only to the DOFs within the horizon
of it, so in the position order of ``assembly.kkt_layout`` the KKT matrix
K = [[G, B], [B^T, 0]] is banded, except for the mean term of the 'app' norm:
G = S - m m^T / |Omega| with S banded.  That term is one border row and
column (Benzi, Golub & Liesen, Acta Numerica 14, 2005), eliminated by the
Sherman-Morrison formula: with K0 = [[S, B], [B^T, 0]] and e = [m; 0],

    x = y + z (e^T y) / (|Omega| - e^T z),   K0 y = [F; 0],   K0 z = e.

K0 is put in band storage from the bands of S and of B, both held by
``assembly.Band``, and factored once with LAPACK's banded LU with partial
pivoting (``dgbtrf``, Golub & Van Loan section 4.3); ``dgbtrs`` solves for
[F; 0] and e.  One step of iterative refinement follows, its residual taken
with G @ psi = S psi - m (m^T psi) / |Omega|, B @ u and B^T @ psi, each
band applied by LAPACK's ``dgbmv``.  The LU pivots across the indefinite
matrix: on the grid of ``tools/parity.py`` its u was up to 1.2e-13
(relative) from a longdouble-refined solve without the step, and is within
9e-15 with it.

G is SPD exactly when the banded Cholesky factorization of S succeeds and
|Omega| - m^T S^-1 m > 0, by Haynsworth inertia additivity applied to
[[S, m], [m^T, |Omega|]] (a failure is an ``IndefiniteGramError``).  Given
that, K is nonsingular exactly when B has full column rank; a zero pivot of
the LU is an ``InfSupError``.  The residuals are taken with those band
products, and the condition estimate of the Schur complement B^T G^-1 B is
the product of two 1-norm estimates, one over products with it and one over
KKT solves.  No n_test x n_trial or n_test x n_test array is formed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

GATHER = 2**16   # band slots filled per pass


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


def _kkt_band(system, lead):
    """LAPACK band storage of K0[order][:, order], K0 = [[S, B], [B^T, 0]], of
    half-bandwidth k: entry (a, b) in row lead + k + a - b of column b, below
    lead rows of zeros.

    Unknown i < n is test unknown i, n + j trial unknown j.  A test column
    takes the slots of its column of S (``Band.banded`` of G) whose unknowns
    lie within k of it, a run of test positions found by ``searchsorted``,
    each moved to the position of its unknown.  A trial column is B's column
    as it is, since B is held in this layout, and its mirror, the trial row
    of the test columns, is moved one diagonal at a time.
    """
    G, B, order, k = system.G, system.B, system.order, system.half_band
    n, N, S = len(G.order), len(order), G.banded
    # the position of each test unknown, by test position (G.order is
    # order[order < n]), and the run of test positions within k of each
    col = np.flatnonzero(order < n)
    lo, hi = np.searchsorted(col, col - k), np.searchsorted(col, col + k, side="right")
    ab = np.zeros((lead + 2 * k + 1, N), order="F")
    width = max(1, GATHER // (2 * k + 1))
    for q0 in range(0, n, width):
        q = np.arange(q0, min(q0 + width, n))
        count = hi[q] - lo[q]
        b = np.repeat(q, count)
        # the test position of each kept slot: run q of lo[q] .. hi[q] - 1
        a = np.arange(len(b)) + np.repeat(lo[q] - np.cumsum(count) + count, count)
        ab[lead + k + col[a] - col[b], col[b]] = S[k + a - b, b]
    at = np.flatnonzero(order >= n)   # the position of each column of B
    ab[lead:, at] = B.data
    for s in range(2 * k + 1):
        # slot s of trial column b, in row at[b] + s - k, mirrored
        c = at + (s - k)
        run = slice(*np.searchsorted(c, (0, N)))
        ab[lead + 2 * k - s, c[run]] = B.data[s, run]
    return ab


def solve_mixed(system):
    """Solve G psi + B u = F, B^T psi = 0 by one banded LU of the KKT matrix."""
    G, B, F = system.G, system.B, system.F
    (n, nt), k, order = B.shape, system.half_band, system.order
    # SPD test of G: banded Cholesky of S, whose lower band is S[k:], in the
    # position order of the test unknowns
    S, test = G.banded, G.order
    try:
        chol = (cholesky_banded(S[k:, :n], lower=True), True)
    except LinAlgError as exc:
        raise IndefiniteGramError(
            "Gram matrix is not positive definite; the test-norm assembly is broken") from exc
    if G.mean is not None:
        m, omega = G.mean
        Sinv_m = np.empty(n)
        Sinv_m[test] = cho_solve_banded(chol, m[test])
        border = omega - m @ Sinv_m
        if not border > 0.0:
            raise IndefiniteGramError(
                "Gram matrix is not positive definite (its mean term); "
                "the test-norm assembly is broken")

    lu, piv, info = dgbtrf(_kkt_band(system, lead=k), k, k, overwrite_ab=True)
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

    if G.mean is not None:
        z = band_solve(np.concatenate((m, np.zeros(nt))))
        denom = omega - m @ z[:n]

    def kkt_solve(rhs):
        """K^-1 rhs: the solve with K0, then the border unknown
        lambda = m^T psi / |Omega| eliminated."""
        y = band_solve(rhs)
        return y if G.mean is None else y + z * ((m @ y[:n]) / denom)

    b = np.concatenate((F, np.zeros(nt)))

    def residual(x):
        """[F; 0] - K [psi; u]."""
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
        if G.mean is not None:
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
