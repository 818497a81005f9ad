"""Banded solver for the mixed saddle-point system.

The system is G psi + B u = F, B^T psi = 0 (Cohen, Dahmen & Welper, M2AN 46,
2012).  Every test and trial DOF couples only to the DOFs within the horizon
of it, so in the position order of ``assembly.kkt_layout`` the KKT matrix
K = [[G, B], [B^T, 0]] is banded, except for the mean term of the 'app' norm:
G = S - m m^T / |Omega| with S banded.  That term is one border row and
column (Benzi, Golub & Liesen, Acta Numerica 14, 2005), eliminated by the
Sherman-Morrison formula: with K0 = [[S, B], [B^T, 0]] and e = [m; 0],

    x = y + z (e^T y) / (|Omega| - e^T z),   K0 y = [F; 0],   K0 z = e.

The 'eng' Gram matrix has no mean term, G = S, and the solve runs the same
formulas for it with m = 0 and |Omega| = 1: z = 0, so x = y + 0, the border
is 1 and every mean correction adds or takes off zero, which leaves each
value as it is.  So both norms take one path.

G and B hold their bands (``assembly.Band``) in the positions and
half-bandwidth of the KKT matrix, so K0 is built once in band storage over
all positions by copying them: B's columns as they are, and S's columns with
B^T added to them, each entry of B moved as ``Band.T`` moves it, with no
transposed band built.  The solve works in that numbering: F is placed at
the test positions once, psi and u are gathered from theirs at the end,
and every dot product and norm is taken over the test or the trial
positions in DOF order, so it sums as over the DOFs.  A copy of K0, below
k rows for the fill-in, is factored once with LAPACK's banded LU with
partial pivoting (``dgbtrf``, Golub & Van Loan section 4.3); ``dgbtrs`` solves for [F; 0] and e.  One step of iterative refinement
follows, its residual taken by two products with K0
(``assembly.band_times``, LAPACK's ``dgbmv``), each of a vector that is zero
outside one block: of [psi; 0], whose test and trial rows are S psi and
B^T psi, and of [0; u], whose test rows are B u; G psi is
S psi - m (m^T psi) / |Omega|.  The products are those of ``G @ psi``,
``B @ u`` and ``B.T @ psi``, whose bands are K0's columns at their own
positions and zero elsewhere, plus zero terms, so they keep their bits.
The LU pivots across the indefinite matrix: on the grid of
``tools/parity.py`` its u was up to 1.2e-13 (relative) from a
longdouble-refined solve without the step, and is within 9e-15 with it.

G is SPD exactly when the banded Cholesky factorization of S succeeds and
|Omega| - m^T S^-1 m > 0, by Haynsworth inertia additivity applied to
[[S, m], [m^T, |Omega|]] (a failure is an ``IndefiniteGramError``).  The
factorization is of S + I on all positions, S at the test positions and the
identity at the trial ones, which is SPD exactly when S is, so that it takes
S's band in its own columns, copied from K0 before B^T is added.  Given
that, K is nonsingular exactly when B has full column rank; a zero pivot of
the LU is an ``InfSupError``.  The residuals are taken with those band
products, and the condition estimate of the Schur complement B^T G^-1 B is
the product of two 1-norm estimates, one over products with it and one over
KKT solves.  No n_test x n_trial or n_test x n_test array is formed.  The
solve holds three bands over all the unknowns, K0, the Cholesky band and the
LU band, and none of them outlives it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .assembly import band_times


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


def _kkt_band(G, B):
    """K0 = [[S, B], [B^T, 0]] in LAPACK band storage over all positions, of
    half-bandwidth k, S = G + m m^T / |Omega|: entry (a, b) in row k + a - b
    of column b; and the lower band of S + I, S at the test positions and
    the identity at the trial ones, for the SPD test of G.

    G and B hold their bands in this layout, so each trial column is B's
    column as it is, and each test column holds the slots of S, then those of
    B^T added in place, one slot row of B at a time: entry (r, c) of B, in
    slot s of column c, goes to slot 2k - s of the column at row r's
    position, as ``Band.T`` moves it, and the two never share a slot.  The
    lower band is copied from the test columns before B^T is added.
    """
    k = B.half_band
    K0 = np.zeros((2 * k + 1, B.size), order="F")
    K0[:, B.rows] = G.core()
    lower = K0[k:].copy(order="F")
    lower[0, B.cols] = 1.0
    K0[:, B.cols] = B.data
    row = B._row_at()
    for s in range(2 * k + 1):
        r = row[B.cols + s]
        keep = r < len(B.rows)
        K0[2 * k - s, B.rows[r[keep]]] += B.data[s, keep]
    return K0, lower


def solve_mixed(system):
    """Solve G psi + B u = F, B^T psi = 0 by one banded LU of the KKT matrix."""
    G, B, F = system.G, system.B, system.F
    k, N, rows, cols = B.half_band, B.size, B.rows, B.cols
    # the mean term of 'app'; 'eng' has none, the same formulas with m = 0
    m, omega = G.mean if G.mean is not None else (np.zeros(len(rows)), 1.0)

    def place(at, v):
        """The vector over all positions that is v at the positions at and
        zero elsewhere."""
        out = np.zeros(N)
        out[at] = v
        return out

    # SPD test of G: banded Cholesky of S + I on all positions, S at the
    # test positions and the identity at the trial ones, so SPD exactly when
    # S is
    K0, lower = _kkt_band(G, B)
    try:
        chol = (cholesky_banded(lower, lower=True, overwrite_ab=True), True)
    except LinAlgError as exc:
        raise IndefiniteGramError(
            "Gram matrix is not positive definite; the test-norm assembly is broken") from exc

    m_at = place(rows, m)
    Sinv_m = cho_solve_banded(chol, m_at)
    border = omega - m @ Sinv_m[rows]
    if not border > 0.0:
        raise IndefiniteGramError(
            "Gram matrix is not positive definite (its mean term); "
            "the test-norm assembly is broken")

    # dgbtrf's band: k rows for the fill-in, K0 below them
    ab = np.zeros((3 * k + 1, N), order="F")
    ab[k:] = K0
    lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
    if info > 0:
        raise InfSupError(
            "the KKT matrix is singular: discrete inf-sup failure; "
            "raise the test-space enrichment dp")

    z = dgbtrs(lu, k, k, m_at, piv)[0]
    denom = omega - m @ z[rows]

    def kkt_solve(rhs):
        """K^-1 rhs: the solve with K0, then the border unknown
        lambda = m^T psi / |Omega| eliminated."""
        y = dgbtrs(lu, k, k, rhs, piv)[0]
        return y + z * ((m @ y[rows]) / denom)

    def residual(x):
        """[F; 0] - K [psi; u], by two products with K0: of psi, zero at the
        trial positions, whose test and trial rows are S psi and B^T psi,
        and of u, zero at the test positions, whose test rows are B u.
        The mean term m (m^T psi) / |Omega| is taken off S psi."""
        out = band_times(K0, place(rows, x[rows]))
        out[rows] -= m * ((m @ x[rows]) / omega)
        out += band_times(K0, place(cols, x[cols]))
        return F_at - out

    F_at = place(rows, F)
    x = kkt_solve(F_at)
    # one step of iterative refinement in working precision (Skeel, Math.
    # Comp. 35, 1980; Higham 2002, ch. 12) wins back what the pivot growth
    # of the indefinite LU costs; see the module docstring
    x += kkt_solve(residual(x))
    r = residual(x)
    scale = 1.0 + np.linalg.norm(F)
    res1 = np.linalg.norm(r[rows]) / scale
    res2 = np.linalg.norm(r[cols]) / scale

    # kappa_1 of the Schur complement B^T G^-1 B (symmetric): its products
    # apply G^-1 by the Cholesky factor of S and the border, and its inverse
    # is -u of the KKT solve with right-hand side [0; r]
    def schur(v):
        G_inv_B_v = cho_solve_banded(chol, place(rows, band_times(K0, place(cols, v))[rows]))
        G_inv_B_v += Sinv_m * ((m @ G_inv_B_v[rows]) / border)
        return band_times(K0, place(rows, G_inv_B_v[rows]))[cols]

    def schur_inv(r):
        return -kkt_solve(place(cols, r))[cols]

    cond = _norm1(schur, len(cols)) * _norm1(schur_inv, len(cols))
    return MixedSolution(u=x[cols], psi=x[rows], residual_primal=float(res1),
                         residual_orthogonality=float(res2),
                         schur_cond_estimate=float(cond), half_band=k)
