"""Curvature and asymptotic covariance of the scatter functionals.

All second-order objects live on the space of symmetric matrices in the
coordinates of :func:`~tscatter.symspace.sym_to_vec`. Conventions:

* The score of a point y is the gradient of its adjusted loss with respect
  to the concentration matrix C = A^{-1},
  -A/2 + (nu+d) y y' / (2 (nu + y'A^{-1}y)); it integrates to zero at the
  functional.
* ``hessian`` returns the curvature operator normalized so that its quadratic
  form is ``|A^{1/2} D A^{1/2}|_F^2 - (nu+d) int (y'Dy)^2/(nu+y'Cy)^2 dQ``.
  This is twice the calculus Hessian of the objective in C; the analytic
  factor is reinserted where the covariance chains derivatives, so it is the
  actual asymptotic covariance of the estimates.
* Covariances are reported for the A-parametrization (and for (mu, Sigma)
  after the extraction Jacobian), obtained from the C-side sandwich by the
  congruence X -> A X A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain_check import EmpiricalSample, lift
from .exceptions import NumericalBreakdown
from .locscatter import solve_locscatter
from .scatter import ScatterConfig, ScatterResult, solve_scatter
from .symspace import (
    as_spd,
    congruence_matrix,
    outer_vecs,
    sym_basis,
    sym_dim,
    sym_to_vec,
    symmetrize,
)

__all__ = [
    "AsymptoticCov",
    "hessian",
    "asymptotic_cov_scatter",
    "asymptotic_cov_locscatter",
    "extract_jacobian",
]

DEFAULT_RANK_TOL = 1e-8

# Memory, in bytes, of one block of the (K, n) outer-product rows that the
# curvature's Gram matrix is summed over: one block for 2·10⁴ points at d = 10,
# eight at d = 40 (K = 820), where the whole rows would take 131 MB.
GRAM_BLOCK_BYTES = 16 * 2**20

@dataclass(frozen=True)
class AsymptoticCov:
    """Covariance S of sqrt(n) (estimate - functional) on vectorized parameters.

    ``parametrization`` is ``"scatter_A"`` (coordinates sym_to_vec(A)) or
    ``"locscatter_muSigma"`` (mu stacked over sym_to_vec(Sigma)). ``rank`` is
    the numerical rank at ``DEFAULT_RANK_TOL`` relative to the largest
    singular value.
    """

    S: np.ndarray
    rank: int
    parametrization: str


def hessian(sample: EmpiricalSample, A, nu: float) -> np.ndarray:
    """Curvature operator of the scatter objective at A.

    Returns it as the symmetric K x K matrix H, K = d(d+1)/2, on sym_to_vec
    coordinates with

        vec(D)' H vec(D) = |A^{1/2} D A^{1/2}|_F^2
                           - (nu+d) sum_i w_i (y_i'Dy_i)^2 / (nu + y_i'Cy_i)^2.

    H is positive definite when A is the fitted scatter matrix of the sample.
    """
    A = as_spd(A)
    if sample.d != A.dim:
        raise ValueError("sample dimension does not match matrix dimension")
    return _curvature(sample, A, nu, A.quad_forms(sample.points), congruence_matrix(A.mat))[0]


def _curvature(sample: EmpiricalSample, A, nu: float, s, T):
    # hessian T - G, its Gram matrix G = sum_i (nu+d) w_i v_i v_i' / (nu+s_i)^2 and the mean score
    # part m = sum_i w_i c_i v_i, c_i = (nu+d)/(2(nu+s_i)), from quadratic forms s and
    # T[a,b] = trace(A E_a A E_b); v_i = sym_to_vec(y_i y_i') in (K, n) rows, GRAM_BLOCK_BYTES at a time
    d = A.dim
    K = sym_dim(d)
    c = sample.weights * (nu + d) / (2.0 * (nu + s))
    root = np.sqrt((nu + d) * sample.weights / (nu + s) ** 2)
    G, m = np.zeros((K, K)), np.zeros(K)
    step = max(1, GRAM_BLOCK_BYTES // (8 * K))
    for lo in range(0, sample.n, step):
        V = np.swapaxes(outer_vecs(sample.points[lo : lo + step]), 0, 1)
        m += V @ c[lo : lo + step]
        V *= root[lo : lo + step]
        G += V @ V.T
    return symmetrize(T - G, rtol=1e-6), G, m


def _fit(sample: EmpiricalSample, nu: float, fit=None, check_domain=True) -> ScatterResult:
    return fit if fit is not None else solve_scatter(sample, ScatterConfig(nu=nu), check_domain=check_domain)


def _curvature_solve(H: np.ndarray, rhs) -> np.ndarray:
    """H^{-1} rhs for the curvature H, once a Cholesky factorization shows H positive definite."""
    # the curvature is positive definite at the functional, not necessarily at an unconverged fit
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        least = np.linalg.eigvalsh(H)[0]
        raise NumericalBreakdown(f"curvature is not positive definite (least eigenvalue {least:.3g}):"
                                 " the fit is too far from the functional") from exc
    return np.linalg.solve(H, rhs)


def _numerical_rank(S: np.ndarray) -> int:
    sv = np.abs(np.linalg.eigvalsh(S))  # the singular values of the symmetric S; a zero S has rank 0
    return int((sv > DEFAULT_RANK_TOL * sv.max()).sum())


def asymptotic_cov_scatter(
    sample: EmpiricalSample,
    nu: float,
    *,
    fit=None,
    check_domain: bool = True,
) -> AsymptoticCov:
    """Asymptotic covariance of sqrt(n)(A_n - A) on sym_to_vec coordinates.

    Sandwich form: with H the curvature operator at the fitted A and K the
    weighted covariance of the vectorized scores, the concentration-side
    covariance is (H/2)^{-1} K (H/2)^{-1}; it is pushed to the
    A-parametrization by the congruence X -> A X A. Rank follows the law's
    geometry: d(d+1)/2 when no quadratic polynomial annihilates the sample,
    never less than d-1 for d >= 2, and exactly 1 for d = 1.

    K is read off the curvature's Gram matrix G, not an n x K score matrix:
    the score of y_i is c_i v_i - vec(A)/2, v_i = sym_to_vec(y_i y_i') and
    c_i = (nu+d)/(2(nu+s_i)), and sum_i w_i c_i^2 v_i v_i' = (nu+d)/4 G, so
    K = (nu+d)/4 G - m m' with m = sum_i w_i c_i v_i = vec(A)/2 at the fit.
    The subtraction loses digits only where K is small against m m'; against
    centring the scores first, S moves under 1e-13 relative on the tested laws.
    G and m are summed over blocks of points, ``GRAM_BLOCK_BYTES`` of rows
    v_i at a time, so memory beyond the K x K matrices does not grow with n.
    """
    A = _fit(sample, nu, fit, check_domain).A
    T = congruence_matrix(A.mat)
    H, G, m = _curvature(sample, A, nu, A.quad_forms(sample.points), T)
    K = (nu + A.dim) / 4.0 * G - np.outer(m, m)

    X = 2.0 * _curvature_solve(H, T)  # (H/2)^{-1} T, so that S = T (H/2)^{-1} K (H/2)^{-1} T = X' K X
    try:
        S = symmetrize(X.T @ K @ X, rtol=1e-6)
    except ValueError as exc:  # roundoff of a curvature that is positive definite but ill-conditioned
        raise NumericalBreakdown(f"sandwich {exc}: the fit is too far from the functional") from exc
    return AsymptoticCov(S=S, rank=_numerical_rank(S), parametrization="scatter_A")


def extract_jacobian(A) -> np.ndarray:
    """Jacobian of the block extraction A -> (mu, sym_to_vec(Sigma)).

    Rows are the d location coordinates followed by the sym_to_vec
    coordinates of Sigma; columns follow sym_to_vec on the (d+1)-space.
    Computed from exact directional derivatives of the block formulas
    mu = a/gamma, Sigma = M/gamma - mu mu' along each basis direction.
    """
    A = as_spd(A)
    d = A.dim - 1
    m = A.mat
    gamma = m[d, d]
    a = m[:d, d]
    mu = a / gamma
    E = sym_basis(d + 1)
    dgamma = E[:, d, d]
    dmu = E[:, :d, d] / gamma - np.outer(dgamma, a) / gamma**2
    dSigma = (
        E[:, :d, :d] / gamma
        - dgamma[:, None, None] * m[:d, :d] / gamma**2
        - dmu[:, :, None] * mu
        - mu[:, None] * dmu[:, None, :]
    )
    return np.hstack([dmu, sym_to_vec(dSigma)]).T


def asymptotic_cov_locscatter(
    sample: EmpiricalSample,
    nu: float,
    *,
    fit=None,
    check_domain: bool = True,
) -> AsymptoticCov:
    """Asymptotic covariance of sqrt(n)((mu_n, Sigma_n) - (mu, Sigma)).

    Pushes the lifted scatter covariance through the extraction Jacobian. The
    mu block has full rank d; the Sigma block inherits the rank behavior of
    the pure scatter case. ``fit`` takes a :class:`LocScatEstimate` of the
    sample at ``nu`` instead of solving for one.
    """
    est = fit if fit is not None else solve_locscatter(sample, nu, check_domain=check_domain)
    fit = est.scatter_diag
    S_lift = asymptotic_cov_scatter(lift(sample), est.nu - 1.0, fit=fit)
    J = extract_jacobian(fit.A)
    S = symmetrize(J @ S_lift.S @ J.T, rtol=1e-6)
    return AsymptoticCov(S=S, rank=_numerical_rank(S), parametrization="locscatter_muSigma")
