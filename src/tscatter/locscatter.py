"""Location-scatter functional for nu > 1 via dimension raising.

Appending a constant coordinate 1 to every observation turns the
location-scatter problem in R^d with tail parameter nu into a pure scatter
problem in R^{d+1} with parameter nu - 1. The solved (d+1)-matrix has
bottom-right entry exactly 1 and decomposes through the block embedding into
the location vector mu and scatter matrix Sigma. Two identities certify a
solution: the corner entry equals 1, and the fitted weights u((y-mu)'
Sigma^{-1} (y-mu)) average to 1 over the sample.

Every location-scatter fit in the package, including the ones behind the
asymptotic covariance and the Monte Carlo replicates, goes through this
lifted route, where uniqueness and minimality are guaranteed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .domain_check import EmpiricalSample, _affine_report, lift
from .exceptions import DomainViolation, NuOutOfRange
from .scatter import ScatterConfig, ScatterResult, solve_scatter, weight_u
from .symspace import SpdMatrix, _extract

__all__ = [
    "LocScatEstimate",
    "solve_locscatter",
    "certify_lifted_fit",
]

# |gamma - 1| and |mean fitted weight - 1| beyond this downgrade convergence.
IDENTITY_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class LocScatEstimate:
    """Location vector and scatter matrix with certification diagnostics.

    ``gamma_check`` is the corner entry of the lifted scatter solution and
    ``weight_check`` the sample average of the fitted downweights; both equal
    1 at an exact solution. ``converged`` is False if either drifts beyond
    ``IDENTITY_CHECK_TOL`` or the inner solver did not converge.
    """

    mu: np.ndarray
    Sigma: SpdMatrix
    nu: float
    gamma_check: float
    weight_check: float
    scatter_diag: ScatterResult
    converged: bool


def solve_locscatter(
    sample: EmpiricalSample, nu: float, cfg: ScatterConfig | None = None, *, check_domain: bool = True
) -> LocScatEstimate:
    """Compute (mu, Sigma) for the sample at tail parameter nu > 1.

    ``cfg`` supplies solver tolerances only; its ``nu`` field is replaced by
    nu - 1 for the lifted solve. Raises :class:`NuOutOfRange` unless 1 < nu < inf.
    The estimate is :func:`~tscatter.scatter.solve_scatter` of the lifted
    sample, whose affine-domain membership is the lifted linear condition at
    the same a0 = nu + d: unless ``check_domain=False``, it is certified from
    the lifted fit, or else checked by exact enumeration, on the sample
    without its zero-weight points. A law outside the domain raises
    :class:`DomainViolation` with the report in affine dimensions and its
    witnesses as rows of ``sample``. The estimate does not depend on
    ``check_domain``.
    """
    nu = float(nu)
    if not 1.0 < nu < np.inf:
        raise NuOutOfRange(f"location-scatter requires a finite nu > 1, got {nu}")
    cfg = ScatterConfig(nu=nu - 1.0) if cfg is None else dataclasses.replace(cfg, nu=nu - 1.0)
    try:
        diag = solve_scatter(lift(sample), cfg, check_domain=check_domain)
    except DomainViolation as exc:
        raise DomainViolation(_affine_report(exc.report)) from None
    return certify_lifted_fit(sample, nu, diag)


def certify_lifted_fit(sample: EmpiricalSample, nu: float, diag: ScatterResult) -> LocScatEstimate:
    """(mu, Sigma) of the sample from the lifted scatter fit ``diag`` at nu - 1.

    Extracts the block embedding and computes both certificates. Raises
    :class:`DegeneracyError` when the extracted Sigma is not SPD.
    """
    Sigma, mu, gamma = _extract(diag.A)
    s = Sigma.quad_forms(sample.points - mu)
    weight_check = float(sample.weights @ weight_u(s, nu, sample.d))
    converged = (
        diag.converged
        and abs(gamma - 1.0) <= IDENTITY_CHECK_TOL
        and abs(weight_check - 1.0) <= IDENTITY_CHECK_TOL
    )
    mu.setflags(write=False)  # a fresh array from _extract
    return LocScatEstimate(
        mu=mu,
        Sigma=Sigma,
        nu=nu,
        gamma_check=gamma,
        weight_check=weight_check,
        scatter_diag=diag,
        converged=converged,
    )
