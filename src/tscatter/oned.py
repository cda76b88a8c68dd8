"""One-dimensional location-scale functional, including its boundary extension.

For nu > 1 and a law Q on the line, the pair (mu, sigma) minimizes

    Qh(mu, sigma) = log sigma
        + ((nu+1)/2) * int log[(1 + (x-mu)^2/(nu sigma^2)) / (1 + x^2/nu)] dQ(x)

whenever every atom of Q has mass below nu/(nu+1). If a (necessarily unique)
atom reaches that mass, the functional extends continuously to (atom, 0).
For fixed mu, the optimal sigma(mu) > 0 solves

    F(mu, sigma) = int (x-mu)^2 / (nu sigma^2 + (x-mu)^2) dQ(x) = 1/(nu+1),

which has a unique root because F decreases strictly in sigma. In the
interior case Qh has exactly one critical point (Kent & Tyler 1991): the one
root of the profile derivative d/dmu Qh(mu, sigma(mu)) between min x and max x.

Two-point laws admit closed forms: the scale is of order sqrt(eps/(nu-1))
when the big-atom mass is approached from inside at distance eps, so sigma is
continuous but not Lipschitz across the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain_check import EQ_TOL, EmpiricalSample, max_atom
from .exceptions import NoPositiveSolution, NuOutOfRange

__all__ = [
    "OneDEstimate",
    "sigma_of_mu",
    "solve_oned",
]

SCALE_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class OneDEstimate:
    """Location and scale on the line; ``boundary`` marks the big-atom case.

    On the boundary, ``sigma == 0``, ``mu`` is the atom location, and ``atom``
    records (location, mass); otherwise (mu, sigma) is the unique critical
    point of the objective and ``atom`` is None.
    """

    mu: float
    sigma: float
    boundary: bool
    atom: tuple[float, float] | None = None


def _as_oned(sample: EmpiricalSample):
    if sample.d != 1:
        raise ValueError(f"expected a one-dimensional sample, got d={sample.d}")
    return sample.points[:, 0], sample.weights


def sigma_of_mu(sample: EmpiricalSample, mu: float, nu: float) -> float:
    """Unique sigma > 0 with F(mu, sigma) = 1/(nu+1), by bracketed root finding.

    Exists iff the mass off the point mu exceeds 1/(nu+1); otherwise raises
    :class:`NoPositiveSolution` (the scale profile is driven to 0 there).
    The bracket needs no search: F(mu, sigma) < s^2/(nu sigma^2) with
    s^2 = int (x-mu)^2 dQ, so F is below 1/(nu+1) at sigma = 2 sqrt((nu+1)/nu) s.
    The returned root satisfies |F - 1/(nu+1)| <= 1e-12.
    """
    from scipy.optimize import brentq

    x, w = _as_oned(sample)
    mu = float(mu)
    target = 1.0 / (nu + 1.0)
    diff2 = (x - mu) ** 2
    off_mass = float(w[diff2 > 0.0].sum())
    if off_mass <= target:
        raise NoPositiveSolution(
            f"mass off the center is {off_mass:g} <= 1/(nu+1) = {target:g}"
        )

    def F(sigma):
        return float(w @ (diff2 / (nu * sigma**2 + diff2))) - target

    spread = np.sqrt(float(w @ diff2))
    lo = 1e-12 * spread
    hi = 2.0 * np.sqrt((nu + 1.0) / nu) * spread
    root = brentq(F, lo, hi, xtol=1e-300, rtol=8.0 * np.finfo(float).eps, maxiter=300)
    if abs(F(root)) > SCALE_RESIDUAL_TOL:
        raise NoPositiveSolution(f"root residual {F(root):g} above tolerance")
    return float(root)


def _profile_derivative(sample: EmpiricalSample, mu: float, nu: float) -> float:
    # d/dmu of Qh(mu, sigma(mu)); the sigma direction drops out at the inner optimum
    x, w = _as_oned(sample)
    sigma = sigma_of_mu(sample, mu, nu)
    D = nu * sigma**2 + (x - mu) ** 2
    return (nu + 1.0) * float(w @ ((mu - x) / D))


def solve_oned(sample: EmpiricalSample, nu: float) -> OneDEstimate:
    """Location-scale estimate on the line, total for every law when nu > 1.

    Returns the boundary value (atom, 0) when an atom reaches mass
    nu/(nu+1); otherwise mu is the one root of the profile derivative on
    [min x, max x], found by a single bracketed root search, and sigma is
    sigma(mu): the unique critical point of the objective.
    """
    nu = float(nu)
    if not nu > 1.0:
        raise NuOutOfRange(f"one-dimensional functional requires nu > 1, got {nu}")
    x, _ = _as_oned(sample)
    loc, mass = max_atom(sample)
    if mass >= nu / (nu + 1.0) - EQ_TOL:
        return OneDEstimate(mu=float(loc[0]), sigma=0.0, boundary=True, atom=(float(loc[0]), mass))

    # One bracketed root is exact. The mass off any point exceeds 1/(nu+1), as
    # no atom reaches nu/(nu+1), so sigma(mu) exists for every mu. At mu = min x
    # each term w (mu-x)/D of the derivative is <= 0 and some mass lies
    # elsewhere, so it is < 0; at max x it is > 0. Each zero is a critical point
    # of Qh (d/dsigma Qh vanishes at sigma(mu)), and Qh has only one.
    from scipy.optimize import brentq

    lo, hi = float(x.min()), float(x.max())
    mu = brentq(lambda m: _profile_derivative(sample, m, nu), lo, hi,
                xtol=4.0 * np.finfo(float).eps * (hi - lo), maxiter=200)
    return OneDEstimate(mu=float(mu), sigma=sigma_of_mu(sample, mu, nu), boundary=False)
