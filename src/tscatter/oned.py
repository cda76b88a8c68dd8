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

Both root searches run ``_brentq``, Brent's (1973) bracketed method as
SciPy's C ``brentq`` implements it, ported line for line, so the module needs
NumPy only. Let 2^-e be the power of two that brings the largest |x| into
[1/2, 1). A law with |e| <= SCALE_BAND is solved as given. Beyond that band
(x-mu)^2 can overflow, or lose the small gaps between points to underflow,
so both searches first scale the points by 2^-e and map mu and sigma back by
2^e. That is exact: when the largest |x| of Q lies in [1/2, 1) and
|k| > SCALE_BAND, the estimate of 2^k Q is exactly 2^k times that of Q.
"""

from __future__ import annotations

import functools
import math
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

EPS = float(np.finfo(float).eps)

# laws whose largest |x| lies within 2^±SCALE_BAND keep their own scale, and
# with it the arithmetic of SciPy's brentq on the points as given
SCALE_BAND = 256


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


def _exponent(x: np.ndarray, *more: float) -> int:
    # e with 2^-e max|x, more| in [1/2, 1) when |e| > SCALE_BAND, else 0
    e = math.frexp(max(float(x.max()), -float(x.min()), *map(abs, more)))[1]
    return e if abs(e) > SCALE_BAND else 0


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of ``f`` in [a, b], where f(a) and f(b) differ in sign: SciPy's C ``brentq``, line for line.

    Each step interpolates (secant, or inverse quadratic through three
    points) when the step is short enough, and bisects otherwise; it stops
    when the bracket is below 2 delta = xtol + rtol |x|. Where C divides by
    zero the step is inf or nan and C bisects, so this bisects too. A NaN f
    raises SciPy's ``ValueError``; a bracket without a sign change raises
    ``ValueError`` and an exhausted ``maxiter`` ``RuntimeError``, as SciPy does.
    """
    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect unless the interpolated step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        limit = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def sigma_of_mu(sample: EmpiricalSample, mu: float, nu: float) -> float:
    """Unique sigma > 0 with F(mu, sigma) = 1/(nu+1), by bracketed root finding.

    Exists iff the mass m off the point mu exceeds t = 1/(nu+1); otherwise
    raises :class:`NoPositiveSolution` (the scale profile is driven to 0
    there). The bracket needs no search; with s^2 = int (x-mu)^2 dQ:

    * above, F(mu, sigma) < s^2/(nu sigma^2), so F is below t at
      sigma = 2 sqrt((nu+1)/nu) s;
    * below, the bracket starts at 1e-12 s when F is at least t there.
      Otherwise it starts at sqrt(g (m - t)/(2 nu t)), g the least positive
      (x-mu)^2. Each term off mu keeps at least g/(nu sigma^2 + g) of its
      mass, so F >= m g/(nu sigma^2 + g) = 2 m t/(m + t) > t there. That
      start lies below the upper end, since s^2 >= m g.

    The root is found by ``_brentq``. When the largest of |x| and |mu| is
    2^e (up to a factor in [1/2, 1)) with |e| > SCALE_BAND, the search runs
    on the points and mu scaled by 2^-e and the root is scaled back by 2^e,
    exactly. The root satisfies |F - 1/(nu+1)| <= 1e-12.
    """
    x, w = _as_oned(sample)
    e = _exponent(x, mu)
    x, mu = (np.ldexp(x, -e), math.ldexp(mu, -e)) if e else (x, float(mu))
    target = 1.0 / (nu + 1.0)
    diff2 = (x - mu) ** 2
    off_mass = float(w[diff2 > 0.0].sum())
    if off_mass <= target:
        raise NoPositiveSolution(
            f"mass off the center is {off_mass:g} <= 1/(nu+1) = {target:g}"
        )

    @functools.cache  # _brentq evaluates F at lo again, and returns a point it evaluated
    def F(sigma):
        return float(w @ (diff2 / (nu * sigma**2 + diff2))) - target

    spread = np.sqrt(float(w @ diff2))
    lo = 1e-12 * spread
    if F(lo) < 0.0:  # g and the factor rooted apart, so that their product cannot underflow
        lo = math.sqrt(float(diff2[diff2 > 0.0].min())) * math.sqrt((off_mass - target) / (2.0 * nu * target))
    hi = 2.0 * np.sqrt((nu + 1.0) / nu) * spread
    root = _brentq(F, lo, hi, xtol=1e-300, rtol=8.0 * EPS, maxiter=300)
    if abs(F(root)) > SCALE_RESIDUAL_TOL:
        raise NoPositiveSolution(f"root residual {F(root):g} above tolerance")
    return math.ldexp(root, e)


def _profile_derivative(sample: EmpiricalSample, mu: float, nu: float) -> float:
    # d/dmu of Qh(mu, sigma(mu)); the sigma direction drops out at the inner optimum
    x, w = _as_oned(sample)
    sigma = sigma_of_mu(sample, mu, nu)
    D = nu * sigma**2 + (x - mu) ** 2
    return (nu + 1.0) * float(w @ ((mu - x) / D))


def solve_oned(sample: EmpiricalSample, nu: float) -> OneDEstimate:
    """Location-scale estimate on the line, total for every law when 1 < nu < inf.

    Returns the boundary value (atom, 0) when an atom reaches mass
    nu/(nu+1); otherwise mu is the one root of the profile derivative on
    [min x, max x], found by a single bracketed root search (``_brentq``),
    and sigma is sigma(mu): the unique critical point of the objective. When
    the largest |x| is 2^e (up to a factor in [1/2, 1)) with |e| > SCALE_BAND,
    the search runs on the points scaled by 2^-e, and mu and sigma are scaled
    back by 2^e, exactly; laws of ordinary scale are solved as given.
    """
    nu = float(nu)
    if not 1.0 < nu < math.inf:
        raise NuOutOfRange(f"one-dimensional functional requires a finite nu > 1, got {nu}")
    x, _ = _as_oned(sample)
    loc, mass = max_atom(sample)
    if mass >= nu / (nu + 1.0) - EQ_TOL:
        return OneDEstimate(mu=float(loc[0]), sigma=0.0, boundary=True, atom=(float(loc[0]), mass))

    # One bracketed root is exact. The mass off any point exceeds 1/(nu+1), as
    # no atom reaches nu/(nu+1), so sigma(mu) exists for every mu. At mu = min x
    # each term w (mu-x)/D of the derivative is <= 0 and some mass lies
    # elsewhere, so it is < 0; at max x it is > 0. Each zero is a critical point
    # of Qh (d/dsigma Qh vanishes at sigma(mu)), and Qh has only one.
    e = _exponent(x)
    scaled = EmpiricalSample._carry(np.ldexp(sample.points, -e), sample.weights) if e else sample
    lo, hi = float(scaled.points.min()), float(scaled.points.max())
    mu = _brentq(lambda m: _profile_derivative(scaled, m, nu), lo, hi,
                 xtol=4.0 * EPS * (hi - lo), rtol=4.0 * EPS, maxiter=200)
    return OneDEstimate(mu=math.ldexp(mu, e), sigma=math.ldexp(sigma_of_mu(scaled, mu, nu), e), boundary=False)
