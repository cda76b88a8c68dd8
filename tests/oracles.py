"""Reference implementations that the tests check the package against."""

import itertools

import numpy as np

from tscatter.domain_check import (
    EQ_TOL,
    POINT_RTOL,
    DomainReport,
    EmpiricalSample,
    _best_candidate,
    _point_scale,
)
from tscatter.exceptions import DegeneracyError, NotSpdError
from tscatter.scatter import weight_u
from tscatter.symspace import SpdMatrix, as_spd


def direct_em_step(sample: EmpiricalSample, mu, Sigma, nu: float):
    """One reweighting step on (mu, Sigma) directly in R^d.

    Weights are u((x - mu)' Sigma^{-1} (x - mu)); the new location is the
    weighted mean and the new scatter the weighted sum of outer products
    around it (no renormalization: the weights average to 1 at the fixed
    point). Used as an independent oracle for ``solve_locscatter``.
    """
    Sigma = as_spd(Sigma)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    centered = sample.points - mu
    s = Sigma.quad_forms(centered)
    u = weight_u(s, nu, sample.d)
    pw = sample.weights * u
    total = pw.sum()
    if total <= 0.0:
        raise DegeneracyError("all points received zero weight")
    mu_next = (pw @ sample.points) / total
    centered_next = sample.points - mu_next
    Sigma_next = (centered_next * pw[:, None]).T @ centered_next
    try:
        SpdMatrix(Sigma_next)
    except NotSpdError as exc:
        raise DegeneracyError("updated scatter is singular") from exc
    return mu_next, (Sigma_next + Sigma_next.T) / 2.0


def check_locscat_domain_direct(sample: EmpiricalSample, a0: float) -> DomainReport:
    """Affine check by direct enumeration, for d <= 2 only.

    Cross-validates the lifted implementation: enumerates atoms (q = 0) and,
    for d = 2, lines through pairs of distinct points (q = 1).
    """
    a0 = float(a0)
    d = sample.d
    if d > 2:
        raise ValueError("direct affine enumeration is implemented for d <= 2 only")
    if not a0 > d + 1:
        raise ValueError(f"need a0 > d + 1, got a0={a0} with d={d}")
    merged, rep = sample.merged()
    X = merged.points
    w = merged.weights
    scale = _point_scale(X)
    tol = POINT_RTOL * max(scale, 1.0)

    cands = []
    for i in range(merged.n):
        cands.append((float(w[i]), 1.0 - d / a0, 0, (int(rep[i]),)))
    if d == 2:
        for i, j in itertools.combinations(range(merged.n), 2):
            direction = X[j] - X[i]
            nrm = np.linalg.norm(direction)
            if nrm <= tol:
                continue
            u = direction / nrm
            diff = X - X[i]
            resid = diff - np.outer(diff @ u, u)
            inside = np.linalg.norm(resid, axis=1) <= tol
            mass = float(w[inside].sum())
            cands.append((mass, 1.0 - (d - 1) / a0, 1, (int(rep[i]), int(rep[j]))))

    mass, threshold, dim, witness = _best_candidate(cands)
    member = mass < threshold - EQ_TOL
    return DomainReport(
        member=member,
        a0=a0,
        worst_subspace_dim=dim,
        worst_mass=mass,
        threshold=threshold,
        witness_points=witness,
        exact=True,
    )
