"""Reference implementations that the tests check the package against."""

import dataclasses
import itertools

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq

from tscatter.asymptotics import DEFAULT_RANK_TOL, _curvature_solve, _fit, extract_jacobian, hessian
from tscatter.domain_check import (
    EQ_TOL,
    POINT_RTOL,
    DomainReport,
    EmpiricalSample,
    _best_candidate,
    _point_scale,
    lift,
    max_atom,
)
from tscatter.exceptions import DegeneracyError, DomainViolation, NoPositiveSolution, NotSpdError, NumericalBreakdown, NuOutOfRange
from tscatter.oned import SCALE_RESIDUAL_TOL, OneDEstimate, solve_oned
from tscatter.scatter import MONOTONE_SLACK, ScatterConfig, ScatterResult, solve_scatter, weight_u
from tscatter.simlab import Sampler, _replicate_thetas, _target_objects
from tscatter.symspace import (
    SpdMatrix,
    _layout,
    as_spd,
    congruence_matrix,
    outer_vecs,
    sym_to_vec,
    symmetrize,
    vec_to_sym,
)


def _rho_diff(s, t, nu: float, d: int):
    # rho(s) - rho(t); the log(nu) normalizations cancel
    return 0.5 * (nu + d) * (np.log(nu + s) - np.log(nu + t))


def objective(sample: EmpiricalSample, A, nu: float) -> float:
    """Adjusted negative log-likelihood Qh(A); zero at the identity."""
    A = as_spd(A)
    s = A.quad_forms(sample.points)
    t = np.einsum("ij,ij->i", sample.points, sample.points)
    return 0.5 * A.logdet() + float(sample.weights @ _rho_diff(s, t, nu, sample.d))


def gradient(sample: EmpiricalSample, A, nu: float) -> np.ndarray:
    """Gradient of Qh with respect to A: (1/2)(A^{-1} - sum w u A^{-1} y y' A^{-1}).

    Vanishes exactly at the fixed point of the reweighting map.
    """
    A = as_spd(A)
    Ainv = A.inv()
    Z = sample.points @ Ainv
    s = np.einsum("ij,ij->i", Z, sample.points)
    u = weight_u(s, nu, sample.d)
    M = (Z * (sample.weights * u)[:, None]).T @ Z
    return symmetrize(0.5 * (Ainv - M), rtol=1e-6)


def objective_locscat(sample: EmpiricalSample, mu, Sigma, nu: float) -> float:
    """Adjusted objective Ph(mu, Sigma); zero at (0, I), minimized at the functional."""
    Sigma = as_spd(Sigma)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    s = Sigma.quad_forms(sample.points - mu)
    t = np.einsum("ij,ij->i", sample.points, sample.points)
    return 0.5 * Sigma.logdet() + float(sample.weights @ _rho_diff(s, t, nu, sample.d))


@dataclasses.dataclass(frozen=True)
class EmbeddedScatter:
    """A (d+1)-dimensional scatter matrix in block correspondence with (Sigma, mu, gamma).

    ``A = gamma * [[Sigma + mu mu', mu], [mu', 1]]``; the correspondence is a
    bijection between SPD matrices of size d+1 and triples with Sigma SPD and
    gamma > 0. ``symspace.extract`` is its inverse.
    """

    A: SpdMatrix
    Sigma: SpdMatrix
    mu: np.ndarray
    gamma: float


def embed(Sigma, mu, gamma=1.0) -> EmbeddedScatter:
    """Assemble the block scatter matrix for (Sigma, mu, gamma).

    Raises :class:`NotSpdError` if Sigma is not SPD and ValueError for
    gamma <= 0.
    """
    Sigma = as_spd(Sigma)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape[0] != Sigma.dim:
        raise ValueError(f"mu has length {mu.shape[0]}, expected {Sigma.dim}")
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    d = Sigma.dim
    block = np.empty((d + 1, d + 1))
    block[:d, :d] = Sigma.mat + np.outer(mu, mu)
    block[:d, d] = mu
    block[d, :d] = mu
    block[d, d] = 1.0
    A = SpdMatrix(gamma * block)
    mu = mu.copy()
    mu.setflags(write=False)
    return EmbeddedScatter(A=A, Sigma=Sigma, mu=mu, gamma=gamma)


def outer_vecs_gather(points) -> np.ndarray:
    """``symspace.outer_vecs`` by two gathers along the last axis, in n x K memory.

    The reference for the coordinate-major kernel: every entry is the same
    product (y_a * scale) * y_b, so the two must be equal, not just close.
    """
    pts = np.asarray(points, dtype=float)
    rows, cols, scale = _layout(pts.shape[-1])
    out = np.take(pts, rows, axis=-1)
    out *= scale
    out *= np.take(pts, cols, axis=-1)
    return out


def outer_gram_einsum(points, c) -> np.ndarray:
    """Weighted Gram matrix sum_i c_i vec(y_i y_i') vec(y_i y_i')' by einsum.

    The K x K matrix of the operator G of the solver's Newton steps, which
    conjugate gradients apply without forming it.
    """
    V = outer_vecs_gather(points)
    return np.einsum("...n,...ni,...nj->...ij", np.asarray(c, dtype=float), V, V)


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


def merged_unique(sample: EmpiricalSample):
    """``EmpiricalSample.merged`` by ``np.unique(axis=0)``: the reference for the lexsort merge.

    Merged weights are the sums of their copies, not divided again.
    """
    uniq, first, inverse = np.unique(
        sample.points, axis=0, return_index=True, return_inverse=True
    )
    w = np.bincount(inverse.reshape(-1), weights=sample.weights, minlength=uniq.shape[0])
    return EmpiricalSample._carry(uniq, w), first


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


def check_scatter_domain_loop(sample: EmpiricalSample, a0: float) -> DomainReport:
    """Exact linear check with one QR and one residual per point subset.

    The reference for ``check_scatter_domain(method="exact")``: same
    candidates, tolerances and first-maximum tie rule, evaluated one subset at
    a time in ``itertools.combinations`` order. No budget or dimension guard.
    """
    a0 = float(a0)
    merged, rep = sample.merged()
    X = merged.points
    w = merged.weights
    m, d = X.shape
    scale = _point_scale(X)
    tol = POINT_RTOL * scale
    norms = np.linalg.norm(X, axis=1)

    cands = []
    at_origin = norms <= tol
    cands.append((float(w[at_origin].sum()), 1.0 - d / a0, 0, ()))

    if d >= 2:
        # lines through single points: a cross product for d <= 3, a
        # projection residual above
        threshold = 1.0 - (d - 1) / a0
        nz = np.nonzero(norms > tol)[0]
        if d in (2, 3) and nz.size:
            units = X[nz] / norms[nz, None]
            for start in range(0, nz.size, 512):
                blk = units[start : start + 512]
                if d == 2:
                    resid = np.abs(
                        np.outer(X[:, 0], blk[:, 1]) - np.outer(X[:, 1], blk[:, 0])
                    )
                else:
                    c0 = np.outer(X[:, 1], blk[:, 2]) - np.outer(X[:, 2], blk[:, 1])
                    c1 = np.outer(X[:, 2], blk[:, 0]) - np.outer(X[:, 0], blk[:, 2])
                    c2 = np.outer(X[:, 0], blk[:, 1]) - np.outer(X[:, 1], blk[:, 0])
                    resid = np.sqrt(c0**2 + c1**2 + c2**2)
                inside = resid <= tol
                for pos in range(blk.shape[0]):
                    i = nz[start + pos]
                    mass = float(w[inside[:, pos]].sum())
                    cands.append((mass, threshold, 1, (int(rep[i]),)))
        else:
            for i in nz:
                u = X[i] / norms[i]
                resid = X - np.outer(X @ u, u)
                inside = np.linalg.norm(resid, axis=1) <= tol
                cands.append((float(w[inside].sum()), threshold, 1, (int(rep[i]),)))

    for size in range(2, d):
        threshold = 1.0 - (d - size) / a0
        for subset in itertools.combinations(range(m), size):
            sub = X[list(subset)]
            q, r = np.linalg.qr(sub.T)
            # dependent subsets span something a smaller subset already covered
            if np.abs(np.diag(r)).min() <= tol:
                continue
            resid = X - (X @ q) @ q.T
            inside = np.linalg.norm(resid, axis=1) <= tol
            mass = float(w[inside].sum())
            cands.append((mass, threshold, size, tuple(int(rep[i]) for i in subset)))

    mass, threshold, dim, witness = _best_candidate(cands)
    return DomainReport(
        member=mass < threshold - EQ_TOL,
        a0=a0,
        worst_subspace_dim=dim,
        worst_mass=mass,
        threshold=threshold,
        witness_points=witness,
        exact=True,
    )


def check_locscat_domain_loop(sample: EmpiricalSample, a0: float) -> DomainReport:
    """Affine counterpart of :func:`check_scatter_domain_loop`, via the lift."""
    rpt = check_scatter_domain_loop(lift(sample), a0)
    return dataclasses.replace(rpt, worst_subspace_dim=max(rpt.worst_subspace_dim - 1, 0))


def span_mass_loop(sample: EmpiricalSample, rows) -> float:
    """Mass :func:`check_scatter_domain_loop` counts in the span of the points at ``rows``.

    The merged law's points within the loop's tolerance of the span of
    ``sample.points[rows]`` (taken in that order, as the loop takes a subset
    in merged order), by the loop's QR and residual test; for no rows, the
    mass at the origin.
    """
    merged, _ = sample.merged()
    X, w = merged.points, merged.weights
    resid = X
    if len(rows):
        q, _ = np.linalg.qr(sample.points[list(rows)].T)
        resid = X - (X @ q) @ q.T
    return float(w[np.linalg.norm(resid, axis=1) <= POINT_RTOL * _point_scale(X)].sum())


def profile_objective(sample: EmpiricalSample, mu: float, sigma: float, nu: float) -> float:
    """Objective Qh(mu, sigma) of the one-dimensional functional; zero at (0, 1).

    ``solve_oned`` never evaluates it (it finds the root of the profile
    derivative), so it serves as an independent check of minimality.
    """
    x, w = sample.points[:, 0], sample.weights
    return np.log(sigma) + float(w @ _rho_diff((x - mu) ** 2 / sigma**2, x**2, nu, 1))


def solve_scatter_mm(sample: EmpiricalSample, cfg: ScatterConfig, *, tol_step: float = 1e-12) -> ScatterResult:
    """Scatter matrix by the plain majorize-minimize (MM) fixed-point iteration.

    The reference for ``solve_scatter``: every step is the reweighting map
    B -> sum_i w_i u(y_i' B^{-1} y_i) y_i y_i', so the objective decreases
    monotonically but convergence is only linear. ``grad_norm`` here is the
    gradient with respect to A, not the whitened one; the domain is not
    checked. Stops on the gradient, on a relative step below ``tol_step`` or
    at ``max_iter``, like the package solver.
    """
    sample = sample.drop_zero_weights()
    d = sample.d
    nu = cfg.nu
    Y = sample.points
    w = sample.weights
    t = np.einsum("ij,ij->i", Y, Y)
    B = SpdMatrix(np.eye(d))

    trace = []
    prev_obj = np.inf
    grad_norm = np.inf
    fp_residual = np.inf
    stop_reason = "max_iter"
    iterations = 0

    for k in range(cfg.max_iter):
        s = B.quad_forms(Y)
        obj = 0.5 * B.logdet() + float(w @ _rho_diff(s, t, nu, d))
        if obj > prev_obj + MONOTONE_SLACK * max(1.0, abs(prev_obj)):
            raise NumericalBreakdown(
                f"objective increased from {prev_obj!r} to {obj!r} at iteration {k}"
            )
        trace.append(obj)
        prev_obj = obj

        u = (nu + d) / (nu + s)
        B_next = symmetrize((Y * (w * u)[:, None]).T @ Y, rtol=1e-6)

        R = B.mat - B_next
        Binv = B.inv()
        grad_norm = float(np.linalg.norm(0.5 * Binv @ R @ Binv, ord="fro"))
        fp_residual = float(np.linalg.norm(R, ord="fro"))
        norm_B = float(np.linalg.norm(B.mat, ord="fro"))
        iterations = k

        if grad_norm <= cfg.tol_grad and fp_residual <= 10.0 * cfg.tol_grad * norm_B:
            stop_reason = "grad"
            break
        if fp_residual / norm_B <= tol_step:
            stop_reason = "step"
            break
        try:
            B = SpdMatrix(B_next)
        except NotSpdError as exc:
            raise NumericalBreakdown(f"iterate left the SPD cone at iteration {k}") from exc
        iterations = k + 1

    return ScatterResult(
        A=B,
        iterations=iterations,
        newton_steps=0,
        objective=prev_obj,
        grad_norm=grad_norm,
        converged=grad_norm <= cfg.tol_grad,
        objective_trace=tuple(trace),
        stop_reason=stop_reason,
        fp_residual=fp_residual,
    )


def scale_start_loop(t, w, nu: float, d: int):
    """``scatter._scale_start`` as a plain Newton loop in x = 1/c from x = 0.

    Every pass re-indexes the samples still stepping; the package takes the
    first pass in closed form and compacts its arrays only when a sample stops.
    """
    a = (nu + d) * w
    x = np.zeros(len(t))
    ids = np.flatnonzero(np.where(t > 0, a, 0.0).sum(axis=1) > d)
    while ids.size:
        ti = t[ids]
        r = nu / (nu + ti * x[ids, None])
        psi, dpsi = (a[ids] * (1.0 - r)).sum(axis=1), (a[ids] * (ti * r) * r).sum(axis=1) / nu
        step = (d - psi) / dpsi
        x[ids] += step
        ids = ids[step > 1e-6 * x[ids]]
    return np.divide(1.0, x, out=np.ones(len(t)), where=x > 0)


def sandwich_two_pass(sample: EmpiricalSample, nu: float, fit: ScatterResult):
    """``asymptotic_cov_scatter`` at ``fit`` with K from the centred n x K score matrix.

    The reference for reading K off the curvature's Gram matrix: the scores
    vec(-A/2 + (nu+d) y y' / (2 (nu+s))) are formed row by row, centred, and
    K is their weighted Gram matrix, a second n x K^2 product next to the one
    in ``hessian``. Returns ``(S, rank)``, the rank at ``DEFAULT_RANK_TOL``.
    """
    A = fit.A
    s = A.quad_forms(sample.points)
    scores = ((nu + A.dim) / (2.0 * (nu + s)))[:, None] * outer_vecs(sample.points) - 0.5 * sym_to_vec(A.mat)
    scores -= sample.weights @ scores
    K = (scores * sample.weights[:, None]).T @ scores
    factor = cho_factor(hessian(sample, A, nu))
    half = 2.0 * cho_solve(factor, K)       # (H/2)^{-1} K
    Sc = 2.0 * cho_solve(factor, half.T).T  # (H/2)^{-1} K (H/2)^{-1}
    J = congruence_matrix(A.mat)
    return _with_rank(symmetrize(J @ Sc @ J.T, rtol=1e-6))


def sandwich_two_pass_locscatter(sample: EmpiricalSample, est):
    """``asymptotic_cov_locscatter`` at the estimate ``est`` through :func:`sandwich_two_pass`."""
    S_lift, _ = sandwich_two_pass(lift(sample), est.nu - 1.0, est.scatter_diag)
    J = extract_jacobian(est.scatter_diag.A)
    return _with_rank(symmetrize(J @ S_lift @ J.T, rtol=1e-6))


def _with_rank(S):
    sv = np.linalg.svd(S, compute_uv=False)
    return S, int((sv > DEFAULT_RANK_TOL * sv[0]).sum())


def run_consistency_sweep(
    sampler: Sampler,
    nu: float,
    n_list,
    reps: int,
    *,
    mode: str = "locscatter",
) -> list[tuple[int, float]]:
    """Mean estimation error at each sample size; errors shrink like n^{-1/2}.

    Returns ``[(n, mean ||estimate - functional||), ...]``; fit the log-log
    slope with :func:`fit_loglog_slope`. Needs at least two sample sizes.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2:
        raise ValueError("need at least two sample sizes to measure a rate")
    cfg = ScatterConfig(nu=nu)
    theta0, _, _ = _target_objects(sampler, nu, mode)
    out = []
    for pos, n in enumerate(n_list):
        outcomes = _replicate_thetas(sampler, cfg, n, mode, range(pos * reps, (pos + 1) * reps))
        errs = [np.linalg.norm(th - theta0) for th in outcomes if isinstance(th, np.ndarray)]
        out.append((n, float(np.mean(errs))))
    return out


def fit_loglog_slope(pairs) -> float:
    """Least-squares slope of log(error) against log(n)."""
    ns = np.log([p[0] for p in pairs])
    es = np.log([p[1] for p in pairs])
    return float(np.polyfit(ns, es, 1)[0])


def check_class_constraint(sample: EmpiricalSample, M: float, delta: float, nu: float) -> bool:
    """Membership in the tail-and-conditioning class used for uniform asymptotics.

    True iff the mass outside radius M is at most (1 - delta)/(nu + d) and the
    fitted scatter matrix A satisfies max(||A||, ||A^{-1}||) < 1/delta in
    operator norm. Laws outside the existence domain are not in the class.
    """
    if not M > 0.0:
        raise ValueError("M must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    d = sample.d
    tail = float(sample.weights[np.linalg.norm(sample.points, axis=1) > M].sum())
    if tail > (1.0 - delta) / (nu + d):
        return False
    try:
        fit = solve_scatter(sample, ScatterConfig(nu=nu))
    except DomainViolation:
        return False
    eigs = np.linalg.eigvalsh(fit.A.mat)
    return max(eigs[-1], 1.0 / eigs[0]) < 1.0 / delta


def score(y, A, nu: float) -> np.ndarray:
    """Per-point score -A/2 + (nu+d) y y' / (2 (nu + y'A^{-1}y)).

    The weighted sum of scores over the sample vanishes at the fitted scatter
    matrix.
    """
    A = as_spd(A)
    y = np.asarray(y, dtype=float).reshape(-1)
    s = float(A.quad_forms(y[None, :])[0])
    d = A.dim
    return -A.mat / 2.0 + (nu + d) * np.outer(y, y) / (2.0 * (nu + s))


def influence(y, sample: EmpiricalSample, nu: float, *, fit=None, hess=None) -> np.ndarray:
    """First-order contamination derivative of the scatter matrix at y.

    Returns IF(y) with A(( 1 - eps) Q + eps delta_y) = A(Q) + eps IF(y) + O(eps^2).
    Writing H for the curvature operator of :func:`hessian` at the fitted A,
    the concentration matrix moves by -2 H^{-1} score(y) per unit of
    contamination, and IF is the congruent image A (2 H^{-1} score(y)) A. The
    weighted sample average of IF vanishes.
    """
    A = _fit(sample, nu, fit).A
    hess = hess if hess is not None else hessian(sample, A, nu)
    dC = vec_to_sym(2.0 * _curvature_solve(hess, sym_to_vec(score(y, A, nu))))
    return symmetrize(A.mat @ dC @ A.mat, rtol=1e-9)


def two_point_closed_form(a: float, b: float, p: float, nu: float) -> OneDEstimate:
    """Exact functional of q delta_a + p delta_b with p the mass at b.

    On the unit interval the interior critical point is
    mu_p = (nu p - q)/(nu - 1) and
    sigma_p^2 = (nu^2 p q - nu (p^2 + q^2) + p q)/(nu - 1)^2,
    valid for 1/(nu+1) < p < nu/(nu+1); general endpoints follow by the affine
    map t -> a + (b-a) t. Outside that range the mass at one endpoint reaches
    nu/(nu+1) and the boundary value sits there with sigma = 0.
    """
    nu = float(nu)
    if not nu > 1.0:
        raise NuOutOfRange(f"requires nu > 1, got {nu}")
    a, b, p = float(a), float(b), float(p)
    if not a < b:
        raise ValueError("need a < b")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    q = 1.0 - p
    lo = 1.0 / (nu + 1.0)
    hi = nu / (nu + 1.0)
    if p <= lo + EQ_TOL:
        return OneDEstimate(mu=a, sigma=0.0, boundary=True, atom=(a, q))
    if p >= hi - EQ_TOL:
        return OneDEstimate(mu=b, sigma=0.0, boundary=True, atom=(b, p))
    mu_p = (nu * p - q) / (nu - 1.0)
    sig2 = (nu**2 * p * q - nu * (p**2 + q**2) + p * q) / (nu - 1.0) ** 2
    return OneDEstimate(
        mu=a + (b - a) * mu_p,
        sigma=(b - a) * float(np.sqrt(sig2)),
        boundary=False,
        atom=None,
    )


def sigma_of_mu_brentq(sample: EmpiricalSample, mu: float, nu: float) -> float:
    """``oned.sigma_of_mu`` by ``scipy.optimize.brentq`` on the points as given."""
    x, w = sample.points[:, 0], sample.weights
    mu = float(mu)
    target = 1.0 / (nu + 1.0)
    diff2 = (x - mu) ** 2
    if float(w[diff2 > 0.0].sum()) <= target:
        raise NoPositiveSolution("mass off the center is too small")

    def F(sigma):
        return float(w @ (diff2 / (nu * sigma**2 + diff2))) - target

    spread = np.sqrt(float(w @ diff2))
    root = brentq(F, 1e-12 * spread, 2.0 * np.sqrt((nu + 1.0) / nu) * spread,
                  xtol=1e-300, rtol=8.0 * np.finfo(float).eps, maxiter=300)
    if abs(F(root)) > SCALE_RESIDUAL_TOL:
        raise NoPositiveSolution(f"root residual {F(root):g} above tolerance")
    return float(root)


def solve_oned_brentq(sample: EmpiricalSample, nu: float) -> OneDEstimate:
    """``oned.solve_oned`` by ``scipy.optimize.brentq`` on the points as given, without rescaling."""
    nu = float(nu)
    x, w = sample.points[:, 0], sample.weights
    loc, mass = max_atom(sample)
    if mass >= nu / (nu + 1.0) - EQ_TOL:
        return OneDEstimate(mu=float(loc[0]), sigma=0.0, boundary=True, atom=(float(loc[0]), mass))

    def derivative(m):
        D = nu * sigma_of_mu_brentq(sample, m, nu) ** 2 + (x - m) ** 2
        return (nu + 1.0) * float(w @ ((m - x) / D))

    lo, hi = float(x.min()), float(x.max())
    mu = brentq(derivative, lo, hi, xtol=4.0 * np.finfo(float).eps * (hi - lo), maxiter=200)
    return OneDEstimate(mu=float(mu), sigma=sigma_of_mu_brentq(sample, mu, nu), boundary=False)


def boundary_rate_probe(nu: float, eps_list) -> list[tuple[float, float]]:
    """Scale of the two-point family approaching the big-atom boundary.

    For each eps, the law puts mass (nu - eps)/(nu + 1) at 1 and the rest at
    0; returns (eps, sigma) computed by the full solver. The ratio
    sigma / sqrt(eps/(nu-1)) tends to 1 as eps decreases to 0, exhibiting the
    square-root (non-Lipschitz) boundary rate.
    """
    nu = float(nu)
    if not nu > 1.0:
        raise NuOutOfRange(f"requires nu > 1, got {nu}")
    out = []
    for eps in eps_list:
        eps = float(eps)
        if not 0.0 < eps < nu:
            raise ValueError("eps values must lie in (0, nu)")
        p = (nu - eps) / (nu + 1.0)
        sample = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([1.0 - p, p]))
        est = solve_oned(sample, nu)
        out.append((eps, est.sigma))
    return out
