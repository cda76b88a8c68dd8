"""Pure scatter functional: the objective and its safeguarded Newton solver.

For a law Q on R^d and tail parameter nu > 0, the scatter matrix A minimizes

    Qh(A) = (1/2) log det A + sum_i w_i [rho(y_i' A^{-1} y_i) - rho(y_i' y_i)]

with rho(s) = ((nu + d)/2) log((nu + s)/nu). On the existence domain the
minimizer is the unique critical point, characterized by the fixed-point
equation A = sum_i w_i u(y_i' A^{-1} y_i) y_i y_i' with u(s) = (nu+d)/(nu+s).

One step of that map is a majorize-minimize (MM) update: it never increases
the objective, but it converges only linearly, and slowly for small nu or
near the boundary of the domain. The solver therefore first forms a full
Newton step in whitened coordinates each iteration, and takes it whenever it
stays SPD and its objective is at most U = Qh(B) + (1/2) log det M + (d - tr M)/2,
up to a few units of roundoff where the comparison says nothing; B = L L' is
the iterate and M = L^{-1} B_mm L^{-T} its whitened MM candidate. As rho is
concave in s, its tangents at the current s_i bound Qh from above by a
function equal to Qh at B and least at B_mm, where its value is U. So
Qh(B_mm) <= U <= Qh(B), and a Newton step taken lowers Qh by at least the MM
guarantee Qh(B) - U = (1/2) sum_j (lambda_j - 1 - log lambda_j) over the
eigenvalues of M. Only a sample whose Newton step is missing or misses U (or
whose M is not SPD, which leaves no U) factors and whitens B_mm and takes the
MM step (the partial-Newton scheme of Duembgen, Nordhausen and Schuhmacher,
JMVA 144, 2016); an MM candidate not taken is never factored, so it cannot
break a fit down. The monotone descent of the MM iteration (Kent and Tyler,
Ann. Statist. 19, 1991) thus carries over, up to roundoff, and near the
solution the Newton steps converge quadratically.

The Newton system lives on the K = d(d+1)/2 coordinates of a symmetric
matrix. Its K x K matrix is never formed: each step is solved inexactly by
preconditioned conjugate gradients on d x d matrices, about 4 n d^2 flops
and O(n d) memory per product, to a relative residual that shrinks with the
gradient, so the local convergence stays quadratic. A step that CG cannot
find is declined, and the sample takes the MM step.

Each sample starts at the best multiple c I of the identity (the scalar case
of the fixed-point equation), which scales with the data as the fit does,
A(lambda Y) = lambda^2 A(Y), so the steps taken do not depend on the units.

Off the domain there is no critical point: the objective falls without
bound as the iterate collapses onto a subspace H that carries too much mass,
shrinking to zero across it (Kent and Tyler 1991), and the top eigenspace of
the iterate turns towards H (the subspace-finding behaviour of Tyler's
iteration; Zhang, Information and Inference 5, 2016). A sample whose iterate
degenerates steadily, its Cholesky factor's diagonal spreading out or
shrinking by more than ``COLLAPSE_RATE`` on ``COLLAPSE_STEPS`` steps in a row,
asks :func:`~tscatter.domain_check._collapse_witness` for a subspace read off
that eigenspace on which the exact check rejects the law. If there is one, the
sample stops as broken down: a collapse is never returned as a fit. The
witness never fires on a member law and leaves the iterate alone, so fits
inside the domain take the same steps to the same bits with or without it.

There is one solver loop, and it runs on a stack of samples of equal size
(``solve_scatter_stack``): every array carries a leading sample axis, each
sample keeps its own step choice, stop test and breakdown check, and a
sample that has stopped leaves the stack. It returns one outcome per
sample: the fit, or the :class:`NumericalBreakdown` the sample stopped with
(a ``_Collapse`` when the witness stopped it). Membership is decided in one
place, ``_fit_and_check``, for every solve that checks the domain: it
certifies the fits of a stack in one call, counts a collapse as outside, and
enumerates each sample neither decides, on its own. ``solve_scatter`` is its
stack of one, after dropping zero-weight points, and enumerates a collapsed
sample too, so that its report names the worst subspace; the
location-scatter solve and the Monte Carlo replicates act on its outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain_check import (EmpiricalSample, _as_stack, _certify_members, _check_exact, _collapse_witness,
                           _positive_rows)
from .exceptions import DomainViolation, EnumerationBudgetError, NumericalBreakdown
from .symspace import SpdMatrix, spd_cholesky, sym_dim, symmetrize

__all__ = [
    "ScatterConfig",
    "ScatterResult",
    "weight_u",
    "solve_scatter",
    "solve_scatter_stack",
]

# Allowed per-step objective increase before declaring breakdown (roundoff slack).
MONOTONE_SLACK = 1e-12

# Newton wins over MM unless its objective is above U, the MM majorizer's
# value at the MM candidate (module docstring), by more than this relative to
# max(1, |U|): below that the comparison is a coin flip of roundoff, and
# taking MM falls back to linear steps.
NEWTON_TIE_EPS = 16 * np.finfo(float).eps

# A sample stops once the whitened size of its last step is at most this.
STEP_TOL = 1e-12

# A sample asks the witness of a collapse (domain_check._collapse_witness)
# once its iterate has degenerated on this many steps in a row: the spread
# max/min of the diagonal of its Cholesky factor grew, or the largest entry of
# that diagonal shrank (a collapse onto the origin), by more than this factor
COLLAPSE_STEPS = 3
COLLAPSE_RATE = 1.2


@dataclass(frozen=True)
class ScatterConfig:
    """Solver settings.

    ``tol_grad`` bounds the whitened gradient norm of a converged fit (see
    :func:`solve_scatter_stack`).
    """

    nu: float
    tol_grad: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if not self.tol_grad > 0.0:
            raise ValueError("tol_grad must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class ScatterResult:
    """Fitted scatter matrix and what the solver did to get it.

    ``iterations`` counts the steps taken, ``newton_steps`` how many of them
    were Newton steps; the rest were MM fallbacks. ``grad_norm`` is the
    whitened gradient norm of the returned iterate and ``fp_residual`` the
    Frobenius norm of its fixed-point residual A - sum_i w_i u(s_i) y_i y_i'.
    """

    A: SpdMatrix
    iterations: int
    newton_steps: int
    objective: float
    grad_norm: float
    converged: bool
    objective_trace: tuple[float, ...]
    stop_reason: str
    fp_residual: float


class _Collapse(NumericalBreakdown):
    """A sample's fit stopped on a collapse: the witness proves its law outside the domain."""


def weight_u(s, nu: float, d: int):
    """Downweighting function u(s) = (nu + d)/(nu + s) for s >= 0.

    Decreasing in s, while s * u(s) increases strictly to the supremum
    nu + d as s grows.
    """
    s = np.asarray(s, dtype=float)
    if (s < 0).any():
        raise ValueError("u is defined for nonnegative arguments")
    out = (nu + d) / (nu + s)
    return float(out) if out.ndim == 0 else out


def _whiten(L, Yt, log_t, w, nu: float):
    """Whitened points Z = L^{-1} Y' (R, d, n), quadratic forms s and Qh at B = L L'.

    ``log_t`` holds log(nu + t_i) with t_i = |y_i|^2, so that
    rho(s_i) - rho(t_i) = ((nu + d)/2) (log(nu + s_i) - log(nu + t_i)).
    """
    Z = np.linalg.inv(L) @ Yt
    s = np.einsum("rin,rin->rn", Z, Z)
    half_logdet = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    obj = half_logdet + np.einsum("rn,rn->r", w, 0.5 * (nu + L.shape[-1]) * (np.log(nu + s) - log_t))
    return Z, s, obj


def _scale_start(t, w, nu: float, d: int):
    """Scale c of each sample's start c I, the minimizer of Qh over multiples of I.

    With ``t`` (R, n) the squared norms, c solves sum_i w_i (nu+d) t_i/(nu c + t_i) = d.
    In x = 1/c the left side is concave and increasing, so Newton steps from
    x = 0 climb to the root; each sample stops on its own at a relative step
    of 1e-6, so its c does not depend on the stack. Without a root the law is
    off the domain, (nu+d) Q(y != 0) <= d, and c = 1.
    """
    a = (nu + d) * w
    x = np.zeros(len(t))
    ids = np.flatnonzero(np.where(t > 0, a, 0.0).sum(axis=1) > d)
    # the samples still stepping, compacted; at x = 0 every r is 1, so the first step is d/(sum_i a_i t_i/nu)
    ti, ai = t[ids], a[ids]
    xi = step = d / ((ai * ti).sum(axis=1) / nu)
    while True:
        going = step > 1e-6 * xi
        if not going.all():
            x[ids[~going]] = xi[~going]
            ids, ti, ai, xi = ids[going], ti[going], ai[going], xi[going]
        if not ids.size:
            break
        r = nu / (nu + ti * xi[:, None])  # nu/(nu + t x), in (0, 1]
        psi, dpsi = (ai * (1.0 - r)).sum(axis=1), (ai * (ti * r) * r).sum(axis=1) / nu
        step = (d - psi) / dpsi
        xi = xi + step
    return np.divide(1.0, x, out=np.ones(len(t)), where=x > 0)


def _newton_candidates(L, Z, s, w, nu: float, M):
    """Newton steps for Qh on the whitened concentration matrices C = L' B^{-1} L.

    At C = I the gradient is (M - I)/2 and the curvature is (I - G)/2, with G
    the operator G(P) = sum_i g_i (z_i' P z_i) z_i z_i' of the whitened points
    weighted by g_i = (nu+d) w_i/(nu+s_i)^2: the operator of
    ``asymptotics.hessian`` at the identity. The step D solves
    (I - G) D = I - M, and the candidate is L (I + D)^{-1} L'.

    The step is an inexact Newton step by :func:`_cg_steps`, solved to the
    relative residual min(1/2, ||I - M||_F) (the forcing rule of Dembo,
    Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982), which keeps the
    local convergence quadratic. Returns the candidates, their Cholesky
    factors, the whitened step sizes ||(I + D)^{-1} - I||_F, and which
    candidates exist: the step was found, and I + D and the candidate are SPD.
    """
    d = Z.shape[1]
    eye = np.eye(d)
    with np.errstate(over="ignore"):
        # an iterate collapsing off the domain can take s past 1e154, whose weight is then 0
        g = (nu + d) * w / (nu + s) ** 2
    E = eye - M
    step, ok = _cg_steps(Z, s, g, E, np.minimum(0.5, np.linalg.norm(E, axis=(1, 2))))
    Lc, ok_c = spd_cholesky(eye + step)
    Lc_inv = np.linalg.inv(Lc)
    # L C^{-1} L' = W'W with W = chol(C)^{-1} L'
    W = Lc_inv @ np.swapaxes(L, 1, 2)
    B = symmetrize(np.swapaxes(W, 1, 2) @ W, rtol=1e-6)
    chol, ok_b = spd_cholesky(B)
    size = np.linalg.norm(np.swapaxes(Lc_inv, 1, 2) @ Lc_inv - eye, axis=(1, 2))
    return B, chol, size, ok & ok_c & ok_b


def _cg_steps(Z, s, g, E, eta):
    """Solve (I - G) D = E for each sample by preconditioned conjugate gradients.

    ``Z`` (R, d, n) holds the whitened points, ``s`` (R, n) their squared
    norms, ``g`` (R, n) the weights of G(P) = Z diag(g o colsum(Z o PZ)) Z',
    ``E`` (R, d, d) the symmetric right-hand sides and ``eta`` (R,) the
    relative residuals to reach. Each product with G takes about 4 n d^2
    flops and O(n d) memory; the K x K matrix of G is never formed. The
    preconditioner is the elliptical form of G, G(P) ~ alpha (2P + tr(P) I)
    with alpha = sum_i g_i s_i^2/(d(d+2)), exact in expectation for a
    spherically symmetric cloud, and inverted in closed form. A sample stops
    at ||r||_F <= eta ||E||_F or after K = d(d+1)/2 products, and leaves the
    active stack, so its step does not depend on the others. Returns the
    steps and which exist: a sample whose preconditioner is not positive
    definite, whose CG meets a direction p with p'(I - G)p <= 0, or whose
    step is not finite, gets D = 0 and ``ok = False``.
    """
    d = Z.shape[1]
    eye = np.eye(d)
    alpha = np.einsum("rn,rn->r", g * s, s) / (d * (d + 2))  # s s overflows past s = 1e154, g s does not
    on_trace, off_trace = 1.0 - (d + 2) * alpha, 1.0 - 2.0 * alpha
    ok = (on_trace > 0.0) & (off_trace > 0.0)
    steps = np.zeros_like(E)
    # the elliptical form of I - G maps P to E = (1 - 2 alpha) P - alpha tr(P) I, so its inverse maps E
    # to P = (E + alpha tr(P) I)/(1 - 2 alpha) with tr(P) = tr(E)/(1 - (d+2) alpha)
    ids = np.flatnonzero(ok)
    a_tr, a_off = alpha[ids] / on_trace[ids], 1.0 / off_trace[ids]

    def precondition(r):
        return (r + (a_tr * np.trace(r, axis1=1, axis2=2))[:, None, None] * eye) * a_off[:, None, None]

    if not ok.all():
        Z, g = Z[ids], g[ids]
    r = E[ids]
    tol = eta[ids] * np.linalg.norm(r, axis=(1, 2))
    D = np.zeros_like(r)
    p = precondition(r)
    rz = np.einsum("rij,rij->r", r, p)
    declined = np.zeros(ids.size, dtype=bool)
    K = sym_dim(d)
    for k in range(K + 1):
        stop = declined | (np.linalg.norm(r, axis=(1, 2)) <= tol) | (k == K)
        if stop.any():
            ok[ids[declined]] = False
            steps[ids[stop & ~declined]] = D[stop & ~declined]
            ids, Z, g, a_tr, a_off, tol, D, r, p, rz = (
                a[~stop] for a in (ids, Z, g, a_tr, a_off, tol, D, r, p, rz)
            )
            if not ids.size:
                break
        c = g * np.einsum("rin,rin->rn", Z, p @ Z)  # (z_i' p z_i) g_i
        Gp = (Z * c[:, None, :]) @ np.swapaxes(Z, 1, 2)
        Hp = p - 0.5 * (Gp + np.swapaxes(Gp, 1, 2))
        pHp = np.einsum("rij,rij->r", p, Hp)
        declined = ~(pHp > 0.0)
        step = np.divide(rz, pHp, out=np.zeros(ids.size), where=~declined)[:, None, None]
        D = D + step * p
        r = r - step * Hp
        z = precondition(r)
        rz, rz_old = np.einsum("rij,rij->r", r, z), rz
        p = z + np.divide(rz, rz_old, out=np.zeros(ids.size), where=~declined)[:, None, None] * p
    finite = np.isfinite(steps).all(axis=(1, 2))
    steps[~finite] = 0.0
    return steps, ok & finite


def _spread(L):
    # max/min and max of the diagonal of each Cholesky factor in a stack
    diag = np.diagonal(L, axis1=1, axis2=2)
    top = diag.max(axis=1)
    return top / diag.min(axis=1), top


def _sample_bytes(n: int, d: int) -> int:
    """Scratch memory one sample of an (R, n, d) stack takes in the solver loop.

    Per point: the data and its transposed copy, three whitened copies and
    the one kept, and quadratic forms and weights; then what a Newton step
    takes, a compacted whitened copy and two d-vectors and a weight of each
    conjugate-gradient product. It budgets an iteration on which every sample
    falls back to the MM step, and so holds both whitened candidates at once.
    """
    return 8 * n * (9 * d + 11)


def solve_scatter(
    sample: EmpiricalSample, cfg: ScatterConfig, *, check_domain: bool = True
) -> ScatterResult:
    """Compute the scatter matrix of one sample: a stack of one.

    Drops zero-weight points and fits the rest. Unless
    ``check_domain=False``, the fit goes through :func:`_fit_and_check`, so
    the law is certified from it, or else checked by exact enumeration, on
    the sample without its zero-weight points. A law outside the domain
    raises :class:`DomainViolation` with the report
    :func:`~tscatter.domain_check.check_scatter_domain` gives for ``sample``;
    a breakdown of the fit of a member law raises :class:`NumericalBreakdown`.
    The fit returned does not depend on ``check_domain``.
    """
    sample, to_caller = _positive_rows(sample)
    points, weights = sample.points[None], sample.weights[None]
    if not check_domain:
        return solve_scatter_stack(points, weights, cfg)[0]
    (outcome,) = _fit_and_check(points, weights, cfg)
    if isinstance(outcome, _Collapse):
        # the witness proved the law outside; the enumeration names its worst subspace
        outcome = DomainViolation(_check_exact(sample.points, sample.weights, cfg.nu + sample.d))
    if isinstance(outcome, DomainViolation):
        raise DomainViolation(to_caller(outcome.report))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fit_and_check(points, weights, cfg: ScatterConfig) -> list:
    """Fit a stack of samples and decide each one's domain membership at a0 = nu + d.

    ``points`` (R, n, d) and ``weights`` (R, n) are samples as
    :class:`EmpiricalSample` holds them. The fits are certified in one call,
    on the arrays fitted; each sample that neither the certificate nor the
    collapse witness decides is enumerated on its own. Returns one outcome
    per sample, in order: a member's :class:`ScatterResult`, converged or
    not, or its :class:`NumericalBreakdown`; a :class:`DomainViolation` for
    a sample the enumeration puts outside; the ``_Collapse`` of a sample the
    witness put outside, not enumerated; or an
    :class:`EnumerationBudgetError` past the budget.
    """
    outcomes = _solve_stack(points, weights, cfg)
    a0 = cfg.nu + points.shape[2]
    fitted = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, ScatterResult)]
    certified = np.zeros(len(outcomes), dtype=bool)
    if fitted:
        A = np.stack([outcomes[i].A.mat for i in fitted])
        certified[fitted] = _certify_members(points[fitted], weights[fitted], A, a0)
    for i, outcome in enumerate(outcomes):
        if certified[i] or isinstance(outcome, _Collapse):
            continue
        try:
            report = _check_exact(points[i], weights[i], a0)
        except EnumerationBudgetError as exc:
            outcomes[i] = exc
            continue
        if not report.member:
            outcomes[i] = DomainViolation(report)
    return outcomes


def solve_scatter_stack(points, weights, cfg: ScatterConfig) -> list[ScatterResult]:
    """Scatter matrices of a stack of samples by Newton steps safeguarded by the MM step.

    ``points`` is (R, n, d) and ``weights`` (R, n), each row of weights a
    probability vector; the samples are not domain-checked. A stack that
    :class:`EmpiricalSample` would reject in any sample (other shapes, points
    that are not finite, weights that are negative or do not sum to 1 within
    1e-12) raises :class:`ValueError`; the weights are fitted as given. Returns one
    :class:`ScatterResult` per sample, in order. Each sample iterates on its
    own from B = c I, the minimizer of the objective over multiples of I
    (c = 1 where there is none), which scales with the data as the fit
    does: every iteration whitens it with the Cholesky factor of its iterate
    B = L L' and forms the whitened MM image M = sum_i w_i u(s_i) z_i z_i'.
    ``grad_norm`` is the whitened gradient (1/2)||L^{-1}(B - L M L')L^{-T}||_F
    = (1/2)||I - M||_F, which does not change when the data are rescaled or
    linearly transformed. A sample stops once it is at most ``tol_grad``
    (``converged=True``), or when the whitened size ||L^{-1} B_next L^{-T} - I||_F
    of its last step fell to ``STEP_TOL``, or after ``max_iter`` steps
    (``converged`` reflects the gradient criterion; the iterate reached is
    returned either way), and then leaves the active stack. Raises
    :class:`NumericalBreakdown`, for the first sample in stack order that
    breaks down, if an MM iterate leaves the SPD cone or the objective
    increases beyond roundoff, neither of which can happen in exact
    arithmetic on the domain, or if the iterate collapsed onto a subspace
    whose mass puts the law outside the domain at a0 = nu + d, as the exact
    check would find (see the module docstring); a collapse cannot happen on
    the domain at all.
    """
    Y, w = np.asarray(points, dtype=float), np.asarray(weights, dtype=float)
    _as_stack(Y, w)  # the checks of EmpiricalSample, on every sample
    outcomes = _solve_stack(Y, w, cfg)
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, NumericalBreakdown):
            raise NumericalBreakdown(str(outcome) if len(outcomes) == 1 else f"sample {i}: {outcome}")
    return outcomes


def _solve_stack(Y, w, cfg: ScatterConfig) -> list:
    """:func:`solve_scatter_stack` of checked arrays, one outcome per sample instead of raising.

    Each sample's outcome is its :class:`ScatterResult`, or the
    :class:`NumericalBreakdown` it stopped with: a ``_Collapse`` when the
    collapse witness stopped it, which proves the sample off the domain.
    """
    R, _, d = Y.shape
    nu = cfg.nu
    eye = np.eye(d)
    Yt = np.ascontiguousarray(np.swapaxes(Y, 1, 2))
    t = np.einsum("rnd,rnd->rn", Y, Y)
    L = np.sqrt(_scale_start(t, w, nu, d))[:, None, None] * eye
    B = L * L  # every sample starts at c I; L is diagonal, so L * L = L L'
    log_t = np.log(nu + t)
    Z, s, obj = _whiten(L, Yt, log_t, w, nu)

    ids = np.arange(R)              # stack positions of the samples still iterating
    last_step = np.full(R, np.inf)  # whitened size of each sample's latest step
    spread, top = _spread(L)        # of the diagonal of each iterate's factor
    streak = np.zeros(R, dtype=int)  # steps in a row on which it degenerated
    newton_steps = np.zeros(R, dtype=int)
    traces = [[value] for value in obj.tolist()]
    outcomes = [None] * R  # each filled once its sample stops
    for k in range(cfg.max_iter + 1):
        if not ids.size:
            break
        wu = w * (nu + d) / (nu + s)
        M = symmetrize((Z * wu[:, None, :]) @ np.swapaxes(Z, 1, 2), rtol=1e-6)
        B_mm = symmetrize(L @ M @ np.swapaxes(L, 1, 2), rtol=1e-6)
        grad = 0.5 * np.linalg.norm(eye - M, axis=(1, 2))
        fp = np.linalg.norm(B - B_mm, axis=(1, 2))
        stops = np.full(ids.size, "max_iter" if k == cfg.max_iter else "", dtype="<U8")
        stops[last_step[ids] <= STEP_TOL] = "step"
        stops[grad <= cfg.tol_grad] = "grad"
        going = stops == ""
        for j in np.flatnonzero(~going):
            i = ids[j]
            outcomes[i] = ScatterResult(
                A=SpdMatrix._factored(B[j].copy(), L[j].copy()),  # B[j] is exactly symmetric, L[j] its factor
                iterations=k,
                newton_steps=int(newton_steps[i]),
                objective=float(obj[j]),
                grad_norm=float(grad[j]),
                converged=bool(grad[j] <= cfg.tol_grad),
                objective_trace=tuple(traces[i]),
                stop_reason=str(stops[j]),
                fp_residual=float(fp[j]),
            )
        if not going.all():
            ids, Yt, log_t, w, B, L, Z, s, obj, M, B_mm, grad, spread, top, streak = (
                a[going] for a in (ids, Yt, log_t, w, B, L, Z, s, obj, M, B_mm, grad, spread, top, streak)
            )
            if not ids.size:
                break

        # the Newton candidates, replaced below by the MM candidate where they miss the bound U
        B, L, size_nt, ok_nt = _newton_candidates(L, Z, s, w, nu, M)
        Z, s, obj_next = _whiten(L, Yt, log_t, w, nu)
        # U = obj + (1/2) log det M + (d - tr M)/2, the MM majorizer's value at B_mm. M is a weighted
        # Gram matrix, SPD unless singular: where det M is not positive (or M not finite), U = -inf
        with np.errstate(invalid="ignore"):
            sign, logdet = np.linalg.slogdet(M)
            bound = np.where(sign > 0, obj + 0.5 * (logdet + d - np.trace(M, axis1=1, axis2=2)), -np.inf)
            newton = ok_nt & (obj_next <= bound + NEWTON_TIE_EPS * np.maximum(1.0, np.abs(bound)))
        ok_mm = np.ones(ids.size, dtype=bool)
        if not newton.all():
            # compacted, or the whole arrays, not copies of the data, when every sample falls back
            mm = slice(None) if not newton.any() else np.flatnonzero(~newton)
            L[mm], ok_mm[mm] = spd_cholesky(B_mm[mm])
            Z[mm], s[mm], obj_next[mm] = _whiten(L[mm], Yt[mm], log_t[mm], w[mm], nu)
            B[mm] = B_mm[mm]
        sound = ok_mm & ~(obj_next > obj + MONOTONE_SLACK * np.maximum(1.0, np.abs(obj)))
        for j in np.flatnonzero(~sound):
            outcomes[ids[j]] = NumericalBreakdown(
                f"iterate left the SPD cone at iteration {k + 1}" if not ok_mm[j] else
                f"objective increased from {float(obj[j])!r} to {float(obj_next[j])!r} "
                f"at iteration {k + 1}"
            )
        newton_steps[ids[newton]] += 1
        # an MM step moves the whitened iterate from I to M
        last_step[ids] = np.where(newton, size_nt, 2.0 * grad)
        obj = obj_next
        # an iterate that degenerates steadily may be collapsing off the domain: ask the witness
        spread_next, top_next = _spread(L)
        streak = np.where((spread_next > COLLAPSE_RATE * spread) | (COLLAPSE_RATE * top_next < top), streak + 1, 0)
        spread, top = spread_next, top_next
        for j in np.flatnonzero(sound & (streak >= COLLAPSE_STEPS)):
            found = _collapse_witness(Y[ids[j]], w[j], B[j], nu + d)
            if found:
                q, _, mass, threshold = found
                outcomes[ids[j]] = _Collapse(f"iterate collapsed onto a {q}-subspace of mass {mass!r} >= "
                                             f"{threshold!r} at iteration {k + 1}")
                sound[j] = False
        if not sound.all():
            ids, Yt, log_t, w, B, L, Z, s, obj, spread, top, streak = (
                a[sound] for a in (ids, Yt, log_t, w, B, L, Z, s, obj, spread, top, streak)
            )
        for i, value in zip(ids.tolist(), obj.tolist()):
            traces[i].append(value)
    return outcomes
