"""Pure scatter functional: objective, gradient, and safeguarded Newton solver.

For a law Q on R^d and tail parameter nu > 0, the scatter matrix A minimizes

    Qh(A) = (1/2) log det A + sum_i w_i [rho(y_i' A^{-1} y_i) - rho(y_i' y_i)]

with rho(s) = ((nu + d)/2) log((nu + s)/nu). On the existence domain the
minimizer is the unique critical point, characterized by the fixed-point
equation A = sum_i w_i u(y_i' A^{-1} y_i) y_i y_i' with u(s) = (nu+d)/(nu+s).

One step of that map is a majorize-minimize (MM) update: it never increases
the objective, but it converges only linearly, and slowly for small nu or
near the boundary of the domain. The solver therefore also forms a full
Newton step in whitened coordinates each iteration and takes it whenever it
stays SPD and lowers the objective below the MM candidate's; otherwise it
takes the MM step (the partial-Newton scheme of Duembgen, Nordhausen and
Schuhmacher, JMVA 144, 2016). Every step decreases the objective at least as
much as the MM step would, so the monotone descent of the MM iteration
(Kent and Tyler, Ann. Statist. 19, 1991) carries over, and near the solution
the Newton steps converge quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .domain_check import EmpiricalSample, check_scatter_domain
from .exceptions import DomainViolation, NotSpdError, NumericalBreakdown
from .symspace import SpdMatrix, as_spd, outer_gram, sym_to_vec, symmetrize, vec_to_sym

__all__ = ["ScatterConfig", "ScatterResult", "weight_u", "objective", "gradient", "solve_scatter"]

# Allowed per-step objective increase before declaring breakdown (roundoff slack).
MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class ScatterConfig:
    """Solver settings.

    ``init="second_moment"`` starts from the weighted second-moment matrix
    (regularized by 1e-8 times its trace), falling back to the identity if
    that matrix is singular.
    """

    nu: float
    tol_grad: float = 1e-10
    tol_step: float = 1e-12
    max_iter: int = 500
    init: str = "identity"

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if not (self.tol_grad > 0.0 and self.tol_step > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.init not in ("identity", "second_moment"):
            raise ValueError(f"unknown init {self.init!r}")


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


def _initial_matrix(sample: EmpiricalSample, cfg: ScatterConfig) -> SpdMatrix:
    d = sample.d
    if cfg.init == "second_moment":
        M = (sample.points * sample.weights[:, None]).T @ sample.points
        tr = np.trace(M)
        if tr > 0.0:
            try:
                return SpdMatrix(M + 1e-8 * tr * np.eye(d))
            except NotSpdError:
                pass
    return SpdMatrix(np.eye(d))


def _whiten(B: SpdMatrix, Y, t, w, nu: float):
    """Whitened points Z = L^{-1} Y' (d x n), quadratic forms s and Qh at B = L L'."""
    Z = solve_triangular(B.chol, Y.T, lower=True)
    s = np.einsum("ij,ij->j", Z, Z)
    obj = 0.5 * B.logdet() + float(w @ _rho_diff(s, t, nu, Y.shape[1]))
    return Z, s, obj


def _newton_candidate(B: SpdMatrix, Z, s, w, nu: float, M) -> SpdMatrix:
    """Newton step for Qh on the whitened concentration matrix C = L' B^{-1} L.

    At C = I the gradient is (M - I)/2 and the curvature is (I - G)/2, with G
    the outer-product Gram matrix of the whitened points weighted by
    (nu+d) w/(nu+s)^2: the operator of ``asymptotics.hessian`` at the
    identity. The step D solves (I - G) vec(D) = -vec(M - I), and the
    candidate is L (I + D)^{-1} L'. Raises LinAlgError or NotSpdError when
    that system is singular or a matrix on the way is not SPD.
    """
    d = B.dim
    eye = np.eye(d)
    G = outer_gram(Z.T, (nu + d) * w / (nu + s) ** 2)
    step = np.linalg.solve(np.eye(G.shape[0]) - G, -sym_to_vec(M - eye))
    C = SpdMatrix(eye + vec_to_sym(step))
    # L C^{-1} L' = W'W with W = chol(C)^{-1} L'
    W = solve_triangular(C.chol, B.chol.T, lower=True)
    return SpdMatrix(W.T @ W)


def solve_scatter(
    sample: EmpiricalSample, cfg: ScatterConfig, *, check_domain: bool = True
) -> ScatterResult:
    """Compute the scatter matrix by Newton steps safeguarded by the MM step.

    Each iteration whitens the sample with the Cholesky factor of the current
    iterate B = L L' and forms the whitened MM image M = sum_i w_i u(s_i) z_i z_i'.
    ``grad_norm`` is the whitened gradient (1/2)||L^{-1}(B - L M L')L^{-T}||_F
    = (1/2)||I - M||_F, which does not change when the data are rescaled or
    linearly transformed. Stops once it is at most ``tol_grad``
    (``converged=True``), or when the relative MM step ||B - L M L'||_F/||B||_F
    falls to ``tol_step``, or after ``max_iter`` steps (``converged`` reflects
    the gradient criterion; the best iterate is returned either way). Raises
    :class:`DomainViolation` when the law fails the existence check and
    :class:`NumericalBreakdown` if an MM iterate leaves the SPD cone or the
    objective increases beyond roundoff, neither of which can happen in exact
    arithmetic on the domain.
    """
    sample = sample.drop_zero_weights()
    d = sample.d
    nu = cfg.nu
    if check_domain:
        report = check_scatter_domain(sample, nu + d)
        if not report.member:
            raise DomainViolation(report)

    Y = sample.points
    w = sample.weights
    t = np.einsum("ij,ij->i", Y, Y)
    B = _initial_matrix(sample, cfg)
    Z, s, obj = _whiten(B, Y, t, w, nu)

    trace = [obj]
    stop_reason = "max_iter"
    newton_steps = 0
    for k in range(cfg.max_iter + 1):
        M = symmetrize((Z * (w * (nu + d) / (nu + s))) @ Z.T, rtol=1e-6)
        L = B.chol
        B_mm = symmetrize(L @ M @ L.T, rtol=1e-6)
        grad_norm = 0.5 * float(np.linalg.norm(np.eye(d) - M, ord="fro"))
        fp_residual = float(np.linalg.norm(B.mat - B_mm, ord="fro"))
        iterations = k
        if grad_norm <= cfg.tol_grad:
            stop_reason = "grad"
            break
        if fp_residual / float(np.linalg.norm(B.mat, ord="fro")) <= cfg.tol_step:
            stop_reason = "step"
            break
        if k == cfg.max_iter:
            break

        try:
            B_next = SpdMatrix(B_mm)
        except NotSpdError as exc:
            raise NumericalBreakdown(f"iterate left the SPD cone at iteration {k + 1}") from exc
        Z_next, s_next, obj_next = _whiten(B_next, Y, t, w, nu)
        try:
            B_newton = _newton_candidate(B, Z, s, w, nu, M)
        except (np.linalg.LinAlgError, NotSpdError):
            pass
        else:
            Z_newton, s_newton, obj_newton = _whiten(B_newton, Y, t, w, nu)
            if obj_newton < obj_next:
                B_next, Z_next, s_next, obj_next = B_newton, Z_newton, s_newton, obj_newton
                newton_steps += 1

        if obj_next > obj + MONOTONE_SLACK * max(1.0, abs(obj)):
            raise NumericalBreakdown(
                f"objective increased from {obj!r} to {obj_next!r} at iteration {k + 1}"
            )
        B, Z, s, obj = B_next, Z_next, s_next, obj_next
        trace.append(obj)

    return ScatterResult(
        A=B,
        iterations=iterations,
        newton_steps=newton_steps,
        objective=obj,
        grad_norm=grad_norm,
        converged=grad_norm <= cfg.tol_grad,
        objective_trace=tuple(trace),
        stop_reason=stop_reason,
        fp_residual=fp_residual,
    )
