"""Monte Carlo validation of the asymptotic-normality predictions.

Replicates draw i.i.d. samples from a configured law, fit the scatter or
location-scatter functional, and compare the empirical covariance of
sqrt(n) * (vectorized estimate - functional) against the analytic asymptotic
covariance. Replicate RNG streams are keyed by (seed, replicate index). A
job's replicates are split into the fewest stacks whose solver scratch fits
``STACK_BYTES``, of sizes that differ by at most one, and each stack (lifted
first for location-scatter) goes through ``scatter._fit_and_check`` in one
call. That helper is where membership is decided, for every solve path: it
certifies the fits, takes a collapse of the fit as proof that a replicate is
outside, and enumerates only a replicate that neither decides, on its own.
This module acts on the one outcome it returns per replicate. Replicates
whose fit did not converge are counted, not averaged in. Reports are
bit-identical across runs and agree across stack sizes.

The functionals are defined at every law, so a replicate of a discrete law
is fitted as the law it is: count weights on its drawn support, each support
point it drew weighted by its count over n, a multinomial reweighting of the
support (Efron, Ann. Statist. 7, 1979). A 300-draw replicate of a 400-point
law holds about 210 distinct points. Replicates of other laws are their n
draws at weight 1/n each.

For discrete target laws the functional and its covariance are computed
exactly from the law itself; for continuous laws they are estimated from one
large surrogate sample and the report is flagged accordingly.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticCov, asymptotic_cov_locscatter, asymptotic_cov_scatter
from .domain_check import EmpiricalSample, check_locscat_domain, check_scatter_domain
from .exceptions import DomainViolation, EnumerationBudgetError, NumericalBreakdown
from .locscatter import certify_lifted_fit, solve_locscatter
from .scatter import ScatterConfig, ScatterResult, _Collapse, _fit_and_check, _sample_bytes, solve_scatter
from .symspace import as_spd, sym_to_vec

__all__ = [
    "Sampler",
    "gaussian_sampler",
    "t_sampler",
    "discrete_sampler",
    "contaminated_sampler",
    "McReport",
    "run_clt_experiment",
]

SURROGATE_REPLICATE = 2**31  # reserved substream index for surrogate-truth draws

# size of the one draw that stands in for a continuous target law
SURROGATE_N = 1_000_000

# max_rel_err compares only target covariance entries larger than this in magnitude
REL_THRESHOLD = 0.05

# Solver scratch memory, in bytes, that one stack of replicate fits may take.
# A 150-replicate job of 300 draws in 2-D (70 kB each) runs as two stacks of 75;
# the budget counts n points per replicate however few distinct points it drew.
STACK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class Sampler:
    """A law to draw replicates from, with deterministic per-replicate streams.

    ``draw(n, rng)`` returns n points in R^``dim``. ``law`` is the exact law
    when it is discrete, else None; the factories below build it, and factor
    any scatter matrix, once, so its weights are divided only then. Where
    ``index`` is set, ``index(n, rng)`` returns the rows of ``law.points``
    that ``draw(n, rng)`` returns, from the same stream: replicates are then
    fitted as count weights on the support points they drew. Streams are
    keyed by (seed, replicate), so identical seeds reproduce identical draws.
    """

    seed: int
    dim: int
    draw: Callable[[int, np.random.Generator], np.ndarray]
    law: EmpiricalSample | None = None
    index: Callable[[int, np.random.Generator], np.ndarray] | None = None

    def rng_for(self, replicate: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(replicate)])


def gaussian_sampler(mu, Sigma, seed: int) -> Sampler:
    mu = np.asarray(mu, dtype=float).reshape(-1)
    L = as_spd(Sigma).chol

    def draw(n, rng):
        return mu + rng.standard_normal((n, mu.size)) @ L.T

    return Sampler(int(seed), mu.size, draw)


def t_sampler(df: float, mu, Sigma, seed: int) -> Sampler:
    if not df > 0:
        raise ValueError("df must be positive")
    mu = np.asarray(mu, dtype=float).reshape(-1)
    L = as_spd(Sigma).chol

    def draw(n, rng):
        # Gaussian scale mixture: chi-square divisor with df degrees of freedom
        z = rng.standard_normal((n, mu.size)) @ L.T
        g = rng.chisquare(df, size=n)
        return mu + z / np.sqrt(g / df)[:, None]

    return Sampler(int(seed), mu.size, draw)


def discrete_sampler(points, weights, seed: int) -> Sampler:
    """Draws from the law of ``points`` and ``weights``, or from ``points`` as it is if it is a law."""
    law = points if isinstance(points, EmpiricalSample) else EmpiricalSample(points, weights)
    cdf = np.cumsum(law.weights)
    cdf /= cdf[-1]

    def index(n, rng):
        # the draws of rng.choice(law.n, size=n, p=law.weights), with the CDF built once
        return np.searchsorted(cdf, rng.random(n), side="right")

    def draw(n, rng):
        return law.points[index(n, rng)]

    return Sampler(int(seed), law.d, draw, law, index)


def contaminated_sampler(base: Sampler, eps: float, point, seed: int | None = None) -> Sampler:
    """``base`` with each draw replaced by ``point`` with probability ``eps``; exact when ``base`` is."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    point = np.asarray(point, dtype=float).reshape(-1)

    def draw(n, rng):
        pts = base.draw(n, rng)
        mask = rng.random(n) < eps
        pts[mask] = point
        return pts

    law = None
    if base.law is not None:
        pts = np.vstack([base.law.points, point[None, :]])
        law = EmpiricalSample(pts, np.concatenate([(1.0 - eps) * base.law.weights, [eps]])).merged()[0]
    return Sampler(int(base.seed if seed is None else seed), base.dim, draw, law)


@dataclass(frozen=True)
class McReport:
    """Outcome of a CLT experiment.

    ``empirical_cov`` is the covariance across replicates of
    sqrt(n) * (vectorized estimate - functional); ``max_rel_err`` compares it
    entrywise to ``target_cov.S`` over entries exceeding ``REL_THRESHOLD`` in
    magnitude, and is NaN, with a warning, where no entry does.
    ``normality_stat`` holds, per coordinate of theta, the Kolmogorov-Smirnov
    distance of the replicate errors from the normal law with their mean and
    sd; it is NaN (null in JSON) for a coordinate whose errors do not vary
    beyond roundoff of the largest error of the job. ``existence_rate`` is
    the fraction of replicates passing the domain check; only those whose
    fit converged contribute estimates.
    """

    n: int
    reps: int
    mode: str
    seed: int
    empirical_cov: np.ndarray
    target_cov: AsymptoticCov
    max_rel_err: float
    normality_stat: tuple[float, ...]
    existence_rate: float
    warnings: tuple[str, ...] = ()


def _thetas(fits) -> np.ndarray:
    """Rows sym_to_vec(A) of scatter fits, or mu over sym_to_vec(Sigma) of location-scatter estimates."""
    if isinstance(fits[0], ScatterResult):
        return sym_to_vec(np.stack([fit.A.mat for fit in fits]))
    return np.hstack([np.stack([est.mu for est in fits]), sym_to_vec(np.stack([est.Sigma.mat for est in fits]))])


def _target_objects(sampler: Sampler, nu: float, mode: str):
    """The functional theta0 of the target law, its asymptotic covariance and warnings.

    The law is fitted once, at the default tolerances, and that fit serves
    both theta0 and the covariance. Its domain membership is certified from
    the fit, or else checked by exact enumeration; where that is past the
    subset budget the law goes unchecked, with a warning.
    """
    warnings = []
    law = sampler.law
    if law is None:
        rng = sampler.rng_for(SURROGATE_REPLICATE)
        law = EmpiricalSample(sampler.draw(SURROGATE_N, rng)).merged()[0]
        warnings.append(f"surrogate truth from one n={SURROGATE_N} draw")

    def fit(check_domain):
        if mode == "scatter":
            return solve_scatter(law, ScatterConfig(nu=nu), check_domain=check_domain)
        return solve_locscatter(law, nu, check_domain=check_domain)

    try:
        est = fit(True)
    except EnumerationBudgetError:
        warnings.append("domain of the target law not checked: exact enumeration too large")
        est = fit(False)
    cov = asymptotic_cov_scatter if mode == "scatter" else asymptotic_cov_locscatter
    return _thetas([est])[0], cov(law, nu, fit=est), warnings


def _stacks(reps: range, cap: int):
    """``reps`` in the fewest consecutive stacks of at most ``cap``, larger ones first by at most one."""
    count = -(-len(reps) // cap)
    size, extra = divmod(len(reps), max(count, 1))
    first = reps.start
    for j in range(count):
        stop = first + size + (j < extra)
        yield range(first, stop)
        first = stop


def _drawn_support(support: np.ndarray, idx: np.ndarray):
    """Each row of ``idx`` (R, n), rows of ``support`` drawn, as a weighted law: points (R, m, d), weights (R, m).

    A row's law lists the support rows it drew in support order, each
    weighted by its count over n. Rows are padded to the widest, m, with
    zero-weight copies of their own last point, so that the largest point
    norm, the merged masses and the certificate of each row see exactly its
    law. One sort per row finds the counts, in O(R n log n) time and O(R n)
    memory whatever the size of the support.
    """
    R, n = idx.shape
    drawn = np.sort(idx, axis=1)
    first = np.ones(drawn.shape, dtype=bool)
    first[:, 1:] = drawn[:, 1:] != drawn[:, :-1]
    starts = np.flatnonzero(first)
    # every row's first entry opens a run, so each run ends where the next one opens
    counts = np.diff(starts, append=R * n)
    width = first.sum(axis=1)
    m = width.max()
    drawn_law = np.arange(m) < width[:, None]  # filled in row-major order, as starts is
    sel = np.repeat(drawn[:, -1:], m, axis=1)
    sel[drawn_law] = drawn.ravel()[starts]
    weights = np.zeros(sel.shape)
    weights[drawn_law] = counts / n
    return support.take(sel, axis=0), weights


def _replicate_thetas(sampler: Sampler, cfg: ScatterConfig, n: int, mode: str, reps: range) -> list:
    """Per replicate in ``reps``: its vectorized estimate, False outside the domain, or None.

    None marks a member replicate whose fit did not converge. Replicates are
    drawn, fitted and certified in the fewest stacks whose solver scratch
    fits ``STACK_BYTES`` at n points each, of sizes that differ by at most
    one. A stack holds each replicate as a weighted law: for a sampler with
    an ``index``, the support points it drew weighted count/n
    (:func:`_drawn_support`), else its n draws at 1/n each. The stack
    (lifted in locscatter mode, which keeps the weights) goes through one
    :func:`~tscatter.scatter._fit_and_check` call, which decides each
    replicate's membership. A member replicate whose fit broke down raises
    :class:`NumericalBreakdown`, and one past the enumeration budget
    :class:`EnumerationBudgetError`, each naming the replicate.
    """
    d = sampler.dim
    lifted = mode == "locscatter"
    solve_cfg = dataclasses.replace(cfg, nu=cfg.nu - 1.0) if lifted else cfg
    outcomes = []
    for stack_reps in _stacks(reps, max(1, STACK_BYTES // _sample_bytes(n, d + lifted))):
        if sampler.index is None:
            drawn = np.stack([sampler.draw(n, sampler.rng_for(rep)) for rep in stack_reps]) + 0.0  # no -0.0
            weights = np.full(drawn.shape[:2], 1.0 / n)
        else:
            idx = np.stack([sampler.index(n, sampler.rng_for(rep)) for rep in stack_reps])
            drawn, weights = _drawn_support(sampler.law.points, idx)
        points = drawn
        if lifted:
            points = np.concatenate([drawn, np.ones(drawn.shape[:2] + (1,))], axis=2)
        decided = _fit_and_check(points, weights, solve_cfg)
        for rep, outcome in zip(stack_reps, decided):
            # a member's breakdown or a refusal past the budget; the other exceptions are outside the domain
            if isinstance(outcome, Exception) and not isinstance(outcome, (DomainViolation, _Collapse)):
                raise type(outcome)(f"replicate {rep}: {outcome}")
        found = [False] * len(decided)
        kept = [i for i, outcome in enumerate(decided) if isinstance(outcome, ScatterResult)]
        ests = [certify_lifted_fit(EmpiricalSample(drawn[i], weights[i]), cfg.nu, decided[i]) if lifted
                else decided[i] for i in kept]
        for i, est, theta in zip(kept, ests, _thetas(ests) if ests else ()):
            found[i] = theta if est.converged else None
        outcomes += found
    return outcomes


def run_clt_experiment(
    sampler: Sampler,
    nu: float,
    n: int,
    reps: int,
    *,
    mode: str = "scatter",
    cfg: ScatterConfig | None = None,
) -> McReport:
    """Compare replicate fluctuations against the asymptotic covariance.

    ``cfg`` sets the solver tolerances of the replicate fits only (its ``nu``
    is replaced by ``nu``): the functional they are centred on and the
    analytic target covariance come from one fit of the target law at the
    default tolerances. Requires ``reps >= 2``. Each stack of replicates is
    fitted at once and certified from its fits; a replicate whose fit
    collapsed is outside the domain, and only a replicate that neither
    decides is checked by exact enumeration, on its own. Replicates outside
    the domain are counted in ``existence_rate`` and skipped; a rate below
    0.99 adds a near-boundary warning to the report. Member replicates whose
    fit did not converge are left out of the covariance and counted in a
    warning. Fewer than two members raise :class:`DomainViolation` with the
    report of the first replicate outside, enumerated on its own for it;
    fewer than two converged members raise :class:`NumericalBreakdown`. A
    location-scatter replicate whose extracted Sigma is not positive definite
    raises :class:`DegeneracyError`, and a member replicate whose fit broke
    down :class:`NumericalBreakdown`.
    """
    if mode not in ("scatter", "locscatter"):
        raise ValueError(f"unknown mode {mode!r}")
    if reps < 2:
        raise ValueError("reps must be at least 2 for a covariance estimate")
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")

    cfg = ScatterConfig(nu=nu) if cfg is None else dataclasses.replace(cfg, nu=nu)
    theta0, target_cov, warnings = _target_objects(sampler, nu, mode)

    outcomes = _replicate_thetas(sampler, cfg, n, mode, range(reps))
    kept = [th for th in outcomes if isinstance(th, np.ndarray)]
    members = sum(out is not False for out in outcomes)
    existence_rate = members / reps
    if existence_rate < 0.99:
        warnings.append(f"existence rate {existence_rate:.4f} below 0.99: near-boundary law")
    if members < 2:
        # reps >= 2, so some replicate failed: the first one, drawn again and
        # enumerated on its own at the a0 its fit had, is the evidence
        rep = next(rep for rep, out in enumerate(outcomes) if out is False)
        q = EmpiricalSample(sampler.draw(n, sampler.rng_for(rep)))
        if mode == "scatter":
            report = check_scatter_domain(q, nu + q.d)
        else:
            report = check_locscat_domain(q, (nu - 1.0) + (q.d + 1))  # the lifted fit's nu plus its dimension
        raise DomainViolation(report, "too few replicates inside the existence domain")
    if len(kept) < members:
        warnings.append(f"{members - len(kept)} of {members} member replicate fits did not converge: left out")
    if len(kept) < 2:
        raise NumericalBreakdown(f"only {len(kept)} of {members} member replicate fits converged: too few")

    errors = np.sqrt(n) * (np.stack(kept) - theta0)
    scale = np.abs(errors).max()
    emp = np.atleast_2d(np.cov(errors, rowvar=False, ddof=1))
    emp = (emp + emp.T) / 2.0

    S = target_cov.S
    mask = np.abs(S) > REL_THRESHOLD
    if mask.any():
        max_rel_err = float(np.max(np.abs(emp[mask] - S[mask]) / np.abs(S[mask])))
    else:
        max_rel_err = float("nan")
        warnings.append(f"max_rel_err not computed: no entry of the target covariance exceeds {REL_THRESHOLD}")

    return McReport(
        n=n,
        reps=reps,
        mode=mode,
        seed=sampler.seed,
        empirical_cov=emp,
        target_cov=target_cov,
        max_rel_err=max_rel_err,
        normality_stat=tuple(_normality_stat(col, scale) for col in errors.T),
        existence_rate=existence_rate,
        warnings=tuple(warnings),
    )


def _normality_stat(col, scale) -> float:
    """Kolmogorov-Smirnov distance of ``col`` from the normal law with its mean and sd.

    D = max(D+, D-) over the sorted column, with Phi(z) = erfc(-z/sqrt(2))/2
    from libm's ``erfc`` (:func:`math.erfc`): the statistic of
    ``scipy.stats.kstest(col, "norm", args=(mean, sd))`` to within a few
    ulps, without its p-value. NaN where the sd is at most 1e-12 ``scale``,
    the job's largest |error|: a column that does not vary, or only by
    roundoff. A floor relative to the job's errors keeps D free of units.
    """
    sd = col.std(ddof=1)
    if not sd > 1e-12 * scale:
        return float("nan")
    n = col.size
    z = (np.sort(col) - col.mean()) / sd
    cdf = np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in z.tolist()])
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()))
