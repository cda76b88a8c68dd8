"""Seeded inputs, jobs and correctness checks of the benchmark workloads.

Every workload is a closed loop with one client: its jobs run one after
another in this process, each waiting for the previous one, as a
statistician running one job at a time would. A job's checks recompute what
they can from the inputs instead of trusting the solver's own report.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# sizes (normal, smoke); the smoke sizes only exercise the code paths
SIZES = {
    "session-d3": {"n": ((40, 44), (14, 16)), "ood_n": (40, 12), "oned_n": (20_000, 500),
                   "probe_n": (30, 10)},
    "fit-d10": {"n": (20_000, 400)},
    "mc-d2": {"law_n": (400, 40), "n": (300, 60), "reps": (150, 8)},
}

SESSION_NU = 3.0
FIT_NUS = (0.1, 0.5, 1.0, 5.0)
MC_NU = 2.0
MC_SEEDS = (0, 1, 2)

# Converged fits must satisfy their fixed-point equation this closely; the
# solver's own stopping rule gives about 1e-9.
FP_RESIDUAL_TOL = 1e-7
IDENTITY_TOL = 1e-6
ONED_F_TOL = 1e-9


class CheckFailed(Exception):
    pass


class Refused(Exception):
    """The program declined the job in the documented way."""


@dataclass
class Outcome:
    status: str                 # "ok", "refused" (documented refusal) or "failed"
    detail: str = ""
    fits: int = 0
    unconverged: int = 0
    envelope_valid: bool | None = None   # None when the job emitted no envelope


def multivariate_t(rng, n: int, d: int, df: float) -> np.ndarray:
    z = rng.standard_normal((n, d))
    g = rng.chisquare(df, size=n)
    return z / np.sqrt(g / df)[:, None]


def write_csv(path: Path, points: np.ndarray) -> Path:
    np.savetxt(path, points, delimiter=",", fmt="%.17g")
    return path


# ---------------------------------------------------------------- checks

def fixed_point_residual(Y, A, nu: float) -> float:
    """||A - sum_i w_i u(s_i) y_i y_i'||_F / ||A||_F with uniform weights."""
    Y = np.asarray(Y, dtype=float)
    A = np.asarray(A, dtype=float)
    n, d = Y.shape
    Z = np.linalg.solve(np.linalg.cholesky(A), Y.T)
    s = np.einsum("ij,ij->j", Z, Z)
    wu = (nu + d) / (nu + s) / n
    M = (Y * wu[:, None]).T @ Y
    return float(np.linalg.norm(A - M) / np.linalg.norm(A))


def mean_weight(Y, mu, Sigma, nu: float) -> float:
    """Sample mean of u((y-mu)' Sigma^{-1} (y-mu)); 1 at a location-scatter solution."""
    C = np.asarray(Y, dtype=float) - np.asarray(mu, dtype=float)
    Z = np.linalg.solve(np.linalg.cholesky(np.asarray(Sigma, dtype=float)), C.T)
    s = np.einsum("ij,ij->j", Z, Z)
    return float(np.mean((nu + C.shape[1]) / (nu + s)))


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def require_code(code, expected):
    require(code == expected, f"exit code {code}, expected {expected}")


def check_cov(S, dim: int, rank: int | None = None):
    S = np.asarray(S, dtype=float)
    require(S.shape == (dim, dim), f"covariance shape {S.shape}, expected {(dim, dim)}")
    require(np.isfinite(S).all(), "covariance has non-finite entries")
    scale = float(np.abs(S).max())
    require(np.abs(S - S.T).max() <= 1e-8 * scale, "covariance is not symmetric")
    eig = np.linalg.eigvalsh((S + S.T) / 2.0)
    require(eig[0] >= -1e-8 * eig[-1], f"covariance has eigenvalue {eig[0]:g} < 0")
    if rank is not None:
        require(int((eig > 1e-8 * eig[-1]).sum()) == rank, "covariance rank mismatch")


def expect_member(known: bool):
    def check(code, payload, stderr):
        require_code(code, 0)
        require(bool(payload["member"]) == known, f"member={payload['member']}, known {known}")
        require(bool(payload["exact"]), "exact check reported as inexact")
        return 0, 0
    return check


def expect_estimate(Y, nu):
    def check(code, payload, stderr):
        require_code(code, 0)
        for key in ("gamma_check", "weight_check"):
            require(abs(payload[key] - 1.0) <= IDENTITY_TOL, f"{key}={payload[key]!r}")
        w = mean_weight(Y, payload["mu"], payload["Sigma"], nu)
        require(abs(w - 1.0) <= IDENTITY_TOL, f"recomputed mean weight {w!r}")
        return 1, int(not payload["converged"])
    return check


def expect_scatter(Y, nu):
    def check(code, payload, stderr):
        require_code(code, 0)
        res = fixed_point_residual(Y, payload["A"], nu)
        if payload["converged"]:
            require(res <= FP_RESIDUAL_TOL, f"converged fit has fixed-point residual {res:g}")
        return 1, int(not payload["converged"])
    return check


def expect_asymptotics(dim):
    def check(code, payload, stderr):
        require_code(code, 0)
        check_cov(payload["S"], dim, rank=dim)
        require(payload["rank"] == dim, f"rank {payload['rank']}, expected {dim}")
        return 0, 0
    return check


def expect_domain_violation():
    def check(code, payload, stderr):
        require_code(code, 2)
        require(payload.get("error") == "domain_violation", "no domain_violation payload")
        require(not payload["report"]["member"], "violation report claims membership")
        return 0, 0
    return check


def expect_oned(x, nu):
    def check(code, payload, stderr):
        require_code(code, 0)
        require(not payload["boundary"], "continuous sample reported on the boundary")
        mu, sigma = payload["mu"], payload["sigma"]
        d2 = (np.asarray(x, dtype=float).reshape(-1) - mu) ** 2
        F = float(np.mean(d2 / (nu * sigma**2 + d2)))
        require(abs(F - 1.0 / (nu + 1.0)) <= ONED_F_TOL, f"F(mu, sigma) - 1/(nu+1) = {F - 1/(nu+1):g}")
        return 0, 0
    return check


def expect_refusal_or_estimate(Y, nu):
    """Exact checking refuses d > 4 with exit 1; an answer must pass the estimate checks."""
    estimate = expect_estimate(Y, nu)

    def check(code, payload, stderr):
        if code == 1:
            require("error" in stderr, "refusal without an error message")
            raise Refused(stderr.strip().splitlines()[-1])
        return estimate(code, payload, stderr)
    return check


def expect_simulate(reps: int, dim: int):
    def check(code, payload, stderr):
        require_code(code, 0)
        require(payload["reps"] == reps, f"reps {payload['reps']}, expected {reps}")
        # every replicate of a generic law inside the domain is inside it too
        require(payload["existence_rate"] == 1.0, f"existence_rate {payload['existence_rate']}")
        check_cov(payload["empirical_cov"], dim)
        check_cov(payload["target_cov"]["S"], dim, rank=dim)
        return 0, 0
    return check


# ------------------------------------------------------------------ jobs

def _failure(exc: BaseException) -> Outcome:
    return Outcome("failed", "".join(traceback.format_exception_only(type(exc), exc)).strip())


class CliJob:
    """One ``tscatter`` CLI call through ``tscatter.cli.main``, envelope written to a file."""

    def __init__(self, kind: str, argv: list[str], out: Path, expect: Callable):
        self.kind, self.argv, self.out, self.expect = kind, argv, out, expect

    def run(self):
        cli = sys.modules["tscatter.cli"]
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(self.argv + ["--output", str(self.out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed job, the batch goes on
            return exc
        return code, err.getvalue()

    def check(self, raw, validate) -> Outcome:
        if isinstance(raw, BaseException):
            return _failure(raw)
        code, stderr = raw
        valid, payload = None, None
        if self.out.exists():
            text = self.out.read_text(encoding="utf-8")
            valid = validate(text)
            try:
                payload = json.loads(text)["payload"]
            except (ValueError, KeyError) as exc:
                return Outcome("failed", f"unreadable envelope: {exc}", envelope_valid=False)
        try:
            if payload is None and code in (0, 2):
                raise CheckFailed(f"exit code {code} without an envelope")
            fits, unconverged = self.expect(code, payload, stderr)
        except Refused as exc:
            return Outcome("refused", str(exc), envelope_valid=valid)
        except (CheckFailed, KeyError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
            return Outcome("failed", f"{type(exc).__name__}: {exc}", envelope_valid=valid)
        return Outcome("ok", fits=fits, unconverged=unconverged, envelope_valid=valid)


class FitJob:
    """Library scatter fit plus its sandwich covariance, domain check skipped (d > 4)."""

    kind = "fit"

    def __init__(self, sample, nu: float):
        self.sample, self.nu = sample, nu

    def run(self):
        tsc = sys.modules["tscatter"]
        try:
            fit = tsc.solve_scatter(self.sample, tsc.ScatterConfig(nu=self.nu), check_domain=False)
            cov = tsc.asymptotic_cov_scatter(self.sample, self.nu, fit=fit, check_domain=False)
        except Exception as exc:  # counted as a failed job, the batch goes on
            return exc
        return fit, cov

    def check(self, raw, validate) -> Outcome:
        if isinstance(raw, BaseException):
            return _failure(raw)
        fit, cov = raw
        d = self.sample.d
        try:
            res = fixed_point_residual(self.sample.points, fit.A.mat, self.nu)
            if fit.converged:
                require(res <= FP_RESIDUAL_TOL, f"converged fit has fixed-point residual {res:g}")
            else:
                require(np.isfinite(res), "unconverged fit is not finite")
            check_cov(cov.S, d * (d + 1) // 2)
        except (CheckFailed, np.linalg.LinAlgError) as exc:
            return Outcome("failed", f"nu={self.nu}: {exc}", fits=1)
        return Outcome("ok", fits=1, unconverged=int(not fit.converged))


# ------------------------------------------------------------- workloads

@dataclass
class Workload:
    jobs: list
    probes: list     # run after each batch, timed nowhere
    warmup: list
    ref_kind: str    # the reference timed before and after each job
    ref_units: int   # and how many runs of it


def _session(seed: int, tmp: Path, smoke: bool) -> list[CliJob]:
    sz = {k: v[int(smoke)] for k, v in SIZES["session-d3"].items()}
    rng = np.random.default_rng([seed, 3])
    nu = str(SESSION_NU)
    jobs = []
    for k, n in enumerate(sz["n"]):
        # shifted and scaled, so neither the origin nor the axes are special
        Y = multivariate_t(rng, n, 3, 3.0) * rng.uniform(0.5, 3.0, 3) + rng.uniform(-5.0, 5.0, 3)
        csv = write_csv(tmp / f"t3_{k}.csv", Y)
        for kind, cmd, expect in (
            ("check_domain", "check-domain", expect_member(True)),
            ("estimate", "estimate", expect_estimate(Y, SESSION_NU)),
            ("asymptotics", "asymptotics", expect_asymptotics(3 + 6)),
            ("scatter", "scatter", expect_scatter(Y, SESSION_NU)),
        ):
            jobs.append(CliJob(kind, [cmd, str(csv), "--nu", nu], tmp / f"{cmd}_{k}.json", expect))

    # out of domain: more than 5/6 of the mass on the plane z = 0, the
    # affine threshold 1 - 1/(nu + d) at nu = 3, d = 3
    n = sz["ood_n"]
    on_plane = n - n // 8
    Y = multivariate_t(rng, n, 3, 3.0)
    Y[:on_plane, 2] = 0.0
    csv = write_csv(tmp / "plane.csv", Y)
    jobs.append(CliJob("check_domain", ["check-domain", str(csv), "--nu", nu],
                       tmp / "check-domain_plane.json", expect_member(False)))
    jobs.append(CliJob("estimate", ["estimate", str(csv), "--nu", nu],
                       tmp / "estimate_plane.json", expect_domain_violation()))

    x = multivariate_t(rng, sz["oned_n"], 1, 3.0) * 2.0 + 1.0
    csv = write_csv(tmp / "oned.csv", x)
    jobs.append(CliJob("oned", ["oned", str(csv), "--nu", nu], tmp / "oned.json",
                       expect_oned(x, SESSION_NU)))
    return jobs


def _session_probe(seed: int, tmp: Path, smoke: bool) -> list[CliJob]:
    rng = np.random.default_rng([seed, 4])
    Y = multivariate_t(rng, SIZES["session-d3"]["probe_n"][int(smoke)], 4, 3.0)
    csv = write_csv(tmp / "t3_d4.csv", Y)
    return [CliJob("estimate", ["estimate", str(csv), "--nu", str(SESSION_NU)], tmp / "probe_d4.json",
                   expect_refusal_or_estimate(Y, SESSION_NU))]


def _fit(seed: int, tmp: Path, smoke: bool) -> list[FitJob]:
    tsc = sys.modules["tscatter"]
    rng = np.random.default_rng([seed, 10])
    sample = tsc.EmpiricalSample(multivariate_t(rng, SIZES["fit-d10"]["n"][int(smoke)], 10, 2.0))
    return [FitJob(sample, nu) for nu in FIT_NUS]


def _mc(seed: int, tmp: Path, smoke: bool) -> list[CliJob]:
    sz = {k: v[int(smoke)] for k, v in SIZES["mc-d2"].items()}
    rng = np.random.default_rng([seed, 2])
    csv = write_csv(tmp / "law_d2.csv", multivariate_t(rng, sz["law_n"], 2, 3.0))
    return [
        CliJob("simulate",
               ["simulate", str(csv), "--nu", str(MC_NU), "--mode", "scatter",
                "--n", str(sz["n"]), "--reps", str(sz["reps"]), "--seed", str(s)],
               tmp / f"simulate_{s}.json", expect_simulate(sz["reps"], 3))
        for s in MC_SEEDS
    ]


WORKLOAD_JOBS = {"session-d3": _session, "fit-d10": _fit, "mc-d2": _mc}
# Longer jobs get more reference runs: session jobs take 0.1-0.8 s, fits
# 0.3-2.5 s, simulate jobs 1.5-2 s, and one reference run 0.04-0.07 s.
REFERENCE = {"session-d3": ("subsets", 1), "fit-d10": ("tall", 2), "mc-d2": ("tiny", 3)}


def build(name: str, seed: int, tmp: Path, smoke: bool) -> Workload:
    """Write the workload's inputs under ``tmp`` and return its jobs.

    The warm-up jobs are the smoke-sized jobs, on their own inputs: they load
    every code path once before timing starts.
    """
    warm_dir = tmp / "warmup"
    warm_dir.mkdir()
    probes = _session_probe(seed, tmp, smoke) if name == "session-d3" else []
    return Workload(
        jobs=WORKLOAD_JOBS[name](seed, tmp, smoke),
        probes=probes,
        warmup=WORKLOAD_JOBS[name](seed, warm_dir, True),
        ref_kind=REFERENCE[name][0],
        ref_units=REFERENCE[name][1],
    )
