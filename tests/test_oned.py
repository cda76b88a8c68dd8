import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tscatter import (
    EmpiricalSample,
    NoPositiveSolution,
    NuOutOfRange,
    ScatterConfig,
    cli,
    sigma_of_mu,
    solve_locscatter,
    solve_oned,
)
from tscatter.domain_check import EQ_TOL, max_atom
from tscatter.oned import _brentq, _profile_derivative
from oracles import boundary_rate_probe, profile_objective, sigma_of_mu_brentq, solve_oned_brentq, two_point_closed_form


def sample1d(values, weights=None):
    return EmpiricalSample(np.asarray(values, dtype=float).reshape(-1, 1), weights)


class TestSigmaOfMu:
    def test_symmetric_pair_algebra(self):
        # F(0, s) = 1/(2 s^2 + 1) = 1/3 gives s = 1
        q = sample1d([-1.0, 1.0])
        assert abs(sigma_of_mu(q, 0.0, 2.0) - 1.0) <= 1e-12

    def test_point_mass_off_center(self):
        q = sample1d([0.0])
        assert abs(sigma_of_mu(q, 1.0, 2.0) - 1.0) <= 1e-12

    def test_point_mass_at_center_fails(self):
        q = sample1d([0.0])
        with pytest.raises(NoPositiveSolution):
            sigma_of_mu(q, 0.0, 2.0)

    def test_residual_tolerance(self):
        rng = np.random.default_rng(3)
        nu = 2.0
        target = 1.0 / (nu + 1.0)
        for _ in range(20):
            x = rng.standard_normal(12)
            q = sample1d(x)
            mu = float(rng.uniform(x.min(), x.max()))
            s = sigma_of_mu(q, mu, nu)
            d2 = (x - mu) ** 2
            resid = np.mean(d2 / (nu * s**2 + d2)) - target
            assert abs(resid) <= 1e-12


class TestSolveOned:
    def test_big_atom_boundary(self):
        q = sample1d([0.0, 1.0], [0.7, 0.3])
        est = solve_oned(q, 2.0)
        assert est.boundary
        assert est.mu == 0.0 and est.sigma == 0.0
        assert est.atom == (0.0, pytest.approx(0.7))

    def test_balanced_two_point(self):
        est = solve_oned(sample1d([0.0, 1.0]), 2.0)
        assert abs(est.mu - 0.5) <= 1e-8
        assert abs(est.sigma - 0.5) <= 1e-8
        assert not est.boundary

    def test_small_p_boundary_nu3(self):
        # p = 0.2 <= 1/(nu+1) = 0.25: the heavy endpoint takes everything
        est = solve_oned(sample1d([0.0, 1.0], [0.8, 0.2]), 3.0)
        assert est.boundary
        assert est.mu == 0.0 and est.sigma == 0.0

    def test_exact_threshold_atom_is_boundary(self):
        q = sample1d([0.0, 1.0], [2.0 / 3.0, 1.0 / 3.0])
        est = solve_oned(q, 2.0)
        assert est.boundary and est.mu == 0.0

    def test_nu_out_of_range(self):
        with pytest.raises(NuOutOfRange):
            solve_oned(sample1d([0.0, 1.0]), 1.0)

    def test_matches_lifted_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            x = rng.standard_normal(int(rng.integers(3, 15))) * rng.uniform(0.5, 3.0)
            q = sample1d(x)
            nu = float(rng.uniform(1.2, 5.0))
            od = solve_oned(q, nu)
            ls = solve_locscatter(q, nu, ScatterConfig(nu=nu, tol_grad=1e-13))
            assert abs(od.mu - ls.mu[0]) <= 1e-7
            assert abs(od.sigma - np.sqrt(ls.Sigma.mat[0, 0])) <= 1e-7

    def test_equivariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(8)
        q = sample1d(x)
        base = solve_oned(q, 2.0)
        for alpha, beta in ((2.0, 3.0), (-1.5, 0.25), (0.1, -7.0)):
            mapped = sample1d(alpha * x + beta)
            est = solve_oned(mapped, 2.0)
            assert abs(est.mu - (alpha * base.mu + beta)) <= 1e-6 * max(1.0, abs(alpha))
            assert abs(est.sigma - abs(alpha) * base.sigma) <= 1e-6 * max(1.0, abs(alpha))

    def test_unique_big_atom(self):
        # masses above nu/(nu+1) > 1/2 cannot coexist; the checker finds the one
        q = sample1d([3.0, 1.0, 2.0], [0.8, 0.1, 0.1])
        est = solve_oned(q, 2.0)
        assert est.boundary and est.mu == 3.0

    def test_profile_derivative_sign_at_big_atom(self):
        # with a big atom at 0 the profile slopes away from it on both sides
        q = sample1d([0.0, 1.0, -2.0], [0.8, 0.1, 0.1])
        nu = 2.0
        scale = 2.0
        for frac in (0.1, 0.5, 1.0):
            mu = frac * scale
            assert _profile_derivative(q, mu, nu) > 0.0
            assert _profile_derivative(q, -mu, nu) < 0.0


class TestTwoPointClosedForm:
    def test_balanced(self):
        est = two_point_closed_form(0.0, 1.0, 0.5, 2.0)
        assert est.mu == pytest.approx(0.5)
        assert est.sigma**2 == pytest.approx(0.25)

    def test_p06(self):
        est = two_point_closed_form(0.0, 1.0, 0.6, 2.0)
        assert est.mu == pytest.approx(0.8)
        assert est.sigma**2 == pytest.approx(0.16)

    def test_affine_rescaling(self):
        est = two_point_closed_form(-1.0, 1.0, 0.5, 2.0)
        assert est.mu == pytest.approx(0.0)
        assert est.sigma == pytest.approx(1.0)

    def test_boundaries(self):
        lo = two_point_closed_form(0.0, 1.0, 0.2, 3.0)
        assert lo.boundary and lo.mu == 0.0 and lo.sigma == 0.0
        hi = two_point_closed_form(0.0, 1.0, 0.8, 3.0)
        assert hi.boundary and hi.mu == 1.0 and hi.sigma == 0.0

    def test_equivalent_variance_forms(self):
        # ((nu+1) q mu_p - mu_p^2)/nu equals the symmetric-polynomial form
        rng = np.random.default_rng(13)
        for _ in range(50):
            nu = float(rng.uniform(1.2, 6.0))
            lo, hi = 1.0 / (nu + 1.0), nu / (nu + 1.0)
            p = float(rng.uniform(lo + 0.02, hi - 0.02))
            q = 1.0 - p
            mu_p = (nu * p - q) / (nu - 1.0)
            v1 = ((nu + 1.0) * q * mu_p - mu_p**2) / nu
            v2 = (nu**2 * p * q - nu * (p**2 + q**2) + p * q) / (nu - 1.0) ** 2
            assert abs(v1 - v2) <= 1e-12

    def test_matches_full_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            nu = float(rng.uniform(1.3, 5.0))
            lo, hi = 1.0 / (nu + 1.0), nu / (nu + 1.0)
            p = float(rng.uniform(lo + 0.03, hi - 0.03))
            a = float(rng.uniform(-3.0, 0.0))
            b = a + float(rng.uniform(0.5, 4.0))
            cf = two_point_closed_form(a, b, p, nu)
            est = solve_oned(sample1d([a, b], [1 - p, p]), nu)
            assert abs(cf.mu - est.mu) <= 1e-7
            assert abs(cf.sigma - est.sigma) <= 1e-7


class TestBoundaryRate:
    def test_square_root_rate(self):
        nu = 2.0
        out = dict(boundary_rate_probe(nu, [1e-2, 1e-4]))
        ratio_coarse = out[1e-2] / np.sqrt(1e-2 / (nu - 1.0))
        ratio_fine = out[1e-4] / np.sqrt(1e-4 / (nu - 1.0))
        assert abs(ratio_fine - 1.0) <= 0.01
        assert abs(ratio_fine - 1.0) <= abs(ratio_coarse - 1.0)

    def test_continuity_into_boundary(self):
        nu = 2.0
        sigmas = [s for _, s in boundary_rate_probe(nu, [1e-2, 1e-3, 1e-4, 1e-5])]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] <= 5e-3

    def test_one_sided_quotients_of_variance(self):
        # right quotient tends to 1/(nu-1); the left side is frozen at 0
        nu = 2.0
        eps = 1e-5
        sigma = dict(boundary_rate_probe(nu, [eps]))[eps]
        right = sigma**2 / eps
        assert abs(right - 1.0 / (nu - 1.0)) <= 0.02 / (nu - 1.0)
        p_past = nu / (nu + 1.0) + eps / (nu + 1.0)  # beyond the boundary
        est = two_point_closed_form(0.0, 1.0, p_past, nu)
        assert est.sigma == 0.0


TIED_LAWS = st.tuples(
    st.integers(2, 11),                # atoms before merging
    st.integers(0, 2**32 - 1),
    st.floats(1.05, 8.0),              # nu
)


def _tied_law(m, seed):
    """Integer atoms in [-5, 5], so points often coincide, with Dirichlet weights."""
    rng = np.random.default_rng(seed)
    return sample1d(rng.integers(-5, 6, m), rng.dirichlet(np.ones(m)))


class TestTiedLaws:
    """On tied, weighted laws the profile is flat below roundoff near its minimum."""

    @settings(max_examples=300, deadline=None)
    @given(TIED_LAWS)
    def test_critical_point(self, law):
        m, seed, nu = law
        q = _tied_law(m, seed)
        est = solve_oned(q, nu)
        if est.boundary:
            assert max_atom(q)[1] >= nu / (nu + 1.0) - EQ_TOL
            return
        x, w = q.points[:, 0], q.weights
        d2 = (x - est.mu) ** 2
        F = float(w @ (d2 / (nu * est.sigma**2 + d2)))
        assert abs(_profile_derivative(q, est.mu, nu)) * est.sigma <= 1e-11
        assert abs(F - 1.0 / (nu + 1.0)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(TIED_LAWS)
    def test_profile_minimum(self, law):
        m, seed, nu = law
        q = _tied_law(m, seed)
        est = solve_oned(q, nu)
        if est.boundary:
            return

        def profile(mu):
            return profile_objective(q, mu, sigma_of_mu(q, mu, nu), nu)

        base = profile(est.mu)
        for step in (-1e-3, 1e-3):
            assert profile(est.mu + step * est.sigma) >= base


def _multiscale_law(seed):
    """2 to 7 atoms of random sign at scales 10^U(-16, 3), Dirichlet weights, nu in {1.05, 1.5, 2, 3, 10}."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 8))
    x = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-16.0, 3.0, k)
    return sample1d(x, rng.dirichlet(np.ones(k))), float(rng.choice([1.05, 1.5, 2.0, 3.0, 10.0]))


class TestMultiScaleLaws:
    """Atoms far closer together than the spread of the law: 1e-12 times the spread need not bracket sigma."""

    BIG_ATOM_NEAR_GAP = sample1d([0.0, 1e-14, 1.0], [0.7, 0.2, 0.1])  # inside the domain at nu = 3

    def test_near_gap_law(self, tmp_path):
        q = self.BIG_ATOM_NEAR_GAP
        assert sigma_of_mu(q, 0.0, 3.0) == pytest.approx(1e-14 / 3.0, rel=1e-12)
        est = solve_oned(q, 3.0)
        assert not est.boundary and est.sigma > 0.0
        path = tmp_path / "near_gap.csv"
        path.write_text("0\n" * 7 + "1e-14\n" * 2 + "1\n", encoding="utf-8")
        out = tmp_path / "envelope.json"
        assert cli.main(["oned", str(path), "--nu", "3", "--output", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8"))["payload"]["boundary"] is False

    def test_seeded_sweep(self):
        solved = 0
        for seed in range(400):
            q, nu = _multiscale_law(seed)
            est = solve_oned(q, nu)
            if est.boundary:
                continue
            x, w = q.points[:, 0], q.weights
            d2 = (x - est.mu) ** 2
            assert abs(float(w @ (d2 / (nu * est.sigma**2 + d2))) - 1.0 / (nu + 1.0)) <= 1e-12
            solved += 1
        assert solved >= 300


class TestProfileObjective:
    def test_reference_point(self):
        rng = np.random.default_rng(19)
        q = sample1d(rng.standard_normal(10))
        assert profile_objective(q, 0.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-14)


EPS = float(np.finfo(float).eps)


def _outcome(solver, f, a, b, xtol=2e-12, rtol=4 * EPS, maxiter=100):
    """The root, or the exception type and message, of one bracketed search."""
    try:
        return solver(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def scipy_brentq(f, a, b, xtol, rtol, maxiter):
    return brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


class TestBrentq:
    """``_brentq`` returns SciPy's ``brentq`` root bit for bit, or raises its exception."""

    @pytest.mark.parametrize("f, a, b", [
        # secant first, then inverse quadratic steps, short steps and a bisection
        (lambda x: x**3 - 0.3, 0.0, 1.0),
        (lambda x: math.exp(3.0 * x) - 2.0, -2.0, 1.5),
        # the same cubic scaled so that the quadratic step's denominator
        # underflows to 0: C's step is nan there and it bisects
        (lambda x: 1e-300 * (x**3 - 0.3), 0.0, 1.0),
        (lambda x: 1e-170 * (x**3 - 0.3), 0.0, 1.0),
        # equal consecutive f values: no interpolation, bisection only
        (lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0),
        (lambda x: -1.0 if x < 0.8 else 1.0, 1.0, 0.0),
        # a flat stretch followed by a line
        (lambda x: max(-1.0, 8.0 * (x - 0.75)), 0.0, 1.0),
        # an exact zero at either end, +0.0 or -0.0, is returned at once
        (lambda x: x, 0.0, 1.0),
        (lambda x: x - 1.0, 0.0, 1.0),
        (lambda x: -0.0 if x == 1.0 else x - 2.0, 0.0, 1.0),
        # -0.0 inside the bracket stops the search
        (lambda x: -0.0 if abs(x - 0.3) < 1e-3 else x - 0.3, 0.0, 1.0),
        # subnormal ends, whose product underflows: the sign bits decide
        (lambda x: 5e-324 if x > 0.5 else -5e-324, 0.0, 1.0),
    ])
    def test_matches_scipy(self, f, a, b):
        got = _outcome(_brentq, f, a, b)
        assert got == _outcome(scipy_brentq, f, a, b)
        assert isinstance(got, float)

    @pytest.mark.parametrize("xtol, rtol, maxiter", [(1e-300, 8 * EPS, 300), (1e-3, 4 * EPS, 200), (2e-12, 1e-6, 100)])
    def test_tolerances_match_scipy(self, xtol, rtol, maxiter):
        f = lambda x: math.tanh(5.0 * (x - 0.123))
        assert _outcome(_brentq, f, -1.0, 2.0, xtol, rtol, maxiter) == _outcome(scipy_brentq, f, -1.0, 2.0, xtol, rtol, maxiter)

    @pytest.mark.parametrize("f, maxiter, exc", [
        (lambda x: x + 3.0, 100, ValueError),                            # no sign change
        (lambda x: x**3 - 0.3, 3, RuntimeError),                         # iterations run out
        (lambda x: math.nan if x > 0.6 else x - 0.7, 100, ValueError),  # NaN at an end
        (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 100, ValueError),  # NaN inside
    ])
    def test_exceptions_match_scipy(self, f, maxiter, exc):
        got = _outcome(_brentq, f, 0.0, 1.0, maxiter=maxiter)
        assert got == _outcome(scipy_brentq, f, 0.0, 1.0, maxiter=maxiter)
        assert got[0] is exc


def _seeded_law(i):
    """Law i of 200: t(3), Cauchy, a tied integer lattice or rounded normals, and nu in [1.05, 10]."""
    rng = np.random.default_rng([23, i])
    n = int(rng.integers(2, 300))
    x = (rng.standard_t(3, n), rng.standard_cauchy(n), rng.integers(-3, 4, n).astype(float),
         np.round(rng.standard_normal(n), 1))[i % 4]
    w = rng.dirichlet(np.ones(n)) if i % 3 == 0 else None
    return sample1d(x, w), float(rng.uniform(1.05, 10.0))


class TestSolverMatchesBrentqOracle:
    """On laws of ordinary scale the solver is SciPy's ``brentq`` on the points as given, bit for bit."""

    def test_seeded_laws(self):
        laws = [_seeded_law(i) for i in range(200)]
        got = [solve_oned(q, nu) for q, nu in laws]
        assert got == [solve_oned_brentq(q, nu) for q, nu in laws]
        assert sum(not est.boundary for est in got) >= 150

    def test_sigma_of_mu(self):
        for i in range(0, 200, 7):
            q, nu = _seeded_law(i)
            x = q.points[:, 0]
            for mu in (float(np.median(x)), float(x.min()), 0.5 * float(x.max() + x.min())):
                try:
                    want = sigma_of_mu_brentq(q, mu, nu)
                except NoPositiveSolution:
                    with pytest.raises(NoPositiveSolution):
                        sigma_of_mu(q, mu, nu)
                    continue
                assert sigma_of_mu(q, mu, nu) == want


def _unit_law(seed, n):
    """n t(3) draws scaled by a power of two so that the largest |x| lies in [1/2, 1)."""
    x = np.random.default_rng(seed).standard_t(3, n)
    return np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1])


class TestExactScaling:
    """Points scaled by 2^k give exactly 2^k times the estimate, far beyond where (x - mu)^2 fits a double."""

    @pytest.mark.parametrize("k", [-560, -530, -500, 500, 530, 560])
    def test_power_of_two_scaling(self, k):
        x = _unit_law(0, 200)
        base = solve_oned(sample1d(x), 3.0)
        est = solve_oned(sample1d(np.ldexp(x, k)), 3.0)
        assert not est.boundary
        assert (est.mu, est.sigma) == (math.ldexp(base.mu, k), math.ldexp(base.sigma, k))

    @pytest.mark.parametrize("k", [-560, 560])
    def test_sigma_of_mu_scaling(self, k):
        x = _unit_law(1, 50)
        for mu in (0.0, 0.37, -0.9):
            want = math.ldexp(sigma_of_mu(sample1d(x), mu, 2.5), k)
            assert sigma_of_mu(sample1d(np.ldexp(x, k)), math.ldexp(mu, k), 2.5) == want
