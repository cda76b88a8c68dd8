import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tscatter import (
    DomainViolation,
    EmpiricalSample,
    EnumerationBudgetError,
    NumericalBreakdown,
    ScatterConfig,
    ScatterResult,
    check_locscat_domain,
    check_scatter_domain,
    discrete_sampler,
    lift,
    solve_locscatter,
    solve_scatter,
    weight_u,
)
from tscatter import domain_check, scatter, simlab, symspace
from tscatter.scatter import solve_scatter_stack
from tscatter.symspace import SpdMatrix, sym_dim, sym_to_vec, symmetrize, vec_to_sym

from oracles import gradient, objective, outer_gram_einsum, scale_start_loop, solve_scatter_mm


def four_point_law():
    pts = np.sqrt(2.0) * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    return EmpiricalSample(pts)


def axis_law(d):
    """Uniform mass on +-sqrt(d) e_j; the fitted scatter matrix is the identity."""
    pts = np.vstack([np.sqrt(d) * np.eye(d), -np.sqrt(d) * np.eye(d)])
    return EmpiricalSample(pts)


def random_in_domain(rng, n, d):
    return EmpiricalSample(rng.standard_normal((n, d)))


def _line_law():
    # 3/4 of the mass on a line through the origin, the threshold at nu = 2
    return EmpiricalSample(np.vstack([np.outer(np.arange(1.0, 7.0), [0.6, 0.8]), [[1.0, -2.0], [-3.0, 0.5]]]))


def _t2_cloud(n, d, seed):
    rng = np.random.default_rng(seed)
    return EmpiricalSample(rng.standard_normal((n, d)) / np.sqrt(rng.chisquare(2.0, (n, 1)) / 2.0))


def _newton_inputs(q, B, nu):
    """What the solver loop hands _newton_candidates at the iterate B, as a stack of one."""
    L = np.linalg.cholesky(B)[None]
    Z, w = np.linalg.solve(L, q.points.T[None]), q.weights[None]
    s = np.einsum("rin,rin->rn", Z, Z)
    M = (Z * (w * (nu + q.d) / (nu + s))[:, None, :]) @ np.swapaxes(Z, 1, 2)
    return L, Z, s, w, (M + np.swapaxes(M, 1, 2)) / 2.0


def assert_monotone(trace):
    trace = np.array(trace)
    assert (np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))).all()


class TestScatterConfig:
    """Settings that are not finite, or a step count that is not an integer, are refused."""

    def test_refuses_an_infinite_gradient_tolerance(self):
        # accepted, it stopped every fit at its start c I as converged
        with pytest.raises(ValueError, match="tol_grad"):
            ScatterConfig(nu=1.0, tol_grad=np.inf)

    def test_refuses_an_infinite_nu(self):
        # accepted, it broke every fit down at its first step
        with pytest.raises(ValueError, match="nu"):
            ScatterConfig(nu=np.inf)

    def test_refuses_a_fractional_step_count(self):
        with pytest.raises(ValueError, match="max_iter"):
            ScatterConfig(nu=1.0, max_iter=2.5)
        assert solve_scatter(four_point_law(), ScatterConfig(nu=1.0, max_iter=np.int64(50))).converged


class TestWeightU:
    def test_at_zero(self):
        assert weight_u(0.0, 2.0, 2) == 2.0

    def test_direct_value(self):
        assert weight_u(2.0, 2.0, 2) == 1.0

    def test_su_increases_to_limit(self):
        s = np.logspace(-3, 8, 200)
        su = s * weight_u(s, 2.0, 2)
        assert (np.diff(su) > 0).all()
        assert su[-1] < 4.0
        assert su[-1] > 4.0 - 1e-6

    def test_decreasing(self):
        s = np.linspace(0, 50, 100)
        assert (np.diff(weight_u(s, 1.5, 3)) < 0).all()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight_u(-1.0, 2.0, 2)


class TestObjective:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(3)
        q = random_in_domain(rng, 20, 2)
        assert objective(q, np.eye(2), 2.0) == 0.0

    def test_single_point_scalar_oracle(self):
        # one point at y, A = 2: value is log(2)/2 + (3/2) log((2 + y^2/2)/(2 + y^2))
        q = EmpiricalSample(np.array([[1.0]]))
        expected = 0.5 * np.log(2.0) + 1.5 * np.log(2.5 / 3.0)
        assert np.isclose(objective(q, np.array([[2.0]]), 2.0), expected, atol=1e-14)
        assert np.isclose(expected, 0.0730912, atol=5e-8)

    def test_solution_beats_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            q = random_in_domain(rng, 30, 2)
            res = solve_scatter(q, ScatterConfig(nu=2.0))
            assert objective(q, res.A, 2.0) <= objective(q, np.eye(2), 2.0) + 1e-12


class TestGradient:
    def test_zero_at_four_point_solution(self):
        g = gradient(four_point_law(), np.eye(2), 2.0)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_point_mass_at_origin(self):
        q = EmpiricalSample(np.zeros((1, 2)))
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(gradient(q, a, 2.0), np.linalg.inv(a) / 2.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(5):
            d = int(rng.integers(1, 4))
            q = random_in_domain(rng, 15, d)
            base = rng.standard_normal((d, d))
            a = base @ base.T + d * np.eye(d)
            g = gradient(q, a, 2.5)
            for i in range(d):
                for j in range(i, d):
                    e = np.zeros((d, d))
                    e[i, j] = e[j, i] = 1.0
                    fd = (objective(q, a + h * e, 2.5) - objective(q, a - h * e, 2.5)) / (2 * h)
                    pairing = fd / (2.0 if i != j else 1.0)
                    assert abs(pairing - g[i, j]) <= 1e-6


class TestSolveScatter:
    def test_four_point_identity(self):
        res = solve_scatter(four_point_law(), ScatterConfig(nu=2.0))
        assert res.converged
        assert np.linalg.norm(res.A.mat - np.eye(2)) <= 1e-8

    def test_axis_law_identity_d3(self):
        res = solve_scatter(axis_law(3), ScatterConfig(nu=2.0))
        assert np.linalg.norm(res.A.mat - np.eye(3)) <= 1e-8

    def test_equivariance(self):
        rng = np.random.default_rng(11)
        q = random_in_domain(rng, 25, 2)
        cfg = ScatterConfig(nu=2.0, tol_grad=1e-12)
        base = solve_scatter(q, cfg).A.mat
        for _ in range(10):
            m = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            mapped = EmpiricalSample(q.points @ m.T, q.weights)
            got = solve_scatter(mapped, cfg).A.mat
            assert np.linalg.norm(got - m @ base @ m.T) <= 1e-8 * np.linalg.norm(got)

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(15)
        q = random_in_domain(rng, 30, 3)
        res = solve_scatter(q, ScatterConfig(nu=1.5))
        assert_monotone(res.objective_trace)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(16)
        q = random_in_domain(rng, 30, 2)
        cfg = ScatterConfig(nu=2.0)
        res = solve_scatter(q, cfg)
        assert res.converged
        assert res.fp_residual <= 10.0 * cfg.tol_grad * np.linalg.norm(res.A.mat)

    def test_domain_violation_raised(self):
        q = EmpiricalSample(np.zeros((1, 2)))
        with pytest.raises(DomainViolation) as exc:
            solve_scatter(q, ScatterConfig(nu=2.0))
        assert not exc.value.report.member

    def test_past_the_exact_check_budget(self):
        # 100 distinct points in d = 6 need more subsets than the exact
        # check's budget allows (48 points there); the certificate from the
        # fit accepts the law, and the fit is the one made without a check
        rng = np.random.default_rng(19)
        q = random_in_domain(rng, 100, 6)
        cfg = ScatterConfig(nu=1.5)
        with pytest.raises(EnumerationBudgetError):
            check_scatter_domain(q, cfg.nu + q.d)
        got, want = solve_scatter(q, cfg), solve_scatter(q, cfg, check_domain=False)
        assert np.array_equal(got.A.mat, want.A.mat)
        assert dataclasses.replace(got, A=None) == dataclasses.replace(want, A=None)

    def test_off_domain_fit_is_refused_with_the_exact_report(self):
        # the fit of a law with 3/4 of its mass on a line through the origin
        # (the threshold at nu = 2, d = 2) stops as converged, far out in
        # the cone; the certificate refuses it and the exact report is raised
        pts = np.vstack([np.outer(np.arange(1.0, 7.0), [0.6, 0.8]), [[1.0, -2.0], [-3.0, 0.5]]])
        q = EmpiricalSample(pts)
        with pytest.raises(DomainViolation) as exc:
            solve_scatter(q, ScatterConfig(nu=2.0))
        assert exc.value.report == check_scatter_domain(q, 4.0)

    def test_max_iter_returns_best_iterate(self):
        rng = np.random.default_rng(17)
        q = random_in_domain(rng, 30, 2)
        res = solve_scatter(q, ScatterConfig(nu=2.0, max_iter=2))
        assert not res.converged
        assert res.stop_reason == "max_iter"

    def test_zero_weight_points_dropped(self):
        q = four_point_law()
        padded = EmpiricalSample(
            np.vstack([q.points, [[5.0, 5.0]]]), np.append(q.weights, 0.0)
        )
        res = solve_scatter(padded, ScatterConfig(nu=2.0))
        assert np.linalg.norm(res.A.mat - np.eye(2)) <= 1e-8


    def test_witnesses_are_rows_of_the_sample(self):
        # the fit and the check both run on the sample without its zero-weight
        # rows, and the report names rows of the caller's sample: here the
        # first positive row on the x-axis
        pts = np.array([[0, 0], [5, 5], [1, 0], [2, 0], [3, 0], [4, 0], [0, 1]], dtype=float)
        q = EmpiricalSample(pts, np.array([0, 0, 1, 1, 1, 1, 0.2]) / 4.2)
        with pytest.raises(DomainViolation) as exc:
            solve_scatter(q, ScatterConfig(nu=1.0))
        want = check_scatter_domain(q, 3.0)
        assert want.witness_points == (2,)
        assert exc.value.report == want

    @pytest.mark.parametrize("functional", ["scatter", "locscatter"])
    @pytest.mark.parametrize("inside", [True, False])
    def test_one_certificate_through_the_shared_helper(self, monkeypatch, functional, inside):
        # each solve fits and certifies once, through scatter._fit_and_check,
        # and enumerates only when the certificate cannot accept
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(scatter, name, wrapped)

        for name in ("_fit_and_check", "_certify_members", "_check_exact"):
            spy(name, getattr(scatter, name))
        q = random_in_domain(np.random.default_rng(29), 30, 2)
        if not inside:
            # the line law is outside for both functionals at nu = 2; both
            # fits collapse onto that line, so there is no fit to certify
            q = _line_law()
        solve = functools.partial(solve_scatter, q, ScatterConfig(nu=2.0))
        if functional == "locscatter":
            solve = functools.partial(solve_locscatter, q, 2.0)
        if inside:
            solve()
        else:
            with pytest.raises(DomainViolation):
                solve()
        assert calls == ["_fit_and_check", "_certify_members" if inside else "_check_exact"]


class TestScaleIdentity:
    def test_gradient_trace_vanishes_at_identity_solutions(self):
        for q in (four_point_law(), axis_law(2), axis_law(3)):
            nu = 2.0
            g = gradient(q, np.eye(q.d), nu)
            assert abs(np.trace(g)) <= 1e-12


class TestNormBound:
    def test_tail_mass_implies_norm_bound(self):
        # if Q(|y| > M) <= (1-delta)/(nu+d) then ||A|| <= M^2 (nu+d-delta)/(delta nu)
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            nu = float(rng.uniform(1.0, 4.0))
            delta = float(rng.uniform(0.1, 0.6))
            M = float(rng.uniform(1.5, 4.0))
            n = 40
            allowed = (1.0 - delta) / (nu + d)
            n_out = int(np.floor(allowed * n))
            inside = rng.standard_normal((n - n_out, d))
            inside *= (M * rng.uniform(0.05, 0.95, size=(n - n_out, 1))) / np.linalg.norm(
                inside, axis=1, keepdims=True
            )
            parts = [inside]
            if n_out:
                out = rng.standard_normal((n_out, d))
                out *= (M * rng.uniform(1.5, 4.0, size=(n_out, 1))) / np.linalg.norm(
                    out, axis=1, keepdims=True
                )
                parts.append(out)
            q = EmpiricalSample(np.vstack(parts))
            tail = q.weights[np.linalg.norm(q.points, axis=1) > M].sum()
            assert tail <= allowed + 1e-12
            res = solve_scatter(q, ScatterConfig(nu=nu, max_iter=3000))
            norm = np.linalg.eigvalsh(res.A.mat)[-1]
            assert norm <= M**2 * (nu + d - delta) / (delta * nu) + 1e-9
            checked += 1
        assert checked == 100


class TestBoundaryBlowup:
    def test_scaled_family_identity_and_growth(self):
        # mass p on +-c e_j plus an atom at 0; c^2 = nu/(2p(nu+d) - 1) makes
        # the identity the exact fixed point, and c^2 grows without bound as
        # p decreases to 1/(2(nu+d))
        nu, d = 2.0, 2
        lo = 1.0 / (2.0 * (nu + d))
        ps = [0.20, 0.17, 0.15, 0.14, 0.13]
        c2s = []
        for p in ps:
            c2 = nu / (2.0 * p * (nu + d) - 1.0)
            c = np.sqrt(c2)
            pts = np.vstack([np.zeros((1, d)), c * np.eye(d), -c * np.eye(d)])
            w = np.concatenate([[1.0 - 2 * d * p], np.full(2 * d, p)])
            q = EmpiricalSample(pts, w)
            res = solve_scatter(q, ScatterConfig(nu=nu))
            assert np.linalg.norm(res.A.mat - np.eye(d)) <= 1e-9
            c2s.append(c2)
        assert all(a < b for a, b in zip(c2s, c2s[1:]))
        assert ps[-1] > lo

    def test_unit_family_matches_closed_form(self):
        # with points fixed at +-e_j the solution is alpha I with
        # alpha = (2p(nu+d) - 1)/nu
        nu, d = 2.0, 2
        for p in (0.20, 0.16, 0.14):
            pts = np.vstack([np.zeros((1, d)), np.eye(d), -np.eye(d)])
            w = np.concatenate([[1.0 - 2 * d * p], np.full(2 * d, p)])
            q = EmpiricalSample(pts, w)
            res = solve_scatter(q, ScatterConfig(nu=nu, max_iter=5000))
            alpha = (2.0 * p * (nu + d) - 1.0) / nu
            assert np.linalg.norm(res.A.mat - alpha * np.eye(d)) <= 1e-8


class TestScaleFree:
    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_rescaled_data_converge(self, c):
        # the whitened gradient does not change with the units of the data,
        # so the fit of c X meets the same tolerance as the fit of X
        X = np.random.default_rng(21).standard_normal((300, 3))
        cfg = ScatterConfig(nu=1.0)
        target = c**2 * solve_scatter(EmpiricalSample(X), cfg, check_domain=False).A.mat
        res = solve_scatter(EmpiricalSample(c * X), cfg, check_domain=False)
        assert res.converged and res.stop_reason == "grad"
        assert np.linalg.norm(res.A.mat - target) <= 1e-8 * np.linalg.norm(target)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_step_counts_do_not_depend_on_units(self, c):
        # the start c I scales with the data, so the fit of c X takes the
        # steps of the fit of X: Newton steps and an MM fallback (a t(1)
        # cloud off the origin; centred, it takes Newton steps only)
        rng = np.random.default_rng(23)
        heavy = rng.standard_normal((200, 3)) / np.abs(rng.standard_normal((200, 1))) + [3.0, 0.0, 0.0]
        cfg = ScatterConfig(nu=1.0)
        unit = solve_scatter(EmpiricalSample(heavy), cfg)
        res = solve_scatter(EmpiricalSample(c * heavy), cfg)
        ref = solve_scatter_mm(EmpiricalSample(heavy), ScatterConfig(nu=1.0, tol_grad=1e-14, max_iter=5000), tol_step=1e-14)
        assert ref.stop_reason == "grad"
        assert res.converged
        assert (res.iterations, res.newton_steps) == (unit.iterations, unit.newton_steps)
        assert 0 < res.newton_steps < res.iterations
        assert np.linalg.norm(res.A.mat / c**2 - ref.A.mat) <= 1e-8 * np.linalg.norm(ref.A.mat)
        assert_monotone(res.objective_trace)

    def test_start_scale_is_settled_sample_by_sample(self):
        # c solves sum_i w_i (nu+d) t_i/(nu c + t_i) = d, so c I is the best
        # multiple of I; each sample's c is the same, bit for bit, alone and
        # in a stack with samples of other scales and with a law without a root
        rng = np.random.default_rng(29)
        Y = rng.standard_normal((4, 50, 3)) * np.array([1e-4, 1.0, 1e2, 1e5])[:, None, None]
        Y[3, 1:] = 0.0
        t = np.einsum("rnd,rnd->rn", Y, Y)
        w = np.full((4, 50), 1 / 50)
        c = scatter._scale_start(t, w, 1.5, 3)
        lhs = (w * 4.5 * t / (1.5 * c[:, None] + t)).sum(axis=1)
        assert np.allclose(lhs[:3], 3.0, rtol=1e-9, atol=0.0)
        assert c[3] == 1.0
        for i in range(4):
            assert scatter._scale_start(t[i : i + 1], w[i : i + 1], 1.5, 3)[0] == c[i]
        assert np.array_equal(scatter._scale_start(t[::-1], w, 1.5, 3), c[::-1])

    def test_start_scale_matches_the_newton_loop(self):
        # the closed-form first step and the compacted arrays change no bit of c
        rng = np.random.default_rng(31)
        for _ in range(200):
            R, n, d = rng.integers(1, 8), rng.integers(2, 40), rng.integers(1, 6)
            Y = rng.standard_normal((R, n, d)) * 10.0 ** rng.uniform(-5, 5, (R, 1, 1))
            Y[0, rng.integers(1, n + 1) :] = 0.0  # most of the first law on the origin, often without a root
            t = np.einsum("rnd,rnd->rn", Y, Y)
            w = rng.dirichlet(np.ones(n), size=R)
            nu = 10.0 ** rng.uniform(-2, 1)
            assert np.array_equal(scatter._scale_start(t, w, nu, d), scale_start_loop(t, w, nu, d))

    def test_law_without_a_scale_is_refused_quietly(self):
        # (nu + d) Q(y != 0) = 0.9 < d: the scale equation has no root, so
        # the start stays at I and nothing overflows on the way to the refusal
        q = EmpiricalSample(np.array([0.0, 1.0]), np.array([0.7, 0.3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation):
                solve_scatter(q, ScatterConfig(nu=2.0))


def _law(kind, d, n, dirichlet, seed):
    """A small weighted law of the named kind in R^d, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        pts = rng.standard_normal((n, d))
    elif kind == "lattice":
        # few distinct values, so points coincide
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:  # a location-scatter problem in R^{d-1}, lifted
        pts = lift(EmpiricalSample(rng.standard_normal((n, d - 1)))).points
    weights = rng.dirichlet(np.ones(n)) if dirichlet else None
    return EmpiricalSample(pts, weights)


LAWS = st.tuples(
    st.sampled_from(["gaussian", "lattice", "lifted"]),
    st.integers(1, 5),                 # dimension
    st.integers(1, 20),                # points beyond d
    st.booleans(),                     # Dirichlet weights instead of uniform
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),             # nu
)


class TestAgainstMmOracle:
    """Newton steps land on the limit of the plain MM iteration."""

    @settings(max_examples=100, deadline=None)
    @given(LAWS)
    def test_matches_mm_limit(self, case):
        self._check_mm_limit(case, exact_steps=False)

    @settings(max_examples=100, deadline=None)
    @given(LAWS)
    def test_matches_mm_limit_on_cg_steps(self, case):
        # conjugate gradients run to a relative residual of 1e-13 (or K
        # products) instead of the forcing rule: the near-exact Newton step
        self._check_mm_limit(case, exact_steps=True)

    @staticmethod
    def _check_mm_limit(case, exact_steps):
        kind, d, extra, dirichlet, seed, nu = case
        assume(kind != "lifted" or d >= 2)
        q = _law(kind, d, d + extra, dirichlet, seed)
        assume(check_scatter_domain(q, nu + d).member)
        ref = solve_scatter_mm(q, ScatterConfig(nu=nu, tol_grad=1e-13, max_iter=5000))
        # a law on which MM has not settled after 5000 steps has no reference
        assume(ref.stop_reason != "max_iter")
        # at the default tol_grad the gap to the limit is up to ~1e-8 for
        # nu near 0.05, where the curvature is small; 1e-12 leaves a margin
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "STEP_TOL", 1e-15)
            _check_majorizer_bounds(mp)
            if exact_steps:
                _solve_cg_steps_exactly(mp)
            res = solve_scatter(q, ScatterConfig(nu=nu, tol_grad=1e-12), check_domain=False)
        assert res.converged
        assert np.linalg.norm(res.A.mat - ref.A.mat) <= 1e-8 * np.linalg.norm(ref.A.mat)
        assert_monotone(res.objective_trace)

    @pytest.mark.parametrize("nu", [0.1, 5.0])
    def test_d10_newton_system_matches_einsum_oracle(self, nu):
        # fit-d10-sized steps (K = 55): at a relative residual of 1e-13 the
        # conjugate-gradient step is the solve of the Gram system summed by
        # einsum, and the default fit lands on the MM fixed point
        q = _t2_cloud(2000, 10, 71)
        ref = solve_scatter_mm(q, ScatterConfig(nu=nu, tol_grad=1e-13, max_iter=5000))
        assert ref.stop_reason != "max_iter"
        for B in (ref.A.mat, 1.5 * ref.A.mat + np.diag(np.diag(ref.A.mat))):
            _assert_cg_solves_gram_system([q], [B], nu, 1e-10)
        res = solve_scatter(q, ScatterConfig(nu=nu), check_domain=False)
        assert res.converged and res.newton_steps > 0
        assert np.linalg.norm(res.A.mat - ref.A.mat) <= 1e-8 * np.linalg.norm(ref.A.mat)
        assert_monotone(res.objective_trace)

    @pytest.mark.parametrize("shape", ["d1", "d2", "d3", "lifted_d4", "stack"])
    def test_small_newton_systems_match_einsum_oracle(self, shape):
        # small fits take conjugate-gradient steps too: away from the fit,
        # where I - M is not roundoff, the step at a relative residual of
        # 1e-13 is the Gram solve, alone and in a stack of samples
        nu = 1.5
        if shape == "lifted_d4":
            laws = [lift(_t2_cloud(44, 3, 89))]
        elif shape == "stack":
            laws = [_t2_cloud(300, 3, seed) for seed in (97, 101, 103, 107)]
        else:
            laws = [_t2_cloud(300, int(shape[1]), 109)]
        A = [solve_scatter(q, ScatterConfig(nu=nu), check_domain=False).A.mat for q in laws]
        _assert_cg_solves_gram_system(laws, [1.5 * a + np.diag(np.diag(a)) for a in A], nu, 1e-12)

    def test_cg_declines_an_indefinite_step(self):
        # at B = 1e-6 A every s_i is far past nu, so alpha (d + 2) nears
        # (nu + d)/d > 1: the elliptical preconditioner is not positive
        # definite and the Newton candidate is declined, with finite output;
        # in a stack beside a sample that takes a CG step, each sample's
        # candidate is the one it gets alone
        nu = 1.0
        q = _t2_cloud(2000, 10, 83)
        A = solve_scatter(q, ScatterConfig(nu=nu), check_domain=False).A.mat
        tiny, near = _newton_inputs(q, 1e-6 * A, nu), _newton_inputs(q, 1.2 * A, nu)
        _, _, s, w, _ = tiny
        g = (nu + q.d) * w / (nu + s) ** 2
        assert np.einsum("rn,rn->r", g, s * s)[0] / q.d > 1.0

        def candidates(L, Z, s, w, M):
            return scatter._newton_candidates(L, Z, s, w, nu, M)

        stacked = candidates(*(np.concatenate(parts) for parts in zip(tiny, near)))
        singles = [candidates(*tiny), candidates(*near)]
        assert stacked[3].tolist() == [False, True]
        for got in stacked[:3]:
            assert np.isfinite(got).all()
        for j, single in enumerate(singles):
            for got, want in zip(stacked, single):
                assert np.allclose(got[j], want[0], rtol=1e-12, atol=0.0)

    def test_cg_declines_a_direction_of_negative_curvature(self):
        # a fifth of the mass far out on the first axis, at B = I: the weight
        # (nu + d)/5 > 1 makes I - G indefinite along e1 e1', while the
        # elliptical preconditioner stays positive definite; CG meets
        # p'(I - G)p <= 0 and declines the step
        nu, d, n = 1.0, 10, 2000
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((n, d))
        Y[: n // 5] = 0.0
        Y[: n // 5, 0] = 1e3 * rng.choice([-1.0, 1.0], n // 5)
        q = EmpiricalSample(Y)
        _, Z, s, w, M = _newton_inputs(q, np.eye(d), nu)
        g = (nu + d) * w / (nu + s) ** 2
        assert 0.0 < np.einsum("rn,rn->r", g, s * s)[0] / d < 1.0
        D, ok = scatter._cg_steps(Z, s, g, np.eye(d) - M, np.array([0.5]))
        assert ok.tolist() == [False]
        assert not D.any()

    @pytest.mark.parametrize("nu", [3.0, 3.3, 3.83, 10.0])
    def test_near_coplanar_lifted_law_converges(self, nu):
        # five points in R^3 with Dirichlet weights, lifted: the least singular
        # value of the lifted points is 0.028 against 2.4 for the largest, and
        # cond(A) reaches 1e10 to 7e11. Re-whitening the data through a
        # refactored iterate on every step broke these fits down at nu = 3 and
        # 3.3 and stalled them at max_iter at 3.83 and 10; they take 26 to 28
        q = _law("lifted", 4, 5, True, 33245)
        assert check_scatter_domain(q, nu + q.d).member
        res = solve_scatter(q, ScatterConfig(nu=nu), check_domain=False)
        assert res.converged and res.iterations <= 40

    def test_small_nu_converges_within_default_max_iter(self):
        # near the Tyler limit: the MM iteration alone stops unconverged at 500
        q = EmpiricalSample(np.random.default_rng(25).standard_normal((2000, 5)))
        res = solve_scatter(q, ScatterConfig(nu=0.05), check_domain=False)
        assert res.converged
        assert res.iterations < 500

    def test_tied_lattices_near_the_tyler_limit_converge_quickly(self):
        # 13 points on {-2..2}^5 at nu = 0.05, near the Tyler limit, where MM
        # steps are slowest at setting the scale; the worst seed takes 16
        worst = 0
        for seed in range(300):
            q = EmpiricalSample(np.random.default_rng(seed).integers(-2, 3, size=(13, 5)).astype(float))
            if check_scatter_domain(q, 5.05).member:
                res = solve_scatter(q, ScatterConfig(nu=0.05), check_domain=False)
                assert res.converged
                worst = max(worst, res.iterations)
        assert worst <= 20


def _assert_cg_solves_gram_system(laws, iterates, nu, rtol):
    """_cg_steps at eta = 1e-13 on a stack of the laws at their iterates, against the einsum Gram solve."""
    inputs = [_newton_inputs(q, B, nu) for q, B in zip(laws, iterates)]
    _, Z, s, w, M = (np.concatenate(parts) for parts in zip(*inputs))
    d = Z.shape[1]
    g = (nu + d) * w / (nu + s) ** 2
    E = np.eye(d) - M
    D, ok = scatter._cg_steps(Z, s, g, E, np.full(len(laws), 1e-13))
    H = np.eye(sym_dim(d)) - outer_gram_einsum(np.swapaxes(Z, 1, 2), g)
    want = vec_to_sym(np.linalg.solve(H, sym_to_vec(E)[..., None])[..., 0])
    assert ok.all()
    for got, ref in zip(D, want):
        assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


def _solve_cg_steps_exactly(mp):
    """Make the solver's CG steps run to a relative residual of 1e-13 instead of its forcing rule."""
    cg_steps = scatter._cg_steps
    mp.setattr(scatter, "_cg_steps", lambda Z, s, g, E, eta: cg_steps(Z, s, g, E, np.full_like(eta, 1e-13)))


def _objective_rounding(sample, B, nu):
    """A bound on the rounding of the solver's n-term objective at the SpdMatrix B.

    (n + d + 16) eps (|(1/2) log det B| + sum_i w_i |rho terms|), the bound
    on a computed sum of Higham (Accuracy and Stability of Numerical
    Algorithms, 4.2), the rho terms being (nu + d)/2 (|log(nu + s_i)| +
    |log(nu + t_i)|): each log is rounded relative to its own size, not to
    that of the difference the sum takes, and the quadratic forms s_i carry
    a relative error of about d eps.
    """
    s = B.quad_forms(sample.points)
    t = np.einsum("ij,ij->i", sample.points, sample.points)
    terms = 0.5 * (nu + sample.d) * (np.abs(np.log(nu + s)) + np.abs(np.log(nu + t)))
    size = abs(0.5 * B.logdet()) + float(sample.weights @ terms)
    return (sample.n + sample.d + 16) * np.finfo(float).eps * size


def _check_majorizer_bounds(mp):
    """Make every solve check each step against U_k, the value of the MM majorizer at B_mm.

    U_k = Qh(B_k) + (1/2) log det M_k + (d - tr M_k)/2, with M_k the
    whitened MM image that ``_newton_candidates`` receives with the factor
    L_k of the iterate B_k, bounds the objective of the MM candidate, so each
    step must end at most U_k, up to roundoff. A solve's stack holds the
    samples still iterating, in order: at step k, those that took more than k
    steps. The objectives compared are computed n-term sums, so the check
    allows the rounding bound of both, :func:`_objective_rounding`, and no
    more. The oracle objective is evaluated through the factor L_k the loop
    holds: on the near-coplanar lifted law, where cond(B_k) reaches 1e10 to
    8e11, refactoring L_k L_k' moves it by up to 2.4e-8 relative.
    """
    solve, candidates = scatter._solve_stack, scatter._newton_candidates

    def checked(Y, w, cfg):
        received = []

        def spy(L, Z, s, wz, nu, M):
            received.append((L.copy(), M.copy()))
            return candidates(L, Z, s, wz, nu, M)

        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(scatter, "_newton_candidates", spy)
            outcomes = solve(Y, w, cfg)
        assert all(isinstance(out, ScatterResult) for out in outcomes)
        # each sample's iterates B_0 .. B_k .. and the one it stopped at
        iterates = [[] for _ in outcomes]
        for k, (L, _) in enumerate(received):
            going = [i for i, out in enumerate(outcomes) if out.iterations > k]
            assert len(going) == len(L)
            for i, Lk in zip(going, L):
                iterates[i].append(SpdMatrix._factored(symmetrize(Lk @ Lk.T), Lk))
        for i, out in enumerate(outcomes):
            iterates[i].append(out.A)
        for k, (_, M) in enumerate(received):
            going = [i for i, out in enumerate(outcomes) if out.iterations > k]
            for i, Mk in zip(going, M):
                trace = outcomes[i].objective_trace
                q = EmpiricalSample(Y[i], w[i])
                B, B_next = iterates[i][k], iterates[i][k + 1]
                assert objective(q, B, cfg.nu) == pytest.approx(trace[k], rel=1e-9, abs=1e-12)
                sign, logdet = np.linalg.slogdet(Mk)
                assert sign > 0
                bound = trace[k] + 0.5 * (logdet + q.d - np.trace(Mk))
                slack = _objective_rounding(q, B, cfg.nu) + _objective_rounding(q, B_next, cfg.nu)
                assert trace[k + 1] <= bound + slack
        return outcomes

    mp.setattr(scatter, "_solve_stack", checked)


def _assert_same_fit(got, want):
    assert got.stop_reason == want.stop_reason
    assert np.linalg.norm(got.A.mat - want.A.mat) <= 1e-10 * np.linalg.norm(want.A.mat)


STACKS = (
    st.sampled_from(["gaussian", "lattice", "lifted"]),
    st.integers(1, 5),                 # dimension
    st.integers(1, 20),                # points beyond d
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
    st.floats(0.05, 20.0),             # nu
    st.sampled_from([None, 1, 3, 8]),  # points per block of the weighted Gram sums; None for the default
)


def _gram_blocks(mp, d, width):
    """Make ``symspace._weighted_gram`` sum blocks of ``width`` points in dimension d."""
    mp.setattr(symspace, "CACHE_BYTES", 8 * (3 * d + 4) * width)


class TestStack:
    """One loop over a stack of samples, each iterating as if alone."""

    @settings(max_examples=100, deadline=None)
    @given(*STACKS)
    # an MM step ends 3.8e-15 above its bound U = -0.78, within the rounding of
    # the objective's sum but past an allowance of 16 eps max(1, |U|)
    @example(kind="lifted", d=2, extra=1, members=[(True, 21934)], nu=18.440485056741675, width=None)
    # the near-coplanar lifted law, whose fit broke down when each step re-whitened the data
    @example(kind="lifted", d=4, extra=1, members=[(True, 33245)], nu=3.0, width=None)
    def test_matches_single_solves(self, kind, d, extra, members, nu, width):
        self._check_single_solves(kind, d, extra, members, nu, width, exact_steps=False)

    @settings(max_examples=100, deadline=None)
    @given(*STACKS)
    @example(kind="lifted", d=4, extra=1, members=[(True, 33245)], nu=3.0, width=None)
    def test_matches_single_solves_on_cg_steps(self, kind, d, extra, members, nu, width):
        # near-exact CG steps: most samples run all K products and leave the
        # active stack on the product count rather than on their residual
        self._check_single_solves(kind, d, extra, members, nu, width, exact_steps=True)

    @staticmethod
    def _check_single_solves(kind, d, extra, members, nu, width, exact_steps):
        # with a block width, the Gram sums of stacked and single solves take several blocks
        assume(kind != "lifted" or d >= 2)
        laws = [_law(kind, d, d + extra, dirichlet, seed) for dirichlet, seed in members]
        laws = [q for q in laws if check_scatter_domain(q, nu + d).member]
        assume(laws)
        cfg = ScatterConfig(nu=nu)
        with pytest.MonkeyPatch.context() as mp:
            if width is not None:
                _gram_blocks(mp, d, width)
            _check_majorizer_bounds(mp)
            if exact_steps:
                _solve_cg_steps_exactly(mp)
            stacked = solve_scatter_stack(
                np.stack([q.points for q in laws]), np.stack([q.weights for q in laws]), cfg
            )
            singles = [solve_scatter(q, cfg, check_domain=False) for q in laws]
        assert len(stacked) == len(laws)
        for got, want in zip(stacked, singles):
            _assert_same_fit(got, want)
            assert (got.iterations, got.newton_steps) == (want.iterations, want.newton_steps)

    def test_mixed_stops_in_one_stack(self):
        # one shared max_iter: a sample that converges on Newton steps, one
        # that needs an MM fallback (heavy tails off the origin, in units
        # 1e3), and one too far from the origin to converge in time
        heavy = np.random.default_rng(23)
        heavy = heavy.standard_normal((200, 3)) / np.abs(heavy.standard_normal((200, 1)))
        laws = [
            EmpiricalSample(np.random.default_rng(3).standard_normal((200, 3))),
            EmpiricalSample(1e3 * (heavy + [3.0, 0.0, 0.0])),
            EmpiricalSample(heavy + [1e3, 0.0, 0.0]),
        ]
        cfg = ScatterConfig(nu=1.0, max_iter=8)
        stacked = solve_scatter_stack(
            np.stack([q.points for q in laws]), np.stack([q.weights for q in laws]), cfg
        )
        singles = [solve_scatter(q, cfg, check_domain=False) for q in laws]
        newton, fallback, capped = stacked
        assert newton.converged and newton.newton_steps == newton.iterations
        assert fallback.converged and 0 < fallback.newton_steps < fallback.iterations
        assert not capped.converged and capped.stop_reason == "max_iter"
        assert capped.iterations == cfg.max_iter
        for got, want in zip(stacked, singles):
            _assert_same_fit(got, want)
            assert got.iterations == want.iterations
            assert got.newton_steps == want.newton_steps
            assert_monotone(got.objective_trace)

    def test_roundoff_does_not_decide_the_step(self):
        # Dirichlet weights, and the same weights renormalised by
        # EmpiricalSample (off by ~1e-17): once the Newton and MM objectives
        # tie to roundoff, a strict Newton-below-MM test picks either, and
        # these fits took 10 steps against 8; they must take the same steps
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((40, 3))
        w = rng.dirichlet(np.ones(40))
        renormalised = EmpiricalSample(Y, w).weights
        assert not np.array_equal(renormalised, w)
        cfg = ScatterConfig(nu=0.7)
        raw = solve_scatter_stack(Y[None], w[None], cfg)[0]
        ren = solve_scatter_stack(Y[None], renormalised[None], cfg)[0]
        assert raw.converged and ren.converged
        assert raw.iterations == ren.iterations
        assert raw.newton_steps == ren.newton_steps

    def test_results_hold_the_factor_of_their_matrix(self):
        # each result is built from the loop's own iterate and Cholesky
        # factor: the factor must be the one the matrix has, bit for bit, on
        # stacks and on stacks of one, after Newton steps and after MM steps;
        # the cloud far from the origin takes MM steps only in its first three
        heavy = np.random.default_rng(23)
        heavy = heavy.standard_normal((200, 3)) / np.abs(heavy.standard_normal((200, 1)))
        Y = np.stack([np.random.default_rng(3).standard_normal((200, 3)), 1e3 * heavy, heavy + [1e3, 0.0, 0.0]])
        w = np.full(Y.shape[:2], 1.0 / 200)
        results = []
        for cfg in (ScatterConfig(nu=1.0), ScatterConfig(nu=1.0, max_iter=3)):
            results += solve_scatter_stack(Y, w, cfg)
            results += [solve_scatter_stack(Y[i : i + 1], w[i : i + 1], cfg)[0] for i in range(len(Y))]
        assert any(0 < r.newton_steps == r.iterations for r in results)   # Newton steps only
        assert any(r.newton_steps == 0 < r.iterations for r in results)   # MM steps only
        assert any(0 < r.newton_steps < r.iterations for r in results)
        for r in results:
            assert np.array_equal(r.A.chol, np.linalg.cholesky(r.A.mat))
            assert not r.A.mat.flags.writeable and not r.A.chol.flags.writeable

    def test_rejects_ragged_shapes(self):
        with pytest.raises(ValueError):
            solve_scatter_stack(np.ones((2, 5, 2)), np.full((2, 4), 0.25), ScatterConfig(nu=1.0))

    @pytest.mark.parametrize("case", ["weights sum to 3", "negative weight", "nan point", "inf point",
                                      "not a stack", "empty samples"])
    def test_rejects_what_empirical_sample_rejects(self, case):
        # the second sample of a stack of 50 normal points in 2-D: weights that
        # sum to 3 or hold a negative entry gave a "converged" fit, and a
        # point that is not finite a breakdown at the first step
        Y = np.random.default_rng(0).standard_normal((2, 50, 2))
        w = np.full((2, 50), 1 / 50)
        if case == "weights sum to 3":
            w[1] *= 3.0
        elif case == "negative weight":
            w[1, :2] = [-1 / 50, 3 / 50]
        elif case == "not a stack":
            Y, w = Y[0], w[0]
        elif case == "empty samples":
            Y, w = Y[:, :0], w[:, :0]
        else:
            Y[1, 7, 1] = np.nan if case == "nan point" else np.inf
        with pytest.raises(ValueError):
            solve_scatter_stack(Y, w, ScatterConfig(nu=2.0))


def _session_t3_law():
    # the first t(3) sample of the benchmark's session workload at seed 1:
    # at nu = 0.02 its fit falls back to the MM step on 4 of its 10 steps
    rng = np.random.default_rng([1, 3])
    Y = rng.standard_normal((40, 3)) / np.sqrt(rng.chisquare(3.0, 40) / 3.0)[:, None]
    return EmpiricalSample(Y * rng.uniform(0.5, 3.0, 3) + rng.uniform(-5.0, 5.0, 3))


class TestGramBlocks:
    """A fit whose weighted Gram sums take several blocks of points takes the one-block fit's steps."""

    @pytest.mark.parametrize("width", [7, 200])
    @pytest.mark.parametrize("nu", [0.1, 1.0, 5.0])
    def test_fit_in_blocks_matches_the_one_block_fit(self, nu, width):
        # 600 points: three blocks of 200, or 86 of 7; the heavy law in units
        # 1e3 takes MM fallbacks besides its Newton steps
        heavy = np.random.default_rng(23)
        heavy = heavy.standard_normal((600, 3)) / np.abs(heavy.standard_normal((600, 1)))
        for q in (_t2_cloud(600, 3, 17), EmpiricalSample(1e3 * (heavy + [3.0, 0.0, 0.0]))):
            cfg = ScatterConfig(nu=nu)
            want = solve_scatter(q, cfg)
            with pytest.MonkeyPatch.context() as mp:
                _gram_blocks(mp, q.d, width)
                got = solve_scatter(q, cfg)
            assert (got.iterations, got.newton_steps, got.stop_reason) == (
                want.iterations, want.newton_steps, want.stop_reason)
            assert np.linalg.norm(got.A.mat - want.A.mat) <= 1e-12 * np.linalg.norm(want.A.mat)


class TestHeldFactor:
    """Each step moves the held factor of the iterate; only a sample that falls back factors its MM image."""

    NU = 0.02
    # 40 normal points in 3-D, whose fit at nu = 0.02 takes Newton steps only
    NEWTON_ONLY = EmpiricalSample(np.random.default_rng(20).standard_normal((40, 3)))

    @staticmethod
    def _mm_factorizations(monkeypatch, laws):
        """Fit the stack of laws; return the fits and how many of each sample's MM images were factored."""
        received, factored = [], []
        candidates, cholesky = scatter._newton_candidates, scatter.spd_cholesky

        def spy_candidates(L, Z, s, w, nu, M):
            received.append((L.copy(), M.copy()))
            return candidates(L, Z, s, w, nu, M)

        def spy_cholesky(mats):
            factored.extend(np.array(mats))
            return cholesky(mats)

        monkeypatch.setattr(scatter, "_newton_candidates", spy_candidates)
        monkeypatch.setattr(scatter, "spd_cholesky", spy_cholesky)
        results = solve_scatter_stack(np.stack([q.points for q in laws]), np.stack([q.weights for q in laws]),
                                      ScatterConfig(nu=TestHeldFactor.NU))
        images = [[] for _ in results]  # each sample's whitened MM images M_k, step by step
        for k, (L, M) in enumerate(received):
            going = [i for i, res in enumerate(results) if res.iterations > k]
            for i, Lk, Mk in zip(going, L, M):
                # the factor the loop holds stays exactly lower triangular with a positive diagonal
                assert np.array_equal(np.tril(Lk), Lk) and (np.diag(Lk) > 0.0).all()
                images[i].append(Mk)
        return results, [sum(any(np.array_equal(m, Mk) for Mk in mine) for m in factored) for mine in images]

    def test_newton_only_fit_factors_no_mm_image(self, monkeypatch):
        (res,), (count,) = self._mm_factorizations(monkeypatch, [self.NEWTON_ONLY])
        assert res.converged and res.iterations == res.newton_steps == 6
        assert count == 0

    def test_only_the_falling_back_sample_factors_its_mm_image(self, monkeypatch):
        results, counts = self._mm_factorizations(monkeypatch, [self.NEWTON_ONLY, _session_t3_law()])
        assert [(res.iterations, res.newton_steps) for res in results] == [(6, 6), (10, 6)]
        assert counts == [res.iterations - res.newton_steps for res in results] == [0, 4]


class TestFitAndCheck:
    """``_fit_and_check`` decides each sample's membership: one outcome per sample."""

    @pytest.mark.parametrize("case", ["certified", "unconverged", "breakdown", "outside", "collapse", "refusal"])
    def test_one_decided_outcome(self, monkeypatch, case):
        # a member's fit (converged or not) or breakdown, an enumerated
        # outsider, a collapse the witness proves outside without enumeration,
        # and a refusal past the budget. At max_iter=2 the line law stops
        # before the witness can be asked, so it is enumerated
        q, cfg = {
            "certified": (random_in_domain(np.random.default_rng(29), 30, 2), ScatterConfig(nu=2.0)),
            "unconverged": (random_in_domain(np.random.default_rng(29), 30, 2), ScatterConfig(nu=2.0, max_iter=2)),
            "breakdown": (EmpiricalSample(np.random.default_rng(0).standard_normal((30, 2)) * [1e6, 1.0]),
                          ScatterConfig(nu=1.0)),
            "outside": (_line_law(), ScatterConfig(nu=2.0, max_iter=2)),
            "collapse": (EmpiricalSample(np.array([[0.0], [1.0]]), np.array([0.7, 0.3])), ScatterConfig(nu=2.0)),
            "refusal": (_line_law(), ScatterConfig(nu=2.0, max_iter=2)),
        }[case]
        if case == "refusal":
            monkeypatch.setattr(domain_check, "DEFAULT_BUDGET", 1)
        enumerated, check = [], scatter._check_exact

        def spy(*args):
            enumerated.append(args)
            return check(*args)

        monkeypatch.setattr(scatter, "_check_exact", spy)
        (outcome,) = scatter._fit_and_check(q.points[None], q.weights[None], cfg)
        if case in ("certified", "unconverged"):
            assert isinstance(outcome, ScatterResult) and outcome.converged == (case == "certified")
            assert case == "unconverged" or not enumerated
        elif case == "breakdown":
            assert type(outcome) is NumericalBreakdown and str(outcome).startswith("iterate left the SPD cone")
            assert enumerated and check_scatter_domain(q, 3.0).member
        elif case == "outside":
            assert type(outcome) is DomainViolation and outcome.report == check_scatter_domain(q, 4.0)
        elif case == "collapse":
            assert type(outcome) is scatter._Collapse and not enumerated
        else:
            assert type(outcome) is EnumerationBudgetError and enumerated


def _collapse_step(message, dim):
    # the iteration at which a fit stopped on a collapse onto a dim-subspace
    head, _, step = message.rpartition(" at iteration ")
    assert head.startswith(f"iterate collapsed onto a {dim}-subspace of mass "), message
    return int(step)


def _plane_law(seed):
    # 35 of 40 t(3) points on the plane z = 0: mass 7/8 on an affine plane,
    # past its threshold 5/6 at nu = 3 in R^3
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((40, 3)) / np.sqrt(rng.chisquare(3.0, (40, 1)) / 3.0)
    Y[:35, 2] = 0.0
    return EmpiricalSample(Y)


class TestCollapseStop:
    """Off-domain fits stop where the iterate collapses; in-domain fits do not change."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_plane_law_stops_within_8_steps(self, seed):
        # left the SPD cone after 36 to 38 steps without the stop
        q = _plane_law(seed)
        lifted = lift(q)
        (outcome,) = scatter._solve_stack(lifted.points[None], lifted.weights[None], ScatterConfig(nu=2.0))
        assert isinstance(outcome, scatter._Collapse) and _collapse_step(str(outcome), 3) <= 8
        with pytest.raises(DomainViolation) as exc:
            solve_locscatter(q, 3.0)
        assert exc.value.report == check_locscat_domain(q, 6.0)

    @pytest.mark.parametrize("nu", [0.5, 2.0])
    def test_big_atom_at_the_origin_stops_within_50_steps(self, nu):
        # 0.7 at the origin, past its threshold 1 - 1/(nu + 1): every step
        # shrinks the iterate, which took all 500 steps without the stop
        q = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([0.7, 0.3]))
        cfg = ScatterConfig(nu=nu)
        (outcome,) = scatter._solve_stack(q.points[None], q.weights[None], cfg)
        assert isinstance(outcome, scatter._Collapse) and _collapse_step(str(outcome), 0) <= 50
        with pytest.raises(DomainViolation) as exc:
            solve_scatter(q, cfg)
        assert exc.value.report == check_scatter_domain(q, nu + 1.0)
        # no fit comes out of a collapse, on any path
        with pytest.raises(NumericalBreakdown, match="collapsed onto a 0-subspace"):
            solve_scatter(q, cfg, check_domain=False)
        with pytest.raises(NumericalBreakdown, match="collapsed onto a 0-subspace"):
            solve_scatter_stack(q.points[None], q.weights[None], cfg)

    @pytest.mark.parametrize("scale,nu", [(10.0, 0.2), (100.0, 0.2), (1e4, 1.0)])
    def test_in_domain_fits_do_not_change(self, monkeypatch, scale, nu):
        # clouds much wider than tall: their iterates spread out steadily on
        # the way to the fit, so the witness is asked, and finds nothing
        q = EmpiricalSample(np.random.default_rng(7).standard_normal((30, 2)) * [scale, 1.0])
        cfg = ScatterConfig(nu=nu)
        tries, witness = [], scatter._collapse_witness

        def spy(*args):
            tries.append(witness(*args))
            return tries[-1]

        monkeypatch.setattr(scatter, "_collapse_witness", spy)
        got = solve_scatter(q, cfg)
        assert tries and not any(tries)
        monkeypatch.setattr(scatter, "COLLAPSE_STEPS", cfg.max_iter + 1)  # the solver without the stop
        want = solve_scatter(q, cfg)
        assert np.array_equal(got.A.mat, want.A.mat)
        assert (got.iterations, got.newton_steps, got.stop_reason, got.objective_trace) == (
            want.iterations, want.newton_steps, want.stop_reason, want.objective_trace)

    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    def test_monte_carlo_replicates_do_not_change(self, monkeypatch, mode):
        # the near-boundary four-point law: off-domain replicates now leave
        # their stacks early, and every outcome stays as it was, bit for bit
        pts = four_point_law().points
        s = discrete_sampler(pts, np.array([0.372, 0.372, 0.128, 0.128]), seed=3)
        cfg, reps = ScatterConfig(nu=2.0), range(40)
        got = simlab._replicate_thetas(s, cfg, 300, mode, reps)
        monkeypatch.setattr(scatter, "COLLAPSE_STEPS", cfg.max_iter + 1)
        want = simlab._replicate_thetas(s, cfg, 300, mode, reps)
        assert 0 < sum(isinstance(w, np.ndarray) for w in want) < len(reps)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.array_equal(g, w) if isinstance(w, np.ndarray) else g == w
