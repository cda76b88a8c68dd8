import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tscatter import (
    DomainViolation,
    EmpiricalSample,
    EnumerationBudgetError,
    NumericalBreakdown,
    ScatterConfig,
    asymptotic_cov_locscatter,
    check_locscat_domain,
    check_scatter_domain,
    contaminated_sampler,
    discrete_sampler,
    gaussian_sampler,
    run_clt_experiment,
    solve_locscatter,
    solve_scatter,
    sym_to_vec,
    t_sampler,
)
import tscatter
from tscatter import domain_check, scatter, simlab

from oracles import check_class_constraint, fit_loglog_slope, influence, run_consistency_sweep


def four_point_arrays():
    pts = np.sqrt(2.0) * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    return pts, np.full(4, 0.25)


class TestSamplers:
    def test_reproducible_streams(self):
        s = gaussian_sampler(np.zeros(2), np.eye(2), seed=42)
        a = s.draw(100, s.rng_for(3))
        b = s.draw(100, s.rng_for(3))
        assert np.array_equal(a, b)
        c = s.draw(100, s.rng_for(4))
        assert not np.array_equal(a, c)

    def test_t_sampler_is_heavy_tailed(self):
        s = t_sampler(2.0, np.zeros(1), np.eye(1), seed=7)
        x = s.draw(200_000, s.rng_for(0))[:, 0]
        g = gaussian_sampler(np.zeros(1), np.eye(1), seed=7).draw(
            200_000, s.rng_for(0)
        )[:, 0]
        assert np.mean(np.abs(x) > 4.0) > 5.0 * np.mean(np.abs(g) > 4.0)

    def test_discrete_sampler_frequencies(self):
        pts, w = four_point_arrays()
        s = discrete_sampler(pts, w, seed=0)
        draw = s.draw(40_000, s.rng_for(1))
        frac = np.mean((draw == pts[0]).all(axis=1))
        assert abs(frac - 0.25) < 0.01

    def test_discrete_sampler_takes_a_law_as_it_is(self):
        # the CSV law of `simulate` is the law the other commands fit: its
        # weights are not divided by their sum a second time
        w = np.random.default_rng(2).dirichlet(np.ones(7))
        q = EmpiricalSample(np.random.default_rng(3).standard_normal((7, 2)), w)
        s = discrete_sampler(q, None, seed=0)
        assert s.law is q and np.array_equal(s.law.weights, q.weights)

    def test_discrete_sampler_draws_as_choice_does(self):
        # the CDF built once gives, bit for bit, the draws of Generator.choice
        w = np.random.default_rng(4).dirichlet(np.ones(40))
        q = EmpiricalSample(np.random.default_rng(5).standard_normal((40, 3)), w)
        s = discrete_sampler(q.points, q.weights, seed=9)
        for replicate in range(200):
            rows = s.rng_for(replicate).choice(q.n, size=300, p=q.weights)
            assert np.array_equal(s.index(300, s.rng_for(replicate)), rows)
            assert np.array_equal(s.draw(300, s.rng_for(replicate)), q.points[rows])

    def test_contaminated_mixture(self):
        pts, w = four_point_arrays()
        base = discrete_sampler(pts, w, seed=0)
        cont = contaminated_sampler(base, 0.1, np.array([9.0, 9.0]))
        draw = cont.draw(50_000, cont.rng_for(2))
        frac = np.mean((draw == np.array([9.0, 9.0])).all(axis=1))
        assert abs(frac - 0.1) < 0.01

    def test_contaminated_discrete_law_is_exact(self):
        pts, w = four_point_arrays()
        base = discrete_sampler(pts, w, seed=0)
        cont = contaminated_sampler(base, 0.05, np.array([3.0, 0.0]))
        law = cont.law
        assert law is not None
        assert np.isclose(law.weights.sum(), 1.0)
        k = np.nonzero((law.points == np.array([3.0, 0.0])).all(axis=1))[0]
        assert np.isclose(law.weights[k[0]], 0.05)


class TestSamplerDraws:
    """Each sampler draws by its formula from the replicate's stream and holds its exact law."""

    MU, SIGMA, N = np.array([1.0, -2.0]), np.array([[2.0, 0.6], [0.6, 1.0]]), 64

    def formulas(self):
        pts, _ = four_point_arrays()
        w = np.array([0.4, 0.3, 0.2, 0.1])
        mu, L, n = self.MU, np.linalg.cholesky(self.SIGMA), self.N
        p = EmpiricalSample(pts, w).weights

        def gaussian(rng):
            return mu + rng.standard_normal((n, 2)) @ L.T

        def t(rng):
            z = rng.standard_normal((n, 2)) @ L.T
            return mu + z / np.sqrt(rng.chisquare(3.0, size=n) / 3.0)[:, None]

        def discrete(rng):
            return pts[rng.choice(4, size=n, p=p)]

        def contaminated(formula):
            def draw(rng):
                x = formula(rng)
                x[rng.random(n) < 0.2] = [9.0, 9.0]
                return x
            return draw

        return [
            (gaussian_sampler(mu, self.SIGMA, seed=5), gaussian),
            (t_sampler(3.0, mu, self.SIGMA, seed=5), t),
            (discrete_sampler(pts, w, seed=5), discrete),
            (contaminated_sampler(gaussian_sampler(mu, self.SIGMA, seed=5), 0.2, [9.0, 9.0]), contaminated(gaussian)),
            (contaminated_sampler(discrete_sampler(pts, w, seed=5), 0.2, [9.0, 9.0]), contaminated(discrete)),
        ]

    def test_draws_follow_their_formulas(self):
        for sampler, formula in self.formulas():
            assert sampler.dim == 2
            for rep in (0, 7):
                got = sampler.draw(self.N, sampler.rng_for(rep))
                want = formula(np.random.default_rng([5, rep]))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_scatter_matrix_is_factored_once_per_sampler(self, monkeypatch):
        samplers = [sampler for sampler, _ in self.formulas()]
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        for sampler in samplers:
            for rep in range(3):
                sampler.draw(self.N, sampler.rng_for(rep))
        assert calls == []

    def test_factories_factor_the_scatter_matrix_once(self, monkeypatch):
        # the draws use the Cholesky factor that as_spd holds, not a second one
        rng = np.random.default_rng(8)
        cholesky = np.linalg.cholesky
        for d in range(1, 7):
            M = rng.standard_normal((d, d + 2))
            sigma, mu = (M @ M.T + (M @ M.T).T) / 2.0, rng.standard_normal(d)
            L = cholesky(sigma)
            factories = [
                (lambda: gaussian_sampler(mu, sigma, seed=5), lambda r: mu + r.standard_normal((50, d)) @ L.T),
                (lambda: t_sampler(3.0, mu, sigma, seed=5),
                 lambda r: mu + (r.standard_normal((50, d)) @ L.T) / np.sqrt(r.chisquare(3.0, size=50) / 3.0)[:, None]),
            ]
            for factory, formula in factories:
                calls = []
                with monkeypatch.context() as mp:
                    mp.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
                    sampler = factory()
                assert len(calls) == 1
                got = sampler.draw(50, sampler.rng_for(2))
                assert got.tobytes() == formula(np.random.default_rng([5, 2])).tobytes()

    def test_exact_laws_are_built_once(self):
        pts, _ = four_point_arrays()
        w = np.array([0.4, 0.3, 0.2, 0.1])
        gaussian, t, discrete, mixed, cont = [sampler for sampler, _ in self.formulas()]
        assert gaussian.law is None and t.law is None and mixed.law is None
        want = EmpiricalSample(pts, w)
        assert discrete.law.weights.tobytes() == want.weights.tobytes()
        merged = EmpiricalSample(np.vstack([pts, [[9.0, 9.0]]]), np.append(0.8 * want.weights, 0.2)).merged()[0]
        assert cont.law.points.tobytes() == merged.points.tobytes()
        assert cont.law.weights.tobytes() == merged.weights.tobytes()


@st.composite
def ks_columns(draw):
    # n >= 2 values drawn from a pool of at most n, so ties are common, at scales 1e-6 to 1e6
    n = draw(st.integers(2, 80))
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=n))
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return 10.0 ** draw(st.integers(-6, 6)) * np.array(pool)[idx]


class TestNormalityStat:
    @staticmethod
    def assert_near_kstest(col):
        # Phi from libm's erfc, not a port of SciPy's ndtr: equal to a few ulps, not bit for bit
        want = stats.kstest(col, "norm", args=(col.mean(), col.std(ddof=1))).statistic
        assert abs(simlab._normality_stat(col, np.abs(col).max()) - want) <= 4 * np.finfo(float).eps

    @settings(max_examples=300, deadline=None)
    @given(ks_columns())
    def test_matches_kstest(self, col):
        if col.std(ddof=1) > 1e-12 * np.abs(col).max():
            self.assert_near_kstest(col)
        else:
            assert np.isnan(simlab._normality_stat(col, np.abs(col).max()))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_kstest_in_the_far_tail(self, sign):
        # a column of n - 1 equal values and one outlier standardizes the
        # outlier to z = (n - 1)/sqrt(n), the largest |z| a column can reach:
        # 44.7 at n = 2000, where Phi(-z) underflows to 0
        rng = np.random.default_rng(41)
        for col in (rng.standard_normal(2), rng.standard_normal(3), np.append(np.zeros(1999), 1.0)):
            self.assert_near_kstest(sign * col)

    def test_floor_is_relative_to_the_scale(self):
        # a column that varies by 1e-7 is a column, not roundoff, when the
        # job's errors are of that size too, and roundoff against errors of 1e6
        col = 2.0**-24 * np.random.default_rng(43).standard_normal(50)
        scale = np.abs(col).max()
        assert simlab._normality_stat(col, scale) == simlab._normality_stat(2.0**24 * col, 2.0**24 * scale)
        assert np.isnan(simlab._normality_stat(col, 1e6))
        assert np.isnan(simlab._normality_stat(np.zeros(50), 0.0))


class TestCltExperiment:
    def test_rejects_degenerate_inputs(self):
        pts, w = four_point_arrays()
        s = discrete_sampler(pts, w, seed=0)
        with pytest.raises(ValueError):
            run_clt_experiment(s, 2.0, n=100, reps=1)
        with pytest.raises(ValueError):
            run_clt_experiment(s, 2.0, n=100, reps=10, mode="bogus")

    def test_bit_identical_reports(self):
        pts, w = four_point_arrays()
        s = discrete_sampler(pts, w, seed=11)
        r1 = run_clt_experiment(s, 2.0, n=300, reps=40)
        r2 = run_clt_experiment(s, 2.0, n=300, reps=40)
        assert np.array_equal(r1.empirical_cov, r2.empirical_cov)
        assert np.array_equal(r1.normality_stat, r2.normality_stat, equal_nan=True)
        assert r1.existence_rate == r2.existence_rate

    def test_normality_stat_in_any_units(self):
        # the CI's 400-row t(3) law at nu = 2: its statistics were null at
        # scale 1e-7 when the roundoff floor held an absolute 1e-12
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        unit, tiny = (run_clt_experiment(discrete_sampler(EmpiricalSample(scale * Y), None, seed=0), 2.0, n=300, reps=150)
                      for scale in (1.0, 1e-7))
        assert np.isfinite(unit.normality_stat).all() and np.isfinite(tiny.normality_stat).all()
        assert np.allclose(tiny.normality_stat, unit.normality_stat, rtol=0.0, atol=1e-9)

    def test_four_point_scatter_covariance(self):
        pts, w = four_point_arrays()
        s = discrete_sampler(pts, w, seed=5)
        rpt = run_clt_experiment(s, 2.0, n=500, reps=600)
        assert rpt.existence_rate == 1.0
        assert rpt.max_rel_err <= 0.25
        stats = [k for k in rpt.normality_stat if not np.isnan(k)]
        assert stats and max(stats) <= 0.06

    def test_locscatter_mode_matches_delta_method(self):
        # two-point law on the line: product terms of the lifted matrix feed
        # the (mu, sigma) covariance, validated against the analytic pushforward
        law = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        s = discrete_sampler(law.points, law.weights, seed=29)
        rpt = run_clt_experiment(s, 2.0, n=800, reps=600, mode="locscatter")
        target = asymptotic_cov_locscatter(law, 2.0).S
        assert np.allclose(rpt.target_cov.S, target)
        big = np.abs(target) > 0.05
        rel = np.abs(rpt.empirical_cov[big] - target[big]) / np.abs(target[big])
        assert rel.max() <= 0.25

    def test_near_boundary_law_is_flagged(self):
        pts, _ = four_point_arrays()
        w = np.array([0.372, 0.372, 0.128, 0.128])
        s = discrete_sampler(pts, w, seed=3)
        rpt = run_clt_experiment(s, 2.0, n=300, reps=50)
        assert rpt.existence_rate < 0.99
        assert any("near-boundary" in msg for msg in rpt.warnings)

    def test_surrogate_truth_flagged_for_continuous_targets(self):
        s = gaussian_sampler(np.zeros(1), np.eye(1), seed=13)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simlab, "SURROGATE_N", 20_000)
            rpt = run_clt_experiment(s, 2.0, n=300, reps=40, mode="locscatter")
        assert "surrogate truth from one n=20000 draw" in rpt.warnings


class TestStackedReplicates:
    def test_chunk_size_does_not_change_the_report(self, monkeypatch):
        # a near-boundary law, so stacks also hold replicates outside the domain;
        # each stack is fitted whole, off-domain replicates included
        pts, _ = four_point_arrays()
        s = discrete_sampler(pts, np.array([0.372, 0.372, 0.128, 0.128]), seed=3)
        n, reps = 300, 40
        stacks = []
        fit_and_check = simlab._fit_and_check

        def spy(points, weights, cfg):
            stacks[-1].append(points.shape[0])
            return fit_and_check(points, weights, cfg)

        monkeypatch.setattr(simlab, "_fit_and_check", spy)
        reports = {}
        for chunk in (1, 3, 40):
            monkeypatch.setattr(simlab, "STACK_BYTES", chunk * scatter._sample_bytes(n, 2))
            stacks.append([])
            reports[chunk] = run_clt_experiment(s, 2.0, n=n, reps=reps)
            assert max(stacks[-1]) <= chunk
            assert sum(stacks[-1]) == reps
        assert stacks[-1] == [reps]
        assert 0.0 < reports[40].existence_rate < 1.0
        ref = reports[40].empirical_cov
        for chunk in (1, 3):
            assert reports[chunk].existence_rate == reports[40].existence_rate
            assert np.abs(reports[chunk].empirical_cov - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 300), st.integers(1, 200))
    def test_stacks_are_even_and_within_the_cap(self, start, count, cap):
        reps = range(start, start + count)
        stacks = list(simlab._stacks(reps, cap))
        sizes = [len(stack) for stack in stacks]
        assert [rep for stack in stacks for rep in stack] == list(reps)
        assert len(stacks) == -(-count // cap)  # the fewest that fit the cap
        assert all(size <= cap for size in sizes)
        assert not sizes or max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    def test_a_job_of_150_replicates_runs_as_two_stacks(self, monkeypatch, mode):
        # 300 draws in 2-D (3-D lifted) from a 400-point t(3) law: within the
        # default budget, 150 replicates are two stacks of 75, not 139 and 11
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        s = discrete_sampler(law, None, seed=0)
        stacks, fit_and_check = [], simlab._fit_and_check

        def spy(points, weights, cfg):
            stacks.append(points.shape[0])
            return fit_and_check(points, weights, cfg)

        monkeypatch.setattr(simlab, "_fit_and_check", spy)
        cap = simlab.STACK_BYTES // scatter._sample_bytes(300, 2 + (mode == "locscatter"))
        got = simlab._replicate_thetas(s, ScatterConfig(nu=2.0), 300, mode, range(150))
        assert 75 <= cap < 150 and stacks == [75, 75]
        assert all(isinstance(theta, np.ndarray) for theta in got)

    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    def test_target_law_is_fitted_once(self, monkeypatch, mode):
        # the law has more atoms than any replicate, so its fits are recognisable
        rng = np.random.default_rng(41)
        law = EmpiricalSample(rng.standard_normal((30, 2)))
        s = discrete_sampler(law.points, law.weights, seed=43)
        calls = []
        for mod in (tscatter.scatter, tscatter.locscatter, tscatter.asymptotics, simlab):
            if hasattr(mod, "solve_scatter"):
                orig = getattr(mod, "solve_scatter")

                def counted(sample, *args, _orig=orig, **kwargs):
                    calls.append(sample.n)
                    return _orig(sample, *args, **kwargs)

                monkeypatch.setattr(mod, "solve_scatter", counted)
        run_clt_experiment(s, 3.0, n=12, reps=4, mode=mode)
        assert calls.count(law.n) == 1


def stacks_fitted(monkeypatch, sampler, n, mode, reps):
    """The (points, weights) of each stack that ``_replicate_thetas`` sends to ``_fit_and_check``."""
    stacks, fit_and_check = [], simlab._fit_and_check

    def spy(points, weights, cfg):
        stacks.append((points, weights))
        return fit_and_check(points, weights, cfg)

    monkeypatch.setattr(simlab, "_fit_and_check", spy)
    simlab._replicate_thetas(sampler, ScatterConfig(nu=2.0), n, mode, reps)
    return stacks


class TestCountWeightedReplicates:
    """A replicate of a discrete law is fitted as count weights on the support points it drew."""

    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    @pytest.mark.parametrize("law", ["t3", "four_point", "repeated"])
    def test_each_row_is_the_law_of_its_draw(self, monkeypatch, mode, law):
        # mc-d2's kind of law; the near-boundary four-point law, whose
        # replicates all draw the same four points; and a law listing one
        # point twice, whose two rows a replicate keeps apart
        rng = np.random.default_rng(11)
        if law == "t3":
            pts, w = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0), None
        elif law == "four_point":
            pts, w = four_point_arrays()[0], np.array([0.372, 0.372, 0.128, 0.128])
        else:
            pts = rng.standard_normal((6, 2))
            pts, w = np.vstack([pts, pts[2]]), np.full(7, 1 / 7)
        s, n = discrete_sampler(pts, w, seed=5), 300
        stacks = stacks_fitted(monkeypatch, s, n, mode, range(40))
        points = np.concatenate([p for p, _ in stacks])
        weights = np.concatenate([w for _, w in stacks])
        assert len(points) == 40 and points.shape[1] <= min(n, s.law.n)
        if mode == "locscatter":
            assert (points[:, :, 2] == 1.0).all()
        for rep, (row, row_w) in enumerate(zip(points[:, :, :2], weights)):
            want = EmpiricalSample(s.draw(n, s.rng_for(rep))).merged()[0]
            drawn = row_w > 0.0
            got_pts, got_w, _ = domain_check._merge(row[drawn], row_w[drawn])
            assert np.array_equal(got_pts, want.points)
            assert np.abs(got_w - want.weights).max() <= 4 * n * np.finfo(float).eps
            # padding copies the row's own last drawn point
            assert (row[~drawn] == row[drawn][-1]).all()

    def test_padding_keeps_the_exact_check_of_each_draw(self):
        # a far, light atom listed last: a replicate that does not draw it
        # gets the report of its raw draw, point tolerance included, where
        # a padding with the law's last point would scale the tolerance by 1e8
        rng = np.random.default_rng(12)
        pts = np.vstack([rng.standard_normal((12, 2)), [[1e8, 0.0]]])
        w = np.append(np.full(12, (1.0 - 1e-6) / 12), 1e-6)
        s, n = discrete_sampler(pts, w, seed=13), 40
        idx = np.stack([s.index(n, s.rng_for(rep)) for rep in range(30)])
        assert not (idx == 12).any()
        points, weights = simlab._drawn_support(s.law.points, idx)
        assert (weights == 0.0).any()
        for rep, (row, row_w) in enumerate(zip(points, weights)):
            draw = s.draw(n, s.rng_for(rep))
            assert domain_check._point_scale(row) == domain_check._point_scale(draw)
            for a0 in (2.5, 4.0):
                got = domain_check._check_exact(row, row_w, a0)
                want = domain_check._check_exact(draw, np.full(n, 1.0 / n), a0)
                assert (got.member, got.worst_subspace_dim, got.threshold) == \
                    (want.member, want.worst_subspace_dim, want.threshold)
                assert got.worst_mass == pytest.approx(want.worst_mass, abs=4 * n * np.finfo(float).eps)
                assert np.array_equal(row[list(got.witness_points)], draw[list(want.witness_points)])

    @pytest.mark.parametrize("kind", ["gaussian", "t", "contaminated", "hand-built"])
    def test_other_samplers_send_their_draws_at_uniform_weights(self, monkeypatch, kind):
        # no index into a support: n rows at 1/n each, as drawn
        if kind == "gaussian":
            s = gaussian_sampler(np.zeros(2), np.eye(2), seed=1)
        elif kind == "t":
            s = t_sampler(3.0, np.zeros(2), np.eye(2), seed=1)
        elif kind == "contaminated":
            s = contaminated_sampler(discrete_sampler(*four_point_arrays(), seed=1), 0.1, [0.5, 0.5])
        else:
            s = simlab.Sampler(1, 2, lambda n, rng: rng.standard_normal((n, 2)))
        assert s.index is None
        n = 50
        (points, weights), = stacks_fitted(monkeypatch, s, n, "scatter", range(6))
        assert np.array_equal(points, np.stack([s.draw(n, s.rng_for(rep)) for rep in range(6)]))
        assert (weights == 1.0 / n).all() and weights.shape == (6, n)


def replicates_one_at_a_time(sampler, cfg, n, mode, reps):
    """Oracle for ``simlab._replicate_thetas``: each replicate checked and fitted on its own.

    Per replicate: its estimate, None for a member whose fit did not
    converge, or False outside the domain.
    """
    out = []
    for rep in reps:
        q = EmpiricalSample(sampler.draw(n, sampler.rng_for(rep)))
        check = check_locscat_domain if mode == "locscatter" else check_scatter_domain
        if not check(q, cfg.nu + q.d).member:
            out.append(False)
        elif mode == "locscatter":
            est = solve_locscatter(q, cfg.nu, cfg, check_domain=False)
            out.append(np.concatenate([est.mu, sym_to_vec(est.Sigma.mat)]) if est.converged else None)
        else:
            fit = solve_scatter(q, cfg, check_domain=False)
            out.append(sym_to_vec(fit.A.mat) if fit.converged else None)
    return out


class TestStackedDomainChecks:
    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    @pytest.mark.parametrize("max_iter", [500, 4])
    def test_witness_decides_collapsed_replicates(self, monkeypatch, mode, max_iter):
        # a near-boundary law, so stacks hold replicates on both sides of the
        # domain. A replicate whose fit the collapse witness stopped is counted
        # outside with no enumeration, and at 500 steps that is every one
        # outside. At 4 steps some fits stop before the certificate or the
        # witness decides them, and only those replicates are enumerated, each
        # one on its own. Replicates are told apart by where their rows lie in
        # memory, not by their points: every replicate of this law draws the
        # same four points, at other counts
        pts, _ = four_point_arrays()
        s = discrete_sampler(pts, np.array([0.372, 0.372, 0.128, 0.128]), seed=3)
        n, cfg = 300, ScatterConfig(nu=2.0, max_iter=max_iter)
        want = replicates_one_at_a_time(s, cfg, n, mode, range(40))
        monkeypatch.setattr(simlab, "STACK_BYTES", 7 * scatter._sample_bytes(n, 2 + (mode == "locscatter")))
        stacks, collapsed, enumerated = [], set(), []
        solve, check = scatter._solve_stack, scatter._check_exact

        def solve_spy(points, weights, cfg):
            outcomes = solve(points, weights, cfg)
            stacks.append(points)  # kept alive, so that no later stack reuses its memory
            collapsed.update(p.ctypes.data for p, out in zip(points, outcomes) if isinstance(out, scatter._Collapse))
            return outcomes

        def check_spy(points, weights, a0):
            enumerated.append(points)
            return check(points, weights, a0)

        def alone(*args, **kwargs):
            raise AssertionError("a replicate was checked by the public check")

        monkeypatch.setattr(scatter, "_solve_stack", solve_spy)
        monkeypatch.setattr(scatter, "_check_exact", check_spy)
        monkeypatch.setattr(simlab, "check_scatter_domain", alone)
        monkeypatch.setattr(simlab, "check_locscat_domain", alone)
        got = simlab._replicate_thetas(s, cfg, n, mode, range(40))
        outside = sum(w is False for w in want)
        assert 0 < len(collapsed) <= outside
        assert all(points.shape[0] <= n and points.shape[1] == 2 + (mode == "locscatter") for points in enumerated)
        assert not collapsed & {points.ctypes.data for points in enumerated}
        if max_iter == 500:
            assert len(collapsed) == outside and not enumerated
        else:
            assert enumerated
        assert [type(g) for g in got] == [type(w) for w in want]
        for g, w in zip(got, want):
            if isinstance(w, np.ndarray):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_budget_refusal_names_its_replicate(self):
        # replicate 0 is accepted from its fit, replicate 1 (5 distinct
        # points) is enumerated and inside, and replicate 2 holds 2000
        # distinct points, past the subset budget: the refusal names
        # replicate 2, not its place among the replicates left to enumerate
        rng = np.random.default_rng(107)
        draws = iter([rng.standard_normal((2000, 3)), rng.standard_normal((5, 3))[np.arange(2000) % 5],
                      rng.standard_normal((2000, 3)) * [1.0, 30.0, 0.02]])
        s = simlab.Sampler(0, 3, lambda n, rng: next(draws))
        with pytest.raises(EnumerationBudgetError, match=r"^replicate 2: exact enumeration over 2000 distinct"):
            simlab._replicate_thetas(s, ScatterConfig(nu=1.0, max_iter=2), 2000, "scatter", range(3))

    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    def test_report_matches_checking_each_replicate_alone(self, monkeypatch, mode):
        pts, _ = four_point_arrays()
        s = discrete_sampler(pts, np.array([0.372, 0.372, 0.128, 0.128]), seed=4)
        got = run_clt_experiment(s, 2.0, n=300, reps=60, mode=mode)
        monkeypatch.setattr(simlab, "_replicate_thetas", replicates_one_at_a_time)
        want = run_clt_experiment(s, 2.0, n=300, reps=60, mode=mode)
        assert 0.0 < want.existence_rate < 1.0
        assert got.existence_rate == want.existence_rate
        ref = want.empirical_cov
        assert np.abs(got.empirical_cov - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    def test_failing_report_matches_checking_each_replicate_alone(self, monkeypatch, mode):
        # a draw of one point puts all its mass on a line (an atom, affinely)
        pts, w = four_point_arrays()
        s = discrete_sampler(pts, w, seed=6)
        with pytest.raises(DomainViolation) as got:
            run_clt_experiment(s, 2.0, n=1, reps=5, mode=mode)
        monkeypatch.setattr(simlab, "_replicate_thetas", replicates_one_at_a_time)
        with pytest.raises(DomainViolation) as want:
            run_clt_experiment(s, 2.0, n=1, reps=5, mode=mode)
        assert not want.value.report.member
        assert got.value.report == want.value.report


class TestCertificateOfTheFit:
    @pytest.mark.parametrize("mode", ["scatter", "locscatter"])
    def test_reads_the_fitted_arrays(self, monkeypatch, mode):
        # mc-d2's law: 150 replicates of 300 draws, two stacks of 75, every
        # one inside the domain. The certificate gets the arrays the solver
        # fitted; dividing the weights by their sum again would move them,
        # as 300 copies of 1/300 sum to 1 + 2.2e-16
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        s, cfg = discrete_sampler(law, None, seed=0), ScatterConfig(nu=2.0)
        fitted, certified = [], []
        solve, certify = scatter._solve_stack, scatter._certify_members

        def solve_spy(points, weights, cfg):
            fitted.append((points, weights))
            return solve(points, weights, cfg)

        def certify_spy(points, weights, A, a0):
            certified.append((points, weights))
            return certify(points, weights, A, a0)

        monkeypatch.setattr(scatter, "_solve_stack", solve_spy)
        monkeypatch.setattr(scatter, "_certify_members", certify_spy)
        got = simlab._replicate_thetas(s, cfg, 300, mode, range(150))
        assert len(fitted) == len(certified) == 2
        for (points, weights), (cert_points, cert_weights) in zip(fitted, certified):
            assert np.array_equal(cert_points, points) and np.array_equal(cert_weights, weights)
            assert not np.array_equal(weights / weights.sum(axis=1, keepdims=True), weights)
        # the certificate decides verdicts only: with the weights divided
        # again, every estimate comes out the same
        def divided_again(points, weights, A, a0):
            return certify(points, weights / weights.sum(axis=1, keepdims=True), A, a0)

        monkeypatch.setattr(scatter, "_certify_members", divided_again)
        want = simlab._replicate_thetas(s, cfg, 300, mode, range(150))
        assert all(isinstance(theta, np.ndarray) for theta in got)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestUnconvergedReplicates:
    @pytest.mark.parametrize("mode,max_iter", [("scatter", 3), ("locscatter", 4)])
    def test_are_left_out_and_counted(self, monkeypatch, mode, max_iter):
        # a 400-point t(3) law inside the domain: at these step limits some
        # replicate fits stop on max_iter; they count as members but are not
        # averaged into the covariance
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        s = discrete_sampler(law, None, seed=0)
        cfg = ScatterConfig(nu=2.0, max_iter=max_iter)
        want = replicates_one_at_a_time(s, cfg, 300, mode, range(40))
        got = simlab._replicate_thetas(s, cfg, 300, mode, range(40))
        assert [type(g) for g in got] == [type(w) for w in want]
        missing = sum(w is None for w in want)
        assert 0 < missing < 39
        rpt = run_clt_experiment(s, 2.0, n=300, reps=40, mode=mode, cfg=cfg)
        assert rpt.existence_rate == 1.0
        assert f"{missing} of 40 member replicate fits did not converge: left out" in rpt.warnings
        monkeypatch.setattr(simlab, "_replicate_thetas", replicates_one_at_a_time)
        ref = run_clt_experiment(s, 2.0, n=300, reps=40, mode=mode, cfg=cfg).empirical_cov
        assert np.abs(rpt.empirical_cov - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_too_few_converged_is_a_breakdown(self):
        # no replicate is off the domain, so this is no domain violation
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        s = discrete_sampler(law, None, seed=0)
        with pytest.raises(NumericalBreakdown, match="only 0 of 20 member replicate fits converged"):
            run_clt_experiment(s, 2.0, n=300, reps=20, cfg=ScatterConfig(nu=2.0, max_iter=1))


class TestContaminationBias:
    def test_bias_matches_influence_prediction(self):
        # moving eps mass to a fixed point shifts the functional by
        # eps * influence + O(eps^2); at eps = 1e-3 the ratio is within 10%
        pts, w = four_point_arrays()
        base = EmpiricalSample(pts, w)
        nu = 2.0
        eps = 1e-3
        y = np.array([4.0, 0.0])
        fit = solve_scatter(base, ScatterConfig(nu=nu, tol_grad=1e-13))
        pred = eps * influence(y, base, nu, fit=fit)

        cont_pts = np.vstack([pts, y[None, :]])
        cont_w = np.concatenate([(1 - eps) * w, [eps]])
        cont = EmpiricalSample(cont_pts, cont_w)
        exact_bias = (
            solve_scatter(cont, ScatterConfig(nu=nu, tol_grad=1e-13)).A.mat - fit.A.mat
        )
        assert np.linalg.norm(exact_bias - pred) <= 0.10 * np.linalg.norm(pred)

        # one large draw from the contaminated law lands near that shift
        sampler = contaminated_sampler(discrete_sampler(pts, w, seed=21), eps, y)
        n = 100_000
        draw = EmpiricalSample(sampler.draw(n, sampler.rng_for(0))).merged()[0]
        est = solve_scatter(draw, ScatterConfig(nu=nu)).A.mat
        stat_bias = est - fit.A.mat
        assert np.linalg.norm(stat_bias - pred) <= 5.0 * np.sqrt(8.0 / n)


class TestConsistencySweep:
    def test_requires_two_sizes(self):
        pts, w = four_point_arrays()
        s = discrete_sampler(pts, w, seed=0)
        with pytest.raises(ValueError):
            run_consistency_sweep(s, 2.0, [100], reps=5)

    def test_two_point_family_slope(self):
        law = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        s = discrete_sampler(law.points, law.weights, seed=31)
        pairs = run_consistency_sweep(s, 2.0, [400, 1600, 6400], reps=60, mode="locscatter")
        slope = fit_loglog_slope(pairs)
        assert -0.65 <= slope <= -0.35


class TestClassConstraint:
    def test_four_point_example(self):
        pts, w = four_point_arrays()
        q = EmpiricalSample(pts, w)
        assert check_class_constraint(q, M=2.0, delta=0.3, nu=2.0)

    def test_escaping_mass_fails(self):
        pts = np.array([[100.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
        q = EmpiricalSample(pts, np.array([0.5, 0.2, 0.2, 0.1]))
        assert not check_class_constraint(q, M=2.0, delta=0.3, nu=2.0)

    def test_norm_bound_holds_whenever_true(self):
        rng = np.random.default_rng(37)
        nu, d, M, delta = 2.0, 2, 3.0, 0.2
        hits = 0
        for _ in range(40):
            pts = rng.standard_normal((30, d)) * rng.uniform(0.4, 1.5)
            q = EmpiricalSample(pts)
            if check_class_constraint(q, M, delta, nu):
                fit = solve_scatter(q, ScatterConfig(nu=nu))
                top = np.linalg.eigvalsh(fit.A.mat)[-1]
                assert top <= M**2 * (nu + d - delta) / (delta * nu)
                hits += 1
        assert hits >= 20
