import numpy as np
import pytest

from tscatter import (
    EmpiricalSample,
    NumericalBreakdown,
    ScatterConfig,
    asymptotic_cov_locscatter,
    asymptotic_cov_scatter,
    congruence_matrix,
    extract,
    extract_jacobian,
    hessian,
    solve_locscatter,
    solve_scatter,
    sym_basis,
    sym_dim,
    sym_to_vec,
    vec_to_sym,
)

from oracles import influence, sandwich_two_pass, sandwich_two_pass_locscatter, score


def four_point_law():
    pts = np.sqrt(2.0) * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    return EmpiricalSample(pts)


def axis_law(d):
    pts = np.vstack([np.sqrt(d) * np.eye(d), -np.sqrt(d) * np.eye(d)])
    return EmpiricalSample(pts)


def mean_score(sample, c_mat, nu):
    """Gradient of the objective in concentration coordinates, by direct sum."""
    a = np.linalg.inv(c_mat)
    d = sample.d
    out = np.zeros_like(a)
    for y, w in zip(sample.points, sample.weights):
        s = float(y @ c_mat @ y)
        out += w * (-a / 2.0 + (nu + d) * np.outer(y, y) / (2.0 * (nu + s)))
    return out


class TestScore:
    def test_zero_point(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(score(np.zeros(2), a, 2.0), -a / 2.0, atol=1e-14)

    def test_four_point_scores_sum_to_zero(self):
        q = four_point_law()
        total = sum(w * score(y, np.eye(2), 2.0) for y, w in zip(q.points, q.weights))
        assert np.allclose(total, 0.0, atol=1e-14)

    def test_matches_concentration_finite_differences(self):
        # score is the gradient of the per-point adjusted loss in C = A^{-1}
        rng = np.random.default_rng(3)
        h = 1e-6
        nu = 2.5
        for _ in range(5):
            d = int(rng.integers(1, 4))
            y = rng.standard_normal(d)
            base = rng.standard_normal((d, d))
            c = base @ base.T + d * np.eye(d)

            def loss(cm):
                sign, logdet = np.linalg.slogdet(cm)
                return -0.5 * logdet + 0.5 * (nu + d) * np.log(nu + y @ cm @ y)

            g = score(y, np.linalg.inv(c), nu)
            for i in range(d):
                for j in range(i, d):
                    e = np.zeros((d, d))
                    e[i, j] = e[j, i] = 1.0
                    fd = (loss(c + h * e) - loss(c - h * e)) / (2 * h)
                    assert abs(fd / (2.0 if i != j else 1.0) - g[i, j]) <= 1e-6


class TestHessian:
    def test_four_point_minimum_eigenvalue(self):
        q = four_point_law()
        H = hessian(q, np.eye(2), 2.0)
        assert abs(np.linalg.eigvalsh(H)[0] - 0.5) <= 1e-12
        assert np.allclose(H, H.T)

    def test_quadratic_form_at_identity_direction(self):
        # direct-sum oracle: vec(I)' H vec(I) = d - (nu+d) sum w t^2/(nu+t)^2
        rng = np.random.default_rng(5)
        q = EmpiricalSample(rng.standard_normal((30, 2)))
        nu = 2.0
        fit = solve_scatter(q, ScatterConfig(nu=nu))
        # change coordinates so the fitted matrix is the identity
        L = np.linalg.cholesky(fit.A.mat)
        z = q.points @ np.linalg.inv(L).T
        qz = EmpiricalSample(z, q.weights)
        H = hessian(qz, np.eye(2), nu)
        t = np.einsum("ij,ij->i", z, z)
        expected = 2.0 - (nu + 2.0) * float(qz.weights @ (t**2 / (nu + t) ** 2))
        v = sym_to_vec(np.eye(2))
        assert abs(v @ H @ v - expected) <= 1e-10

    def test_matches_finite_differences_of_mean_score(self):
        # the operator is normalized to twice the mean-score derivative,
        # matching the eigenvalue convention pinned by the boundary example
        rng = np.random.default_rng(7)
        h = 1e-6
        nu = 2.0
        for d in (1, 2, 3):
            q = EmpiricalSample(rng.standard_normal((20, d)))
            base = rng.standard_normal((d, d))
            a = base @ base.T + d * np.eye(d)
            c = np.linalg.inv(a)
            H = hessian(q, a, nu)
            for _ in range(3):
                delta = rng.standard_normal((d, d))
                delta = (delta + delta.T) / 2.0
                fd = (mean_score(q, c + h * delta, nu) - mean_score(q, c - h * delta, nu)) / (
                    2 * h
                )
                got = vec_to_sym(H @ sym_to_vec(delta))
                assert np.abs(got - 2.0 * fd).max() <= 1e-5

    def test_positive_definite_at_solutions(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            q = EmpiricalSample(rng.standard_normal((25, d)))
            nu = float(rng.uniform(0.8, 4.0))
            fit = solve_scatter(q, ScatterConfig(nu=nu))
            assert np.linalg.eigvalsh(hessian(q, fit.A, nu))[0] > 0.0

    def test_cauchy_schwarz_chain_at_identity_solutions(self):
        # (nu+d) sum w (z'Dz)^2/(nu+z'z)^2 <= |D|_F^2 when the identity solves q
        rng = np.random.default_rng(11)
        for q in (four_point_law(), axis_law(3)):
            nu, d = 2.0, q.d
            t = np.einsum("ij,ij->i", q.points, q.points)
            for _ in range(20):
                delta = rng.standard_normal((d, d))
                delta = (delta + delta.T) / 2.0
                vals = np.einsum("ij,jk,ik->i", q.points, delta, q.points)
                lhs = (nu + d) * float(q.weights @ (vals**2 / (nu + t) ** 2))
                assert lhs <= np.linalg.norm(delta) ** 2 + 1e-12


class TestInfluence:
    def test_centering(self):
        rng = np.random.default_rng(13)
        q = EmpiricalSample(rng.standard_normal((20, 2)))
        nu = 2.0
        fit = solve_scatter(q, ScatterConfig(nu=nu))
        hess = hessian(q, fit.A, nu)
        total = sum(
            w * influence(y, q, nu, fit=fit, hess=hess)
            for y, w in zip(q.points, q.weights)
        )
        assert np.linalg.norm(total) <= 1e-8

    def test_four_point_sample_value(self):
        # the score at sqrt(2) e1 lies in the 1/2 eigenspace, so the
        # contamination derivative is 2 H^{-1} score = 4 score = diag(2, -2)
        q = four_point_law()
        fit = solve_scatter(q, ScatterConfig(nu=2.0))
        y = np.sqrt(2.0) * np.array([1.0, 0.0])
        got = influence(y, q, 2.0, fit=fit)
        assert np.allclose(got, np.diag([2.0, -2.0]), atol=1e-10)
        assert np.allclose(got, 4.0 * score(y, fit.A, 2.0), atol=1e-10)

    def test_contamination_resolve_oracle(self):
        # re-solving the contaminated law matches the influence prediction to
        # first order, with the error dropping linearly in eps
        rng = np.random.default_rng(17)
        q = EmpiricalSample(rng.standard_normal((15, 2)))
        nu = 2.0
        cfg = ScatterConfig(nu=nu, tol_grad=1e-13, max_iter=4000)
        fit = solve_scatter(q, cfg)
        y = np.array([2.0, -1.0])
        pred = influence(y, q, nu, fit=fit)
        errs = {}
        for eps in (1e-3, 1e-4):
            w = np.concatenate([(1 - eps) * q.weights, [eps]])
            qc = EmpiricalSample(np.vstack([q.points, y[None, :]]), w)
            rc = solve_scatter(qc, cfg)
            errs[eps] = np.linalg.norm((rc.A.mat - fit.A.mat) / eps - pred)
        assert errs[1e-4] <= errs[1e-3] / 5.0


class TestScatterCov:
    def test_four_point_exact_matrix(self):
        # multinomial oracle: the fitted diagonal entries are 4 P1 - 1 and
        # 3 - 4 P1 with P1 the mass on the first axis, so the covariance of
        # sqrt(n) times the coordinate error is [[4,-4,0],[-4,4,0],[0,0,0]]
        cov = asymptotic_cov_scatter(four_point_law(), 2.0)
        expected = np.array([[4.0, -4.0, 0.0], [-4.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(cov.S, expected, atol=1e-9)
        assert cov.rank == 1

    def test_rank_one_dimensional(self):
        q = EmpiricalSample(np.array([[1.0], [2.0]]))
        cov = asymptotic_cov_scatter(q, 2.0)
        assert cov.S.shape == (1, 1)
        assert cov.rank == 1

    def test_rank_axis_laws(self):
        for d in (2, 3):
            cov = asymptotic_cov_scatter(axis_law(d), 2.0)
            assert cov.rank == d - 1

    def test_rank_full_for_generic_cloud(self):
        rng = np.random.default_rng(19)
        q = EmpiricalSample(rng.standard_normal((1000, 2)))
        cov = asymptotic_cov_scatter(q, 2.0)
        assert cov.rank == sym_dim(2)

    def test_psd(self):
        rng = np.random.default_rng(23)
        q = EmpiricalSample(rng.standard_normal((40, 3)))
        cov = asymptotic_cov_scatter(q, 1.5)
        assert np.linalg.eigvalsh(cov.S)[0] >= -1e-10

    def test_equivariance_under_linear_maps(self):
        rng = np.random.default_rng(29)
        q = EmpiricalSample(rng.standard_normal((30, 2)))
        nu = 2.0
        S0 = asymptotic_cov_scatter(q, nu).S
        for _ in range(5):
            m = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            mapped = EmpiricalSample(q.points @ m.T, q.weights)
            S1 = asymptotic_cov_scatter(mapped, nu).S
            jm = congruence_matrix(m)
            assert np.allclose(S1, jm @ S0 @ jm.T, rtol=1e-6, atol=1e-8)

    def test_uniform_class_eigenvalue_floor(self):
        # tail-controlled, well-conditioned laws admit an explicit lower bound
        # on the smallest curvature eigenvalue
        rng = np.random.default_rng(31)
        nu, d, M, delta = 2.0, 2, 3.0, 0.2
        K = M / np.sqrt(delta)
        alpha = delta**2 * nu / (4.0 * (nu + d) * (nu + K**2))
        floor = delta**2 * alpha
        checked = 0
        for _ in range(40):
            pts = rng.standard_normal((40, d))
            norms = np.linalg.norm(pts, axis=1, keepdims=True)
            pts = np.where(norms > M, pts * (M * 0.95) / norms, pts)
            q = EmpiricalSample(pts)
            fit = solve_scatter(q, ScatterConfig(nu=nu))
            eigs = np.linalg.eigvalsh(fit.A.mat)
            if max(eigs[-1], 1.0 / eigs[0]) >= 1.0 / delta:
                continue
            H = hessian(q, fit.A, nu)
            assert np.linalg.eigvalsh(H)[0] >= floor
            checked += 1
        assert checked >= 30


def t_cloud(rng, n, d, df):
    return EmpiricalSample(rng.standard_normal((n, d)) / np.sqrt(rng.chisquare(df, (n, 1)) / df))


SANDWICH_CASES = {
    "t2_d10": (lambda: t_cloud(np.random.default_rng(47), 2000, 10, 2.0), 1.0),
    "d1": (lambda: EmpiricalSample(np.random.default_rng(53).standard_normal((25, 1))), 2.0),
    "weighted_four_point": (lambda: EmpiricalSample(four_point_law().points, [0.4, 0.3, 0.2, 0.1]), 2.0),
    "axis_d3": (lambda: axis_law(3), 2.0),
    "nu_small_d4": (lambda: t_cloud(np.random.default_rng(59), 500, 4, 1.0), 0.1),
}


class TestSandwichAgainstTwoPass:
    """K read off the curvature's Gram matrix equals K from centred scores, up to roundoff."""

    @staticmethod
    def assert_agree(cov, S, rank):
        assert np.abs(cov.S - S).max() <= 1e-10 * np.abs(S).max()
        assert cov.rank == rank

    @pytest.mark.parametrize("case", sorted(SANDWICH_CASES))
    def test_scatter(self, case):
        make, nu = SANDWICH_CASES[case]
        q = make()
        fit = solve_scatter(q, ScatterConfig(nu=nu), check_domain=False)
        assert fit.converged
        self.assert_agree(asymptotic_cov_scatter(q, nu, fit=fit), *sandwich_two_pass(q, nu, fit))

    @pytest.mark.parametrize("case", sorted(SANDWICH_CASES))
    def test_locscatter(self, case):
        make, nu = SANDWICH_CASES[case]
        q = make()
        est = solve_locscatter(q, nu + 1.0, check_domain=False)
        assert est.converged
        self.assert_agree(asymptotic_cov_locscatter(q, nu + 1.0, fit=est), *sandwich_two_pass_locscatter(q, est))


class TestUnconvergedFit:
    def test_curvature_not_positive_definite_is_a_breakdown(self):
        # one step from the start the curvature of this cloud, thirty times
        # wider than tall, has a negative eigenvalue; the sandwich and the
        # influence function both need its Cholesky factor
        q = EmpiricalSample(np.random.default_rng(7).standard_normal((12, 2)) * [30.0, 1.0])
        fit = solve_scatter(q, ScatterConfig(nu=1.5, max_iter=1))
        assert not fit.converged
        assert np.linalg.eigvalsh(hessian(q, fit.A, 1.5))[0] < 0.0
        with pytest.raises(NumericalBreakdown, match="curvature is not positive definite"):
            asymptotic_cov_scatter(q, 1.5, fit=fit)
        with pytest.raises(NumericalBreakdown, match="curvature is not positive definite"):
            influence(q.points[0], q, 1.5, fit=fit)

    def test_asymmetric_sandwich_is_a_breakdown(self):
        # one step from the start on this flat cloud far from the origin the
        # lifted curvature is positive definite but so ill-conditioned that
        # the sandwich comes out visibly asymmetric: a numerical failure too
        q = EmpiricalSample(np.random.default_rng(3).standard_normal((12, 2)) * [1.0, 0.1] + [100.0, -200.0])
        est = solve_locscatter(q, 2.0, ScatterConfig(nu=2.0, max_iter=1), check_domain=False)
        assert not est.converged
        with pytest.raises(NumericalBreakdown, match="sandwich matrix asymmetry"):
            asymptotic_cov_locscatter(q, 2.0, fit=est)


class TestExtractJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        h = 1e-6
        for _ in range(10):
            d = int(rng.integers(1, 4))
            base = rng.standard_normal((d + 1, d + 1))
            a = base @ base.T + (d + 1) * np.eye(d + 1)
            jac = extract_jacobian(a)

            def theta(mat):
                sigma, mu, _ = extract(mat)
                return np.concatenate([mu, sym_to_vec(sigma)])

            for col, e in enumerate(sym_basis(d + 1)):
                fd = (theta(a + h * e) - theta(a - h * e)) / (2 * h)
                assert np.abs(jac[:, col] - fd).max() <= 1e-7


class TestLocScatterCov:
    def test_mu_block_full_rank(self):
        rng = np.random.default_rng(41)
        for d in (1, 2, 3):
            p = EmpiricalSample(rng.standard_normal((60, d)))
            cov = asymptotic_cov_locscatter(p, 2.0)
            mu_block = cov.S[:d, :d]
            sv = np.linalg.svd(mu_block, compute_uv=False)
            assert (sv > 1e-8 * sv[0]).sum() == d

    def test_symmetric_law_decouples_mu_from_sigma(self):
        # symmetric two-sided law on the line: no mu/sigma cross term
        p = EmpiricalSample(np.array([[-2.0], [-1.0], [1.0], [2.0]]))
        cov = asymptotic_cov_locscatter(p, 2.0)
        assert abs(cov.S[0, 1]) <= 1e-10

    def test_psd_and_shape(self):
        rng = np.random.default_rng(43)
        p = EmpiricalSample(rng.standard_normal((50, 2)))
        cov = asymptotic_cov_locscatter(p, 3.0)
        k = 2 + sym_dim(2)
        assert cov.S.shape == (k, k)
        assert np.linalg.eigvalsh(cov.S)[0] >= -1e-10


class TestTwoPointSanity:
    def test_locscatter_cov_matches_deltamethod_oracle(self):
        # d=1 two-point law: the estimate is a smooth function of the
        # single observed frequency, so the asymptotic variances follow from
        # the one-dimensional delta method on the closed forms
        nu = 2.0
        p = 0.5
        law = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([1 - p, p]))
        cov = asymptotic_cov_locscatter(law, nu)

        h = 1e-6

        def params(pp):
            q = 1 - pp
            mu = (nu * pp - q) / (nu - 1.0)
            sig2 = (nu**2 * pp * q - nu * (pp**2 + q**2) + pp * q) / (nu - 1.0) ** 2
            return np.array([mu, sig2])

        grad = (params(p + h) - params(p - h)) / (2 * h)
        var_p = p * (1 - p)
        expected = np.outer(grad, grad) * var_p
        assert np.allclose(cov.S, expected, rtol=1e-5, atol=1e-8)
