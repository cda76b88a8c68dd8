import numpy as np
import pytest

from tscatter import (
    DomainViolation,
    EmpiricalSample,
    NuOutOfRange,
    ScatterConfig,
    check_locscat_domain,
    lift,
    solve_locscatter,
    weight_u,
)

from oracles import direct_em_step, embed, objective, objective_locscat, two_point_closed_form


def two_point(p):
    return EmpiricalSample(np.array([[0.0], [1.0]]), np.array([1.0 - p, p]))


def random_in_domain(rng, n, d):
    return EmpiricalSample(rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0))


class TestTwoPointValues:
    def test_balanced(self):
        est = solve_locscatter(two_point(0.5), 2.0)
        assert abs(est.mu[0] - 0.5) <= 1e-9
        assert abs(est.Sigma.mat[0, 0] - 0.25) <= 1e-9

    def test_p06(self):
        # closed form: mu = (nu p - q)/(nu - 1) = 0.8, sigma^2 = 0.16
        est = solve_locscatter(two_point(0.6), 2.0)
        assert abs(est.mu[0] - 0.8) <= 1e-8
        assert abs(est.Sigma.mat[0, 0] - 0.16) <= 1e-8

    def test_symmetric_pm1(self):
        s = EmpiricalSample(np.array([[-1.0], [1.0]]))
        est = solve_locscatter(s, 2.0)
        assert abs(est.mu[0]) <= 1e-10
        assert abs(est.Sigma.mat[0, 0] - 1.0) <= 1e-9


class TestCertificates:
    def test_identity_checks_near_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            p = random_in_domain(rng, 25, d)
            est = solve_locscatter(p, 2.5)
            assert est.converged
            assert abs(est.gamma_check - 1.0) <= 1e-6
            assert abs(est.weight_check - 1.0) <= 1e-6

    def test_nu_out_of_range(self):
        with pytest.raises(NuOutOfRange):
            solve_locscatter(two_point(0.5), 1.0)
        with pytest.raises(NuOutOfRange):
            solve_locscatter(two_point(0.5), 0.7)

    def test_converges_near_the_big_atom_boundary(self):
        # mass (nu - eps)/(nu + 1) at 1 with eps = 1e-3: the lifted MM
        # iteration alone is still unconverged after 12,000 steps
        nu, eps = 3.0, 1e-3
        p = (nu - eps) / (nu + 1.0)
        est = solve_locscatter(two_point(p), nu)
        ref = two_point_closed_form(0.0, 1.0, p, nu)
        assert est.converged
        assert abs(est.mu[0] - ref.mu) <= 1e-6 * abs(ref.mu)
        assert abs(np.sqrt(est.Sigma.mat[0, 0]) - ref.sigma) <= 1e-6 * ref.sigma

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_step_test_does_not_stop_ill_conditioned_fits(self, eps):
        # closer to the boundary the lifted iterate is ill-conditioned; the
        # whitened step test lets it converge on the gradient
        nu = 3.0
        p = (nu - eps) / (nu + 1.0)
        est = solve_locscatter(two_point(p), nu)
        ref = two_point_closed_form(0.0, 1.0, p, nu)
        assert est.converged
        assert abs(np.sqrt(est.Sigma.mat[0, 0]) - ref.sigma) <= 1e-5 * ref.sigma
        assert abs(est.mu[0] - ref.mu) <= 1e-9 * abs(ref.mu)

    def test_boundary_rejected_before_iteration(self):
        # atom at 2/3 for nu=2 sits exactly on the affine threshold
        s = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([2.0 / 3.0, 1.0 / 3.0]))
        with pytest.raises(DomainViolation):
            solve_locscatter(s, 2.0)


    def test_witnesses_are_rows_of_the_sample(self):
        # 8 of 10 positive rows on the line y = 0, past the threshold 3/4 at
        # nu = 2; a zero-weight row on that line comes first in the merged
        # order, and both the solve and the check name positive rows of the
        # caller's sample
        pts = np.array([[-1.0, 0.0], [9.0, 9.0]] + [[float(i), 0.0] for i in range(8)] + [[1.0, 2.0], [3.0, -1.0]])
        q = EmpiricalSample(pts, np.array([0.0, 0.0] + [0.1] * 10))
        with pytest.raises(DomainViolation) as exc:
            solve_locscatter(q, 2.0)
        want = check_locscat_domain(q, 4.0)
        assert not want.member and want.witness_points == (2, 3)
        assert exc.value.report == want


class TestDirectEmOracle:
    def test_fixed_point_agreement(self):
        # iterating the direct map converges to the lifted solution
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            p = random_in_domain(rng, 20, d)
            nu = float(rng.uniform(1.3, 4.0))
            est = solve_locscatter(p, nu, ScatterConfig(nu=nu, tol_grad=1e-12))
            mu = p.points.mean(axis=0)
            sigma = np.cov(p.points, rowvar=False, ddof=0) + 1e-3 * np.eye(d)
            for _ in range(4000):
                mu_next, sigma_next = direct_em_step(p, mu, sigma, nu)
                gap = np.linalg.norm(mu_next - mu) + np.linalg.norm(sigma_next - sigma)
                mu, sigma = mu_next, sigma_next
                if gap <= 1e-14:
                    break
            assert np.linalg.norm(mu - est.mu) <= 1e-6
            assert np.linalg.norm(sigma - est.Sigma.mat) <= 1e-6

    def test_symmetric_center_preserved(self):
        pts = np.array([[1.0, 2.0], [3.0, 2.0], [2.0, 0.5], [2.0, 3.5]])
        p = EmpiricalSample(pts)  # symmetric about (2, 2)
        mu, sigma = np.array([2.0, 2.0]), np.eye(2)
        mu_next, _ = direct_em_step(p, mu, sigma, 2.0)
        assert np.array_equal(mu_next, np.array([2.0, 2.0]))

    def test_one_step_decreases_objective(self):
        rng = np.random.default_rng(11)
        p = random_in_domain(rng, 30, 2)
        nu = 2.0
        mu = p.points.mean(axis=0)
        sigma = np.cov(p.points, rowvar=False, ddof=0)
        before = objective_locscat(p, mu, sigma, nu)
        mu2, sigma2 = direct_em_step(p, mu, sigma, nu)
        after = objective_locscat(p, mu2, sigma2, nu)
        assert after < before


class TestObjective:
    def test_zero_at_reference(self):
        rng = np.random.default_rng(13)
        p = random_in_domain(rng, 20, 2)
        assert objective_locscat(p, np.zeros(2), np.eye(2), 2.0) == 0.0

    def test_solution_is_local_minimum(self):
        rng = np.random.default_rng(17)
        p = random_in_domain(rng, 30, 2)
        nu = 2.0
        est = solve_locscatter(p, nu)
        best = objective_locscat(p, est.mu, est.Sigma.mat, nu)
        for _ in range(20):
            dm = 0.05 * rng.standard_normal(2)
            ds = 0.05 * rng.standard_normal((2, 2))
            ds = (ds + ds.T) / 2.0
            val = objective_locscat(p, est.mu + dm, est.Sigma.mat + ds, nu)
            assert val > best

    def test_constant_offset_from_lifted_objective(self):
        # lifted pure-scatter objective differs from the direct one by a
        # (mu, Sigma)-independent constant
        rng = np.random.default_rng(19)
        p = random_in_domain(rng, 15, 2)
        nu = 2.5
        lifted = lift(p)
        offsets = []
        for _ in range(10):
            base = rng.standard_normal((2, 2))
            sigma = base @ base.T + 2.0 * np.eye(2)
            mu = rng.standard_normal(2)
            a = embed(sigma, mu, 1.0).A
            offsets.append(
                objective(lifted, a, nu - 1.0) - objective_locscat(p, mu, sigma, nu)
            )
        assert np.ptp(offsets) <= 1e-10


class TestDimChangeIdentity:
    def test_weight_functions_agree_through_lift(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            nu = float(rng.uniform(1.1, 5.0))
            base = rng.standard_normal((d, d))
            sigma = base @ base.T + d * np.eye(d)
            mu = rng.standard_normal(d)
            y = rng.standard_normal(d)
            a = embed(sigma, mu, 1.0).A
            z = np.append(y, 1.0)
            s_lift = float(z @ np.linalg.solve(a.mat, z))
            s_direct = float((y - mu) @ np.linalg.solve(sigma, y - mu))
            lhs = weight_u(s_lift, nu - 1.0, d + 1)
            rhs = weight_u(s_direct, nu, d)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestEquivariance:
    def test_affine_maps(self):
        rng = np.random.default_rng(29)
        p = random_in_domain(rng, 25, 2)
        cfg = ScatterConfig(nu=2.0, tol_grad=1e-12)
        base = solve_locscatter(p, 2.0, cfg)
        for _ in range(10):
            m = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            v = rng.standard_normal(2)
            mapped = EmpiricalSample(p.points @ m.T + v, p.weights)
            est = solve_locscatter(mapped, 2.0, cfg)
            assert np.linalg.norm(est.mu - (m @ base.mu + v)) <= 1e-7
            assert np.linalg.norm(est.Sigma.mat - m @ base.Sigma.mat @ m.T) <= 1e-7

    def test_symmetry_center_recovered(self):
        rng = np.random.default_rng(31)
        center = np.array([1.5, -0.5])
        half = rng.standard_normal((12, 2))
        pts = np.vstack([center + half, center - half])
        est = solve_locscatter(EmpiricalSample(pts), 2.0, ScatterConfig(nu=2.0, tol_grad=1e-13))
        assert np.linalg.norm(est.mu - center) <= 1e-8
