import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscatter import (
    NotSpdError,
    SpdMatrix,
    congruence_matrix,
    extract,
    sym_basis,
    sym_dim,
    sym_to_vec,
    vec_to_sym,
)
from tscatter.exceptions import DegeneracyError
from tscatter.symspace import _layout, outer_vecs, spd_cholesky, symmetrize

from oracles import embed, outer_vecs_gather


def random_spd(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * (m @ m.T + d * np.eye(d))


def random_sym(rng, d):
    m = rng.standard_normal((d, d))
    return (m + m.T) / 2.0


class TestSymmetrize:
    def test_averages_roundoff(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]])
        out = symmetrize(m)
        assert np.array_equal(out, out.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            symmetrize(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))


class TestSpdMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_rejects_tiny_pivot(self):
        with pytest.raises(NotSpdError):
            SpdMatrix(np.diag([1.0, 1e-14]))

    def test_double_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_spd(rng, 4)
            back = SpdMatrix(SpdMatrix(a).inv()).inv()
            assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)

    def test_quad_forms_match_inverse(self):
        rng = np.random.default_rng(8)
        a = SpdMatrix(random_spd(rng, 3))
        pts = rng.standard_normal((5, 3))
        expected = np.einsum("ij,jk,ik->i", pts, a.inv(), pts)
        assert np.allclose(a.quad_forms(pts), expected, atol=1e-12)
        # cond(A) = 1e10: both sides carry roundoff of up to cond(A) eps, relative
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = q @ np.diag([1.0, 1e-5, 1e-10]) @ q.T
        a = SpdMatrix((m + m.T) / 2.0)
        expected = np.einsum("ij,jk,ik->i", pts, a.inv(), pts)
        rtol = np.linalg.cond(a.mat) * np.finfo(float).eps
        assert np.allclose(a.quad_forms(pts), expected, rtol=rtol, atol=0.0)

    def test_immutable(self):
        a = SpdMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.mat[0, 0] = 5.0


class TestFrobeniusBounds:
    def test_on_random_matrices(self):
        # ||A|| <= ||A||_F <= sqrt(d) ||A|| on 1000 draws
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            m = random_sym(rng, d)
            op = np.abs(np.linalg.eigvalsh(m)).max()
            fro = np.linalg.norm(m)
            assert op <= fro + 1e-12
            assert fro <= np.sqrt(d) * op + 1e-12

    def test_equality_witnesses(self):
        eye = np.eye(3)
        assert np.isclose(np.linalg.norm(eye), np.sqrt(3) * 1.0)
        rank1 = np.diag([1.0, 0.0, 0.0])
        op = np.abs(np.linalg.eigvalsh(rank1)).max()
        assert np.isclose(np.linalg.norm(rank1), op)


class TestInversePerturbation:
    def test_first_order_expansion(self):
        # (A+D)^-1 = A^-1 - A^-1 D A^-1 + O(|D|^2), constant from |A^-1|^3
        rng = np.random.default_rng(21)
        for _ in range(25):
            a = random_spd(rng, 3)
            ainv = np.linalg.inv(a)
            delta = random_sym(rng, 3)
            delta *= 1e-4 * np.linalg.norm(a) / np.linalg.norm(delta)
            approx = ainv - ainv @ delta @ ainv
            err = np.linalg.norm(np.linalg.inv(a + delta) - approx)
            k = 2.0 * np.linalg.norm(ainv, ord=2) ** 3
            assert err <= k * np.linalg.norm(delta) ** 2


class TestLogDetExpansion:
    def test_third_order_remainder(self):
        # remainder of the two-term logdet expansion scales like t^3
        rng = np.random.default_rng(22)
        a = random_spd(rng, 3)
        ainv = np.linalg.inv(a)
        asqrt_inv = np.linalg.inv(np.linalg.cholesky(a))
        delta = random_sym(rng, 3)
        delta /= np.linalg.norm(delta)

        def remainder(t):
            d = t * delta
            lhs = np.linalg.slogdet(a + d)[1] - np.linalg.slogdet(a)[1]
            inner = asqrt_inv @ d @ asqrt_inv.T
            return abs(lhs - np.trace(ainv @ d) + 0.5 * np.linalg.norm(inner) ** 2)

        steps = [1e-2, 5e-3, 2.5e-3]
        rems = [remainder(t) for t in steps]
        for r_big, r_small in zip(rems, rems[1:]):
            ratio = r_small / r_big
            assert 1 / 16 <= ratio <= 1 / 4  # cubic scaling: ~1/8 per halving


class TestVecRoundTrip:
    def test_identity_coordinates(self):
        v = sym_to_vec(np.eye(2))
        assert np.allclose(v, [1.0, 1.0, 0.0])
        assert np.allclose(vec_to_sym(v), np.eye(2))

    def test_offdiag_scaling(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        v = sym_to_vec(m)
        assert np.allclose(v, [0.0, 0.0, np.sqrt(2.0)])
        assert np.isclose(v @ v, np.linalg.norm(m) ** 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_round_trip_and_isometry(self, d, seed):
        rng = np.random.default_rng(seed)
        m = random_sym(rng, d)
        n = random_sym(rng, d)
        assert np.array_equal(vec_to_sym(sym_to_vec(m)), vec_to_sym(sym_to_vec(m)))
        assert np.allclose(vec_to_sym(sym_to_vec(m)), m, atol=1e-14)
        assert abs(sym_to_vec(m) @ sym_to_vec(n) - np.trace(m @ n)) <= 1e-12 * (
            1.0 + np.linalg.norm(m) * np.linalg.norm(n)
        )

    def test_basis_orthonormal(self):
        basis = sym_basis(3)
        assert len(basis) == sym_dim(3)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert np.isclose(np.trace(a @ b), float(i == j), atol=1e-14)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            vec_to_sym(np.zeros(4))

    def test_batch_axis_matches_one_at_a_time(self):
        rng = np.random.default_rng(12)
        mats = np.stack([random_sym(rng, 3) for _ in range(4)])
        vecs = sym_to_vec(mats)
        assert vecs.shape == (4, sym_dim(3))
        for m, v in zip(mats, vecs):
            assert np.array_equal(v, sym_to_vec(m))
        assert np.array_equal(vec_to_sym(vecs), np.stack([vec_to_sym(v) for v in vecs]))

    def test_asymmetric_batch_member_rejected(self):
        mats = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.5, 3.0]])])
        with pytest.raises(ValueError, match="asymmetry"):
            sym_to_vec(mats)

    def test_outer_vecs_rows(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((6, 3))
        expected = np.stack([sym_to_vec(np.outer(y, y)) for y in pts])
        assert np.allclose(outer_vecs(pts), expected, rtol=1e-15, atol=0.0)


def _point_layouts():
    rng = np.random.default_rng(17)
    return {
        "n_by_d": rng.standard_normal((40, 4)),
        "stack": rng.standard_normal((3, 40, 4)),
        # the solver's whitened points: a contiguous (R, d, n) stack, swapped
        "solver_view": np.swapaxes(rng.standard_normal((3, 4, 40)), 1, 2),
        "strided": rng.standard_normal((120, 9))[::3, 1:6],
        "d1": rng.standard_normal((40, 1)),
        "d2": rng.standard_normal((2, 40, 2)),
    }


class TestOuterProducts:
    @pytest.mark.parametrize("layout", list(_point_layouts()))
    def test_outer_vecs_equals_gather(self, layout):
        pts = _point_layouts()[layout]
        got = outer_vecs(pts)
        want = outer_vecs_gather(pts)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # the returned view is writable, so callers may scale it in place
        got *= 2.0
        assert np.array_equal(got, 2.0 * want)


class TestStackedRules:
    def test_symmetrize_scales_each_member(self):
        ok = np.array([[1e6, 2e6], [2e6 + 1e-7, 3e6]])
        bad = np.array([[1.0, 2.0], [2.0 + 1e-7, 3.0]])
        assert np.array_equal(symmetrize(np.stack([ok, ok]))[1], symmetrize(ok))
        with pytest.raises(ValueError, match="asymmetry"):
            symmetrize(np.stack([ok, bad]))

    def test_spd_rule_matches_spd_matrix(self):
        rng = np.random.default_rng(43)
        mats = np.stack([
            random_spd(rng, 3),
            np.diag([1.0, -1.0, 2.0]),
            np.diag([1.0, 1e-14, 1.0]),
            np.full((3, 3), np.nan),
            -random_spd(rng, 3),
            random_spd(rng, 3, scale=1e-3),
        ])
        chol, ok = spd_cholesky(mats)
        for m, factor, good in zip(mats, chol, ok):
            try:
                expected = SpdMatrix(m).chol
            except NotSpdError:
                assert not good and np.array_equal(factor, np.eye(3))
            else:
                assert good and np.array_equal(factor, expected)
        assert ok.tolist() == [True, False, False, False, False, True]

    def test_layout_is_cached_and_read_only(self):
        assert _layout(4) is _layout(4)
        for arr in _layout(4):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestCongruence:
    def test_matches_direct_map(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((3, 3))
        x = random_sym(rng, 3)
        j = congruence_matrix(m)
        assert np.allclose(j @ sym_to_vec(x), sym_to_vec(m @ x @ m.T), atol=1e-12)


class TestEmbedExtract:
    def test_identity_blocks(self):
        emb = embed(np.eye(1), np.zeros(1), 1.0)
        assert np.allclose(emb.A.mat, np.eye(2))
        sigma, mu, gamma = extract(np.eye(3))
        assert np.allclose(sigma, np.eye(2))
        assert np.allclose(mu, 0.0)
        assert gamma == 1.0

    def test_scalar_example(self):
        emb = embed(np.array([[0.25]]), np.array([0.5]), 1.0)
        assert np.allclose(emb.A.mat, [[0.5, 0.5], [0.5, 1.0]])
        # inverse block form: gamma^-1 [[S^-1, -S^-1 mu], [-mu'S^-1, 1 + mu'S^-1 mu]]
        ainv = np.linalg.inv(emb.A.mat)
        assert np.allclose(ainv, [[4.0, -2.0], [-2.0, 2.0]])
        sigma, mu, gamma = extract(emb.A)
        assert np.allclose(sigma, [[0.25]])
        assert np.allclose(mu, [0.5])
        assert np.isclose(gamma, 1.0)

    def test_round_trip_100_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            sigma = random_spd(rng, d)
            mu = rng.standard_normal(d)
            gamma = float(rng.uniform(0.2, 5.0))
            emb = embed(sigma, mu, gamma)
            s2, m2, g2 = extract(emb.A)
            assert np.allclose(s2, sigma, rtol=1e-10, atol=1e-10)
            assert np.allclose(m2, mu, rtol=1e-10, atol=1e-10)
            assert np.isclose(g2, gamma, rtol=1e-12)

    def test_determinant_relation(self):
        rng = np.random.default_rng(42)
        sigma = random_spd(rng, 3)
        mu = rng.standard_normal(3)
        for gamma in (1.0, 2.5):
            emb = embed(sigma, mu, gamma)
            det_a = np.linalg.det(emb.A.mat)
            assert np.isclose(det_a, gamma**4 * np.linalg.det(sigma), rtol=1e-9)

    def test_quadratic_identity_at_random_points(self):
        # (y',1) A^-1 (y',1)' == (1 + (y-mu)' Sigma^-1 (y-mu)) / gamma
        rng = np.random.default_rng(43)
        sigma = random_spd(rng, 2)
        mu = rng.standard_normal(2)
        gamma = 1.7
        emb = embed(sigma, mu, gamma)
        sinv = np.linalg.inv(sigma)
        for _ in range(20):
            y = rng.standard_normal(2)
            z = np.append(y, 1.0)
            lhs = z @ np.linalg.inv(emb.A.mat) @ z
            rhs = (1.0 + (y - mu) @ sinv @ (y - mu)) / gamma
            assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_bad_inputs(self):
        with pytest.raises(NotSpdError):
            embed(np.array([[-1.0]]), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            embed(np.eye(2), np.zeros(2), 0.0)
        # corner entry <= 0 cannot come from an SPD matrix
        with pytest.raises(NotSpdError):
            extract(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises((NotSpdError, DegeneracyError)):
            # barely indefinite block: rejected on the way in or out
            extract(np.array([[0.25, 0.5], [0.5, 1.0]]))
