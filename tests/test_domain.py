import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
    lift,
    max_atom,
    solve_locscatter,
    solve_scatter,
    solve_scatter_stack,
)
from tscatter import domain_check, scatter, symspace
from tscatter.domain_check import _certify_members
from tscatter.scatter import _solve_stack
from oracles import (
    check_locscat_domain_direct,
    check_locscat_domain_loop,
    check_scatter_domain_loop,
    merged_unique,
    span_mass_loop,
)


def brute_force_scatter_member(sample, a0):
    """Independent oracle: enumerate every point-spanned subspace directly."""
    merged, _ = sample.merged()
    pts = merged.points
    w = merged.weights
    d = merged.d
    norms = np.linalg.norm(pts, axis=1)
    scale = max(norms.max(), 1.0)
    mass0 = w[norms <= 1e-9 * scale].sum()
    if mass0 >= 1.0 - d / a0 - 1e-12:
        return False
    for size in range(1, d):
        for subset in itertools.combinations(range(len(pts)), size):
            sub = pts[list(subset)]
            if np.linalg.matrix_rank(sub, tol=1e-9 * scale) < size:
                continue
            q, _ = np.linalg.qr(sub.T)
            resid = pts - (pts @ q) @ q.T
            mass = w[np.linalg.norm(resid, axis=1) <= 1e-9 * scale].sum()
            if mass >= 1.0 - (d - size) / a0 - 1e-12:
                return False
    return True


class TestEmpiricalSample:
    def test_uniform_weights_default(self):
        s = EmpiricalSample(np.array([[0.0], [1.0]]))
        assert np.allclose(s.weights, [0.5, 0.5])

    def test_one_dim_promotion(self):
        s = EmpiricalSample(np.array([1.0, 2.0, 3.0]))
        assert s.d == 1 and s.n == 3

    def test_rejects_bad_weights(self):
        pts = np.zeros((2, 1))
        with pytest.raises(ValueError):
            EmpiricalSample(pts, np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            EmpiricalSample(pts, np.array([-0.1, 1.1]))

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError):
            EmpiricalSample(np.array([[np.nan], [0.0]]))


class TestScatterDomain:
    def test_big_atom_on_line(self):
        # d=1, a0=3: atom of 0.7 at the origin meets the 2/3 threshold
        q = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([0.7, 0.3]))
        rpt = check_scatter_domain(q, 3.0)
        assert not rpt.member
        assert rpt.worst_subspace_dim == 0
        assert rpt.worst_mass >= rpt.threshold
        assert np.isclose(rpt.threshold, 2.0 / 3.0)

    def test_generic_four_points(self):
        rng = np.random.default_rng(5)
        q = EmpiricalSample(rng.standard_normal((4, 2)))
        rpt = check_scatter_domain(q, 4.0)
        assert rpt.member
        assert brute_force_scatter_member(q, 4.0)

    def test_point_mass_at_origin(self):
        for d in (1, 2, 3):
            q = EmpiricalSample(np.zeros((1, d)))
            rpt = check_scatter_domain(q, d + 2.0)
            assert not rpt.member
            assert rpt.worst_subspace_dim == 0
            assert np.isclose(rpt.worst_mass, 1.0)

    def test_exact_boundary_mass_rejected(self):
        # strict inequality is required, so mass of exactly the threshold fails
        q = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([2.0 / 3.0, 1.0 / 3.0]))
        assert not check_scatter_domain(q, 3.0).member

    def test_requires_a0_above_d(self):
        q = EmpiricalSample(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            check_scatter_domain(q, 2.0)

    def test_matches_brute_force_on_random_laws(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            pts = rng.integers(-1, 2, size=(n, d)).astype(float)  # collisions likely
            w = rng.dirichlet(np.ones(n))
            q = EmpiricalSample(pts, w)
            a0 = d + float(rng.uniform(0.2, 3.0))
            assert check_scatter_domain(q, a0).member == brute_force_scatter_member(q, a0)

    def test_monotone_in_a0(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            pts = rng.integers(-1, 2, size=(6, 2)).astype(float)
            q = EmpiricalSample(pts, rng.dirichlet(np.ones(6)))
            a0 = 2.0 + float(rng.uniform(0.1, 2.0))
            if check_scatter_domain(q, a0).member:
                assert check_scatter_domain(q, a0 + rng.uniform(0.1, 3.0)).member

    def test_linear_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            pts = rng.integers(-1, 2, size=(6, 2)).astype(float)
            q = EmpiricalSample(pts, rng.dirichlet(np.ones(6)))
            m = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            mapped = EmpiricalSample(q.points @ m.T, q.weights)
            a0 = 2.0 + float(rng.uniform(0.2, 2.0))
            assert check_scatter_domain(q, a0).member == check_scatter_domain(mapped, a0).member

    def test_witnesses_span_violation(self):
        # 0.8 of the mass on the x-axis in d=2: q=1 subspace violation
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 1.0]])
        q = EmpiricalSample(pts, np.array([0.5, 0.3, 0.2]))
        rpt = check_scatter_domain(q, 4.0)
        assert not rpt.member
        assert rpt.worst_subspace_dim == 1
        assert np.isclose(rpt.worst_mass, 0.8)
        for idx in rpt.witness_points:
            assert pts[idx][1] == 0.0

    def test_budget_guard(self, monkeypatch):
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((40, 5))  # 102,090 subsets, over a budget of 1000
        q = EmpiricalSample(pts)
        monkeypatch.setattr(domain_check, "DEFAULT_BUDGET", 1000)
        with pytest.raises(EnumerationBudgetError, match="budget=1000; past it the solve paths"):
            check_scatter_domain(q, 7.0)


# 8 of 10 positive rows on the line y = 0, which passes through the origin:
# past the threshold 3/4 of both functionals at nu = 2. The two zero-weight
# rows come first, (-1, 0) on that line and (9, 9) off it
ZERO_LEAD_POINTS = np.array([[-1.0, 0.0], [9.0, 9.0]] + [[float(i), 0.0] for i in range(8)] + [[1.0, 2.0], [3.0, -1.0]])
ZERO_LEAD_WEIGHTS = np.array([0.0, 0.0] + [0.1] * 10)


class TestZeroWeightRows:
    """Rows of zero weight carry no mass, so no verdict depends on them."""

    @pytest.mark.parametrize("check", [check_scatter_domain, check_locscat_domain])
    @pytest.mark.parametrize("at", [0, 14, 30])
    def test_far_row_leaves_the_verdict(self, check, at):
        # a zero-weight row at (1e10, 0) once scaled the point tolerance so
        # that every point counted as on the origin
        pts = np.random.default_rng(113).standard_normal((30, 2))
        want = check(EmpiricalSample(pts), 4.0)
        got = check(EmpiricalSample(np.insert(pts, at, [1e10, 0.0], axis=0), np.insert(np.full(30, 1 / 30), at, 0.0)), 4.0)
        assert want.member
        assert got == dataclasses.replace(want, witness_points=tuple(i + (i >= at) for i in want.witness_points))

    @pytest.mark.parametrize("check,solve,witnesses", [
        (check_scatter_domain, lambda q: solve_scatter(q, ScatterConfig(nu=2.0)), (3,)),
        (check_locscat_domain, lambda q: solve_locscatter(q, 2.0), (2, 3)),
    ], ids=["scatter", "locscatter"])
    def test_check_names_the_rows_the_solver_names(self, check, solve, witnesses):
        q = EmpiricalSample(ZERO_LEAD_POINTS, ZERO_LEAD_WEIGHTS)
        report = check(q, 4.0)  # a0 = nu + d for both functionals
        assert not report.member and report.witness_points == witnesses
        with pytest.raises(DomainViolation) as exc:
            solve(q)
        assert exc.value.report == report


class TestLift:
    def test_single_point(self):
        s = EmpiricalSample(np.array([[0.0]]))
        lifted = lift(s)
        assert np.allclose(lifted.points, [[0.0, 1.0]])
        assert np.allclose(lifted.weights, [1.0])

    def test_two_points_land_on_unit_level(self):
        s = EmpiricalSample(np.array([[0.0], [1.0]]))
        lifted = lift(s)
        assert np.allclose(lifted.points[:, 1], 1.0)
        assert lifted.d == 2

    def test_affine_dependence_becomes_linear(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, d + 2))
            pts = rng.standard_normal((k, d))
            lifted = lift(EmpiricalSample(pts)).points
            # affine rank = rank of differences; linear rank upstairs is that + 1
            aff_rank = np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9) if k > 1 else 0
            assert np.linalg.matrix_rank(lifted, tol=1e-9) == aff_rank + 1


class TestMaxAtom:
    def test_two_point(self):
        s = EmpiricalSample(np.array([[0.0], [1.0]]), np.array([0.7, 0.3]))
        loc, mass = max_atom(s)
        assert loc[0] == 0.0 and np.isclose(mass, 0.7)

    def test_uniform_tie_takes_smallest(self):
        s = EmpiricalSample(np.arange(10.0).reshape(-1, 1)[::-1].copy())
        loc, mass = max_atom(s)
        assert loc[0] == 0.0 and np.isclose(mass, 0.1)

    def test_merges_duplicates(self):
        s = EmpiricalSample(
            np.array([[2.0], [2.0], [5.0]]), np.array([0.4, 0.35, 0.25])
        )
        loc, mass = max_atom(s)
        assert loc[0] == 2.0 and np.isclose(mass, 0.75)


class TestLocScatDomain:
    def test_mass_on_affine_line(self):
        # d=2, a0=4: 0.9 on a line beats the 0.75 affine threshold
        pts = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [0.0, 0.0]])
        w = np.array([0.3, 0.3, 0.3, 0.1])
        rpt = check_locscat_domain(EmpiricalSample(pts, w), 4.0)
        assert not rpt.member
        assert rpt.worst_subspace_dim == 1
        assert np.isclose(rpt.threshold, 0.75)

    def test_two_atoms_half_half(self):
        s = EmpiricalSample(np.array([[0.0], [1.0]]))
        rpt = check_locscat_domain(s, 3.0)
        assert rpt.member  # max atom 1/2 < 2/3

    def test_single_point_rejected(self):
        for d in (1, 2, 3):
            s = EmpiricalSample(np.full((1, d), 2.5))
            assert not check_locscat_domain(s, d + 1.5).member

    def test_requires_a0_above_d_plus_one(self):
        s = EmpiricalSample(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            check_locscat_domain(s, 3.0)

    def test_lift_equivalence_random(self):
        # affine check agrees with the linear check of the lifted sample
        rng = np.random.default_rng(53)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(2, 8))
            pts = rng.integers(-1, 2, size=(n, d)).astype(float)
            w = rng.dirichlet(np.ones(n))
            p = EmpiricalSample(pts, w)
            a0 = d + 1 + float(rng.uniform(0.1, 3.0))
            via_lift = check_locscat_domain(p, a0)
            direct = check_locscat_domain_direct(p, a0)
            linear = check_scatter_domain(lift(p), a0)
            assert via_lift.member == direct.member == linear.member

    def test_affine_invariance(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            pts = rng.integers(-1, 2, size=(6, 2)).astype(float)
            p = EmpiricalSample(pts, rng.dirichlet(np.ones(6)))
            m = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            v = rng.standard_normal(2)
            mapped = EmpiricalSample(p.points @ m.T + v, p.weights)
            a0 = 3.0 + float(rng.uniform(0.2, 2.0))
            assert check_locscat_domain(p, a0).member == check_locscat_domain(mapped, a0).member


def _law(kind, d, n, dirichlet, seed):
    """A small weighted law of the named kind in R^d, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        pts = rng.standard_normal((n, d))
    elif kind == "lattice":
        # few distinct values, so coincident points merge and spans tie
        pts = rng.integers(-1, 2, size=(n, d)).astype(float)
    elif kind in ("line", "plane"):
        # most of the points on a random line or plane through the origin
        # (or, once lifted, an affine one)
        k = 1 if kind == "line" else min(2, d - 1)
        basis = rng.standard_normal((k, d))
        pts = rng.standard_normal((n, d))
        flat = max(2, (2 * n) // 3)
        pts[:flat] = rng.integers(-3, 4, size=(flat, k)) @ basis
    else:  # origin
        pts = rng.standard_normal((n, d))
        pts[rng.integers(n)] = 0.0
    weights = rng.dirichlet(np.ones(n)) if dirichlet else None
    return EmpiricalSample(pts, weights)


LAWS = st.tuples(
    st.sampled_from(["gaussian", "lattice", "line", "plane", "origin"]),
    st.integers(2, 5),                 # dimension of the check
    st.integers(2, 11),                # points before merging
    st.booleans(),                     # Dirichlet weights instead of uniform
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 3.0),              # a0 above its minimum
)


class TestBlockKernelMatchesLoop:
    """The blockwise exact check returns the per-subset loop's report, field for field."""

    @settings(max_examples=300, deadline=None)
    @given(LAWS)
    def test_scatter(self, law):
        kind, d, n, dirichlet, seed, extra = law
        q = _law(kind, d, n, dirichlet, seed)
        assert check_scatter_domain(q, d + extra) == check_scatter_domain_loop(q, d + extra)

    @settings(max_examples=300, deadline=None)
    @given(LAWS)
    def test_lifted(self, law):
        kind, d, n, dirichlet, seed, extra = law
        p = _law(kind, d - 1, n, dirichlet, seed)  # lifted check runs in R^d
        assert check_locscat_domain(p, d + extra) == check_locscat_domain_loop(p, d + extra)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 5, 7])
    def test_block_boundary_inside_tie_run(self, monkeypatch, per_block):
        # seven points on the plane z=0 and five off it: the 35 in-plane triples
        # all reach the top mass 7/12 and so tie; blocks of a few fixed points
        # (8 m (d + 16) bytes each) split that run, and the first triple in
        # combinations order must still win
        rng = np.random.default_rng(61)
        plane = np.hstack([rng.standard_normal((7, 2)), np.zeros((7, 1))])
        q = EmpiricalSample(np.vstack([plane, rng.standard_normal((5, 3))]))
        merged, rep = q.merged()
        monkeypatch.setattr(domain_check, "BLOCK_BYTES", 8 * merged.n * (merged.d + 16) * per_block)
        got = check_scatter_domain(q, 4.0)
        assert got == check_scatter_domain_loop(q, 4.0)
        assert got.worst_subspace_dim == 2 and np.isclose(got.worst_mass, 7 / 12)
        first_two = np.nonzero(merged.points[:, 2] == 0.0)[0][:2]  # merged order
        assert got.witness_points == tuple(int(rep[j]) for j in first_two)


class TestMerged:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_unique(self, n, d, seed):
        # duplicate-heavy lattice laws with Dirichlet weights: same points in
        # the same order, same first-occurrence representatives, and merged
        # weights that are the np.bincount sums of the copies, not divided again
        rng = np.random.default_rng(seed)
        q = EmpiricalSample(rng.integers(-2, 3, size=(n, d)).astype(float), rng.dirichlet(np.ones(n)))
        got, rep = q.merged()
        want, want_rep = merged_unique(q)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(rep, want_rep)
        assert np.array_equal(got.weights, want.weights)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _with_zero_rows(q, k, seed):
    """``q`` with ``k`` zero-weight rows inserted: copies of its rows, new points or far ones."""
    rng = np.random.default_rng(seed)
    rows = np.stack([q.points[rng.integers(q.n)], rng.standard_normal(q.d), 1e6 * rng.standard_normal(q.d)])
    at = np.sort(rng.integers(0, q.n + 1, size=k))
    return EmpiricalSample(np.insert(q.points, at, rows[rng.integers(3, size=k)], axis=0), np.insert(q.weights, at, 0.0))


class TestDerivedLawsCarryTheirArrays:
    """A law's weights are divided once, where it enters; derived laws carry its arrays."""

    @settings(max_examples=300, deadline=None)
    @given(LAWS, st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_lift_and_dropping_zero_weights_commute(self, law, k, seed):
        kind, d, n, dirichlet, law_seed, extra = law
        q = _with_zero_rows(_law(kind, d - 1, n, dirichlet, law_seed), k, seed)  # lifted check runs in R^d
        positive = q.drop_zero_weights()
        a, b = lift(q).drop_zero_weights(), lift(positive)
        assert _same_bits(a.points, b.points) and _same_bits(a.weights, b.weights)
        rows = np.flatnonzero(q.weights > 0.0)
        want = check_locscat_domain(positive, d + extra)
        want = dataclasses.replace(want, witness_points=tuple(int(rows[i]) for i in want.witness_points))
        assert check_locscat_domain(q, d + extra) == want

    @settings(max_examples=200, deadline=None)
    @given(LAWS)
    def test_lift_keeps_the_weights(self, law):
        q = _law(*law[:5])
        assert _same_bits(lift(q).weights, q.weights)


def _flat_law(kind, d, n, dirichlet, seed):
    """Points on a line or plane through the origin or off it, each also at 2x and -x."""
    rng = np.random.default_rng(seed)
    k = 1 if kind == "line" else min(2, d - 1)
    basis = rng.standard_normal((k, d))
    m = (n + 2) // 3
    pts = rng.standard_normal((m, d))
    flat = rng.random(m) < 0.6
    pts[flat] = rng.integers(-2, 3, size=(int(flat.sum()), k)) @ basis
    pts = np.concatenate([pts, 2 * pts, -pts])[rng.permutation(3 * m)[:n]]
    weights = rng.dirichlet(np.ones(n)) if dirichlet else None
    return EmpiricalSample(pts, weights)


FLAT_LAWS = st.tuples(
    st.sampled_from(["line", "plane"]),
    st.sampled_from([("scatter", 3), ("scatter", 4), ("lifted", 4), ("scatter", 5), ("lifted", 5)]),
    st.integers(12, 30),               # points before merging (at most 16 in d = 5)
    st.booleans(),                     # Dirichlet weights instead of uniform
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 3.0),              # a0 above its minimum
)


class TestProjectAndGroup:
    """Larger laws and planted answers for the exact check's grouping search."""

    @settings(max_examples=60, deadline=None)
    @given(FLAT_LAWS)
    def test_matches_loop_on_flat_laws(self, law):
        kind, (target, d), n, dirichlet, seed, extra = law
        n = min(n, 16) if d == 5 else n
        if target == "scatter":
            q = _flat_law(kind, d, n, dirichlet, seed)
            assert check_scatter_domain(q, d + extra) == check_scatter_domain_loop(q, d + extra)
        else:
            p = _flat_law(kind, d - 1, n, dirichlet, seed)
            assert check_locscat_domain(p, d + extra) == check_locscat_domain_loop(p, d + extra)

    @pytest.mark.parametrize("per_block", [None, 1, 2, 3, 5])
    def test_tie_goes_to_the_first_subset(self, monkeypatch, per_block):
        # the origin (first in merged order) lies on every plane, so no
        # witness contains it; the planes z = 0 and y = 0 each hold it and
        # three more points, 4/9 each, and z = 0 wins with its first-index
        # basis (1, 3); from fixed point 3 it comes back as the later (3, 5)
        pts = np.array([
            [0, 0, 0], [1, 2, 0], [2, 0, 1], [3, 1, 0], [4, 0, -1],
            [5, -1, 0], [6, 0, 2], [7, 3, 5], [8, -2, 3],
        ], dtype=float)
        q = EmpiricalSample(pts[np.random.default_rng(3).permutation(9)])
        merged, rep = q.merged()
        assert np.array_equal(merged.points, pts)
        if per_block:
            # blocks of `per_block` fixed points, so the tie spans blocks
            monkeypatch.setattr(domain_check, "BLOCK_BYTES", 8 * 9 * (3 + 16) * per_block)
        got = check_scatter_domain(q, 8.0)
        assert got == check_scatter_domain_loop(q, 8.0)
        assert got.worst_subspace_dim == 2
        assert got.worst_mass == merged.weights[[0, 1, 3, 5]].sum()
        assert got.witness_points == (int(rep[1]), int(rep[3]))

    @pytest.mark.parametrize("per_block", [1, 2, 3, 5])
    def test_tie_run_split_across_blocks(self, monkeypatch, per_block):
        # the law of TestBlockKernelMatchesLoop's tie-run test, with blocks
        # sized by the per-fixed-tuple footprint: every in-plane fixed point
        # finds the plane z=0 (7/12), so the tie run crosses blocks of 1, 2,
        # 3 and 5 fixed points and the first in-plane pair must still win
        rng = np.random.default_rng(61)
        plane = np.hstack([rng.standard_normal((7, 2)), np.zeros((7, 1))])
        q = EmpiricalSample(np.vstack([plane, rng.standard_normal((5, 3))]))
        merged, rep = q.merged()
        monkeypatch.setattr(domain_check, "BLOCK_BYTES", 8 * merged.n * (merged.d + 16) * per_block)
        got = check_scatter_domain(q, 4.0)
        assert got == check_scatter_domain_loop(q, 4.0)
        assert got.worst_subspace_dim == 2 and np.isclose(got.worst_mass, 7 / 12)
        first_two = np.nonzero(merged.points[:, 2] == 0.0)[0][:2]
        assert got.witness_points == tuple(int(rep[j]) for j in first_two)

    def test_planted_plane_in_a_thousand_points(self):
        # 600 of 1000 points on a plane through the origin: the loop oracle
        # is far too slow here, so the answer is checked directly
        rng = np.random.default_rng(71)
        basis = rng.standard_normal((2, 3))
        pts = np.vstack([rng.standard_normal((600, 2)) @ basis, rng.standard_normal((400, 3))])
        q = EmpiricalSample(pts[rng.permutation(1000)])
        merged, rep = q.merged()
        normal = np.cross(*basis)
        on_plane = np.abs(merged.points @ normal) <= 1e-9 * np.abs(merged.points).max()
        assert on_plane.sum() == 600
        got = check_scatter_domain(q, 6.0)
        assert got.member
        assert got.worst_subspace_dim == 2
        assert got.worst_mass == merged.weights[on_plane].sum()
        first_two = np.flatnonzero(on_plane)[:2]
        assert got.witness_points == tuple(int(rep[j]) for j in first_two)

    def test_line_pass_memory_is_bounded(self):
        # 8000 points in the plane, 30% of them on one line through the
        # origin: the line search holds O(m) arrays, not m x m ones
        rng = np.random.default_rng(73)
        u = rng.standard_normal(2)
        pts = np.vstack([np.outer(rng.standard_normal(2400), u), rng.standard_normal((5600, 2))])
        q = EmpiricalSample(pts[rng.permutation(8000)])
        merged, rep = q.merged()
        on_line = np.abs(merged.points @ [u[1], -u[0]]) <= 1e-9 * np.abs(merged.points).max()
        tracemalloc.start()
        try:
            got = check_scatter_domain(q, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert got.worst_subspace_dim == 1
        assert got.worst_mass == merged.weights[on_line].sum()
        assert got.witness_points == (int(rep[np.flatnonzero(on_line)[0]]),)

    def test_plane_pass_memory_is_bounded(self):
        # lifted d=4 with a heavy affine line that sorts first, every third
        # point doubled so the merged weights differ: from each pair of its
        # points the plane through any of the 80 other points holds the whole
        # line and that point, so 80 candidates a pair tie at the top and
        # each lists the 40 line points; their exact sums must stay within
        # the block's memory (2 BLOCK_BYTES here), not grow with the ties
        t = -np.arange(1.0, 41.0)
        line = np.stack([t, 0.5 * t + 1.0, -0.25 * t + 2.0], axis=1)
        others = np.random.default_rng(89).uniform(1.0, 40.0, (80, 3))
        p = EmpiricalSample(np.vstack([line, line[::3], others]))
        merged, rep = p.merged()
        on_line = merged.points[:, 0] < 0.0
        tracemalloc.start()
        try:
            got = check_locscat_domain(p, 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert got.worst_subspace_dim == 1
        assert got.worst_mass == merged.weights[on_line].sum()
        assert got.witness_points == (int(rep[0]), int(rep[1]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_group_that_is_not_one_line(self, d):
        # points k*u for k = 1..5 (|5u| = 1 sets tol = 1e-9) and one point 0.7
        # tol off u that comes first in merged order: it lies on the line
        # through u, but the line through it misses 2u..5u (1.4 tol and more
        # away), so the directions do not make one line and each member is
        # checked on its own; the heaviest line is the one through u
        rng = np.random.default_rng(79 + d)
        u = rng.standard_normal(d)
        u *= 0.2 * np.sign(u[0]) / np.linalg.norm(u)
        normal = np.linalg.svd(u[None])[2][-1]
        normal *= -np.sign(normal[0])
        others = rng.standard_normal((4, d))
        others *= 0.9 / np.linalg.norm(others, axis=1).max()
        pts = np.vstack([np.outer(np.arange(1.0, 6.0), u), u + 0.7e-9 * normal, others])
        q = EmpiricalSample(pts)
        rep = list(q.merged()[1])
        assert rep.index(5) < rep.index(0)
        got = check_scatter_domain(q, d + 0.5)
        assert got == check_scatter_domain_loop(q, d + 0.5)
        assert got.worst_subspace_dim == 1 and got.witness_points == (0,)
        assert got.worst_mass == q.merged()[0].weights[sorted(rep.index(k) for k in range(6))].sum()

    @pytest.mark.parametrize("d", [2, 3])
    def test_line_across_the_end_of_the_circle(self, d):
        # a line along the first axis of the generic plane that directions
        # are projected onto: its points' angles fall at 0 and at pi, the two
        # ends of the circle of lines, and the line must still be found whole
        axis = domain_check._plane(d)[:, 0]
        rng = np.random.default_rng(83)
        pts = np.vstack([np.outer([1.0, 2.0, -1.0, -2.0, 3.0], axis), rng.standard_normal((4, d))])
        q = EmpiricalSample(pts)
        got = check_scatter_domain(q, d + 1.0)
        assert got == check_scatter_domain_loop(q, d + 1.0)
        assert got.worst_subspace_dim == 1 and np.isclose(got.worst_mass, 5 / 9)


def _stack_member(kind, d, n, rng):
    """n points in R^d for one sample of a stack: a law of ``_law``'s kinds or a grouping edge case."""
    if kind == "not_one_line":
        # as in TestProjectAndGroup: k*u and a point 0.7 tol off u, whose line misses the rest
        u = rng.standard_normal(d)
        u *= 0.2 * np.sign(u[0]) / np.linalg.norm(u)
        normal = np.linalg.svd(u[None])[2][-1]
        others = rng.standard_normal((n, d))
        others *= 0.9 / np.linalg.norm(others, axis=1).max()
        return np.vstack([np.outer(np.arange(1.0, 6.0), u), u + 0.7e-9 * normal, others])[:n]
    if kind == "circle_ends":
        # a line whose directions fall at both ends of the circle of lines
        axis = domain_check._plane(d)[:, 0]
        return np.vstack([np.outer([1.0, 2.0, -1.0, -2.0, 3.0], axis), rng.standard_normal((n, d))])[:n]
    return _law(kind, d, n, False, int(rng.integers(2**32))).points


STACKS = st.tuples(
    st.lists(st.sampled_from(["gaussian", "lattice", "line", "plane", "origin", "not_one_line", "circle_ends"]),
             min_size=1, max_size=6),   # the kind of each sample
    st.integers(2, 5),                  # dimension of the check
    st.booleans(),                      # lifted: every point is (y, 1)
    st.integers(2, 12),                 # points per sample before merging (at most 10 in d = 5)
    st.sampled_from(["none", "uniform", "dirichlet", "zeros"]),
    st.sampled_from([None, 1, 2, 3, 5]),  # fixed tuples per block of the widest sample
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 3.0),               # a0 above its minimum
)


def check_stack(points, weights, a0):
    """``check_scatter_domain`` of each sample of a stack; ``weights`` may be None for uniform weights."""
    return [check_scatter_domain(EmpiricalSample(p, None if weights is None else weights[r]), a0)
            for r, p in enumerate(points)]


def check_loop(sample, a0):
    """``check_scatter_domain_loop`` of the sample without its zero-weight rows, witnesses named by its rows."""
    positive, to_caller = domain_check._positive_rows(sample)
    return to_caller(check_scatter_domain_loop(positive, a0))


class TestStack:
    """The exact check of each sample of a stack returns the per-subset loop's report, field for field."""

    @settings(max_examples=250, deadline=None)
    @given(STACKS)
    def test_matches_one_sample_at_a_time(self, case):
        kinds, d, lifted, n, weighting, per_block, seed, extra = case
        rng = np.random.default_rng(seed)
        n = min(n, 10) if d == 5 else n
        P = np.stack([_stack_member(kind, d - lifted, n, rng) for kind in kinds])
        if lifted:
            P = np.concatenate([P, np.ones(P.shape[:2] + (1,))], axis=2)
        W = {"none": None, "uniform": np.full(P.shape[:2], 1.0 / n)}.get(weighting)
        if weighting != "none" and W is None:
            W = rng.dirichlet(np.ones(n), size=len(kinds))
            if weighting == "zeros":
                W[rng.random(W.shape) < 0.3] = 0.0
                W[:, 0] += W.sum(axis=1) == 0.0
                W /= W.sum(axis=1, keepdims=True)
        for r, p in enumerate(P):
            q = EmpiricalSample(p, None if W is None else W[r])
            with pytest.MonkeyPatch.context() as mp:
                if per_block:
                    # blocks of a few fixed tuples, so the sample's tuples split across blocks
                    m = q.drop_zero_weights().merged()[0].n
                    mp.setattr(domain_check, "BLOCK_BYTES", 8 * m * (d + 16) * per_block)
                assert check_scatter_domain(q, d + extra) == check_loop(q, d + extra)

    @pytest.mark.parametrize("seed", range(8))
    def test_padding_is_inside_no_span(self, seed):
        # a narrow law that merges to 14 points from 20 rows: its group along
        # u is not one line (k*u for k = 1..9, |9u| = 1, and one point 0.7 tol
        # off u), so each member's span is summed on its own, over 10 points,
        # and no other point of the law may count inside it
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        u = rng.standard_normal(d)
        u *= np.sign(u[0]) / (9 * np.linalg.norm(u))
        normal = np.linalg.svd(u[None])[2][-1]
        narrow = np.vstack([np.outer(np.arange(1.0, 10.0), u), u + 0.7e-9 * normal, 0.1 * rng.standard_normal((4, d))])
        q = EmpiricalSample(np.vstack([narrow, narrow[:6]]), rng.dirichlet(np.ones(20)))
        assert q.merged()[0].n == 14
        assert check_scatter_domain(q, d + 0.5) == check_loop(q, d + 0.5)

    def test_each_sample_keeps_its_own_tolerance(self):
        # one law at scales 1 and 1e6: a point 0.5 tol off the line through
        # u lies on it only under the sample's own tolerance (1e-9 times its
        # largest norm)
        rng = np.random.default_rng(109)
        u = np.array([0.6, 0.8])
        line = np.outer([1.0, 2.0, -1.0, 3.0], u)  # |3u| = 3 is the largest norm
        p = np.vstack([line, u + 1.5e-9 * np.array([0.8, -0.6]), rng.uniform(-1.0, 1.0, (3, 2))])
        for q in (EmpiricalSample(p), EmpiricalSample(1e6 * p)):
            got = check_scatter_domain(q, 2.5)
            assert got == check_loop(q, 2.5)
            assert got.worst_mass == 5 / 8

    def test_rejects_bad_input(self):
        # each sample of a stack is checked on its own, so a bad second sample
        # is refused
        P = np.random.default_rng(103).standard_normal((2, 5, 3))
        W = np.full((2, 5), 0.2)
        with pytest.raises(ValueError):
            check_stack(np.zeros((2, 0, 3)), None, 4.0)  # empty samples
        for value in (np.nan, np.inf):
            Q = P.copy()
            Q[1, 2, 0] = value
            with pytest.raises(ValueError):
                check_stack(Q, W, 4.0)
        # the row of the second sample only, or the shape
        bad_rows = [W[:, :4], np.where(np.eye(2, 5, -1) > 0, np.nan, W), W * [[1.0], [1.5]],
                    W + [[0.0] * 5, [0.0, 0.0, 0.0, 0.3, -0.3]]]
        for weights in bad_rows:
            with pytest.raises(ValueError):
                check_stack(P, weights, 4.0)
        with pytest.raises(ValueError):
            check_stack(P, W, 3.0)  # a0 must exceed d

    def test_accepts_a_monte_carlo_stack_of_75_whole(self):
        # a Monte Carlo job's stack: 75 replicates of 300 draws from a
        # 400-point 2-D t(3) law, all inside the domain. Whitened by the
        # inverse factor, every fit is accepted, so none is left to enumerate
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        P = law[rng.integers(400, size=(75, 300))]
        W = np.full((75, 300), 1 / 300)
        A = np.stack([fit.A.mat for fit in solve_scatter_stack(P, W, ScatterConfig(nu=2.0))])
        assert all(rpt.member for rpt in check_stack(P, None, 4.0))
        assert _certify_members(P, W, A, 4.0).all()


def _threshold_law(d, n, lifted, seed):
    """n points in the check's R^d and an a0 at which a planted subspace's mass k/n is exactly its threshold.

    The subspace has dimension q and k > q n / d points, so
    a0 = (d - q) n / (n - k) exceeds d and 1 - (d - q)/a0 = k/n. Lifted, the
    points are (y, 1) and the subspace is the lift of an affine one.
    """
    rng = np.random.default_rng(seed)
    q = int(rng.integers(int(lifted), d))
    while q > int(lifted) and (q * n) // d > n - 2:
        q -= 1
    k = int(rng.integers((q * n) // d + 1, n))
    free = d - 1 if lifted else d
    span = rng.standard_normal((q - int(lifted), free))
    inside = rng.standard_normal((k, span.shape[0])) @ span
    if lifted:
        inside += rng.standard_normal(free)
    pts = np.vstack([inside, rng.standard_normal((n - k, free))])[rng.permutation(n)]
    if lifted:
        pts = np.hstack([pts, np.ones((n, 1))])
    return pts, (d - q) * n / (n - k)


CERTIFY_KINDS = ["gaussian", "lattice", "line", "plane", "origin", "not_one_line", "circle_ends",
                 "flat line", "flat plane", "threshold"]
CERTIFY_LAWS = st.tuples(
    st.sampled_from(CERTIFY_KINDS),
    st.integers(2, 5),                 # dimension of the check
    st.booleans(),                     # lifted: every point is (y, 1)
    st.integers(3, 16),                # points before merging
    st.sampled_from(["uniform", "dirichlet", "zeros"]),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 3.0),              # a0 above its minimum
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),  # a threshold law's a0, raised by this share
)


def _certify_law(case):
    """The law and a0 of a ``CERTIFY_LAWS`` case, and the generator it was drawn from."""
    kind, d, lifted, n, weighting, seed, extra, raise_a0 = case
    rng = np.random.default_rng(seed)
    if kind == "threshold":
        P, a0 = _threshold_law(d, n, lifted, seed)
        if raise_a0 == 0.0:
            assert not check_scatter_domain(EmpiricalSample(P), a0).member
        a0 *= 1.0 + raise_a0
    else:
        if kind.startswith("flat"):
            pts = _flat_law(kind.split()[1], d - lifted, n, False, seed).points
        else:
            pts = _stack_member(kind, d - lifted, n, rng)
        P = np.hstack([pts, np.ones((pts.shape[0], 1))]) if lifted else pts
        a0 = d + extra
    w = None
    if weighting != "uniform":
        w = rng.dirichlet(np.ones(P.shape[0]))
        if weighting == "zeros":
            w[rng.random(w.size) < 0.3] = 0.0
            w[0] += w.sum() == 0.0
            w /= w.sum()
    return EmpiricalSample(P, w), a0, rng


class TestCertificate:
    """``_certify_members`` accepts only laws the exact check accepts."""

    @settings(max_examples=400, deadline=None)
    @given(CERTIFY_LAWS)
    def test_never_accepts_what_enumeration_rejects(self, case):
        # the certificate holds for any SPD matrix, so it is tried at the
        # law's fit (which may stop anywhere off the domain, taken without
        # the collapse stop) and at a random one
        q, a0, rng = _certify_law(case)
        d = q.d
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "COLLAPSE_STEPS", 201)
            fits = _solve_stack(q.points[None], q.weights[None], ScatterConfig(nu=a0 - d, max_iter=200))
        G = rng.standard_normal((d, d))
        candidates = [G @ G.T + 1e-3 * np.eye(d)] + [fit.A.mat for fit in fits if isinstance(fit, ScatterResult)]
        accepted = _certify_members(np.stack([q.points] * len(candidates)), np.stack([q.weights] * len(candidates)),
                                    np.stack(candidates), a0)
        if accepted.any():
            assert check_scatter_domain(q, a0).member

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_accepts_fits_of_generic_laws(self, d):
        # what makes it worth running: clouds inside the domain are accepted
        # from their fit, in every dimension, scatter and lifted
        rng = np.random.default_rng(d)
        for nu in (0.2, 1.0, 4.0):
            P = np.stack([rng.standard_normal((60, d)) / np.sqrt(rng.chisquare(3.0, (60, 1))) for _ in range(5)])
            W = np.full((5, 60), 1 / 60)  # as EmpiricalSample makes uniform weights
            fits = solve_scatter_stack(P, W, ScatterConfig(nu=nu))
            assert _certify_members(P, W, np.stack([f.A.mat for f in fits]), nu + d).all()
            L = np.concatenate([P, np.ones((5, 60, 1))], axis=2)
            fits = solve_scatter_stack(L, W, ScatterConfig(nu=nu))
            assert _certify_members(L, W, np.stack([f.A.mat for f in fits]), nu + d + 1).all()

    def test_refuses_off_domain_fits_that_stop_as_converged(self, monkeypatch):
        # of 40 draws of 300 from the near-boundary four-point law, the ones
        # with 3/4 of their mass on an axis (the threshold at nu = 2) are
        # outside the domain. The solver stops them where their iterate
        # collapses; without that stop some of their fits stop on the
        # gradient test, far out in the cone, and the certificate must
        # refuse those iterates
        r = np.sqrt(2.0)
        law = EmpiricalSample(np.array([[r, 0], [-r, 0], [0, r], [0, -r]]), np.array([0.372, 0.372, 0.128, 0.128]))
        rng = np.random.default_rng(3)
        P = law.points[np.stack([rng.choice(4, size=300, p=law.weights) for _ in range(40)])]
        W = np.full((40, 300), 1 / 300)
        cfg = ScatterConfig(nu=2.0)
        reports = check_stack(P, None, 4.0)
        fits = _solve_stack(P, W, cfg)
        assert not [i for i, (fit, rpt) in enumerate(zip(fits, reports))
                    if isinstance(fit, ScatterResult) and fit.stop_reason == "grad" and not rpt.member]
        monkeypatch.setattr(scatter, "COLLAPSE_STEPS", cfg.max_iter + 1)  # the solver without its collapse stop
        fits = _solve_stack(P, W, cfg)
        converged_outside = [i for i, (fit, rpt) in enumerate(zip(fits, reports))
                             if isinstance(fit, ScatterResult) and fit.stop_reason == "grad" and not rpt.member]
        assert converged_outside
        A = np.stack([fits[i].A.mat for i in converged_outside])
        assert not _certify_members(P[converged_outside], W[converged_outside], A, 4.0).any()
        inside = [i for i, rpt in enumerate(reports) if rpt.member]
        A = np.stack([fits[i].A.mat for i in inside])
        assert _certify_members(P[inside], W[inside], A, 4.0).all()

    @pytest.mark.parametrize("width", [1, 3])
    def test_verdicts_do_not_depend_on_the_block_width(self, width):
        # M summed a few points at a time: every law kind of CERTIFY_LAWS, at
        # its fit and at a random SPD matrix, gets the one-block verdict
        cases = itertools.product(CERTIFY_KINDS, [2, 3, 5], [False, True])
        verdicts = 0
        for i, (kind, d, lifted) in enumerate(cases):
            weighting = ["uniform", "dirichlet", "zeros"][i % 3]
            q, a0, rng = _certify_law((kind, d, lifted, 12, weighting, i, 0.5, [0.0, 1e-9, 1e-3][i % 3]))
            fits = _solve_stack(q.points[None], q.weights[None], ScatterConfig(nu=a0 - q.d, max_iter=200))
            G = rng.standard_normal((q.d, q.d))
            A = np.stack([G @ G.T + 1e-3 * np.eye(q.d)] + [f.A.mat for f in fits if isinstance(f, ScatterResult)])
            P, W = np.stack([q.points] * len(A)), np.stack([q.weights] * len(A))
            want = _certify_members(P, W, A, a0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(symspace, "CACHE_BYTES", 8 * (3 * q.d + 4) * width)
                assert np.array_equal(_certify_members(P, W, A, a0), want), (kind, d, lifted)
            verdicts += want.sum()
        assert verdicts >= 20

    def test_verdicts_do_not_depend_on_the_order_of_ties(self):
        # coincident points tie in f at every A. The knapsack takes tied
        # points in whatever order the sort leaves them, and they lie on one
        # line of its bound, so reversing each group of coincident rows, with
        # their weights, leaves every verdict as it is
        cases = itertools.product(CERTIFY_KINDS, [2, 3, 5], [False, True])
        verdicts = reordered = 0
        for i, (kind, d, lifted) in enumerate(cases):
            weighting = ["dirichlet", "zeros"][i % 2]
            q, a0, rng = _certify_law((kind, d, lifted, 12, weighting, i, 0.5, [0.0, 1e-9, 1e-3][i % 3]))
            perm = np.arange(q.n)
            groups = np.unique(q.points, axis=0, return_inverse=True)[1].reshape(-1)
            for g in np.unique(groups):
                rows = np.flatnonzero(groups == g)
                perm[rows] = rows[::-1]
            fits = _solve_stack(q.points[None], q.weights[None], ScatterConfig(nu=a0 - q.d, max_iter=200))
            G = rng.standard_normal((q.d, q.d))
            A = np.stack([G @ G.T + 1e-3 * np.eye(q.d)] + [f.A.mat for f in fits if isinstance(f, ScatterResult)])
            P, W = np.stack([q.points] * len(A)), np.stack([q.weights] * len(A))
            want = _certify_members(P, W, A, a0)
            assert np.array_equal(_certify_members(P[:, perm], W[:, perm], A, a0), want), (kind, d, lifted)
            verdicts += want.sum()
            reordered += not np.array_equal(q.weights[perm], q.weights)
        assert verdicts >= 20 and reordered >= 10

    def test_roundoff_allowance(self):
        # at a converged fit M - I is mostly a multiple of I, so where
        # tr(M) < d, c_0 = d - sqrt(d) ||M - I||_F equals the sum of w f =
        # tr(M) up to roundoff: the q = 0 bound without an allowance is then
        # decided by the last bits. With it, every replicate of a Monte Carlo
        # chunk inside the domain is accepted
        rng = np.random.default_rng(2)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        P = law[rng.integers(400, size=(34, 300))]
        W = np.full((34, 300), 1 / 300)
        A = np.stack([fit.A.mat for fit in solve_scatter_stack(P, W, ScatterConfig(nu=2.0))])
        assert all(rpt.member for rpt in check_stack(P, None, 4.0))
        assert _certify_members(P, W, A, 4.0).all()
        Z = np.linalg.solve(np.linalg.cholesky(A), np.swapaxes(P, 1, 2))
        s = np.einsum("rin,rin->rn", Z, Z)
        M = (Z * (W * 4.0 / (2.0 + s))[:, None, :]) @ np.swapaxes(Z, 1, 2)
        c0 = 2.0 - np.sqrt(2.0) * np.linalg.norm(M - np.eye(2), axis=(1, 2))
        total = (W * 4.0 * s / (2.0 + s)).sum(axis=1)
        assert (total - c0 <= 1e-14).sum() >= 3

    def test_accepts_a_monte_carlo_stack_of_75_whole(self):
        # a Monte Carlo job's stack: 75 replicates of 300 draws from a
        # 400-point 2-D t(3) law, all inside the domain. Whitened by the
        # inverse factor, every fit is accepted, so none is left to enumerate
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        P = law[rng.integers(400, size=(75, 300))]
        W = np.full((75, 300), 1 / 300)
        A = np.stack([fit.A.mat for fit in solve_scatter_stack(P, W, ScatterConfig(nu=2.0))])
        assert all(rpt.member for rpt in check_stack(P, None, 4.0))
        assert _certify_members(P, W, A, 4.0).all()


def _same_fit(a, b):
    return (_same_bits(a.A.mat, b.A.mat) and (a.iterations, a.newton_steps, a.stop_reason, a.objective_trace)
            == (b.iterations, b.newton_steps, b.stop_reason, b.objective_trace))


class TestCollapseWitness:
    """A fit stops on a collapse only where the exact check rejects the law."""

    @settings(max_examples=300, deadline=None)
    @given(CERTIFY_LAWS)
    def test_collapse_stops_only_laws_the_exact_check_rejects(self, case):
        # every law family of this module, the exact-threshold constructions
        # with a0 raised by 0 to 1e-3 among them, fitted with their
        # zero-weight rows as solve_scatter_stack takes them; the law is the
        # sample without those rows
        q, a0, _ = _certify_law(case)
        cfg = ScatterConfig(nu=a0 - q.d, max_iter=200)
        found, witness = [], scatter._collapse_witness

        def spy(*args):
            found.append(witness(*args))
            return found[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "_collapse_witness", spy)
            (got,) = _solve_stack(q.points[None], q.weights[None], cfg)
        positive = q.drop_zero_weights()
        collapsed = isinstance(got, scatter._Collapse)
        assert collapsed == (isinstance(got, NumericalBreakdown) and "collapsed" in str(got))
        if collapsed:
            assert not domain_check._check_exact(positive.points, positive.weights, a0).member
            dim, rows, mass, threshold = found[-1]
            assert found[:-1] == [None] * (len(found) - 1) and len(rows) == dim
            assert mass >= threshold - domain_check.EQ_TOL
            # the loop's residual test counts at least the witness's points, in the merged law;
            # the two masses sum the same weights in different orders
            rows_of_positive = (np.cumsum(q.weights > 0.0) - 1)[list(rows)]
            assert mass <= span_mass_loop(positive, rows_of_positive) + 4 * (q.n + 2) * np.finfo(float).eps
        else:
            # what the solver returns without the collapse stop, bit for bit
            assert not any(found)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scatter, "COLLAPSE_STEPS", cfg.max_iter + 1)
                (want,) = _solve_stack(q.points[None], q.weights[None], cfg)
            assert type(got) is type(want)
            assert str(got) == str(want) if isinstance(want, NumericalBreakdown) else _same_fit(got, want)
