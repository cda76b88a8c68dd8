"""Existence-domain checks for empirical laws.

The scatter functional with tail parameter ``a0 = nu + d`` exists for a law Q
on R^d exactly when every linear subspace H of dimension q <= d-1 carries mass
``Q(H) < 1 - (d - q)/a0``. The location-scatter version replaces linear
subspaces by affine ones; lifting each point y to (y, 1) reduces it to the
linear check one dimension up.

For a discrete law any violating subspace is spanned by sample points it
contains, so the exact check looks at the spans of s = 1 .. d-1 independent
sample points, in any dimension, without testing each s-subset on its own.
For every fixed tuple F of s-1 points (none for lines) it projects all points
onto the orthogonal complement of span(F), where each span F + j is a line
through the origin, and groups the points by line with one sort of their
directions. That takes about C(m, s-1) * m log m operations per span size
instead of C(m, s) * m; testing collinearity is 3SUM-hard, so exact reports
cannot do much better. A row (one fixed tuple) in general position is
settled without grouping: when span(F) holds F's points and no other, and
the sort finds every other point alone on its line and away from the ends
of the circle of lines (``_line_groups``), each span F + j holds F and j
alone. Its candidates are then every j after max F, their masses summed as
the grouping's exact sums take them, so the report cannot change; such a
row costs its projection and its sort. On laws drawn from a density almost
every row is of this kind; rows with a coincidence (a heavy plane, a
lattice) are grouped. The fixed tuples are drawn lazily and handled in
blocks, so scratch memory stays within a small multiple of ``BLOCK_BYTES``
however many there are, and the line search (s = 1) needs O(m). Ties in
mass go to the first subset in ``itertools.combinations`` order, as if every
subset were tested. A budget on the number of subsets, C(m, 1) + ... +
C(m, d-1), is the only limit on exact enumeration; past it the check refuses
to run rather than answer inexactly.

The domain is a property of the law, so rows of zero weight take no part in
any verdict: ``check_scatter_domain`` and the solvers decide on the sample
without them and name witnesses by the caller's rows (``_positive_rows``).

The solve paths need only a verdict, and they have a fit. From it
``_certify_members`` proves membership at O(n d^2) cost, for every subspace
at once, and it never accepts a law the exact check rejects; it proves
nothing when it declines. So the solvers fit first, certify, and enumerate
only the samples the certificate cannot accept, and the budget limits them
only there. One stacked helper, ``scatter._fit_and_check``, decides the
membership of every sample that a solve path fits. ``check_scatter_domain``
always enumerates, since its report names the worst subspace.

Off the domain the solver's iterate collapses onto a subspace H of too much
mass, and its top eigenspace turns towards H. ``_collapse_witness`` reads a
candidate subspace off that eigenspace for each dimension q: it keeps the
fewest points, by relative residual off the eigenspace, that carry the
threshold mass, picks q of them by pivoted Gram-Schmidt, and counts the
points within half the exact check's tolerance t of their span. It fires
when that mass reaches the threshold minus ``EQ_TOL``, plus an allowance for
the order of summation. That makes its rejection exact, by three facts:

* the pivots, taken in merged order, pass the exact check's own
  independence test (|diag R| of their QR above t) with a factor of two to
  spare, so the enumeration tests their span, from the first q - 1 of them
  as fixed tuple and the last as the line through it;
* a point within t/2 of that span is, for the enumeration, inside span(F)
  or within t/2 of the pivot's line on the complement of span(F). There its
  direction lies within pi t/(4 r) of the pivot's, r being the length of its
  projection onto the generic plane, against the pi t/r half-width of its
  arc, so its arc reaches the pivot's direction: the point is in the
  pivot's group, or the group is not clean (its directions spread, or an
  arc of its row crosses the ends of the circle) and the residual test, at
  t, counts it;
* the enumeration keeps the largest such mass, so the worst subspace it
  reports has a margin at least the witness's, and it rejects the law.

So a member law is never stopped, whatever the iterate; the witness proves
nothing when it does not fire. At q = 0 it is the mass at the origin, the
collapse of the whole iterate.

The exact check (``_check_exact``) takes one sample, merged by one sort;
each row of a block is one fixed tuple. It is called from two places:

* ``check_scatter_domain``, on the sample's positive rows;
* ``scatter._fit_and_check``, on each fitted sample that neither the
  certificate nor the witness decides, one at a time. A sample the witness
  stopped counts as outside without enumeration, except in
  ``solve_scatter``, which enumerates it so that its report names the worst
  subspace; ``run_clt_experiment`` enumerates the first replicate outside,
  through ``check_scatter_domain``, only for the report it raises when fewer
  than two replicates are members.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EnumerationBudgetError
from .symspace import _weighted_gram

__all__ = [
    "EmpiricalSample",
    "DomainReport",
    "check_scatter_domain",
    "check_locscat_domain",
    "lift",
    "max_atom",
]

# Mass within this distance of a threshold counts as reaching it. The domain
# definitions require strict inequality, so exact-boundary constructions
# (e.g. an atom of exactly nu/(nu+1)) must be rejected despite rounding.
EQ_TOL = 1e-12

# Relative tolerance for rank and point-in-subspace decisions.
POINT_RTOL = 1e-9

# Subsets examined before exact enumeration refuses to run.
DEFAULT_BUDGET = 2_000_000

# Scratch memory, in bytes, that exact enumeration sizes its subset blocks to.
BLOCK_BYTES = 2 * 2**20


@dataclass(frozen=True)
class EmpiricalSample:
    """A weighted discrete law: n points in R^d with nonnegative weights summing to 1.

    One-dimensional point arrays are promoted to shape (n, 1). Weights default
    to uniform. The constructor checks the arrays, makes -0.0 +0.0, divides the
    weights by their sum once and freezes them. Derived laws (``merged``,
    ``drop_zero_weights``, ``lift``) carry those arrays, not divided again.
    """

    points: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (n, d) array with n >= 1, got {pts.shape}")
        w = None if self.weights is None else np.asarray(self.weights, dtype=float).reshape(1, -1)
        pts, w = _as_stack(pts[None], w)
        EmpiricalSample._carry(pts[0], w[0], law=self)

    @classmethod
    def _carry(cls, points: np.ndarray, weights: np.ndarray, law=None) -> "EmpiricalSample":
        # canonical arrays frozen into `law` (a new sample by default), not checked or divided again
        law = object.__new__(cls) if law is None else law
        for name, arr in (("points", points), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(law, name, arr)
        return law

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def merged(self):
        """Merge exactly coincident points.

        Returns ``(sample, rep_index)`` where ``rep_index[k]`` is the index in
        the original sample of the first occurrence of merged point k. Points
        come back in lexicographic order; each merged weight sums its copies
        in index order.
        """
        pts, w, rep = _merge(self.points, self.weights)
        return EmpiricalSample._carry(pts, w), rep

    def drop_zero_weights(self) -> "EmpiricalSample":
        keep = self.weights > 0.0
        if keep.all():
            return self
        return EmpiricalSample._carry(self.points[keep], self.weights[keep])


@dataclass(frozen=True)
class DomainReport:
    """Verdict of a domain check plus the closest-to-violating subspace found.

    ``member`` is False exactly when some recorded subspace reaches its mass
    threshold. ``worst_*`` describe the subspace with the largest
    mass - threshold margin; ``witness_points`` are rows of the caller's
    sample spanning it, never rows of zero weight. ``exact`` is always True;
    it is kept for the v1 result envelope.
    """

    member: bool
    a0: float
    worst_subspace_dim: int | None
    worst_mass: float
    threshold: float
    witness_points: tuple[int, ...] = ()
    exact: bool = True


def lift(sample: EmpiricalSample) -> EmpiricalSample:
    """Append a constant coordinate 1 to every point, keeping weights."""
    ones = np.ones((sample.n, 1))
    return EmpiricalSample._carry(np.hstack([sample.points, ones]), sample.weights)


def _affine_report(report: DomainReport) -> DomainReport:
    # a lifted sample's linear report as the sample's affine one: the lift of
    # an affine q-subspace spans a linear (q+1)-subspace
    dim = None if report.worst_subspace_dim is None else max(report.worst_subspace_dim - 1, 0)
    return dataclasses.replace(report, worst_subspace_dim=dim)


def max_atom(sample: EmpiricalSample):
    """Heaviest atom after merging coincident points.

    Returns ``(location, mass)`` with ties broken by lexicographically
    smallest location.
    """
    merged, _ = sample.merged()
    k = int(np.argmax(merged.weights))
    return merged.points[k].copy(), float(merged.weights[k])


def _as_stack(points, weights):
    # checked (R, n, d) points, with -0.0 made +0.0 so that exact-equality
    # merging is stable, and (R, n) weights, each row divided by its sum
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1] < 1:
        raise ValueError(f"points must be an (R, n, d) array with n >= 1, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if weights is None:
        return pts + 0.0, np.full(pts.shape[:2], 1.0 / pts.shape[1])
    w = np.asarray(weights, dtype=float)
    if w.shape != pts.shape[:2]:
        raise ValueError(f"weights must have shape {pts.shape[:2]} to match the points, got {w.shape}")
    if not np.isfinite(w).all() or (w < 0.0).any():
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum(axis=1, keepdims=True)
    if (np.abs(total - 1.0) > 1e-12).any():
        raise ValueError(f"weights must sum to 1 within 1e-12, got {total.ravel()!r}")
    return pts + 0.0, w / total


def _merge(points: np.ndarray, weights: np.ndarray):
    # EmpiricalSample.merged of a checked sample by one stable lexsort: the
    # merged points, their weights (the sums of their copies) and the index
    # of each one's first copy
    order = np.lexsort(points.T[::-1])  # copies keep index order
    pts = points[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    return pts[first], np.bincount(np.cumsum(first) - 1, weights=weights[order]), order[first]


def _point_scale(points: np.ndarray):
    # largest point norm of each sample of an (..., m, d) stack, 1 when all are 0;
    # the root of the largest squared norm, as np.linalg.norm sums the squares
    top = np.sqrt(np.square(points).sum(axis=-1).max(axis=-1))
    return np.where(top > 0.0, top, 1.0)


def _subset_count(m: int, max_size: int) -> int:
    return sum(math.comb(m, s) for s in range(1, max_size + 1))


def _positive_rows(sample: EmpiricalSample):
    """``sample`` without its zero-weight rows, and a map of reports on it to the caller's rows.

    The map rewrites a report's ``witness_points`` as indices into ``sample``.
    """
    rows = np.flatnonzero(sample.weights > 0.0)

    def to_caller(report: DomainReport) -> DomainReport:
        return dataclasses.replace(report, witness_points=tuple(int(rows[i]) for i in report.witness_points))

    return sample.drop_zero_weights(), to_caller


def check_scatter_domain(sample: EmpiricalSample, a0: float) -> DomainReport:
    """Decide whether the law satisfies the linear-subspace mass conditions.

    Membership requires ``mass(H) < 1 - (d - q)/a0`` strictly for every linear
    subspace H of dimension q <= d-1 (including H = {0}). Equality within
    ``EQ_TOL`` counts as a violation. Requires ``a0 > d``. Rows of zero weight
    are dropped first, as the solvers drop them; witnesses are rows of
    ``sample``.

    The check is exact: it covers every subspace spanned by at most d-1
    distinct sample points, in any dimension; the only refusal is
    :class:`EnumerationBudgetError` when the number of such subsets, which it
    does not test one by one, exceeds ``DEFAULT_BUDGET``. For each span size s
    it projects the points off each tuple of s-1 of them and groups the rest by
    line through the origin with one sort, about C(m, s-1) * m log m work for m
    distinct points, in blocks whose scratch memory stays within a small
    multiple of ``BLOCK_BYTES`` whatever the sample size (O(m) for lines). A
    tuple in general position (no other point in its span, no two points on
    one line of its complement) costs that projection and sort alone: its
    spans each hold the tuple and one point, so they are read off without
    grouping, with the masses and the tie order the grouping gives. Tuples
    with a coincidence are grouped, at about one and a half times that cost.
    Among subspaces with the same margin the report names the first found:
    lower dimension first, then ``itertools.combinations`` order of the merged
    points, as if each subset were tested in turn.
    """
    positive, to_caller = _positive_rows(sample)
    return to_caller(_check_exact(positive.points, positive.weights, float(a0)))


def _certify_members(pts, w, A, a0: float) -> np.ndarray:
    """Prove domain membership of a stack of samples from a scatter matrix of each.

    ``pts`` (R, n, d) and ``w`` (R, n) are samples as :class:`EmpiricalSample`
    holds them, the weights used as given: the solve paths pass the arrays
    they fitted, so the law certified is the law fitted, bit for bit, and the
    law the exact check would enumerate. ``A`` is an (R, d, d) stack of SPD
    matrices, in practice each sample's fit at ``a0`` > d. Returns one bool
    per sample. True proves that the sample is a member, so that the exact
    check accepts it too; False proves nothing.

    The bound is the necessity argument of Kent and Tyler (Ann. Statist. 19,
    1991) made quantitative. Let A = L L', z_i = L^{-1} y_i, s_i = |z_i|^2,
    u(s) = a0/(nu + s) with nu = a0 - d, and M = sum_i w_i u(s_i) z_i z_i'.
    For a q-subspace H let P project orthogonally off L^{-1} H, a projection
    of rank d - q. The points of H have P z_i = 0, and every point has
    u(s) |P z|^2 <= f(s) = a0 s/(nu + s). So

        c_q = (d - q) - sqrt(d - q) ||M - I||_F <= tr(P M) <= sum_{i not in H} w_i f(s_i).

    The least mass whose f-weighted sum reaches c_q bounds Q(H^c) from below.
    It is a fractional knapsack: take the points in decreasing order of f. A
    sample is accepted when for every q = 0 .. d-1 that bound exceeds
    (d - q)/a0 + ``EQ_TOL``, the exact check's rule, plus the allowance
    ``rho`` below. The bound holds for every subspace, not only for spans of
    sample points, and for any A; a fit makes ||M - I|| small.

    c_q is lowered by two allowances:

    * the exact check counts a point within its tolerance t of H as inside
      H, with t = ``POINT_RTOL`` times the largest |y_i|. Such a point adds
      at most w_i u_i min(s_i, (2 t ||L^{-1}||)^2) to tr(P M), so the sum of
      that over all points is subtracted.
    * ``rho`` = eps (n + 8 d^2 kappa(L) + 16) bounds the relative roundoff
      of s, f, the entries of M and the n-term sums. The points are
      whitened here, z_i = X y_i with X the computed inverse of L. X is the
      exact inverse of a matrix L~ whose singular values are within
      relative d eps kappa(L) of L's, since the residual X L - I of an
      LU-based inverse is that small (the factor d leaves room for pivot
      growth). The bound holds for any A, so it holds at
      L~ L~', whose kappa and ||L~^{-1}|| differ from L's only by factors
      1 + O(d eps kappa(L)). What is left is the rounding of the products
      X y_i, at most d eps |X| |y_i| entrywise, which is d^(3/2) eps
      kappa(L~) relative to |z_i| at most: within the d^2 eps kappa(L) of
      a backward-stable solve with pivot growth, so 8 d^2 kappa(L), with
      kappa(L) = sqrt(kappa(A)), still covers the whitening.
      (1 + sqrt(d)) rho tr(M) covers the error in ||M - I||_F and in the
      prefix sums of w f; rho on the mass side covers the exact check's
      own sums. The n-term bound in rho holds for any order of summation,
      so it holds for M summed a block of points at a time
      (``symspace._weighted_gram``), as it is here.
    """
    R, n, d = pts.shape
    L = np.linalg.cholesky(A)
    Z = np.linalg.inv(L) @ np.swapaxes(pts, 1, 2)
    s = np.einsum("rin,rin->rn", Z, Z)
    wu = w * a0 / (a0 - d + s)
    M = _weighted_gram(Z, lambda Zb, cols: wu[:, cols])
    e = np.linalg.norm(M - np.eye(d), axis=(1, 2))
    f = a0 * s / (a0 - d + s)
    total = np.einsum("rn,rn->r", w, f)

    sv = np.linalg.svd(L, compute_uv=False)
    rho = np.finfo(float).eps * (n + 8 * d * d * sv[:, 0] / sv[:, -1] + 16)
    reach_tol = np.square(2.0 * POINT_RTOL * _point_scale(pts) / sv[:, -1])
    near = np.einsum("rn,rn->r", wu, np.minimum(s, reach_tol[:, None]))
    lower = (1.0 + math.sqrt(d)) * rho * total + near

    # fractional knapsack: points by decreasing f, with running mass and f-weighted mass. Points
    # of tied f lie on one line of the bound, so their order is immaterial for any weights; where
    # all points weigh the same, the weights need no reordering at all
    if (w == w[:, :1]).all():
        f_sorted, w_sorted = np.sort(f, axis=1)[:, ::-1], w
    else:
        order = np.argsort(-f, axis=1)
        f_sorted, w_sorted = np.take_along_axis(f, order, 1), np.take_along_axis(w, order, 1)
    mass, reach = np.zeros((R, n + 1)), np.zeros((R, n + 1))
    np.cumsum(w_sorted, axis=1, out=mass[:, 1:])
    np.cumsum(w_sorted * f_sorted, axis=1, out=reach[:, 1:])
    rows = np.arange(R)
    member = np.ones(R, dtype=bool)
    for q in range(d):
        c = (d - q) - math.sqrt(d - q) * e - lower
        k = np.minimum((reach[:, 1:] < c[:, None]).sum(axis=1), n - 1)  # the point that reaches c
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = mass[rows, k] + (c - reach[rows, k]) / f_sorted[rows, k]
        member &= (c > 0.0) & (reach[:, -1] >= c) & (bound > (d - q) / a0 + EQ_TOL + rho)
    return member


def _best_candidate(cands):
    # candidates are (mass, threshold, dim, witnesses); worst margin first
    return max(cands, key=lambda c: (c[0] - c[1], c[0]))


def _subset_blocks(m: int, size: int, block: int):
    # the subsets of `size` of m points in combinations order, as index arrays
    # of at most `block` rows (size 0 gives the one empty subset)
    combos = itertools.combinations(range(m), size)
    while chunk := list(itertools.islice(combos, block)):
        yield np.array(chunk, dtype=np.intp).reshape(len(chunk), size)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    # concatenation of arange(s, s + n) over the pairs (s, n)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _exact_masses(counts: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    # w[set].sum() for the consecutive sets of counts[i] points in idx, each
    # listed in ascending order as w[inside] lists them: numpy sums a row of
    # a C-ordered array along its contiguous axis pairwise, exactly as it
    # sums the 1-D array w[inside]
    masses = np.zeros(counts.size)
    size = counts.repeat(counts)
    for k in np.unique(counts[counts > 0]):
        masses[counts == k] = w[idx[size == k]].reshape(-1, k).sum(axis=1)
    return masses


def _frames(X: np.ndarray, fixed: np.ndarray, tol: float):
    """Coordinates of every point on the orthogonal complement of each fixed tuple's span.

    Keeps the independent tuples (the diag(R) test of their QR). Returns
    them, the (B, m, d - s) coordinates and their norms, the distances to
    the span.
    """
    s = fixed.shape[1]
    if s == 0:
        C = X[None]
    else:
        q, r = np.linalg.qr(X[fixed].transpose(0, 2, 1), mode="complete")
        indep = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > tol
        fixed = fixed[indep]
        C = X @ q[indep, :, s:]
    return fixed, C, np.sqrt(sum(np.square(C[..., k]) for k in range(C.shape[2])))


@functools.lru_cache(maxsize=None)
def _plane(r: int) -> np.ndarray:
    # a fixed generic plane in R^r (orthonormal columns), onto which distinct
    # lines through the origin almost never fall together; for r = 2 a rotation
    plane = np.linalg.qr(np.random.default_rng(r).standard_normal((r, 2)))[0]
    plane.setflags(write=False)
    return plane


def _line_groups(C: np.ndarray, norms: np.ndarray, on: np.ndarray, tol: float, bare: np.ndarray):
    """Group the points of each frame by the line through the origin they lie on.

    ``C`` is (B, m, r): coordinates on a complement, with lengths ``norms``;
    ``on`` marks the points farther than ``tol`` from the origin. Each gets
    an arc on the circle of lines (angles mod pi): the direction of its
    projection onto a fixed generic plane, widened to every direction whose
    line passes within 2 tol of it. One sort per row by arc start finds the
    overlapping arcs, which form a group, so a line through one member holds
    no point of another group within 2 tol. A group is clean when its
    members' directions lie so close that each is within tol/2 of the line
    through any other, and no arc of its row reaches past the ends of the
    circle, where it could split a group.

    A row is simple when it is ``bare`` (span(F) holds F's points and no
    other), every point off span(F) is a group of its own and no arc
    reaches past the ends of the circle: each such point is then a clean
    line of its own, and the caller needs no more than the mask. Returns,
    for the other rows, all (row, point) pairs, row by row, with each group
    contiguous and every point not in ``on`` alone at the end of its row;
    the group starts; which groups are lines (not a point of span(F)); and
    which lines are clean; then the (B,) mask of simple rows.
    """
    B, m = norms.shape
    z = C @ _plane(C.shape[2])
    theta = np.arctan2(z[..., 1], z[..., 0])
    theta = np.where(theta < 0, theta + np.pi, theta)
    # pi/2 * x bounds arcsin(x), the angle at which a point is 2 tol off a line
    with np.errstate(divide="ignore"):
        half = np.minimum(np.pi * tol / np.sqrt(np.square(z[..., 0]) + np.square(z[..., 1])), np.pi / 2)
    lo = np.where(on, theta - half, np.inf)
    order = np.argsort(lo, axis=1)
    flat = (order + m * np.arange(B)[:, None]).ravel()
    lo = lo.ravel()[flat].reshape(B, m)
    hi = np.where(on, theta + half, -np.inf).ravel()[flat].reshape(B, m)
    reach = np.maximum.accumulate(hi, axis=1)
    head = lo >= np.inf  # each point of span(F) alone
    head[:, 0] = True
    head[:, 1:] |= lo[:, 1:] > reach[:, :-1]
    ends = (lo[:, 0] < 0) | (reach[:, -1] > np.pi)  # an arc of the row reaches past an end
    simple = bare & head.all(axis=1) & ~ends
    if simple.any():
        keep = np.flatnonzero(~simple)
        flat, order, head = flat.reshape(B, m)[keep].ravel(), order[keep], head[keep]
    rows, pts = flat // m, order.ravel()
    seg = np.flatnonzero(head)
    count = np.diff(np.append(seg, pts.size))
    line = on.ravel()[flat][seg]
    clean = line & ~ends[rows[seg]]
    many = np.flatnonzero(np.repeat(count > 1, count))
    if many.size:
        # each member's direction against its group's first one, sign-free
        first = np.repeat(seg, count)[many]
        u = C[rows[many], pts[many]] / norms[rows[many], pts[many], None]
        v = C[rows[first], pts[first]] / norms[rows[first], pts[first], None]
        chord = np.linalg.norm(u - np.copysign(1.0, (u * v).sum(axis=1))[:, None] * v, axis=1)
        far = chord * norms.max(axis=1)[rows[many]] > tol / 4
        clean[np.searchsorted(seg, many[far], side="right") - 1] = False
    return rows, pts, seg, line, clean, simple


def _heaviest_span(X: np.ndarray, w: np.ndarray, size: int, tol: float):
    """Heaviest subspace spanned by ``size`` independent points of one merged sample.

    ``X`` (m, d) and ``w`` (m,) are the merged points and weights. Returns
    the largest mass (-inf when no subset is independent) and the first
    subset in combinations order whose span has it (None then).

    The subsets are walked as rows of a fixed tuple F of ``size - 1`` points
    (in blocks that keep scratch memory near a few BLOCK_BYTES) and a last
    point j > max F. On the complement of span(F) each span F + j is a line
    through the origin, so one sort of the projected points by direction
    gives all of F's spans at once. For a clean group every j in it has the
    same points inside, those of span(F) and the group, so it stands for all
    of them as its first member after max F. The members of a group that is
    not clean are tested one by one with the residual test. A simple row
    (see ``_line_groups``) has F's points alone in span(F) and each other
    point a clean group of its own: its candidates are every j after max F,
    with F + j inside, and are taken without grouping.
    """
    m, d = X.shape
    # per fixed tuple and point: d coordinates and about 16 words of arcs,
    # sort order, groups and candidates
    block = max(1, BLOCK_BYTES // (8 * m * (d + 16)))
    best_mass, best = -np.inf, None
    for fixed in _subset_blocks(m, size - 1, block):
        fixed, C, norms = _frames(X, fixed, tol)
        base = norms <= tol  # the points of span(F), inside every span through F
        on = ~base
        if not on.any():
            continue
        after = fixed[:, -1] if size > 1 else np.full(len(fixed), -1)
        rows, pts, seg, line, clean, simple = _line_groups(C, norms, on, tol, base.sum(axis=1) == size - 1)
        found = []  # (rows, last points, masses) of the candidates
        if simple.any():
            # F + j for every j after max F, with F + j inside: summed as rows of a
            # C-ordered array, each listed in ascending order as _exact_masses sums it
            s_row = np.flatnonzero(simple)
            s_len = m - 1 - after[s_row]
            s_row, s_pt = s_row.repeat(s_len), _ranges(after[s_row] + 1, s_len)
            found.append((s_row, s_pt, w[np.column_stack([fixed[s_row], s_pt])].sum(axis=1)))
        if pts.size:
            g_row, g_len = rows[seg], np.diff(np.append(seg, pts.size))
            later = pts > after[rows]
            # one candidate per clean group: its first point after max F
            g_next = np.minimum.reduceat(np.where(later, pts, m), seg)
            tidy = np.flatnonzero(clean & (g_next < m))
            cand_row = g_row[tidy]
            found.append((cand_row, g_next[tidy], _group_masses(w, pts, seg[tidy], g_len[tidy], base, cand_row)))
            # every member of a group that is not clean, on its own
            odd = np.repeat(line & ~clean, g_len) & later
            odd_row, odd_pt = rows[odd], pts[odd]
            found.append((odd_row, odd_pt, _line_masses(w, C, norms, base, on, odd_row, odd_pt, tol)))
        cand_row, cand_pt, masses = (np.concatenate(part) for part in zip(*found))
        peak = masses.max(initial=-np.inf)
        if peak > best_mass:
            # the first maximum in combinations order: least row, then least point
            wins = masses == peak
            row, pt = divmod(int((cand_row[wins] * m + cand_pt[wins]).min()), m)
            best_mass, best = peak, (*fixed[row].tolist(), pt)
    return best_mass, best


def _group_masses(w, members, start, length, base, rows):
    # exact mass of each union of members[start:start + length] with the
    # points of span(F) of its row, in chunks of about BLOCK_BYTES // 128
    # listed points (each takes at most about 16 words on its way through)
    shift = base.shape[1].bit_length()
    b_pt = np.nonzero(base)[1]
    per_row = base.sum(axis=1)
    b_len, b_start = per_row[rows], (np.cumsum(per_row) - per_row)[rows]
    ends = np.cumsum(b_len + length)
    masses = np.empty(rows.size)
    lo = 0
    while lo < rows.size:
        hi = max(lo + 1, np.searchsorted(ends, ends[lo] - b_len[lo] - length[lo] + BLOCK_BYTES // 128, "right"))
        part, own = slice(lo, hi), np.arange(hi - lo, dtype=np.int64)
        key = np.concatenate([
            own.repeat(b_len[part]) << shift | b_pt[_ranges(b_start[part], b_len[part])],
            own.repeat(length[part]) << shift | members[_ranges(start[part], length[part])],
        ])
        key.sort(kind="stable")  # by set, then point: merges two near-sorted runs
        masses[part] = _exact_masses(b_len[part] + length[part], key & ((1 << shift) - 1), w)
        lo = hi
    return masses


def _line_masses(w, C, norms, base, on, rows, pts, tol):
    # exact mass of span(F) + j for single candidates by the residual test
    m, r = C.shape[1:]
    masses = np.empty(rows.size)
    step = max(1, BLOCK_BYTES // (8 * m * r))
    for s in range(0, rows.size, step):
        b, j = rows[s : s + step], pts[s : s + step]
        Cb = C[b]
        u = Cb[np.arange(b.size), j] / norms[b, j, None]
        resid = Cb - (Cb @ u[..., None]) * u[:, None, :]
        inside = (np.linalg.norm(resid, axis=2) <= tol) & on[b] | base[b]
        masses[s : s + step] = _exact_masses(inside.sum(axis=1), np.nonzero(inside)[1], w)
    return masses


def _check_exact(points: np.ndarray, weights: np.ndarray, a0: float) -> DomainReport:
    """Exact report for a checked (n, d) sample, its weights already divided by their sum.

    Its subsets are limited by ``DEFAULT_BUDGET``.
    """
    d = points.shape[1]
    if not a0 > d:
        raise ValueError(f"need a0 > d, got a0={a0} with d={d}")
    X, w, rep = _merge(points, weights)
    m = len(X)
    if _subset_count(m, d - 1) > DEFAULT_BUDGET:
        raise EnumerationBudgetError(f"exact enumeration over {m} distinct points in d={d} exceeds"
                                     f" budget={DEFAULT_BUDGET}; past it the solve paths (library, and CLI"
                                     f" scatter/estimate/asymptotics/simulate) certify membership from the fit")
    tol = POINT_RTOL * _point_scale(X)
    cands = [(float(w[np.linalg.norm(X, axis=1) <= tol].sum()), 1.0 - d / a0, 0, ())]
    # lines (one point, no fixed points) up to hyperplanes (d - 1 points)
    for size in range(1, d):
        mass, subset = _heaviest_span(X, w, size, tol)
        if subset is not None:
            cands.append((float(mass), 1.0 - (d - size) / a0, size, tuple(int(rep[i]) for i in subset)))
    mass, threshold, dim, witness = _best_candidate(cands)
    return DomainReport(member=mass < threshold - EQ_TOL, a0=a0, worst_subspace_dim=dim,
                        worst_mass=mass, threshold=threshold, witness_points=witness)


def _collapse_witness(points: np.ndarray, weights: np.ndarray, B: np.ndarray, a0: float):
    """A subspace that the exact check rejects the law on, read off an iterate collapsing onto it, or None.

    ``points`` (n, d) and ``weights`` (n,) are one sample as the solver holds
    it and ``B`` its (d, d) iterate. For q = 0 .. d-1 the candidates are the
    fewest positive-weight points, by relative residual off the span of B's
    top q eigenvectors, whose mass reaches the threshold 1 - (d - q)/a0;
    greedy pivoted Gram-Schmidt picks q of them, and the points within half
    the exact check's tolerance of their span count as inside. Returns
    ``(q, rows, mass, threshold)``, the pivots' rows in the exact check's
    merged (lexicographic) order, for the first q whose mass is at least
    threshold - ``EQ_TOL`` plus a summation allowance. At q = 0 there are no
    pivots and the test is the mass at the origin.

    The rejection is exact (see the module docstring): the pivots pass the
    exact check's independence test in its own order with twice its
    tolerance to spare, so it tests their span, and every point counted here
    it counts inside that span too.
    """
    n, d = points.shape
    positive = weights > 0.0
    tol = POINT_RTOL * _point_scale(points[positive])
    norms = np.linalg.norm(points, axis=1)
    # the exact check's masses sum the merged weights in another order, off by a few n eps
    slack = 4 * (n + 2) * np.finfo(float).eps
    vecs = np.linalg.eigh(B)[1]
    span = np.zeros((d, 0))
    for q in range(d):
        threshold = 1.0 - (d - q) / a0
        need = threshold - EQ_TOL + slack
        rows = np.zeros(0, dtype=np.intp)
        if q:
            top = vecs[:, d - q:]
            off = np.linalg.norm(points - (points @ top) @ top.T, axis=1)
            rel = np.divide(off, norms, out=np.zeros(n), where=norms > tol / 2)
            rel[~positive] = np.inf
            order = np.argsort(rel, kind="stable")
            cands = order[: np.searchsorted(np.cumsum(weights[order]), need) + 1]
            rows = _pivots(points[cands], q, 2.0 * tol)
            if rows is None:
                continue
            rows = cands[rows]
            rows = rows[np.lexsort(points[rows].T[::-1])]
            span, r = np.linalg.qr(points[rows].T)
            if not (np.abs(np.diagonal(r)) > 2.0 * tol).all():
                continue
        inside = (np.linalg.norm(points - (points @ span) @ span.T, axis=1) <= tol / 2) & positive
        mass = weights[inside].sum()
        if mass >= need:
            return q, tuple(rows.tolist()), float(mass), threshold
    return None


def _pivots(X: np.ndarray, q: int, tol: float):
    # q rows of X by greedy pivoted Gram-Schmidt, each the farthest from the
    # span of those before it; None once the farthest is within tol of it
    resid, rows = X.copy(), []
    for _ in range(q):
        sq = np.square(resid).sum(axis=1)
        j = int(np.argmax(sq))
        if not sq[j] > tol * tol:
            return None
        rows.append(j)
        u = resid[j] / math.sqrt(sq[j])
        resid -= np.outer(resid @ u, u)
    return np.array(rows)


def check_locscat_domain(sample: EmpiricalSample, a0: float) -> DomainReport:
    """Affine-hyperplane domain check, via the lift to one dimension up.

    Membership requires ``mass(J) < 1 - (d - q)/a0`` for every affine subspace
    J of dimension q <= d-1; equivalently the lifted sample passes the linear
    check in R^{d+1}. Requires ``a0 > d + 1``. The returned report translates
    subspace dimensions back to affine dimensions (lifted dim minus one).
    """
    a0 = float(a0)
    d = sample.d
    if not a0 > d + 1:
        raise ValueError(f"need a0 > d + 1, got a0={a0} with d={d}")
    return _affine_report(check_scatter_domain(lift(sample), a0))
