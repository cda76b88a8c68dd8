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
cannot do much better. The fixed tuples are drawn lazily and handled in
blocks, so scratch memory stays within a small multiple of ``BLOCK_BYTES``
however many there are, and the line search (s = 1) needs O(m). Ties in
mass go to the first subset in ``itertools.combinations`` order, as if every
subset were tested. A budget on the number of subsets, C(m, 1) + ... +
C(m, d-1), is the only limit on exact checking; past it a randomized
projection check is available, whose rejections are certified but whose
acceptances are not exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import EnumerationBudgetError

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

# Scratch memory, in bytes, that exact enumeration sizes its subset blocks to,
# and the Monte Carlo harness its stacks of replicate fits.
BLOCK_BYTES = 2 * 2**20


@dataclass(frozen=True)
class EmpiricalSample:
    """A weighted discrete law: n points in R^d with nonnegative weights summing to 1.

    One-dimensional point arrays are promoted to shape (n, 1). Weights default
    to uniform. Arrays are canonicalized (-0.0 becomes +0.0) and frozen.
    """

    points: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be an (n, d) array with n >= 1, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts = pts + 0.0  # normalizes -0.0 so exact-equality merging is stable
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if w.shape[0] != pts.shape[0]:
                raise ValueError("weights length must match number of points")
            if not np.isfinite(w).all() or (w < 0.0).any():
                raise ValueError("weights must be finite and nonnegative")
            total = w.sum()
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
            w = w / total
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

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
        order = np.lexsort(self.points.T[::-1])  # stable: copies keep index order
        pts = self.points[order]
        first = np.ones(self.n, dtype=bool)
        first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
        w = np.bincount(np.cumsum(first) - 1, weights=self.weights[order])
        return EmpiricalSample(pts[first], w / w.sum()), order[first]

    def drop_zero_weights(self) -> "EmpiricalSample":
        keep = self.weights > 0.0
        if keep.all():
            return self
        return EmpiricalSample(self.points[keep], self.weights[keep] / self.weights[keep].sum())


@dataclass(frozen=True)
class DomainReport:
    """Verdict of a domain check plus the closest-to-violating subspace found.

    ``member`` is False exactly when some recorded subspace reaches its mass
    threshold. ``worst_*`` describe the subspace with the largest
    mass - threshold margin; ``witness_points`` are indices into the checked
    sample spanning it. ``exact`` is False for randomized projection checks,
    whose acceptances are not certificates.
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
    return EmpiricalSample(np.hstack([sample.points, ones]), sample.weights)


def max_atom(sample: EmpiricalSample):
    """Heaviest atom after merging coincident points.

    Returns ``(location, mass)`` with ties broken by lexicographically
    smallest location.
    """
    merged, _ = sample.merged()
    k = int(np.argmax(merged.weights))
    return merged.points[k].copy(), float(merged.weights[k])


def _point_scale(points: np.ndarray) -> float:
    norms = np.linalg.norm(points, axis=1)
    top = float(norms.max()) if norms.size else 0.0
    return top if top > 0.0 else 1.0


def _subset_count(m: int, max_size: int) -> int:
    total = 0
    c = 1
    for s in range(1, max_size + 1):
        c = c * (m - s + 1) // s
        total += c
        if total > 10 * DEFAULT_BUDGET:
            break
    return total


def check_scatter_domain(
    sample: EmpiricalSample,
    a0: float,
    *,
    method: str = "exact",
    budget: int = DEFAULT_BUDGET,
    projections: int = 32,
    seed: int = 0,
) -> DomainReport:
    """Decide whether the law satisfies the linear-subspace mass conditions.

    Membership requires ``mass(H) < 1 - (d - q)/a0`` strictly for every linear
    subspace H of dimension q <= d-1 (including H = {0}). Equality within
    ``EQ_TOL`` counts as a violation. Requires ``a0 > d``.

    ``method="exact"`` covers every subspace spanned by at most d-1 distinct
    sample points, in any dimension; the only refusal is
    :class:`EnumerationBudgetError` when the number of such subsets, which it
    does not test one by one, exceeds ``budget``. For each span size s it
    projects the points off each tuple of s-1 of them and groups the rest by
    line through the origin with one sort, about C(m, s-1) * m log m work for m
    distinct points, in blocks whose scratch memory stays within a small
    multiple of ``BLOCK_BYTES`` whatever the sample size (O(m) for lines).
    Among subspaces with the same margin the report names the first found:
    lower dimension first, then ``itertools.combinations`` order of the merged
    points, as if each subset were tested in turn. ``method="randomized"``
    instead tests random linear projections to at most 4 dimensions: any
    violation it finds certifies one in the original space (the preimage of a
    violating subspace has the same codimension and at least the same mass),
    but membership verdicts are only heuristic and the report is flagged
    ``exact=False``.
    """
    a0 = float(a0)
    d = sample.d
    if not a0 > d:
        raise ValueError(f"need a0 > d, got a0={a0} with d={d}")
    merged, rep = sample.merged()
    if method == "exact":
        if _subset_count(merged.n, d - 1) > budget:
            raise EnumerationBudgetError(
                f"exact enumeration over {merged.n} distinct points in d={d} exceeds "
                f"budget={budget}; use method='randomized'"
            )
        return _check_exact(merged, rep, a0, d)
    if method == "randomized":
        return _check_randomized(merged, rep, a0, d, projections, seed, budget)
    raise ValueError(f"unknown method {method!r}")


def _best_candidate(cands):
    # candidates are (mass, threshold, dim, witnesses); worst margin first
    return max(cands, key=lambda c: (c[0] - c[1], c[0]))


def _subset_blocks(m: int, size: int, block: int):
    # index arrays of at most `block` subsets each, in combinations order
    # (size 0 gives the one empty subset)
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

    Keeps the independent tuples (the diag(R) test of their QR). Returns them,
    the (B, m, d - s) coordinates and their norms, the distances to the span.
    """
    s = fixed.shape[1]
    if s == 0:
        C = X[None]
    else:
        q, r = np.linalg.qr(X[fixed].transpose(0, 2, 1), mode="complete")
        indep = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > tol
        fixed, C = fixed[indep], X @ q[indep, :, s:]
    return fixed, C, np.sqrt(sum(np.square(C[..., k]) for k in range(C.shape[2])))


@functools.lru_cache(maxsize=None)
def _plane(r: int) -> np.ndarray:
    # a fixed generic plane in R^r (orthonormal columns), onto which distinct
    # lines through the origin almost never fall together; for r = 2 a rotation
    plane = np.linalg.qr(np.random.default_rng(r).standard_normal((r, 2)))[0]
    plane.setflags(write=False)
    return plane


def _line_groups(C: np.ndarray, norms: np.ndarray, tol: float):
    """Group the points of each frame by the line through the origin they lie on.

    ``C`` is (B, m, r): coordinates on a complement, with lengths ``norms``.
    Each point farther than tol from the origin gets an arc on the circle of
    lines (angles mod pi): the direction of its projection onto a fixed
    generic plane, widened to every direction whose line passes within 2 tol
    of it. One sort per row by arc start finds the overlapping arcs, which
    form a group, so a line through one member holds no point of another
    group within 2 tol. A group is clean when its members' directions lie so
    close that each is within tol/2 of the line through any other, and no arc
    of its row reaches past the ends of the circle, where it could split a
    group in two.

    Returns all (row, point) pairs, row by row, with each group contiguous and
    the points within tol of the origin alone at the end of their row; the
    group starts; which groups are lines (not a point of span(F)); and which
    lines are clean.
    """
    B, m = norms.shape
    z = C @ _plane(C.shape[2])
    theta = np.arctan2(z[..., 1], z[..., 0])
    theta = np.where(theta < 0, theta + np.pi, theta)
    # pi/2 * x bounds arcsin(x), the angle at which a point is 2 tol off a line
    with np.errstate(divide="ignore"):
        half = np.minimum(np.pi * tol / np.sqrt(np.square(z[..., 0]) + np.square(z[..., 1])), np.pi / 2)
    on = norms > tol
    lo = np.where(on, theta - half, np.inf)
    order = np.argsort(lo, axis=1)
    flat = (order + m * np.arange(B)[:, None]).ravel()
    lo = lo.ravel()[flat].reshape(B, m)
    hi = np.where(on, theta + half, -np.inf).ravel()[flat].reshape(B, m)
    reach = np.maximum.accumulate(hi, axis=1)
    head = lo >= np.inf  # each point of span(F) alone
    head[:, 0] = True
    head[:, 1:] |= lo[:, 1:] > reach[:, :-1]
    rows, pts = flat // m, order.ravel()
    seg = np.flatnonzero(head)
    count = np.diff(np.append(seg, pts.size))
    line = on.ravel()[flat][seg]
    clean = line & ~((lo[:, 0] < 0) | (reach[:, -1] > np.pi))[rows[seg]]
    many = np.flatnonzero(np.repeat(count > 1, count))
    if many.size:
        # each member's direction against its group's first one, sign-free
        first = np.repeat(seg, count)[many]
        u = C[rows[many], pts[many]] / norms[rows[many], pts[many], None]
        v = C[rows[first], pts[first]] / norms[rows[first], pts[first], None]
        chord = np.linalg.norm(u - np.copysign(1.0, (u * v).sum(axis=1))[:, None] * v, axis=1)
        far = chord * norms.max(axis=1)[rows[many]] > tol / 4
        clean[np.searchsorted(seg, many[far], side="right") - 1] = False
    return rows, pts, seg, line, clean


def _heaviest_span(X: np.ndarray, w: np.ndarray, size: int, tol: float):
    """Heaviest subspace spanned by ``size`` independent sample points.

    Returns ``(mass, subset)`` for the first subset in combinations order
    whose span has the largest mass, or None when no subset is independent.

    The subsets are walked as a fixed tuple F of ``size - 1`` points (in
    blocks that keep scratch memory near a few BLOCK_BYTES) and a last point
    j > max F. On the complement of span(F) each span F + j is a line through
    the origin, so one sort of the projected points by direction gives all of
    F's spans at once. For a clean group every j in it has the same points
    inside, those of span(F) and the group, so it stands for all of them as
    its first member after max F. The members of a group that is not clean
    are tested one by one with the residual test.
    """
    m, d = X.shape
    # per fixed tuple and point: d coordinates and about 16 words of arcs,
    # sort order, groups and candidates
    block = max(1, BLOCK_BYTES // (8 * m * (d + 16)))
    # the running sums below are off by at most ~m*eps; candidates they put
    # this close to the top are re-summed exactly
    slack = 4 * (m + 2) * np.finfo(float).eps
    best_mass, best = -np.inf, None
    for fixed in _subset_blocks(m, size - 1, block):
        fixed, C, norms = _frames(X, fixed, tol)
        base = norms <= tol  # the points of span(F): inside every span through F
        if base.all():
            continue
        after = fixed[:, -1] if size > 1 else np.full(fixed.shape[0], -1)
        rows, pts, seg, line, clean = _line_groups(C, norms, tol)
        g_row, g_len = rows[seg], np.diff(np.append(seg, pts.size))
        # one candidate per clean group: its first point after max F
        g_next = np.minimum.reduceat(np.where(pts > after[rows], pts, m), seg)
        tidy = np.flatnonzero(clean & (g_next < m))
        cand_row, cand_pt = g_row[tidy], g_next[tidy]
        approx = (base @ w)[cand_row] + np.add.reduceat(w[pts], seg)[tidy]
        # every member of a group that is not clean, on its own
        odd = np.repeat(line & ~clean, g_len) & (pts > after[rows])
        odd_row, odd_pt = rows[odd], pts[odd]
        odd_mass = _line_masses(w, C, norms, base, odd_row, odd_pt, tol)

        top = max(best_mass, approx.max(initial=-np.inf), odd_mass.max(initial=-np.inf))
        near = np.flatnonzero(approx >= top - slack)
        masses = np.full(approx.size, -np.inf)
        if near.size:
            masses[near] = _group_masses(w, pts, seg[tidy[near]], g_len[tidy[near]], base, cand_row[near])
        masses = np.concatenate([masses, odd_mass])
        if not masses.size or masses.max() <= best_mass:
            continue
        # the first maximum in combinations order: least row, then least point
        cand_row, cand_pt = np.concatenate([cand_row, odd_row]), np.concatenate([cand_pt, odd_pt])
        ties = np.flatnonzero(masses == masses.max())
        ties = ties[cand_row[ties] == cand_row[ties].min()]
        k = ties[np.argmin(cand_pt[ties])]
        best_mass = float(masses[k])
        best = (best_mass, (*fixed[cand_row[k]].tolist(), int(cand_pt[k])))
    return best


def _group_masses(w, members, start, length, base, rows):
    # exact mass of each union of members[start:start + length] with the
    # points of span(F) of its row, in chunks of about BLOCK_BYTES // 128
    # listed points (each takes at most about 16 words on its way through)
    shift = base.shape[1].bit_length()
    b_row, b_pt = np.nonzero(base)
    per_row = np.bincount(b_row, minlength=base.shape[0])
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


def _line_masses(w, C, norms, base, rows, pts, tol):
    # exact mass of span(F) + j for single candidates by the residual test
    m, r = C.shape[1:]
    masses = np.empty(rows.size)
    step = max(1, BLOCK_BYTES // (8 * m * r))
    for s in range(0, rows.size, step):
        b, j = rows[s : s + step], pts[s : s + step]
        Cb = C[b]
        u = Cb[np.arange(b.size), j] / norms[b, j, None]
        resid = Cb - (Cb @ u[..., None]) * u[:, None, :]
        inside = (np.linalg.norm(resid, axis=2) <= tol) | base[b]
        masses[s : s + step] = _exact_masses(inside.sum(axis=1), np.nonzero(inside)[1], w)
    return masses


def _check_exact(merged: EmpiricalSample, rep, a0: float, d: int) -> DomainReport:
    X = merged.points
    w = merged.weights
    tol = POINT_RTOL * _point_scale(X)

    cands = []
    at_origin = np.linalg.norm(X, axis=1) <= tol
    cands.append((float(w[at_origin].sum()), 1.0 - d / a0, 0, ()))

    # lines (one point, no fixed points) up to hyperplanes (d - 1 points)
    for size in range(1, d):
        found = _heaviest_span(X, w, size, tol)
        if found is not None:
            mass, subset = found
            witness = tuple(int(rep[i]) for i in subset)
            cands.append((mass, 1.0 - (d - size) / a0, size, witness))

    mass, threshold, dim, witness = _best_candidate(cands)
    member = mass < threshold - EQ_TOL
    return DomainReport(
        member=member,
        a0=a0,
        worst_subspace_dim=dim,
        worst_mass=mass,
        threshold=threshold,
        witness_points=witness,
        exact=True,
    )


def _check_randomized(
    merged: EmpiricalSample, rep, a0: float, d: int, projections: int, seed: int, budget: int
) -> DomainReport:
    rng = np.random.default_rng(seed)
    k = min(d, 4)
    for _ in range(projections):
        basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
        proj = EmpiricalSample(merged.points @ basis, merged.weights)
        # thresholds 1 - codim/a0 depend only on codimension, which the
        # preimage of a projected subspace preserves, so the projected check
        # runs with the same a0: any violation it finds is certified upstairs.
        sub = _check_exact(*proj.merged(), a0=a0, d=k)
        if not sub.member:
            updim = d - (k - (sub.worst_subspace_dim or 0))
            witness = tuple(int(rep[i]) for i in sub.witness_points)
            return DomainReport(
                member=False,
                a0=a0,
                worst_subspace_dim=updim,
                worst_mass=sub.worst_mass,
                threshold=1.0 - (d - updim) / a0,
                witness_points=witness,
                exact=False,
            )
    return DomainReport(
        member=True,
        a0=a0,
        worst_subspace_dim=None,
        worst_mass=0.0,
        threshold=1.0 - d / a0,
        witness_points=(),
        exact=False,
    )


def check_locscat_domain(sample: EmpiricalSample, a0: float, **kwargs) -> DomainReport:
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
    rpt = check_scatter_domain(lift(sample), a0, **kwargs)
    dim = None if rpt.worst_subspace_dim is None else max(rpt.worst_subspace_dim - 1, 0)
    return DomainReport(
        member=rpt.member,
        a0=a0,
        worst_subspace_dim=dim,
        worst_mass=rpt.worst_mass,
        threshold=rpt.threshold,
        witness_points=rpt.witness_points,
        exact=rpt.exact,
    )
