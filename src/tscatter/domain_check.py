"""Existence-domain checks for empirical laws.

The scatter functional with tail parameter ``a0 = nu + d`` exists for a law Q
on R^d exactly when every linear subspace H of dimension q <= d-1 carries mass
``Q(H) < 1 - (d - q)/a0``. The location-scatter version replaces linear
subspaces by affine ones; lifting each point y to (y, 1) reduces it to the
linear check one dimension up.

For a discrete law any violating subspace is spanned by sample points it
contains, so exact checking enumerates spans of small point subsets, in any
dimension. The subsets are drawn lazily and tested in blocks (one stacked QR
per block), so memory stays within a fixed ceiling however many there are;
ties in mass go to the first subset in ``itertools.combinations`` order. A
subset budget is the only limit on exact checking; past it a randomized
projection check is available, whose rejections are certified but whose
acceptances are not exact.
"""

from __future__ import annotations

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
        the original sample of a representative of merged point k. Points come
        back in lexicographic order.
        """
        uniq, first, inverse = np.unique(
            self.points, axis=0, return_index=True, return_inverse=True
        )
        w = np.bincount(inverse.reshape(-1), weights=self.weights, minlength=uniq.shape[0])
        return EmpiricalSample(uniq, w / w.sum()), first

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

    ``method="exact"`` enumerates subspaces spanned by subsets of at most d-1
    distinct sample points, in any dimension; the only refusal is
    :class:`EnumerationBudgetError` when the subset count exceeds ``budget``.
    Subsets are tested in blocks whose scratch memory stays near
    ``BLOCK_BYTES`` whatever the sample size. Among subspaces with the same
    margin the report names the first found: lower dimension first, then
    ``itertools.combinations`` order of the merged points. ``method="randomized"``
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
    combos = itertools.combinations(range(m), size)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, block)), dtype=np.intp
        )
        if not flat.size:
            return
        yield flat.reshape(-1, size)


def _exact_masses(inside: np.ndarray, w: np.ndarray) -> np.ndarray:
    # w[row].sum() for every boolean row, evaluated once per distinct ordered
    # sequence of selected weights (the sum depends on nothing else)
    masses = np.empty(inside.shape[0])
    counts = inside.sum(axis=1)
    for k in np.unique(counts):
        rows = np.nonzero(counts == k)[0]
        cols = np.nonzero(inside[rows])[1].reshape(rows.size, k)
        _, first, inverse = np.unique(
            w[cols], axis=0, return_index=True, return_inverse=True
        )
        sums = np.array([w[inside[rows[j]]].sum() for j in first])
        masses[rows] = sums[inverse.reshape(-1)]
    return masses


def _heaviest_span(X: np.ndarray, w: np.ndarray, size: int, tol: float):
    """Heaviest subspace spanned by ``size`` independent sample points.

    Returns ``(mass, subset)`` for the first subset in combinations order
    whose span has the largest mass, or None when no subset is independent.
    Subsets are tested in blocks that keep scratch memory near BLOCK_BYTES.
    """
    m, d = X.shape
    block = max(1, BLOCK_BYTES // (8 * m * d))
    # the BLAS product below sums in its own order, off by at most ~m*eps;
    # subsets it puts this close to the top are re-summed exactly
    slack = 4 * m * np.finfo(float).eps
    top = -np.inf
    best = None
    for idx in _subset_blocks(m, size, block):
        q, r = np.linalg.qr(X[idx].transpose(0, 2, 1), mode="complete")
        # dependent subsets span something a smaller subset already covered
        indep = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > tol
        if not indep.any():
            continue
        idx = idx[indep]
        # distance to the span is the norm of the coordinates along the
        # complement, the last d - size columns of the complete Q; one
        # product covers the block: coords[i, j, b] = x_i . q_b[:, size + j]
        perp = q[indep, :, size:].transpose(1, 2, 0)
        coords = (X @ perp.reshape(d, -1)).reshape(m, d - size, -1)
        inside = np.sqrt(np.square(coords).sum(axis=1)) <= tol
        approx = w @ inside
        top = max(top, approx.max())
        near = np.nonzero(approx >= top - slack)[0]
        if not near.size:
            continue
        masses = _exact_masses(inside[:, near].T, w)
        k = int(np.argmax(masses))  # first maximum: combinations order breaks ties
        if best is None or masses[k] > best[0]:
            best = (float(masses[k]), idx[near[k]])
    return best


def _check_exact(merged: EmpiricalSample, rep, a0: float, d: int) -> DomainReport:
    X = merged.points
    w = merged.weights
    scale = _point_scale(X)
    tol = POINT_RTOL * scale
    norms = np.linalg.norm(X, axis=1)

    cands = []
    at_origin = norms <= tol
    cands.append((float(w[at_origin].sum()), 1.0 - d / a0, 0, ()))

    if d >= 2:
        # lines through single points; for d <= 3 the distance to a unit
        # direction is a cross product, which vectorizes without cancellation.
        # All lines share one threshold, so only the first heaviest competes.
        threshold = 1.0 - (d - 1) / a0
        nz = np.nonzero(norms > tol)[0]
        if d in (2, 3) and nz.size:
            units = X[nz] / norms[nz, None]
            masses = np.empty(nz.size)
            for start in range(0, nz.size, 512):
                blk = units[start : start + 512]
                if d == 2:
                    resid = np.abs(
                        np.outer(X[:, 0], blk[:, 1]) - np.outer(X[:, 1], blk[:, 0])
                    )
                else:
                    c0 = np.outer(X[:, 1], blk[:, 2]) - np.outer(X[:, 2], blk[:, 1])
                    c1 = np.outer(X[:, 2], blk[:, 0]) - np.outer(X[:, 0], blk[:, 2])
                    c2 = np.outer(X[:, 0], blk[:, 1]) - np.outer(X[:, 1], blk[:, 0])
                    resid = np.sqrt(c0**2 + c1**2 + c2**2)
                masses[start : start + 512] = w @ (resid <= tol)
            k = int(np.argmax(masses))
            cands.append((float(masses[k]), threshold, 1, (int(rep[nz[k]]),)))
        else:
            for i in nz:
                u = X[i] / norms[i]
                resid = X - np.outer(X @ u, u)
                inside = np.linalg.norm(resid, axis=1) <= tol
                cands.append((float(w[inside].sum()), threshold, 1, (int(rep[i]),)))

    for size in range(2, d):
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
