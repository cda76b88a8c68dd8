"""Symmetric-matrix algebra used throughout the package.

Provides an SPD wrapper with a cached Cholesky factor, the extraction of
(Sigma, mu, gamma) from a lifted (d+1)-dimensional scatter matrix, an
isometric half-vectorization of the space of symmetric matrices, the
outer-product rows built on it, and the weighted Gram sums of the solver and
the certificate, taken a cache-sized block of points at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import DegeneracyError, NotSpdError

__all__ = [
    "SpdMatrix",
    "symmetrize",
    "spd_cholesky",
    "spd_factor_ok",
    "extract",
    "sym_dim",
    "sym_to_vec",
    "vec_to_sym",
    "sym_basis",
    "congruence_matrix",
    "outer_vecs",
]

SQRT2 = np.sqrt(2.0)

# Relative asymmetry above which inputs are rejected instead of averaged.
ASYM_RTOL = 1e-12

# Squared Cholesky pivots at or below this multiple of the trace fail the SPD rule.
PIVOT_RTOL = 1e-12

# Working set, in bytes, that _weighted_gram sizes its blocks of points to:
# about one core's L2 cache, so that each block is summed from cache
CACHE_BYTES = 2 * 2**20


def symmetrize(mat, rtol=ASYM_RTOL):
    """Return (M + M') / 2, rejecting visibly asymmetric input.

    Asymmetry up to ``rtol`` times the entry scale is treated as roundoff and
    averaged away; anything larger raises, since silently symmetrizing a
    genuinely asymmetric matrix would hide bugs upstream. A leading batch
    axis treats each matrix of the stack on its own scale.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    swapped = np.swapaxes(mat, -1, -2)
    gap = np.abs(mat - swapped).max(axis=(-2, -1), initial=0.0)
    scale = np.maximum(np.abs(mat).max(axis=(-2, -1), initial=0.0), 1.0)
    if (gap > rtol * scale).any():
        raise ValueError(f"matrix asymmetry {np.max(gap / scale):g} exceeds relative tolerance {rtol:g}")
    return (mat + swapped) / 2.0


def spd_cholesky(mats):
    """Cholesky factors of a stack of symmetric matrices, and which of them are SPD.

    The SPD rule is :func:`spd_factor_ok` of the factor, where the Cholesky
    factorization of finite entries succeeds. Returns ``(chol, ok)`` for an
    (R, d, d) stack; members failing the rule get the identity as factor, so
    the stack stays usable downstream.
    """
    m = np.asarray(mats, dtype=float)
    ok = np.isfinite(m).all(axis=(1, 2))
    chol = np.zeros_like(m)
    try:
        chol[ok] = np.linalg.cholesky(m[ok])
    except np.linalg.LinAlgError:
        # a stacked factorization fails as a whole; redo it one matrix at a time
        for i in np.nonzero(ok)[0]:
            try:
                chol[i] = np.linalg.cholesky(m[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    ok &= spd_factor_ok(chol)
    chol[~ok] = np.eye(m.shape[-1])
    return chol, ok


def spd_factor_ok(chol):
    """Which lower-triangular L (R, d, d) meet the SPD rule: finite, squared pivots above PIVOT_RTOL tr(L L')."""
    trace = np.einsum("rij,rij->r", chol, chol)  # ||L||_F^2 = tr(L L')
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    return np.isfinite(chol).all(axis=(1, 2)) & (pivots**2 > PIVOT_RTOL * trace[:, None]).all(axis=1)


def _weighted_gram(Z, weigh):
    """Sum of c_i z_i z_i' over the columns z_i of each sample of an (R, d, n) stack.

    ``weigh(Zb, cols)`` returns the (R, b) weights c of the columns ``cols``,
    given as the block Zb = Z[:, :, cols], so that weights computed from the
    points are computed a block at a time too. The blocks are as wide as
    d alone allows: a block with the temporaries of its weights and product,
    about 3d + 4 words a column, fits in ``CACHE_BYTES``. Where one block
    covers n, the sum is the one product (Z * c) Z' over all the columns.
    """
    _, d, n = Z.shape
    width = max(1, CACHE_BYTES // (8 * (3 * d + 4)))
    for lo in range(0, n, width):
        cols = slice(lo, lo + width)
        Zb = Z[:, :, cols]
        gram = (Zb * weigh(Zb, cols)[:, None, :]) @ np.swapaxes(Zb, 1, 2)
        if lo:
            out += gram
        else:
            out = gram
    return out


class SpdMatrix:
    """Symmetric positive definite matrix with a cached Cholesky factor.

    Construction symmetrizes the input and fails with :class:`NotSpdError`
    unless it meets the SPD rule of :func:`spd_cholesky`.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("_mat", "_chol")

    def __init__(self, mat):
        m = symmetrize(mat)
        chol, ok = spd_cholesky(m[None])
        if not ok[0]:
            raise NotSpdError(
                "matrix is not positive definite: it needs finite entries and squared "
                "Cholesky pivots above PIVOT_RTOL times the trace"
            )
        self._hold(m, chol[0])

    @classmethod
    def _factored(cls, mat, chol):
        # what the constructor builds from an exactly symmetric mat whose factor chol passed spd_cholesky
        return object.__new__(cls)._hold(mat, chol)

    def _hold(self, mat, chol):
        mat.setflags(write=False)
        chol.setflags(write=False)
        self._mat, self._chol = mat, chol
        return self

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor L with A = L L'."""
        return self._chol

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def solve(self, b):
        """Solve A x = b on the cached factor: L y = b, then L' x = y, each by ``np.linalg.solve``."""
        return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, np.asarray(b, dtype=float)))

    def inv(self) -> np.ndarray:
        return symmetrize(self.solve(np.eye(self.dim)), rtol=1e-9)

    def logdet(self) -> float:
        return 2.0 * float(np.log(np.diag(self._chol)).sum())

    def quad_forms(self, points) -> np.ndarray:
        """Row-wise quadratic forms y_i' A^{-1} y_i for an (n, d) array.

        Whitens the points, z_i = L^{-1} y_i with the inverse of the Cholesky
        factor formed once, and returns |z_i|^2.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        z = np.linalg.inv(self._chol) @ pts.T
        return np.einsum("ij,ij->j", z, z)

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def as_spd(a) -> SpdMatrix:
    """Coerce an array or SpdMatrix to SpdMatrix, validating positivity."""
    return a if isinstance(a, SpdMatrix) else SpdMatrix(a)


def extract(A):
    """Invert the block embedding: recover (Sigma, mu, gamma) from A.

    ``gamma`` is the bottom-right entry, ``mu`` the rescaled last column,
    ``Sigma`` the rescaled top-left block minus ``mu mu'``, read-only. Raises
    :class:`DegeneracyError` when the recovered Sigma is not positive
    definite, which signals that A is outside the valid image of the
    embedding.
    """
    Sigma, mu, gamma = _extract(A)
    return Sigma.mat, mu, gamma


def _extract(A):
    # extract, with Sigma as the SpdMatrix that validated it
    A = as_spd(A)
    if A.dim < 2:
        raise ValueError("extract needs a matrix of dimension at least 2")
    m = A.mat
    d = A.dim - 1
    gamma = float(m[d, d])
    if gamma <= 0.0:
        raise DegeneracyError("corner entry must be positive")
    mu = m[:d, d] / gamma
    Sigma = m[:d, :d] / gamma - np.outer(mu, mu)
    try:
        return SpdMatrix(Sigma), mu, gamma
    except NotSpdError as exc:
        raise DegeneracyError("recovered scatter block is not positive definite") from exc


def sym_dim(d: int) -> int:
    """Dimension d(d+1)/2 of the space of symmetric d x d matrices."""
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def _layout(d: int):
    """Row, column and scale of each sym_to_vec coordinate of S_d.

    The d diagonal entries come first with scale 1, then the upper
    off-diagonal entries row by row with scale sqrt(2). Cached per d; the
    arrays are read-only so no caller can change a shared layout.
    """
    iu = np.triu_indices(d, k=1)
    rows = np.concatenate([np.arange(d), iu[0]])
    cols = np.concatenate([np.arange(d), iu[1]])
    layout = (rows, cols, np.where(rows == cols, 1.0, SQRT2))
    for arr in layout:
        arr.setflags(write=False)
    return layout


def sym_to_vec(mat) -> np.ndarray:
    """Coordinates of a symmetric matrix in an orthonormal basis of S_d.

    Ordering: the d diagonal entries first, then the upper off-diagonal
    entries row by row, each scaled by sqrt(2). With this scaling the map is
    an isometry: <vec(M), vec(N)> = trace(M N). A leading batch axis maps
    each matrix to a row. Asymmetry beyond roundoff raises ValueError.
    """
    m = symmetrize(mat, rtol=1e-9)
    rows, cols, scale = _layout(m.shape[-1])
    return scale * m[..., rows, cols]


def vec_to_sym(vec) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`, row by row for a 2-D input."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a stack of vectors, got shape {vec.shape}")
    k = vec.shape[-1]
    d = int(round((np.sqrt(8.0 * k + 1.0) - 1.0) / 2.0))
    if sym_dim(d) != k:
        raise ValueError(f"length {k} is not d(d+1)/2 for any integer d")
    rows, cols, scale = _layout(d)
    m = np.zeros(vec.shape[:-1] + (d, d))
    m[..., rows, cols] = vec / scale
    m[..., cols, rows] = m[..., rows, cols]
    return m


def sym_basis(d: int) -> np.ndarray:
    """Orthonormal basis of S_d in the :func:`sym_to_vec` order, stacked as (K, d, d)."""
    return vec_to_sym(np.eye(sym_dim(d)))


def congruence_matrix(m) -> np.ndarray:
    """Matrix of the map X -> M X M' on sym_to_vec coordinates.

    For symmetric M the result is symmetric; it is the Jacobian of the
    congruence action used to push covariances through linear images.
    """
    m = np.asarray(m, dtype=float)
    return sym_to_vec(m @ sym_basis(m.shape[0]) @ m.T).T


def outer_vecs(points) -> np.ndarray:
    """Rows sym_to_vec(y y') for every row y of an (..., n, d) array.

    The rows are built in coordinate-major (..., K, n) memory, by one
    contiguous product for the d diagonal rows and one per coordinate a for
    its rows a < b, and returned as the transposed (..., n, K) view. The view
    is writable, so callers may still scale it in place. Points already held
    as a contiguous (..., d, n) stack are read without a copy.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape[-2:]
    zt = np.ascontiguousarray(np.swapaxes(pts, -1, -2))
    out = np.empty(pts.shape[:-2] + (sym_dim(d), n))
    # the _layout order: the d diagonal rows, then the rows a < b row by row
    np.multiply(zt, zt, out=out[..., :d, :])
    k = d
    for a in range(d - 1):
        np.multiply(zt[..., a : a + 1, :] * SQRT2, zt[..., a + 1 :, :], out=out[..., k : k + d - 1 - a, :])
        k += d - 1 - a
    return np.swapaxes(out, -1, -2)
