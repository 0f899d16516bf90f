"""Dense linear-algebra kernels for skinny matrices and seeded sampling.

All matrices are float64 numpy arrays in row-major (C) order.  The kernels
target the p x r shapes (r << p) that arise when sketching a large symmetric
operator, plus small symmetric eigenproblems used by the diagnostics.  They
are thin, contract-checked wrappers over LAPACK via numpy.

The skinny QR and thin SVD do their p x r work as matrix products and
their factorizations in r x r: CholeskyQR2 (twice: Gram matrix, Cholesky,
product with the inverse of the r x r triangle), then the SVD of the r x r
factor.  That is a few GEMMs where Householder reflections make r
memory-bound passes each.  The Gram matrix squares the condition number,
so when a Cholesky factorization breaks down or the result misses
orthonormality by more than ``ORTHONORMAL_TOL`` (from a condition number of
about 1e8 on) both fall back to Householder QR and SVD.  The spectral norm
is the top eigenvalue of the r x r Gram matrix.

Randomness comes from a named, seeded generator: ``make_rng(seed)`` returns a
numpy ``Generator`` over the PCG64 bit generator, whose normal variates use
the ziggurat transform.  A fixed seed reproduces the sample stream bit for
bit across runs.  A generator instance is single-owner: one stream per
optimizer run, never shared across threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas, lapack

Rng = np.random.Generator

#: Largest symmetric eigenproblem the diagnostics-grade solver accepts.
EIGH_DIM_CAP = 4096

#: Largest entry of ``Q.T @ Q - I`` that the QR and SVD kernels return.
ORTHONORMAL_TOL = 1e-12

# Rows per block when a p x r factor is multiplied by an r x r matrix in place.
_ROW_BLOCK = 2048


class DegenerateMatrixError(ValueError):
    """Raised when a sketch matrix is numerically rank deficient."""


class IndefiniteMatrixError(ValueError):
    """Raised when a Cholesky factorization hits a non-positive pivot."""


class DiagnosticCapError(ValueError):
    """Raised when a dense diagnostic exceeds its configured size cap."""


def make_rng(seed: int) -> Rng:
    """Create the package's seeded random generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_matrix(rng: Rng, p: int, r: int) -> np.ndarray:
    """Draw a p x r matrix of i.i.d. standard normal entries.

    Deterministic given the generator state; advances the stream.
    """
    if p < 1 or r < 1:
        raise ValueError(f"matrix dimensions must be positive, got ({p}, {r})")
    return rng.standard_normal((p, r))


def _check_tall(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"{name} expects a 2-d matrix")
    if mat.shape[1] > mat.shape[0]:
        raise ValueError(f"{name} expects a tall matrix, got shape {mat.shape}")
    return mat


def upper_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix (LAPACK ``trtri``).

    Lets a p x r matrix be divided by an r x r triangle with one matrix
    product instead of a triangular solve with p right-hand sides.
    """
    inv, info = lapack.dtrtri(np.asarray(c, dtype=np.float64), lower=0)
    if info != 0:
        raise DegenerateMatrixError("singular triangular factor")
    return inv


def _cholesky_qr2(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(Q, R)`` with ``mat = Q R`` by CholeskyQR2, or ``None`` on breakdown.

    Two rounds of ``C = chol(Q' Q)``, ``Q <- Q C^{-1}`` on one row-major copy
    of ``mat``; the product is BLAS ``trmm`` in place on its column-major
    transpose, ``Q' <- C^{-T} Q'``.  R is the product of the two triangles.
    ``None`` when a Cholesky factorization fails, or when ``Q' Q`` misses
    the identity by more than ``ORTHONORMAL_TOL`` (also when it is not
    finite).
    """
    qt, r = np.array(mat, order="C").T, None
    for _ in range(2):
        # dsyrk fills the upper triangle of Q' Q and leaves the lower one zero.
        upper, info = lapack.dpotrf(blas.dsyrk(1.0, qt), lower=0, clean=1)
        if info != 0:
            return None
        # A factor with a positive diagonal, so its inverse exists.
        qt = blas.dtrmm(1.0, upper_inverse(upper), qt, trans_a=1, overwrite_b=1)
        r = upper if r is None else upper @ r
    if not np.abs(blas.dsyrk(1.0, qt) - np.eye(qt.shape[0])).max() <= ORTHONORMAL_TOL:
        return None
    return qt.T, r


def qr_econ(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(mat) for a full-column-rank p x r matrix.

    Returns Q (p x r) with ``Q.T @ Q = I`` to ``ORTHONORMAL_TOL`` in max
    norm, computed by CholeskyQR2, or by Householder reflections when that
    breaks down.  Raises ``DegenerateMatrixError`` when a column is
    numerically dependent on the preceding ones (vanishing R diagonal).
    """
    mat = _check_tall(mat, "qr_econ")
    p, r = mat.shape
    qr = _cholesky_qr2(mat) if r else None
    q, rmat = qr if qr is not None else np.linalg.qr(mat, mode="reduced")
    diag = np.abs(np.diag(rmat))
    tol = max(p, r) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    if diag.size == 0 or np.any(diag <= tol):
        raise DegenerateMatrixError("degenerate sketch matrix")
    return q


def cholesky(a: np.ndarray) -> np.ndarray:
    """Upper-triangular C with ``C.T @ C = a`` for a symmetric pd matrix.

    The input must be symmetric to 1e-10 relative tolerance.  A non-positive
    pivot raises ``IndefiniteMatrixError``; callers on the convex path treat
    that as fatal because their shifted sketches are positive definite.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("cholesky expects a square matrix")
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        lower = np.linalg.cholesky(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError("indefinite matrix") from exc
    return lower.T


def thin_svd(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of a p x r matrix.

    Returns ``(v, sigma)`` where ``b = v @ diag(sigma) @ w.T`` for some
    orthogonal w (discarded), with sigma sorted descending and the columns
    of v orthonormal to ``ORTHONORMAL_TOL``.  Computed as ``b = Q R`` by
    CholeskyQR2 and the SVD of the r x r R, or by a Householder SVD when
    CholeskyQR2 breaks down.
    """
    b = _check_tall(b, "thin_svd")
    qr = _cholesky_qr2(b) if b.shape[1] else None
    if qr is None:
        v, sigma, _ = np.linalg.svd(b, full_matrices=False)
        return v, sigma
    q, r = qr
    u, sigma, _ = np.linalg.svd(r)
    # q <- q u in place, a block of rows at a time, so that the build holds
    # one p x r buffer instead of two.
    for start in range(0, q.shape[0], _ROW_BLOCK):
        block = q[start:start + _ROW_BLOCK]
        block[...] = block @ u
    return q, sigma


def eigh_small(a: np.ndarray, max_dim: int = EIGH_DIM_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small symmetric matrix, eigenvalues ascending.

    Diagnostics-grade dense solver: refuses matrices larger than ``max_dim``
    so that verification paths cannot silently become production costs.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigh_small expects a square matrix")
    m = a.shape[0]
    if m > max_dim:
        raise DiagnosticCapError(
            f"diagnostic matrix too large: {m} exceeds the cap of {max_dim}"
        )
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0 and np.abs(a - a.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a + a.T))
    return eigvals, eigvecs


def spectral_norm(b: np.ndarray) -> float:
    """Largest singular value of a tall matrix.

    The square root of the top eigenvalue of the r x r Gram matrix, which
    is accurate to a few ulps relative whatever the condition number; a
    Gram matrix that is not finite (overflow, or a NaN in ``b``) falls back
    to the singular values.
    """
    b = _check_tall(b, "spectral_norm")
    if b.shape[1] == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        gram = b.T @ b
    if not np.isfinite(gram).all():
        return float(np.linalg.svd(b, compute_uv=False)[0])
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def top_eig_diag_plus_rank1(diag: np.ndarray, scale, vec: np.ndarray):
    """Largest eigenvalue of ``diag(d) + scale * v v.T`` with scale >= 0.

    Solves the secular equation ``1 = scale * sum_j v_j^2 / (lam - d_j)`` by
    bisection on the bracket above the largest diagonal entry that carries a
    nonzero v component.  ``vec`` may be a single vector of length p or a
    stack of shape (m, p) with ``scale`` scalar or of shape (m,); the stacked
    form solves all m secular equations in lockstep.  Exact up to bisection
    tolerance; O(m p) per step.
    """
    diag = np.asarray(diag, dtype=np.float64)
    vec = np.asarray(vec, dtype=np.float64)
    if diag.ndim != 1:
        raise ValueError("diag must be a 1-d array")
    single = vec.ndim == 1
    vv = vec[None, :] if single else vec
    if vv.ndim != 2 or vv.shape[1] != diag.shape[0]:
        raise ValueError("vec rows must match the length of diag")
    scale_arr = np.broadcast_to(np.asarray(scale, dtype=np.float64), (vv.shape[0],))
    if np.any(scale_arr < 0):
        raise ValueError("scale must be nonnegative")
    d_max = float(diag.max())

    weights = scale_arr[:, None] * vv * vv  # (m, p)
    mass = weights.sum(axis=1)
    support = weights > 0
    # Largest diagonal entry with nonzero weight, per row; rows with no
    # support keep the unperturbed top eigenvalue d_max.
    d_sup = np.where(support, diag[None, :], -np.inf).max(axis=1)
    active = mass > 0

    lo = np.where(active, d_sup, d_max)
    hi = np.where(active, d_sup + mass, d_max)
    for _ in range(120):
        gap = hi - lo
        if np.all(gap <= 1e-15 * np.maximum(1.0, np.abs(hi))):
            break
        mid = 0.5 * (lo + hi)
        # f(mid) = sum_j w_j / (mid - d_j) over the supported entries.
        denom = mid[:, None] - diag[None, :]
        terms = np.where(support, weights / np.where(denom == 0, 1.0, denom), 0.0)
        val = terms.sum(axis=1)
        go_up = val > 1.0
        lo = np.where(active & go_up, mid, lo)
        hi = np.where(active & ~go_up, mid, hi)
    root = np.maximum(d_max, 0.5 * (lo + hi))
    return float(root[0]) if single else root
