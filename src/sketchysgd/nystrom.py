"""Randomized Nystrom approximation of a PSD operator and fast preconditioning.

Given black-box products with a symmetric PSD operator H (typically a
subsampled Hessian), ``rand_nys_approx`` builds a rank-r eigenpair
factorization ``H_hat = V diag(lam) V.T`` from a single blocked sketch
``Y = H Q``.  Apart from that product, the build is a handful of p x r
matrix products around r x r factorizations: CholeskyQR2 of the Gaussian
test matrix, ``B = Y C^{-1}`` as one product with the inverse of the r x r
Cholesky factor, CholeskyQR2 of B and the SVD of its r x r factor, and the
spectral norm from the r x r Gram matrix; see :mod:`sketchysgd.linalg` for
the Householder fallback.  The regularized approximation
``P = H_hat + rho I`` then supports O(p r) application of ``P^{-1}`` and
``P^{-1/2}`` through the matrix inversion lemma, which is all the optimizer
ever needs.  On CSR data the optimizer builds on the Hessian batch's column
support ``S`` only (see ``optimizers.sketch_hessian``), so the build's
dimension is |S|, not p: O(nnz(C) r + |S| r^2) for the batch factor ``C``,
with the basis then embedded in p x r.  Both go
through one apply, ``P^{-s} v = V (c * ((lam + rho)^{-s} - rho^{-s})) + rho^{-s} v``
with ``c = V.T v``: two passes over the basis, which is stored column-major
so that each pass reads contiguous columns.  SketchySGD and its staged
variant on CSR data do not call ``precond_solve`` per step: they apply the
same formula to a gradient supported on the batch's columns, in factored
form, with the basis rows on the sketch's ``support`` only, for
O(nnz(batch) + |S| r) (see ``optimizers._FactoredIterate``).  The
step-size estimate calls ``precond_inv_sqrt`` once per start and
``precond_solve`` once per power iteration, the latter on CSR data with the
basis rows on the fresh batch's support ``S'`` only, for O(nnz(C) + |S'| r)
per sweep (see ``optimizers.estimate_learning_rate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DegenerateMatrixError,
    IndefiniteMatrixError,
    Rng,
    cholesky,
    gaussian_matrix,
    qr_econ,
    spectral_norm,
    thin_svd,
    upper_inverse,
)


class SketchNotPsdError(ValueError):
    """The shifted sketch failed its Cholesky factorization.

    For convex tasks the shifted sketch is positive definite, so this error
    indicates a broken HVP oracle rather than a recoverable condition.
    """


@dataclass(frozen=True)
class NystromApprox:
    """Rank-r eigenpair factorization of a sketched PSD operator.

    ``basis`` is p x r with orthonormal columns and ``eigenvalues`` holds the
    r nonnegative eigenvalue estimates in descending order.  ``batch`` records
    the Hessian batch behind the sketch; it is ``None`` for synthetic
    operators.  ``support``, if given, holds the sorted rows of ``basis``
    outside which it is zero (a sketch on CSR data: the Hessian batch's
    column support); ``None`` means any row may be nonzero.  Instances are
    immutable and safe to apply concurrently.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    batch: np.ndarray | None = None
    shift: float = 0.0
    support: np.ndarray | None = None

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64).ravel()
        if basis.ndim != 2 or basis.shape[1] != eig.shape[0]:
            raise ValueError("basis columns must match the number of eigenvalues")
        if np.any(eig < 0):
            raise ValueError("eigenvalue estimates must be nonnegative")
        if np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        # Column-major, so both products in the preconditioner apply stream
        # contiguous columns of V; a column-major basis is kept as it is.
        object.__setattr__(self, "basis", np.asfortranarray(basis))
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def p(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    @staticmethod
    def rank_zero(p: int) -> "NystromApprox":
        """Empty approximation; the preconditioner degenerates to rho*I."""
        return NystromApprox(np.zeros((p, 0)), np.zeros(0), support=np.zeros(0, dtype=np.intp))

    def matrix(self) -> np.ndarray:
        """Dense ``V diag(lam) V.T`` (diagnostics only)."""
        return (self.basis * self.eigenvalues) @ self.basis.T

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Product of the approximation with a vector or block."""
        coeffs = self.basis.T @ np.asarray(v, dtype=np.float64)
        weights = self.eigenvalues[:, None] if coeffs.ndim == 2 else self.eigenvalues
        return self.basis @ (weights * coeffs)


def rand_nys_approx(
    hvp: Callable[[np.ndarray], np.ndarray],
    p: int,
    rank: int,
    rng: Rng,
    batch: np.ndarray | None = None,
) -> NystromApprox:
    """Build a rank-r Nystrom approximation from blocked operator products.

    ``hvp`` must map a p x r block to the operator applied column-wise; it is
    called once (a single data pass for subsampled GLM Hessians).  The sketch
    is stabilized by a shift ``nu = sqrt(p) * ulp(||Y||_2)`` that is removed
    from the recovered eigenvalues, clamping at zero, so the result is PSD
    and never overestimates the operator.  ``p`` is the operator's
    dimension: |S| for a sketch on a Hessian batch's column support.
    """
    if not 1 <= rank <= p:
        raise ValueError(f"rank {rank} must lie in [1, {p}]")
    try:
        test_matrix = qr_econ(gaussian_matrix(rng, p, rank))
    except DegenerateMatrixError:
        # A degenerate Gaussian draw has probability zero; retry once in case
        # of a pathological stream before giving up.
        test_matrix = qr_econ(gaussian_matrix(rng, p, rank))
    sketch = np.asarray(hvp(test_matrix), dtype=np.float64)
    if sketch.shape != (p, rank):
        raise ValueError(f"hvp returned shape {sketch.shape}, expected ({p}, {rank})")

    nu = np.sqrt(p) * np.spacing(spectral_norm(sketch))
    # Q.T (Y + nu Q) = Q.T Y + nu I, Q being orthonormal
    core = test_matrix.T @ sketch + nu * np.eye(rank)
    try:
        chol = cholesky(0.5 * (core + core.T))
    except IndefiniteMatrixError as exc:
        raise SketchNotPsdError("sketch not PSD") from exc
    # B = Y C^{-1} as one product with the inverse of the r x r triangle
    b = sketch @ upper_inverse(chol)
    basis, sigma = thin_svd(b)
    eigenvalues = np.maximum(sigma * sigma - nu, 0.0)
    return NystromApprox(basis, eigenvalues, batch=batch, shift=float(nu))


def _check_rho(rho: float) -> float:
    """``rho`` as a float; finite, positive, and large enough that ``1/rho`` is finite."""
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    rho = float(rho)
    if math.isinf(1.0 / rho):
        raise ValueError(f"rho {rho!r} is too small: its reciprocal overflows float64")
    return rho


def _apply(nys: NystromApprox, rho: float, v: np.ndarray, power: float) -> np.ndarray:
    """Apply ``(H_hat + rho I)^{-power}`` to a vector or block.

    The inversion-lemma form ``V (lam + rho)^-power c + rho^-power (v - V c)``,
    ``c = V.T v``, with its two products against V merged into one.
    """
    rho = _check_rho(rho)
    v = np.asarray(v, dtype=np.float64)
    scale = rho**-power
    coeffs = nys.basis.T @ v
    gain = (nys.eigenvalues + rho) ** -power - scale
    return nys.basis @ (coeffs * (gain[:, None] if coeffs.ndim == 2 else gain)) + scale * v


def precond_solve(nys: NystromApprox, rho: float, v: np.ndarray) -> np.ndarray:
    """Apply ``(H_hat + rho I)^{-1}`` in O(p r)."""
    return _apply(nys, rho, v, 1.0)


def precond_inv_sqrt(nys: NystromApprox, rho: float, v: np.ndarray) -> np.ndarray:
    """Apply ``(H_hat + rho I)^{-1/2}`` in O(p r)."""
    return _apply(nys, rho, v, 0.5)
