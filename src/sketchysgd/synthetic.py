"""Constructive synthetic problem instances for benchmarks and verification.

The planted least-squares family controls the Hessian spectrum exactly:
``A = U diag(s) V'`` with Haar-random orthonormal factors, so the Hessian
``A'A/n`` has the requested eigenvalues and row subsampling perturbs it
multiplicatively rather than additively.  Targets are set to ``A w_star``,
so the optimum interpolates every sample and the minimum loss is zero.

The instance is built in place.  The n x p Gaussian behind U is drawn in
blocks of rows from one stream, which gives the same numbers as a single
row-major draw, straight into a column-major buffer.  Householder QR then
overwrites that buffer with U, its columns are scaled by ``s``, and one
product with ``V'`` writes the row-major matrix.  Set-up thus holds about
two copies of the matrix at its peak.  With one BLAS thread the instance is
the same to the last bit as a single row-major draw factored by
``np.linalg.qr``; with more threads the two LAPACK builds of NumPy and SciPy
may round differently in the last bits.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .data import Dataset
from .linalg import make_rng

# Rows per block of the Gaussian draw behind U.
_DRAW_BLOCK = 2048


def planted_spectrum(p: int, condition: float, knee: int = 4) -> np.ndarray:
    """Hessian eigenvalues with a fast top decay and a flat tail.

    The first ``knee`` values decay geometrically from 1 to
    ``10/condition`` and the remaining ones sit at ``1/condition``, so a
    rank-``knee`` approximation plus a shift of about ``10/condition``
    captures the whole curvature range.  The wide gaps between head values
    keep their subsampled estimates well separated, so sketches built from
    modest Hessian batches resolve them reliably.
    """
    if condition <= 1:
        raise ValueError("condition must exceed 1")
    knee = min(knee, p)
    head = np.geomspace(1.0, 10.0 / condition, knee) if knee > 1 else np.array([1.0])
    tail = np.full(p - knee, 1.0 / condition)
    return np.concatenate([head, tail])


def planted_least_squares(
    n: int,
    p: int,
    condition: float = 1e4,
    seed: int = 0,
    eigenvalues: np.ndarray | None = None,
) -> tuple[Dataset, np.ndarray]:
    """Interpolation least-squares instance with a planted Hessian spectrum.

    Returns ``(dataset, w_star)`` where the labels are exactly ``A w_star``:
    the unregularized objective has minimum value zero at ``w_star``.
    U is formed in the buffer of its Gaussian draw (see the module
    docstring), so the peak footprint is about twice ``A``'s n x p bytes.
    """
    if p > n:
        raise ValueError("planted instances require n >= p")
    rng = make_rng(seed)
    eigs = planted_spectrum(p, condition) if eigenvalues is None else np.asarray(eigenvalues, dtype=np.float64)
    if eigs.shape != (p,) or np.any(eigs <= 0):
        raise ValueError("eigenvalues must be p positive reals")
    # A = U diag(s) V' with s = sqrt(n * eig) makes A'A/n have the planted spectrum.
    u = np.empty((n, p), order="F")
    for start in range(0, n, _DRAW_BLOCK):
        u[start:start + _DRAW_BLOCK] = rng.standard_normal((min(_DRAW_BLOCK, n - start), p))
    u, _ = scipy.linalg.qr(u, mode="economic", overwrite_a=True, check_finite=False)
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    u *= np.sqrt(n * eigs)
    a = u @ v.T
    del u  # before the labels and the Dataset checks, so the peak stays at two copies
    w_star = rng.standard_normal(p)
    w_star /= np.linalg.norm(w_star)
    labels = a @ w_star
    return Dataset(a, labels), w_star


def gaussian_dataset(n: int, p: int, task: str, seed: int = 0, scale: float = 1.0) -> Dataset:
    """Generic dense random instance for property tests.

    Ridge targets are standard normal; logistic labels are the signs of a
    noisy linear score, so both classes appear with high probability.
    """
    rng = make_rng(seed)
    a = scale * rng.standard_normal((n, p)) / math.sqrt(p)
    if task == "ridge":
        labels = rng.standard_normal(n)
    elif task == "logistic":
        w = rng.standard_normal(p)
        score = a @ w + 0.5 * rng.standard_normal(n)
        labels = np.where(score >= 0, 1.0, -1.0)
        if np.all(labels == labels[0]) and n > 1:
            labels[: n // 2] = -labels[0]
    else:
        raise ValueError(f"unknown task {task!r}")
    return Dataset(a, labels)
