"""Finite-sum problem oracles for ridge and l2-regularized logistic regression.

The objective is ``f(w) = (1/n) sum_i f_i(w) + (l2/2) ||w||^2`` with

* ridge:    ``f_i(w) = 0.5 (a_i' w - b_i)^2``
* logistic: ``f_i(w) = log(1 + exp(-y_i a_i' w))``, labels in {-1, +1}.

The oracle exposes minibatch gradients and minibatch Hessian-vector
products over dense or CSR data.  The l2 term enters the loss and gradient
but is deliberately excluded from Hessian-vector products: the curvature
sketch only ever sees the data part ``(1/|S|) sum_{i in S} d_i a_i a_i'``,
and the preconditioner regularization absorbs the rest.

Two hooks hand a caller gathered rows to work on without gathering again:
``row_block`` returns the rows of a block of minibatches and their labels
(with ``loss_slope`` for the per-sample gradient coefficient), and
``hessian_factor`` returns ``C`` with ``C' C`` the minibatch Hessian, the
curvature weights computed once.

Oracles are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import Dataset
from .linalg import Rng

TASKS = ("ridge", "logistic")


def sample_batch(rng: Rng, n: int, b: int) -> np.ndarray:
    """Uniform random b-subset of {0..n-1}, without replacement, sorted."""
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} must lie in [1, {n}]")
    if b == n:
        return np.arange(n, dtype=np.int64)
    idx = rng.choice(n, size=b, replace=False)
    return np.sort(idx.astype(np.int64))


@dataclass(frozen=True)
class ProblemOracle:
    """Loss/gradient/HVP interface for one GLM task over a dataset."""

    data: Dataset
    task: str
    l2: float = 0.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.l2 < 0:
            raise ValueError("l2 regularization must be nonnegative")
        if self.task == "logistic" and not np.all(np.abs(self.data.labels) == 1.0):
            raise ValueError("logistic labels must be -1 or +1")

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def p(self) -> int:
        return self.data.p

    def _check_w(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.p,):
            raise ValueError(f"iterate has shape {w.shape}, expected ({self.p},)")
        return w

    def _margins(self, w, rows=None) -> np.ndarray:
        feats = self.data.features if rows is None else self.data.features[rows]
        return np.asarray(feats @ w).ravel()

    def full_loss(self, w: np.ndarray) -> float:
        """Objective value, including the l2 term."""
        w = self._check_w(w)
        z = self._margins(w)
        if self.task == "ridge":
            resid = z - self.data.labels
            base = 0.5 * float(resid @ resid) / self.n
        else:
            # log(1 + exp(-y z)) evaluated stably
            base = float(np.logaddexp(0.0, -self.data.labels * z).sum()) / self.n
        return base + 0.5 * self.l2 * float(w @ w)

    def mean_sample_loss(self, w: np.ndarray) -> float:
        """Unregularized mean per-sample loss (the test-split metric)."""
        w = self._check_w(w)
        z = self._margins(w)
        if self.task == "ridge":
            resid = z - self.data.labels
            return 0.5 * float(resid @ resid) / self.n
        return float(np.logaddexp(0.0, -self.data.labels * z).sum()) / self.n

    def accuracy(self, w: np.ndarray) -> float:
        """Classification accuracy with ties (zero margin) counted as +1."""
        if self.task != "logistic":
            raise ValueError("accuracy is only defined for the logistic task")
        w = self._check_w(w)
        pred = np.where(self._margins(w) >= 0.0, 1.0, -1.0)
        return float(np.mean(pred == self.data.labels))

    def minibatch_loss(self, w: np.ndarray, batch: np.ndarray) -> float:
        """Mean loss over a batch plus the l2 term (finite-difference target)."""
        w = self._check_w(w)
        batch = self._check_batch(batch)
        z = self._margins(w, batch)
        if self.task == "ridge":
            resid = z - self.data.labels[batch]
            base = 0.5 * float(resid @ resid) / batch.size
        else:
            base = float(np.logaddexp(0.0, -self.data.labels[batch] * z).sum()) / batch.size
        return base + 0.5 * self.l2 * float(w @ w)

    def _check_batch(self, batch) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.int64).ravel()
        if batch.size == 0:
            raise ValueError("batch must be nonempty")
        if batch.min() < 0 or batch.max() >= self.n:
            raise ValueError("batch indices out of range")
        return batch

    def _is_full(self, batch: np.ndarray) -> bool:
        """Whether ``batch`` is exactly ``arange(n)``, e.g. an SVRG snapshot."""
        return batch.size == self.n and batch[0] == 0 and bool(np.all(np.diff(batch) == 1))

    def _gather_rows(self, batch: np.ndarray):
        """Nonzeros of the CSR rows ``batch``, in storage order.

        Returns ``(rows, cols, vals)``: the position of each entry's row in
        ``batch``, its column and its value.  Products built from these with
        ``np.bincount`` add the same terms in the same order as scipy's
        ``csr_matvec``/``csc_matvec`` on ``features[batch]``, so they agree
        to the last bit without materializing the row slice.
        """
        feats = self.data.features
        starts = feats.indptr[batch]
        counts = feats.indptr[batch + 1] - starts
        ends = np.cumsum(counts)
        # Row j's entries occupy gathered slots ends[j] - counts[j] .. ends[j] - 1;
        # slot t holds the stored entry starts[j] + t - (ends[j] - counts[j]).
        positions = np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])
        rows = np.repeat(np.arange(batch.size), counts)
        return rows, feats.indices[positions], feats.data[positions]

    def _logistic_weights(self, z: np.ndarray, batch: np.ndarray) -> np.ndarray:
        s = expit(self.data.labels[batch] * z)
        return s * (1.0 - s)

    def loss_slope(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative of each sample's loss with respect to its margin ``z``."""
        if self.task == "ridge":
            return z - y
        # d/dz log(1 + exp(-y z)) = -y sigma(-y z)
        return -y * expit(-y * z)

    def row_block(self, batch: np.ndarray):
        """The rows ``batch`` of the features, in the given order, and their labels.

        ``batch`` holds valid row indices (as drawn by :func:`sample_batch`);
        it may concatenate several minibatches.  One row gather, so a caller
        that steps through many minibatches can pay for it once: every
        runner but SVRG on CSR data forms ``features[batch] @ V`` for a
        whole block of prefetched minibatches (see
        ``optimizers._FactoredIterate``).
        """
        return self.data.features[batch], self.data.labels[batch]

    def minibatch_gradient(self, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """``(1/|B|) sum_{i in B} grad f_i(w) + l2 * w``."""
        w = self._check_w(w)
        batch = self._check_batch(batch)
        full = self._is_full(batch)
        if self.data.is_sparse and not full:
            rows, cols, vals = self._gather_rows(batch)
            z = np.bincount(rows, weights=vals * w[cols], minlength=batch.size)
            slope = self.loss_slope(z, self.data.labels[batch])
            grad = np.bincount(cols, weights=vals * slope[rows], minlength=self.p)
        else:
            feats = self.data.features if full else self.data.features[batch]
            coeff = self.loss_slope(np.asarray(feats @ w).ravel(), self.data.labels[batch])
            grad = np.asarray(feats.T @ coeff).ravel()
        return grad / batch.size + self.l2 * w

    def curvature_weights(self, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Per-sample Hessian weights d_i(w): 1 for ridge, sigma(1-sigma) for logistic."""
        w = self._check_w(w)
        batch = self._check_batch(batch)
        if self.task == "ridge":
            return np.ones(batch.size)
        return self._logistic_weights(self._margins(w, batch), batch)

    def minibatch_hvp(self, w: np.ndarray, batch: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``(1/|S|) sum_{i in S} d_i(w) a_i (a_i' v)``, l2 term excluded.

        ``v`` may be a vector of length p or a block of shape (p, r); blocks
        are pushed through the data in one pass.
        """
        w = self._check_w(w)
        batch = self._check_batch(batch)
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.p:
            raise ValueError(f"vector has leading dimension {v.shape[0]}, expected {self.p}")
        if self.data.is_sparse and v.ndim == 1:
            rows, cols, vals = self._gather_rows(batch)
            weighted = np.bincount(rows, weights=vals * v[cols], minlength=batch.size)
            if self.task == "logistic":
                z = np.bincount(rows, weights=vals * w[cols], minlength=batch.size)
                weighted = weighted * self._logistic_weights(z, batch)
            return np.bincount(cols, weights=vals * weighted[rows], minlength=self.p) / batch.size
        feats = self.data.features[batch]
        av = np.asarray(feats @ v)
        # Scaled by 1/|S| here, on |S| rows, rather than on the p x r product.
        d = self.curvature_weights(w, batch) / batch.size
        return np.asarray(feats.T @ (av * (d[:, None] if av.ndim == 2 else d)))

    def hessian_factor(self, w: np.ndarray, batch: np.ndarray):
        """``C = diag(sqrt(d_i(w) / |S|)) A_S``, so that ``C' C`` is the
        minibatch Hessian of :meth:`minibatch_hvp` (l2 excluded).

        CSR for sparse data, dense otherwise, with the curvature weights
        computed once.  Step-size powering works on ``C`` in the |S|-dimensional
        batch space (see ``optimizers.estimate_learning_rate``) instead of
        gathering the batch again for every Hessian-vector product.
        """
        w = self._check_w(w)
        batch = self._check_batch(batch)
        feats = self.data.features[batch]
        d = np.ones(batch.size) if self.task == "ridge" else self._logistic_weights(
            np.asarray(feats @ w).ravel(), batch)
        scale = np.sqrt(d / batch.size)
        if sp.issparse(feats):
            values = feats.data * np.repeat(scale, np.diff(feats.indptr))
            return sp.csr_matrix((values, feats.indices, feats.indptr), shape=feats.shape)
        feats *= scale[:, None]  # a float64 copy of the rows
        return feats

    def hessian_matrix(self, w: np.ndarray, batch: np.ndarray | None = None) -> np.ndarray:
        """Dense ``(1/|S|) A_S' D A_S`` (l2 excluded) for diagnostics and tests."""
        w = self._check_w(w)
        batch = np.arange(self.n, dtype=np.int64) if batch is None else self._check_batch(batch)
        feats = self.data.features[batch]
        d = self.curvature_weights(w, batch)
        if sp.issparse(feats):
            h = (feats.multiply(d[:, None])).T @ feats
            h = np.asarray(h.todense())
        else:
            h = (feats * d[:, None]).T @ feats
        return h / batch.size

    @cached_property
    def smoothness_upper_bound(self) -> float:
        """Upper bound on the objective's smoothness constant.

        ``(1/n) sum ||a_i||^2`` for ridge, a quarter of that for logistic,
        plus the l2 coefficient.  Drives the default preconditioner
        regularization and the SGD/SVRG default learning rates.
        """
        norms_sq = float(np.sum(self.data.row_norms() ** 2))
        base = norms_sq / self.n
        if self.task == "logistic":
            base *= 0.25
        return base + self.l2

    def sgd_default_learning_rate(self) -> float:
        """``max(1/(3L), 1/(2(L + n*l2)))`` with L the smoothness bound."""
        lhat = self.smoothness_upper_bound
        return max(1.0 / (3.0 * lhat), 1.0 / (2.0 * (lhat + self.n * self.l2)))
