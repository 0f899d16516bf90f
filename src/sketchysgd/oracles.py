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
(with ``loss_slope`` for the per-sample gradient coefficient, and
``rows_gradient`` for the minibatch gradient on them), and
``hessian_factor`` returns ``C`` with ``C' C`` the minibatch Hessian, the
curvature weights computed once.  Every Nystrom build and step-size
estimate works on ``C``; ``minibatch_hvp`` is the reference operator they
are tested against.

Every logistic loss (``full_loss``, ``mean_sample_loss``) goes through
one helper, ``_logistic_loss_sum``, which sums ``log(1 + exp(t))`` as
``max(t, 0) + log1p(exp(-|t|))`` in vectorized passes.  The evaluation metrics and ``minibatch_gradient`` take optional
precomputed ``margins`` so that a caller reading several of them at one
iterate forms ``features @ w`` once.

Oracles are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ._rules import check_rules, number
from .data import Dataset
from .linalg import Rng

TASKS = ("ridge", "logistic")

#: What :class:`ProblemOracle` takes from a caller, per key: what a value
#: must be and its test.
ORACLE_RULES = {
    "task": ("'ridge' or 'logistic'", lambda x: x in TASKS),
    "l2": ("a finite number >= 0", lambda x: 0 <= number(x) < math.inf),
}


def _logistic_loss_sum(t: np.ndarray) -> float:
    """``sum_i log(1 + exp(t_i))``, evaluated stably as ``max(t, 0) + log1p(exp(-|t|))``.

    The logistic loss of a sample with label y and margin z is this at
    ``t = -y z``.  Vectorized, unlike ``np.logaddexp``; the two differ by at
    most two ulps per entry on 2e6 samples of t in [-800, 800].  NaN gives NaN.
    """
    soft = np.abs(t)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    soft += np.maximum(t, 0.0)
    return float(soft.sum())


def sample_batch(rng: Rng, n: int, b: int, count: int | None = None) -> np.ndarray:
    """Uniform random b-subset of {0..n-1}, without replacement, sorted.

    With ``count`` given, ``count`` independent such subsets as the rows of
    a (count, b) array, drawn at once.  Each row starts as b i.i.d. draws
    from {0..n-1}; after sorting, every repeat of a value is redrawn, until
    all rows hold distinct values.  Relabelling {0..n-1} by any
    permutation leaves the law of that procedure unchanged, so every
    b-subset is equally likely.  When ``2b > n`` the n - b values left out
    are drawn that way instead, so that every redraw lands on a new value
    with probability at least one half.  ``b == n`` draws nothing.
    """
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} must lie in [1, {n}]")
    rows = 1 if count is None else count
    if b == n:
        out = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    elif 2 * b > n:
        keep = np.ones((rows, n), dtype=bool)
        keep[np.arange(rows)[:, None], _distinct_rows(rng, n, rows, n - b)] = False
        out = np.nonzero(keep)[1].astype(np.int64).reshape(rows, b)
    else:
        out = _distinct_rows(rng, n, rows, b)
    return out[0] if count is None else out


def _distinct_rows(rng: Rng, n: int, rows: int, k: int) -> np.ndarray:
    """``rows`` sorted rows of k distinct values from {0..n-1} (see :func:`sample_batch`)."""
    out = rng.integers(0, n, size=(rows, k))
    out.sort(axis=1)
    while True:
        row, col = np.nonzero(out[:, 1:] == out[:, :-1])
        if not row.size:
            return out
        out[row, col + 1] = rng.integers(0, n, size=row.size)
        hit = np.unique(row)
        out[hit] = np.sort(out[hit], axis=1)


@dataclass(frozen=True)
class ProblemOracle:
    """Loss/gradient/HVP interface for one GLM task over a dataset."""

    data: Dataset
    task: str
    l2: float = 0.0

    def __post_init__(self):
        check_rules(ORACLE_RULES, task=self.task, l2=self.l2)
        if self.task == "logistic":
            bad = self.data.labels[np.abs(self.data.labels) != 1.0]
            if bad.size:
                raise ValueError(f"logistic labels must be -1 or +1, found {float(bad[0])!r}")

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

    def margins(self, w: np.ndarray, rows=None) -> np.ndarray:
        """``features @ w``, over the rows ``rows`` if given.

        A caller that reads several metrics at one iterate forms this once
        and passes it to :meth:`full_loss`, :meth:`mean_sample_loss` and
        :meth:`accuracy` (as ``optimizers._Recorder`` does per record).
        """
        feats = self.data.features if rows is None else self.data.features[rows]
        return np.asarray(feats @ self._check_w(w)).ravel()

    def _full_margins(self, w: np.ndarray, margins) -> np.ndarray:
        return self.margins(w) if margins is None else self._given_margins(margins, self.n)

    @staticmethod
    def _given_margins(margins, size: int) -> np.ndarray:
        margins = np.asarray(margins, dtype=np.float64)
        if margins.shape != (size,):
            raise ValueError(f"margins have shape {margins.shape}, expected ({size},)")
        return margins

    def _loss_sum(self, z: np.ndarray, labels: np.ndarray) -> float:
        """``sum_i f_i`` from the margins ``z`` of the samples with ``labels``."""
        if self.task == "ridge":
            resid = z - labels
            return 0.5 * float(resid @ resid)
        return _logistic_loss_sum(-labels * z)

    def full_loss(self, w: np.ndarray, margins: np.ndarray | None = None) -> float:
        """Objective value, including the l2 term.

        ``margins``, if given, must be ``self.margins(w)``; it saves the product.
        """
        w = self._check_w(w)
        z = self._full_margins(w, margins)
        return self._loss_sum(z, self.data.labels) / self.n + 0.5 * self.l2 * float(w @ w)

    def mean_sample_loss(self, w: np.ndarray, margins: np.ndarray | None = None) -> float:
        """Unregularized mean per-sample loss (the test-split metric)."""
        z = self._full_margins(w, margins)
        return self._loss_sum(z, self.data.labels) / self.n

    def accuracy(self, w: np.ndarray, margins: np.ndarray | None = None) -> float:
        """Classification accuracy with ties (zero margin) counted as +1.

        A NaN margin fails ``z >= 0`` and so predicts -1.
        """
        if self.task != "logistic":
            raise ValueError("accuracy is only defined for the logistic task")
        z = self._full_margins(w, margins)
        return np.count_nonzero((z >= 0.0) == (self.data.labels > 0.0)) / self.n

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
        runner on CSR data gathers a whole block of minibatches drawn at
        once, and SVRG also forms the block's product with its snapshot and
        drift (see ``optimizers._FactoredIterate``); a dense SVRG step forms
        both of its minibatch gradients from one gather (see
        :meth:`rows_gradient`).
        """
        return self.data.features[batch], self.data.labels[batch]

    def minibatch_gradient(self, w: np.ndarray, batch: np.ndarray,
                           margins: np.ndarray | None = None) -> np.ndarray:
        """``(1/|B|) sum_{i in B} grad f_i(w) + l2 * w``.

        ``margins``, if given, must be ``self.margins(w, batch)``; it saves
        the product (an SVRG snapshot shares its iterate's margins with the
        records there).
        """
        w = self._check_w(w)
        batch = self._check_batch(batch)
        feats = self.data.features if self._is_full(batch) else self.data.features[batch]
        z = (np.asarray(feats @ w).ravel() if margins is None
             else self._given_margins(margins, batch.size))
        return self.rows_gradient(w, feats, self.data.labels[batch], z)

    def rows_gradient(self, w: np.ndarray, feats, labels: np.ndarray,
                      margins: np.ndarray) -> np.ndarray:
        """``feats' slope(margins) / b + l2 * w``: the gradient on ``b``
        gathered rows ``feats`` with their ``labels`` and margins
        ``feats @ w``, unchecked.  :meth:`minibatch_gradient` forms it so,
        and a dense SVRG step forms it at ``w`` and at ``w_snap`` from one
        :meth:`row_block` gather (``optimizers._DenseIterate``).
        """
        coeff = self.loss_slope(margins, labels)
        grad = np.asarray(feats.T @ coeff).ravel()
        return grad / labels.size + self.l2 * w

    def curvature_weights(self, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Per-sample Hessian weights d_i(w): 1 for ridge, sigma(1-sigma) for logistic."""
        w = self._check_w(w)
        batch = self._check_batch(batch)
        if self.task == "ridge":
            return np.ones(batch.size)
        return self._logistic_weights(self.margins(w, batch), batch)

    def minibatch_hvp(self, w: np.ndarray, batch: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``(1/|S|) sum_{i in S} d_i(w) a_i (a_i' v)``, l2 term excluded.

        ``v`` may be a vector of length p or a block of shape (p, r); blocks
        are pushed through the data in one pass.  A vector's product is
        scaled by 1/|S| last, as ``features[batch]`` products would be.
        """
        w = self._check_w(w)
        batch = self._check_batch(batch)
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.p:
            raise ValueError(f"vector has leading dimension {v.shape[0]}, expected {self.p}")
        feats = self.data.features[batch]
        av = np.asarray(feats @ v)
        d = self.curvature_weights(w, batch)
        if av.ndim == 1:
            return np.asarray(feats.T @ (av * d)).ravel() / batch.size
        # Scaled by 1/|S| here, on |S| rows, rather than on the p x r product.
        return np.asarray(feats.T @ (av * (d / batch.size)[:, None]))

    def hessian_factor(self, w: np.ndarray, batch: np.ndarray):
        """``C = diag(sqrt(d_i(w) / |S|)) A_S``, so that ``C' C`` is the
        minibatch Hessian of :meth:`minibatch_hvp` (l2 excluded).

        CSR for sparse data, dense otherwise, with the curvature weights
        computed once.  The Nystrom build applies ``C' (C V)`` in one pass,
        on CSR data restricted to the columns ``C`` touches (see
        ``optimizers.sketch_hessian``), and step-size powering works on ``C``
        in the |S|-dimensional batch space (see
        ``optimizers.estimate_learning_rate``) instead of gathering the batch
        again for every Hessian-vector product.
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
