"""Seeded benchmark inputs and the benchmark's own reference objective.

Everything here is computed with NumPy and SciPy directly, never through
``sketchysgd``, so the output checks in ``checks.py`` compare the package
against an independent computation.

Sparse instances are built from index arrays (never ``scipy.sparse.random``,
which allocates a permutation of every cell).  Column popularity follows a
Zipf law, so a handful of features appear in most rows while the tail
appears in a few: the data Hessian then has a few large eigenvalues and a
long tail down to the l2 coefficient.  Labels are drawn from a planted
logistic model, so the classes overlap and the optimum is finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.special import expit

#: Digits kept in generated feature values, so that the libsvm text holds
#: every value exactly and the parsed matrix can be compared bit for bit.
VALUE_DECIMALS = 4


def sparse_logistic(n: int, p: int, draws_per_row: int, seed: int):
    """CSR features (sorted, duplicate-free columns) and +/-1 labels.

    Each row draws ``draws_per_row`` columns from the Zipf popularity law
    with replacement and keeps the distinct ones, so rows hold about that
    many nonzeros.  Values are uniform on [0.5, 1.5], rounded.
    """
    rng = np.random.default_rng([seed, n, p])
    popularity = 1.0 / np.arange(1, p + 1)
    popularity /= popularity.sum()
    cols = rng.choice(p, size=(n, draws_per_row), p=popularity)
    cols.sort(axis=1)
    keep = np.ones(cols.shape, dtype=bool)
    keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int64)
    indices = cols[keep].astype(np.int64)
    values = np.round(rng.uniform(0.5, 1.5, size=indices.size), VALUE_DECIMALS)
    features = sp.csr_matrix((values, indices, indptr), shape=(n, p))
    planted = 3.0 * rng.standard_normal(p)
    margins = (features @ planted) / row_norms(features)
    labels = np.where(rng.random(n) < expit(margins), 1.0, -1.0)
    return features, labels


def row_norms(features) -> np.ndarray:
    return np.sqrt(np.asarray(features.multiply(features).sum(axis=1)).ravel())


def write_libsvm(features, labels, path: Path) -> None:
    """Plain libsvm text: ``<label> <col+1>:<value> ...``, one row per line."""
    indptr = features.indptr
    tokens = [f"{c}:{v!r}" for c, v in zip((features.indices + 1).tolist(), features.data.tolist())]
    label_text = ["1" if y > 0 else "-1" for y in labels]
    with open(path, "w") as handle:
        for i in range(features.shape[0]):
            handle.write(label_text[i] + " " + " ".join(tokens[indptr[i]:indptr[i + 1]]) + "\n")


class LogisticObjective:
    """``mean_i log(1 + exp(-y_i x_i'w)) + (l2/2)||w||^2`` over row-normalized data."""

    def __init__(self, features, labels, l2: float):
        self.x = sp.diags(1.0 / row_norms(features)) @ features
        self.x = self.x.tocsr()
        self.y = np.asarray(labels, dtype=np.float64)
        self.n, self.p = self.x.shape
        self.l2 = float(l2)

    def value_and_grad(self, w: np.ndarray):
        z = self.x @ w
        value = np.logaddexp(0.0, -self.y * z).sum() / self.n + 0.5 * self.l2 * (w @ w)
        grad = self.x.T @ (-self.y * expit(-self.y * z)) / self.n + self.l2 * w
        return float(value), grad

    def reference_optimum(self) -> dict:
        """L-BFGS optimum and a certified lower bound on the true minimum.

        Strong convexity with modulus ``l2`` gives
        ``f* >= f(w) - ||grad f(w)||^2 / (2 l2)`` at any ``w``.
        """
        res = scipy.optimize.minimize(
            self.value_and_grad, np.zeros(self.p), jac=True, method="L-BFGS-B",
            options={"maxiter": 20000, "maxcor": 30, "gtol": 1e-13, "ftol": 1e-16},
        )
        value, grad = self.value_and_grad(res.x)
        gnorm = float(np.linalg.norm(grad))
        return {
            "f_ref": value,
            "f_lower": value - gnorm * gnorm / (2.0 * self.l2),
            "grad_norm": gnorm,
            "iterations": int(res.nit),
        }


def cached_reference(objective: LogisticObjective, cache: Path, key: dict) -> dict:
    """``reference_optimum`` memoized in a JSON file keyed by the instance recipe.

    Delete the file (or the whole work directory) to remake it.
    """
    if cache.exists():
        stored = json.loads(cache.read_text())
        if stored.get("key") == key:
            return stored["reference"]
    if objective is None:
        raise RuntimeError(f"no cached reference optimum in {cache}; run the prepare step")
    ref = objective.reference_optimum()
    if not all(math.isfinite(v) for v in ref.values()):
        raise RuntimeError(f"reference optimum is not finite: {ref}")
    cache.write_text(json.dumps({"key": key, "reference": ref}, indent=1) + "\n")
    return ref
