"""Reference code that the tests compare the package against.

:func:`preconditioned_top_eigenvalue` is randomized powering on
``P^{-1/2} M P^{-1/2}`` in R^p for any PSD operator ``M``, the generic form
of the batch-space ``optimizers.estimate_learning_rate``.
:func:`minibatch_loss` is the minibatch objective that finite differences
of ``minibatch_gradient`` and ``minibatch_hvp`` are taken on.
:func:`nystrom_apply` is the product ``H_hat v`` of a Nystrom approximation.

:func:`unshared_reads` patches the optimization loop back to the data reads
of version 0.3.0, which gave the same numbers with more work: a dense SVRG
step that calls ``minibatch_gradient`` at ``w`` and at ``w_snap`` (two row
gathers and four products), and a snapshot gradient and records that each
form their own margin products.

:func:`planted_least_squares` is the planted instance as version 0.3.0 built
it: one row-major Gaussian draw factored by ``np.linalg.qr``.

:func:`traced_peak` measures the NumPy allocations of one call.

:func:`zipf_libsvm_text` writes libsvm text shaped like the benchmark's.
"""

import math
import tracemalloc
from typing import Callable

import numpy as np

from sketchysgd import optimizers
from sketchysgd.linalg import Rng, make_rng
from sketchysgd.nystrom import NystromApprox, precond_inv_sqrt, precond_solve
from sketchysgd.optimizers import LearningRateError
from sketchysgd.oracles import ProblemOracle
from sketchysgd.synthetic import planted_spectrum


def preconditioned_top_eigenvalue(
    apply_op: Callable[[np.ndarray], np.ndarray],
    nys: NystromApprox,
    rho: float,
    power_iters: int,
    rng: Rng,
) -> float:
    """Top eigenvalue of ``P^{-1/2} M P^{-1/2}`` by randomized powering.

    ``apply_op`` applies the symmetric PSD operator M to a vector and
    ``P = H_hat + rho I``.  Each sweep conjugates by the inverse square root
    on both sides and reads off the Rayleigh quotient.  A degenerate run
    (the operator annihilates the iterate subspace) is retried once with a
    fresh Gaussian start; a second failure raises — silent fallbacks would
    mask oracle bugs.
    """
    p = nys.p
    for _ in range(2):
        z = rng.standard_normal(p)
        norm_z = float(np.linalg.norm(z))
        if norm_z == 0.0:
            continue
        y = z / norm_z
        lam = math.nan
        degenerate = False
        for _ in range(power_iters):
            v = precond_inv_sqrt(nys, rho, y)
            hv = np.asarray(apply_op(v), dtype=np.float64).ravel()
            y_next = precond_inv_sqrt(nys, rho, hv)
            lam = float(y @ y_next)
            norm_y = float(np.linalg.norm(y_next))
            if not math.isfinite(lam) or norm_y == 0.0:
                degenerate = True
                break
            y = y_next / norm_y
        if not degenerate and math.isfinite(lam) and lam > 0.0:
            return lam
    raise LearningRateError("learning-rate estimation failed")


def minibatch_loss(oracle: ProblemOracle, w: np.ndarray, batch: np.ndarray) -> float:
    """Mean loss over a batch plus the l2 term (finite-difference target)."""
    w = oracle._check_w(w)
    batch = oracle._check_batch(batch)
    base = oracle._loss_sum(oracle.margins(w, batch), oracle.data.labels[batch]) / batch.size
    return base + 0.5 * oracle.l2 * float(w @ w)


def nystrom_apply(nys: NystromApprox, v: np.ndarray) -> np.ndarray:
    """Product of the approximation with a vector or block."""
    coeffs = nys.basis.T @ np.asarray(v, dtype=np.float64)
    weights = nys.eigenvalues[:, None] if coeffs.ndim == 2 else nys.eigenvalues
    return nys.basis @ (weights * coeffs)


def two_gather_step(self, j):
    """``_DenseIterate.step`` as two minibatch gradients per SVRG step."""
    batch = self.batches[j]
    grad = self.oracle.minibatch_gradient(self.w, batch)
    if self.snapshot is not None:
        w_snap, mu = self.snapshot[:2]
        grad = grad - self.oracle.minibatch_gradient(w_snap, batch) + mu
    self.w = self.w - self.eta * (precond_solve(self.nys, self.rho, grad)
                                  if self.nys.rank else grad)
    if self.sum is not None:
        self.sum += self.w
    return bool(np.isfinite(self.w).all())


def unshared_reads(monkeypatch):
    """Patch in :func:`two_gather_step`, and make every snapshot gradient
    and record form its own margins (``monkeypatch`` undoes it)."""
    monkeypatch.setattr(optimizers._DenseIterate, "step", two_gather_step)
    gradient = ProblemOracle.minibatch_gradient
    monkeypatch.setattr(ProblemOracle, "minibatch_gradient",
                        lambda self, w, batch, margins=None: gradient(self, w, batch))
    record = optimizers._Recorder.record

    def own_margins(self, w, passes, wall, iteration, margins=None):
        record(self, w, passes, wall, iteration)

    monkeypatch.setattr(optimizers._Recorder, "record", own_margins)


def planted_least_squares(n, p, condition=1e4, seed=0, eigenvalues=None):
    """``(features, labels, w_star)`` of ``synthetic.planted_least_squares``,
    drawn and factored out of place."""
    rng = make_rng(seed)
    eigs = planted_spectrum(p, condition) if eigenvalues is None else np.asarray(eigenvalues, dtype=np.float64)
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (u * np.sqrt(n * eigs)) @ v.T
    w_star = rng.standard_normal(p)
    w_star /= np.linalg.norm(w_star)
    return a, a @ w_star, w_star


def traced_peak(fn, *args, **kwargs):
    """``(result, peak bytes)`` of one call under tracemalloc.

    tracemalloc sees NumPy's array allocations but not the buffers that
    LAPACK and BLAS allocate inside a call, so the peak is a lower bound on
    the call's footprint.
    """
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zipf_libsvm_text(n, p, draws_per_row, seed):
    """libsvm text of ``n`` rows: each row draws ``draws_per_row`` of ``p``
    columns from the Zipf popularity law and keeps the distinct ones, with
    +/-1 labels and values on [0.5, 1.5] rounded to 4 decimals."""
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, p + 1)
    cols = rng.choice(p, size=(n, draws_per_row), p=popularity / popularity.sum()) + 1
    cols.sort(axis=1)
    keep = np.ones(cols.shape, dtype=bool)
    keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
    values = np.round(rng.uniform(0.5, 1.5, size=cols.shape), 4)
    labels = rng.choice(["1", "-1"], size=n).tolist()
    return "".join(
        label + "".join(f" {c}:{v!r}" for c, v in zip(row[k].tolist(), vals[k].tolist())) + "\n"
        for label, row, vals, k in zip(labels, cols, values, keep))
