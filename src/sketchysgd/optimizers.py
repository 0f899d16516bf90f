"""Preconditioned and plain stochastic gradient optimizers.

Every runner is one loop, :func:`_drive`, made of four parts:

- gradient estimator: minibatch, or SVRG-corrected
  ``g_B(w) - g_B(w_snap) + mu`` with a full-gradient snapshot every
  ``ceil(n/b_g)`` steps;
- preconditioner: identity, or the regularized Nystrom approximation of a
  subsampled Hessian, sketched at the iterate every ``update_freq`` steps;
- step rule: fixed, or ``lr_scale`` over the top preconditioned eigenvalue,
  estimated at each refresh by randomized powering on an independent batch;
- averaging: none, or per stage of ``stage_length`` steps.

SketchySGD is minibatch + Nystrom + estimated step; its theoretical variant
adds averaging; SGD and SVRG use the identity and a fixed step.  The loop
counts every sample row touched by gradients, Hessian-vector products and
snapshots (the pass accountant; evaluation is instrumentation and is never
charged), and records losses on a pass schedule, or at every stage end when
averaging.  Runs are bit-reproducible from (config, seed, dataset) apart
from wall-clock fields.

On CSR data every runner but SVRG takes a factored step: between two
refreshes the preconditioner is fixed, so the iterate is kept as
``alpha * w_tilde + V s`` (see :class:`_FactoredIterate`) and a step costs
O(r nnz(batch)) instead of O(r p): no p-length gradient, no
``precond_solve``, no pass over w.  SGD is that step with the rank-zero
preconditioner and ``rho = 1`` (P = I, never refreshed), in O(nnz(batch)).
The staged variant keeps its stage sum in the same lazy form, for
O(nnz(batch)) more per step and O(r p) to form the average at a stage end.
Between two refreshes only ``sample_batch`` draws from the generator, so
such a run draws the batches of up to ``_BLOCK_ROWS`` rows at once, through
the same calls in the same order, and gathers their rows and multiplies
them by V once per block; the extra memory is O(_BLOCK_ROWS r +
nnz(block)).  The iterate itself is built, in O(r p), only at a refresh,
an evaluation, a stage end and the end of the run.  It is the same step as
the materialized one, rounded differently (a relative difference around
1e-15 on the losses).  Dense data and SVRG take the materialized step.

The step-size estimate runs its power iteration in the |S|-dimensional
space of the Hessian batch (see :func:`estimate_learning_rate`), with
:func:`preconditioned_top_eigenvalue` as the generic reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import Dataset
from .linalg import Rng, make_rng
from .nystrom import NystromApprox, precond_inv_sqrt, precond_solve, rand_nys_approx
from .oracles import ProblemOracle, sample_batch

AUTO = "auto"


class DivergenceError(RuntimeError):
    """A run produced a non-finite iterate or loss.

    Carries the iteration index and the metrics recorded before the abort so
    callers can keep partial output.
    """

    def __init__(self, iteration: int, records):
        super().__init__(f"divergence detected at iteration {iteration}")
        self.iteration = iteration
        self.records = records


class LearningRateError(RuntimeError):
    """Randomized powering failed to produce a positive eigenvalue estimate."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for the preconditioned runs.

    String fields set to ``"auto"`` are materialized by
    :func:`resolve_config`: ``rank`` becomes min(10, p), ``rho`` becomes
    1e-3 times the smoothness bound, ``grad_batch_size`` becomes min(256, n),
    ``hess_batch_size`` becomes floor(sqrt(n)), ``update_freq`` becomes
    infinity for ridge (constant Hessian) and one pass for logistic, and
    ``stage_length`` becomes one pass worth of iterations.

    ``learning_rate`` is ``None`` (practical mode: re-estimated at every
    preconditioner refresh), a float (held fixed, no estimation cost), or
    ``"auto"`` in theoretical mode (estimated once per refresh, then fixed).
    The SGD and SVRG baselines read only ``grad_batch_size``,
    ``learning_rate``, ``max_passes`` and ``seed``; see
    :func:`resolve_baseline_config`.
    """

    rank: int | str = AUTO
    rho: float | str = AUTO
    grad_batch_size: int | str = AUTO
    hess_batch_size: int | str = AUTO
    update_freq: float | str = AUTO
    lr_scale: float = 0.5
    power_iters: int = 10
    max_passes: float = 40.0
    seed: int = 0
    mode: str = "practical"
    stage_length: int | str = AUTO
    learning_rate: float | str | None = None


@dataclass(frozen=True)
class MetricsRecord:
    """One measurement row; accuracy fields are ``None`` for regression."""

    passes: float
    wall_seconds: float
    train_loss: float
    test_loss: float | None = None
    train_acc: float | None = None
    test_acc: float | None = None


@dataclass(frozen=True)
class RunResult:
    """Final iterate plus the run's metrics and exact work counters."""

    w: np.ndarray
    records: list[MetricsRecord]
    iterations: int
    precond_updates: int
    lr_estimates: int
    snapshots: int
    samples_touched: int
    n: int
    config: OptimizerConfig | None = None

    @property
    def passes(self) -> float:
        return self.samples_touched / self.n


def resolve_config(config: OptimizerConfig, oracle: ProblemOracle) -> OptimizerConfig:
    """Materialize every ``"auto"`` field against a concrete problem."""
    n = oracle.n
    bg = _grad_batch_size(config.grad_batch_size, n)
    bh = config.hess_batch_size
    if bh == AUTO:
        bh = max(1, min(n, int(math.floor(math.sqrt(n)))))
    bh = _integral("hess_batch_size", bh)
    rho = config.rho
    if rho == AUTO:
        rho = 1e-3 * oracle.smoothness_upper_bound
    rho = float(rho)
    u = config.update_freq
    if u == AUTO:
        u = math.inf if oracle.task == "ridge" else float(math.ceil(n / bg))
    u = float(u)
    m = config.stage_length
    if m == AUTO:
        m = int(math.ceil(n / bg))
    m = _integral("stage_length", m)

    resolved = replace(
        config,
        rank=min(10, oracle.p) if config.rank == AUTO else _integral("rank", config.rank),
        grad_batch_size=bg,
        hess_batch_size=bh,
        rho=rho,
        update_freq=u,
        stage_length=m,
    )
    _validate_resolved(resolved, n, oracle.p)
    return resolved


def resolve_baseline_config(config: OptimizerConfig, oracle: ProblemOracle) -> OptimizerConfig:
    """Materialize the fields the SGD and SVRG baselines read.

    ``grad_batch_size`` resolves as in :func:`resolve_config`.  A
    ``learning_rate`` of ``None`` or ``"auto"`` becomes
    ``max(1/(3L), 1/(2(L + n*l2)))`` with L the smoothness upper bound, the
    standard default for variance-reduced solvers at this loss family.
    """
    lr = config.learning_rate
    eta = oracle.sgd_default_learning_rate() if lr in (None, AUTO) else float(lr)
    if not eta >= 0:
        raise ValueError("learning rate must be nonnegative")
    bg = _grad_batch_size(config.grad_batch_size, oracle.n)
    return replace(config, grad_batch_size=bg, learning_rate=eta)


def _integral(name: str, value) -> int:
    """``value`` as an int if it is a whole number; never truncates."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _grad_batch_size(value: int | str, n: int) -> int:
    bg = min(256, n) if value == AUTO else _integral("grad_batch_size", value)
    if not 1 <= bg <= n:
        raise ValueError(f"gradient batch size {bg} must lie in [1, {n}]")
    return bg


def _validate_resolved(cfg: OptimizerConfig, n: int, p: int) -> None:
    if not 1 <= cfg.rank <= p:
        raise ValueError(f"rank {cfg.rank} must lie in [1, {p}]")
    if not 1 <= cfg.hess_batch_size <= n:
        raise ValueError(f"Hessian batch size {cfg.hess_batch_size} must lie in [1, {n}]")
    if not cfg.rho > 0:
        raise ValueError("rho must be positive after resolution")
    if not cfg.lr_scale > 0:
        raise ValueError("lr_scale must be positive")
    if cfg.power_iters < 1:
        raise ValueError("power_iters must be at least 1")
    if not cfg.max_passes > 0:
        raise ValueError("max_passes must be positive")
    if not (cfg.update_freq >= 1 and (math.isinf(cfg.update_freq) or cfg.update_freq.is_integer())):
        raise ValueError("update_freq must be an integer >= 1 or infinite")
    if cfg.mode not in ("practical", "theoretical"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if cfg.stage_length < 1:
        raise ValueError("stage_length must be at least 1")
    if cfg.mode == "theoretical" and cfg.learning_rate is None:
        raise ValueError("theoretical mode requires learning_rate (a float or 'auto')")
    if isinstance(cfg.learning_rate, str) and cfg.learning_rate != AUTO:
        raise ValueError(f"learning_rate must be a number, None, or 'auto', got {cfg.learning_rate!r}")
    if isinstance(cfg.learning_rate, (int, float)) and not cfg.learning_rate > 0:
        raise ValueError("a fixed learning_rate must be positive")


class _Recorder:
    """Evaluates and stores metrics on a pass schedule.

    Evaluation is instrumentation: it is not charged to the samples touched
    and its time is excluded from the wall-clock column.
    """

    def __init__(self, oracle: ProblemOracle, test_data: Dataset | None, eval_every: float):
        self.oracle = oracle
        self.test_oracle = (
            ProblemOracle(test_data, oracle.task, 0.0) if test_data is not None else None
        )
        if not eval_every > 0:
            raise ValueError("eval_every must be positive")
        self.eval_every = float(eval_every)
        self.records: list[MetricsRecord] = []
        self._next = 0.0

    def _evaluate(self, w: np.ndarray, passes: float, wall: float, iteration: int) -> None:
        train_loss = self.oracle.full_loss(w)
        if not math.isfinite(train_loss):
            raise DivergenceError(iteration, self.records)
        test_loss = train_acc = test_acc = None
        if self.test_oracle is not None:
            test_loss = self.test_oracle.mean_sample_loss(w)
        if self.oracle.task == "logistic":
            train_acc = self.oracle.accuracy(w)
            if self.test_oracle is not None:
                test_acc = self.test_oracle.accuracy(w)
        self.records.append(
            MetricsRecord(passes, wall, train_loss, test_loss, train_acc, test_acc)
        )
        self._next = (math.floor(passes / self.eval_every) + 1) * self.eval_every

    def due(self, passes: float) -> bool:
        return passes >= self._next

    def maybe_record(self, w, passes: float, wall: float, iteration: int) -> None:
        if self.due(passes):
            self._evaluate(w, passes, wall, iteration)

    def finalize(self, w, passes: float, wall: float, iteration: int) -> None:
        if not self.records or passes > self.records[-1].passes:
            self._evaluate(w, passes, wall, iteration)


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


def estimate_learning_rate(
    oracle: ProblemOracle,
    nys: NystromApprox,
    rho: float,
    w: np.ndarray,
    fresh_batch: np.ndarray,
    power_iters: int,
    rng: Rng,
    lr_scale: float = 0.5,
) -> float:
    """Automated step size ``lr_scale / lambda_q``.

    ``fresh_batch`` must be sampled independently of the batch behind
    ``nys``; the caller draws it with the same size to keep cost accounting
    symmetric.  The minibatch Hessian here excludes the l2 term, matching
    the sketch.

    The powering of :func:`preconditioned_top_eigenvalue` runs in batch
    space.  With ``H_S = C' C`` (:meth:`ProblemOracle.hessian_factor`,
    gathered once) and ``B = C P^{-1/2}``, ``P^{-1/2} H_S P^{-1/2} = B' B``,
    so the reference iterate ``y`` is carried as ``x = B y`` in R^|S|: the
    Rayleigh quotient is ``||x||^2`` and, with ``u = C' x``, the next iterate
    is ``C P^{-1} u / sqrt(u' P^{-1} u)``.  The same Gaussian start and retry
    give the same estimate in exact arithmetic, for one ``precond_inv_sqrt``
    per start and one ``precond_solve`` and two passes over ``C`` per sweep,
    in O(p + |S|) memory beyond ``C``.
    """
    factor = oracle.hessian_factor(w, fresh_batch)
    factor_t = factor.T
    for _ in range(2):
        z = rng.standard_normal(nys.p)
        norm_z = float(np.linalg.norm(z))
        if norm_z == 0.0:
            continue
        x = factor @ precond_inv_sqrt(nys, rho, z / norm_z)
        lam = math.nan
        for sweep in range(power_iters):
            lam = float(x @ x)
            u = factor_t @ x
            solved = precond_solve(nys, rho, u)
            norm_sq = float(u @ solved)
            if not (math.isfinite(lam) and norm_sq > 0.0):
                break
            if sweep + 1 < power_iters:
                x = (factor @ solved) / math.sqrt(norm_sq)
        else:
            if lam > 0.0:
                return lr_scale / lam
    raise LearningRateError("learning-rate estimation failed")


def sketch_hessian(
    oracle: ProblemOracle, cfg: OptimizerConfig, w: np.ndarray, rng: Rng
) -> NystromApprox:
    """Draw a Hessian batch and sketch the subsampled Hessian at ``w``.

    ``cfg`` is resolved; this costs ``rank * hess_batch_size`` sample rows.
    """
    batch = sample_batch(rng, oracle.n, cfg.hess_batch_size)
    return rand_nys_approx(
        lambda v: oracle.minibatch_hvp(w, batch, v), oracle.p, cfg.rank, rng, batch=batch
    )


#: Smallest scale a factored iterate keeps before folding it into its
#: vector; below it the vector's entries grow as 1/alpha.
_ALPHA_FLOOR = 1e-8

#: Sample rows a factored run draws, gathers and multiplies by the basis at
#: a time (whole minibatches, at least one).
_BLOCK_ROWS = 8192


class _FactoredIterate:
    """An iterate on CSR data between two preconditioner refreshes.

    While ``P = V diag(lam) V' + rho I`` is fixed, the iterate is kept as
    ``w = alpha * w_tilde + V s``, with ``t = V' w``.  Let ``G`` be the data
    part of the minibatch gradient, supported on the batch's columns, and
    ``gamma = (lam + rho)^-1 - rho^-1``, ``beta = 1 - eta * l2 / rho``.  Then
    ``w <- w - eta P^{-1} (G + l2 w)`` is, with ``u = V' G`` and
    ``delta = gamma * (u + l2 t)``::

        alpha <- beta alpha;  w_tilde[cols] -= eta / (rho alpha) G[cols]
        s <- beta s - eta delta;  t <- beta t - (eta / rho) u - eta delta

    Plain SGD is the same step with the rank-zero approximation and
    ``rho = 1`` (``P = I``): the classic scaled, lazily regularized sparse
    step.

    Steps run on a block of prefetched minibatches (:meth:`load`): their
    rows ``X`` are gathered once and multiplied once by V (kept C-ordered
    for that product), ``M = X V``.  A step on rows ``X_k`` then needs the
    margins ``alpha * X_k w_tilde + M_k s`` and ``u = M_k' slope`` for
    O(nnz(X_k) + r |B|), and updates ``w_tilde`` on the batch's columns
    only.  ``w`` is built, in O(p r), only when asked for.  When alpha falls
    below ``_ALPHA_FLOOR`` (every step once ``eta * l2 >= rho``) it is first
    folded into ``w_tilde``, an O(p) re-base.

    Given a ``stage_sum`` (the sum of the current stage's iterates so far),
    the iterate also keeps adding its steps to it, in the lazy form of
    averaged sparse SGD: with ``A`` the sum of the alphas since the last
    re-base, ``sum alpha_k w_tilde_k = A w_tilde - offset``, where a step
    adds ``A`` times its change of ``w_tilde`` to ``offset`` on the batch's
    columns, and ``sum s_k`` is kept as an r-vector.  That is O(nnz(X_k))
    more per step; a re-base also folds ``A w_tilde - offset`` into the
    dense carry, in O(p), and :meth:`stage_sum` builds the sum in O(p r).
    """

    def __init__(self, w: np.ndarray, nys: NystromApprox, rho: float, eta: float,
                 oracle: ProblemOracle, stage_sum: np.ndarray | None = None):
        self.oracle = oracle
        self.basis = np.ascontiguousarray(nys.basis)
        self.gain = (nys.eigenvalues + rho) ** -1.0 - rho**-1.0
        self.eta, self.l2, self.step_over_rho = eta, oracle.l2, eta / rho
        self.beta = 1.0 - eta * oracle.l2 / rho
        self.averaging = stage_sum is not None
        self.restart(w, stage_sum)
        self._next = self._loaded = 0

    def restart(self, w: np.ndarray, stage_sum: np.ndarray | None) -> None:
        """Re-base at ``w``, which becomes the built iterate, with
        ``stage_sum`` as the stage sum when averaging; the loaded block
        stays valid, since ``M = X V`` does not depend on w."""
        self.w_tilde, self.alpha, self.s = w.copy(), 1.0, np.zeros(self.gain.size)
        self.t = self.basis.T @ w
        self._w = w
        if self.averaging:
            self._carry, self._scale_sum = stage_sum, 0.0
            self._offset, self._s_sum = np.zeros(w.size), np.zeros(self.gain.size)

    @property
    def pending(self) -> int:
        """Loaded minibatches not stepped on yet."""
        return self._loaded - self._next

    def load(self, batches: list[np.ndarray]) -> None:
        """Gather the rows of ``batches`` (equal sizes) for the next steps.

        Holds ``M`` (rows x r) and the rows' nonzeros until the next load.
        """
        size = batches[0].size
        feats, self._labels = self.oracle.row_block(np.concatenate(batches))
        self._products = feats @ self.basis
        self._cols, self._vals = feats.indices, feats.data
        # each entry's row within its own minibatch
        self._rows = np.repeat(np.arange(feats.shape[0]) % size, np.diff(feats.indptr))
        self._bounds = feats.indptr[::size].tolist()
        self._size, self._next, self._loaded = size, 0, len(batches)

    def step(self) -> bool:
        """One step on the next loaded minibatch; False if alpha, s, the
        margins or the update terms are no longer finite.

        The margins read ``w_tilde`` on the batch's columns before the
        update, so a non-finite entry is caught by the next step that
        touches it.  An update that overflows in the subtraction itself is
        caught there too, or, if no later step touches that column, by the
        loop's check of the next built iterate.
        """
        j, size = self._next, self._size
        lo, hi = self._bounds[j], self._bounds[j + 1]
        rows, cols, vals = self._rows[lo:hi], self._cols[lo:hi], self._vals[lo:hi]
        products = self._products[j * size:(j + 1) * size]
        self._next = j + 1
        z = (self.alpha * np.bincount(rows, weights=vals * self.w_tilde[cols], minlength=size)
             + products @ self.s)
        slope = self.oracle.loss_slope(z, self._labels[j * size:(j + 1) * size])
        u = (products.T @ slope) / size
        delta = self.gain * (u + self.l2 * self.t)
        alpha = self.beta * self.alpha
        finite = math.isfinite(alpha)
        if not alpha >= _ALPHA_FLOOR:
            if self.averaging:
                self._carry += self._scale_sum * self.w_tilde - self._offset
                self._scale_sum = 0.0
                self._offset.fill(0.0)
            self.w_tilde *= alpha
            alpha = 1.0
        self.alpha = alpha
        terms = (self.step_over_rho / (alpha * size)) * (vals * slope[rows])
        np.subtract.at(self.w_tilde, cols, terms)
        self.s = self.beta * self.s - self.eta * delta
        self.t = self.beta * self.t - self.step_over_rho * u - self.eta * delta
        if self.averaging:
            np.subtract.at(self._offset, cols, self._scale_sum * terms)
            self._scale_sum += alpha
            self._s_sum += self.s
        self._w = None
        return finite and bool(np.isfinite(z).all() and np.isfinite(terms).all()
                               and np.isfinite(self.s).all())

    def iterate(self) -> np.ndarray:
        """``w = alpha * w_tilde + V s`` (cached until the next step)."""
        if self._w is None:
            self._w = self.alpha * self.w_tilde + self.basis @ self.s
        return self._w

    def stage_sum(self) -> np.ndarray:
        """The stage sum given at the last (re)start plus every iterate
        stepped to since: ``carry + A w_tilde - offset + V sum s_k``."""
        return (self._carry + self._scale_sum * self.w_tilde - self._offset
                + self.basis @ self._s_sum)


def _block_steps(cfg: OptimizerConfig, update_freq: float, k: int, touched: int, n: int) -> int:
    """Steps a factored run can prefetch before step ``k + 1``: the loop
    takes them all, with no refresh between them, unless it diverges.

    At most one block, and never past the next refresh (every
    ``update_freq`` steps) or the last step.  ``touched`` is the samples
    touched before step ``k + 1``.
    """
    bg = cfg.grad_batch_size
    limit = max(1, _BLOCK_ROWS // bg)
    if math.isfinite(update_freq):
        limit = min(limit, int(update_freq) - k % int(update_freq))
    steps = 1
    # the loop's own condition, checked before each further step
    while steps < limit and (touched + steps * bg) / n < cfg.max_passes:
        steps += 1
    return steps


@np.errstate(over="ignore", invalid="ignore")
def _drive(
    oracle: ProblemOracle,
    cfg: OptimizerConfig,
    test_data: Dataset | None,
    eval_every: float,
    w0: np.ndarray | None,
    precondition: bool = False,
    svrg: bool = False,
    average: bool = False,
    factor_sparse_steps: bool = True,
) -> RunResult:
    """The optimization loop behind every runner; see the module docstring.

    ``cfg`` is resolved.  Steps run until the samples touched reach
    ``max_passes`` passes; the last stage of an averaged run may be cut
    short.  The iterate is checked for finiteness and offered to the
    recorder after every step, or after every stage when averaging.  Wall
    time covers the optimization work only.  Every run on CSR data but
    SVRG steps through :class:`_FactoredIterate` unless
    ``factor_sparse_steps`` is False: SGD with the rank-zero
    preconditioner and ``rho = 1``, an averaged run adding each step to the
    stage sum in O(nnz(batch)) and forming the average in O(p r) at a stage
    end.  Divergence is detected explicitly (:class:`DivergenceError`), so
    the arithmetic runs with overflow and invalid-value warnings off.
    """
    n, bg = oracle.n, cfg.grad_batch_size
    rng = make_rng(cfg.seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)
    record = recorder.finalize if average else recorder.maybe_record

    factored = factor_sparse_steps and not svrg and oracle.data.is_sparse
    # SGD is the preconditioned step with P = I, never refreshed
    nys, rho = (None, cfg.rho) if precondition else (NystromApprox.rank_zero(oracle.p), 1.0)
    update_freq = cfg.update_freq if precondition else math.inf
    eta = cfg.learning_rate if isinstance(cfg.learning_rate, (int, float)) else None
    estimate = precondition and eta is None
    epoch = math.ceil(n / bg)
    stage_sum, produced = np.zeros(oracle.p) if average else None, 0
    state = None
    # Sample rows touched, kept as an integer so that the passes equal the
    # analytic b_g*K/n + sum_j (r+q)*b_h/n (+1 per snapshot) to the last bit.
    touched = k = updates = lr_estimates = snapshots = 0
    wall = 0.0
    while touched / n < cfg.max_passes:
        tic = time.perf_counter()
        if svrg and k % epoch == 0:
            w_snap = w.copy()
            mu = oracle.minibatch_gradient(w_snap, np.arange(n, dtype=np.int64))
            touched += n
            snapshots += 1
            wall += time.perf_counter() - tic
            recorder.maybe_record(w, touched / n, wall, k)
            if touched / n >= cfg.max_passes:
                break
            tic = time.perf_counter()
        refresh = precondition and (
            k == 0 or (math.isfinite(update_freq) and k % int(update_freq) == 0)
        )
        if refresh:
            if state is not None:
                w = state.iterate()
                if average:
                    stage_sum = state.stage_sum()
            nys = sketch_hessian(oracle, cfg, w, rng)
            touched += cfg.rank * cfg.hess_batch_size
            updates += 1
            if estimate:
                fresh = sample_batch(rng, n, cfg.hess_batch_size)
                eta = estimate_learning_rate(
                    oracle, nys, cfg.rho, w, fresh, cfg.power_iters, rng, cfg.lr_scale
                )
                touched += cfg.power_iters * cfg.hess_batch_size
                lr_estimates += 1
        if factored and (refresh or state is None):
            state = _FactoredIterate(w, nys, rho, eta, oracle, stage_sum)
        if state is None:
            batch = sample_batch(rng, n, bg)
        elif not state.pending:
            # Only sample_batch draws from rng until the next refresh, so
            # drawing these batches now leaves every batch as it was.
            state.load([sample_batch(rng, n, bg)
                        for _ in range(_block_steps(cfg, update_freq, k, touched, n))])
        touched += bg
        k += 1
        if state is not None:
            if not state.step():
                raise DivergenceError(k, recorder.records)
        else:
            grad = oracle.minibatch_gradient(w, batch)
            if svrg:
                grad = grad - oracle.minibatch_gradient(w_snap, batch) + mu
            w = w - eta * (precond_solve(nys, cfg.rho, grad) if precondition else grad)
            if average:
                stage_sum += w
        if average:
            produced += 1
            if produced < cfg.stage_length and touched / n < cfg.max_passes:
                wall += time.perf_counter() - tic
                continue
            w = (stage_sum if state is None else state.stage_sum()) / produced
            stage_sum, produced = np.zeros(oracle.p), 0
            if state is not None:
                state.restart(w, stage_sum)
        elif state is not None:
            due = recorder.due(touched / n)
            if due:
                w = state.iterate()
            wall += time.perf_counter() - tic
            if due:
                recorder.maybe_record(w, touched / n, wall, k)
            continue
        wall += time.perf_counter() - tic
        if not np.all(np.isfinite(w)):
            raise DivergenceError(k, recorder.records)
        record(w, touched / n, wall, k)
    if state is not None:
        tic = time.perf_counter()
        w = state.iterate()
        wall += time.perf_counter() - tic
    recorder.finalize(w, touched / n, wall, k)
    return RunResult(
        w=w,
        records=recorder.records,
        iterations=k,
        precond_updates=updates,
        lr_estimates=lr_estimates,
        snapshots=snapshots,
        samples_touched=touched,
        n=n,
        config=cfg if precondition else None,
    )


def sketchysgd_run(
    oracle: ProblemOracle,
    config: OptimizerConfig | None = None,
    test_data: Dataset | None = None,
    eval_every: float = 1.0,
    w0: np.ndarray | None = None,
) -> RunResult:
    """Preconditioned SGD with lazily refreshed sketch and automated step size.

    Every ``update_freq`` iterations (including the first) the subsampled
    Hessian at the current iterate is sketched and the step size becomes
    ``lr_scale`` over the estimated top preconditioned eigenvalue; every
    iteration takes one preconditioned minibatch gradient step.  Runs until
    the pass accountant reaches ``max_passes``.
    """
    cfg = resolve_config(config if config is not None else OptimizerConfig(), oracle)
    if cfg.mode != "practical":
        raise ValueError("sketchysgd_run handles mode='practical'; see sketchysgd_theoretical_run")
    return _drive(oracle, cfg, test_data, eval_every, w0, precondition=True)


def sketchysgd_theoretical_run(
    oracle: ProblemOracle,
    config: OptimizerConfig,
    test_data: Dataset | None = None,
    w0: np.ndarray | None = None,
) -> RunResult:
    """Staged variant: fixed step size and per-stage iterate averaging.

    Runs stages of ``stage_length`` preconditioned-SGD steps; at the end of
    each stage the next stage starts from the average of the iterates the
    stage produced (so a stage of length one reduces to the practical loop
    with a fixed step size).  The preconditioner refreshes on the
    ``update_freq`` schedule keyed by a global iteration counter across
    stages.  Metrics are recorded at stage boundaries.
    """
    cfg = resolve_config(config, oracle)
    if cfg.mode != "theoretical":
        raise ValueError("sketchysgd_theoretical_run requires mode='theoretical'")
    return _drive(oracle, cfg, test_data, math.inf, w0, precondition=True, average=True)


def sgd_run(
    oracle: ProblemOracle,
    learning_rate: float | None = None,
    grad_batch_size: int | str = AUTO,
    max_passes: float = 40.0,
    seed: int = 0,
    test_data: Dataset | None = None,
    eval_every: float = 1.0,
    w0: np.ndarray | None = None,
) -> RunResult:
    """Plain minibatch SGD baseline.

    The default step size and batch size are those of
    :func:`resolve_baseline_config`.
    """
    config = OptimizerConfig(learning_rate=learning_rate, grad_batch_size=grad_batch_size,
                             max_passes=max_passes, seed=seed)
    cfg = resolve_baseline_config(config, oracle)
    return _drive(oracle, cfg, test_data, eval_every, w0)


def svrg_run(
    oracle: ProblemOracle,
    learning_rate: float | None = None,
    grad_batch_size: int | str = AUTO,
    max_passes: float = 40.0,
    seed: int = 0,
    test_data: Dataset | None = None,
    eval_every: float = 1.0,
    w0: np.ndarray | None = None,
) -> RunResult:
    """SVRG baseline: per-epoch snapshot with full-gradient variance reduction.

    Each epoch charges one extra full pass for the snapshot gradient; inner
    steps use ``g_B(w) - g_B(w_snap) + mu`` where ``mu`` is the snapshot's
    full gradient.  The default step size matches :func:`sgd_run`.
    """
    config = OptimizerConfig(learning_rate=learning_rate, grad_batch_size=grad_batch_size,
                             max_passes=max_passes, seed=seed)
    cfg = resolve_baseline_config(config, oracle)
    return _drive(oracle, cfg, test_data, eval_every, w0, svrg=True)
