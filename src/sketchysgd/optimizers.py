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

A preconditioned step on CSR data without averaging (SketchySGD proper)
is factored: between two refreshes the preconditioner is fixed, so the
iterate is kept as ``alpha * w_tilde + V s`` (see :class:`_FactoredIterate`)
and a step costs O(r nnz(batch)) instead of O(r p): no p-length gradient,
no ``precond_solve``, no pass over w.  The iterate itself is built, in
O(r p), only at a refresh, an evaluation and the end of the run.  It is the
same step as the materialized one, rounded differently (a relative
difference around 1e-15 on the losses).  Dense data, averaged runs and the
SGD and SVRG baselines take the materialized step.
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
    """
    lam = preconditioned_top_eigenvalue(
        lambda v: oracle.minibatch_hvp(w, fresh_batch, v), nys, rho, power_iters, rng
    )
    return lr_scale / lam


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


class _FactoredIterate:
    """A preconditioned iterate on CSR data between two refreshes.

    While ``P = V diag(lam) V' + rho I`` is fixed, the iterate is kept as
    ``w = alpha * w_tilde + V s``, with ``t = V' w``.  Let ``G`` be the data
    part of the minibatch gradient, supported on the batch's columns, and
    ``gamma = (lam + rho)^-1 - rho^-1``, ``beta = 1 - eta * l2 / rho``.  Then
    ``w <- w - eta P^{-1} (G + l2 w)`` is, with ``u = V' G`` and
    ``delta = gamma * (u + l2 t)``::

        alpha <- beta alpha;  w_tilde[cols] -= eta / (rho alpha) G[cols]
        s <- beta s - eta delta;  t <- beta t - (eta / rho) u - eta delta

    This costs O(r nnz(batch)): the margins need ``w`` only at the batch's
    columns, ``alpha w_tilde[cols] + V[cols] s``, and ``u`` only the same
    rows of V (kept C-ordered, so each row gathers contiguously).  ``w`` is
    built, in O(p r), only when asked for.  When alpha falls below
    ``_ALPHA_FLOOR`` (every step once ``eta * l2 >= rho``) it is first
    folded into ``w_tilde``, an O(p) re-base.
    """

    def __init__(self, w: np.ndarray, nys: NystromApprox, rho: float, eta: float, l2: float):
        self.basis = np.ascontiguousarray(nys.basis)
        self.gain = (nys.eigenvalues + rho) ** -1.0 - rho**-1.0
        self.eta, self.l2, self.step_over_rho = eta, l2, eta / rho
        self.beta = 1.0 - eta * l2 / rho
        self.w_tilde, self.alpha, self.s = w.copy(), 1.0, np.zeros(nys.rank)
        self.t = self.basis.T @ w
        self._w = w
        self._rows = None

    def _at(self, cols: np.ndarray) -> np.ndarray:
        self._rows = np.take(self.basis, cols, axis=0)
        return self.alpha * self.w_tilde[cols] + self._rows @ self.s

    def step(self, oracle: ProblemOracle, batch: np.ndarray) -> bool:
        """One step on ``batch``; False if alpha, s or a touched entry of
        ``w_tilde`` is no longer finite."""
        cols, terms = oracle.gradient_terms(batch, self._at)
        u = (self._rows.T @ terms) / batch.size
        delta = self.gain * (u + self.l2 * self.t)
        alpha = self.beta * self.alpha
        finite = math.isfinite(alpha)
        if not alpha >= _ALPHA_FLOOR:
            self.w_tilde *= alpha
            alpha = 1.0
        self.alpha = alpha
        np.subtract.at(self.w_tilde, cols, (self.step_over_rho / (alpha * batch.size)) * terms)
        self.s = self.beta * self.s - self.eta * delta
        self.t = self.beta * self.t - self.step_over_rho * u - self.eta * delta
        self._w = None
        return finite and bool(np.isfinite(self.s).all() and np.isfinite(self.w_tilde[cols]).all())

    def iterate(self) -> np.ndarray:
        """``w = alpha * w_tilde + V s`` (cached until the next step)."""
        if self._w is None:
            self._w = self.alpha * self.w_tilde + self.basis @ self.s
        return self._w


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
    time covers the optimization work only.  Preconditioned, unaveraged
    steps on CSR data use :class:`_FactoredIterate` unless
    ``factor_sparse_steps`` is False.
    """
    n, bg = oracle.n, cfg.grad_batch_size
    rng = make_rng(cfg.seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)
    record = recorder.finalize if average else recorder.maybe_record

    nys = state = None
    factored = (factor_sparse_steps and precondition and not (svrg or average)
                and oracle.data.is_sparse)
    eta = cfg.learning_rate if isinstance(cfg.learning_rate, (int, float)) else None
    estimate = precondition and eta is None
    epoch = math.ceil(n / bg)
    stage_sum, produced = np.zeros(oracle.p) if average else None, 0
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
        if precondition and (
            k == 0 or (math.isfinite(cfg.update_freq) and k % int(cfg.update_freq) == 0)
        ):
            if state is not None:
                w = state.iterate()
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
            if factored:
                state = _FactoredIterate(w, nys, cfg.rho, eta, oracle.l2)
        batch = sample_batch(rng, n, bg)
        touched += bg
        k += 1
        if state is not None:
            if not state.step(oracle, batch):
                raise DivergenceError(k, recorder.records)
            due = recorder.due(touched / n)
            if due:
                w = state.iterate()
            wall += time.perf_counter() - tic
            if due:
                recorder.maybe_record(w, touched / n, wall, k)
            continue
        grad = oracle.minibatch_gradient(w, batch)
        if svrg:
            grad = grad - oracle.minibatch_gradient(w_snap, batch) + mu
        w = w - eta * (precond_solve(nys, cfg.rho, grad) if precondition else grad)
        if average:
            stage_sum += w
            produced += 1
            if produced < cfg.stage_length and touched / n < cfg.max_passes:
                wall += time.perf_counter() - tic
                continue
            w, stage_sum, produced = stage_sum / produced, np.zeros(oracle.p), 0
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
