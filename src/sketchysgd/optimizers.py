"""Preconditioned and plain stochastic gradient optimizers.

The main loop is minibatch SGD whose search direction is reshaped by the
regularized Nystrom approximation of a subsampled Hessian: every
``update_freq`` iterations a fresh Hessian batch is sketched at the current
iterate and the learning rate is re-estimated as ``lr_scale`` over the top
eigenvalue of the preconditioned minibatch Hessian, found by randomized
powering on an independent batch.  A staged variant with periodic iterate
averaging and a fixed step size is provided alongside SGD and SVRG
baselines.

All runners share the same bookkeeping: a pass accountant that charges
every sample-row touched by gradients, Hessian-vector products, and
snapshot gradients (evaluation is instrumentation and is never charged),
and a metrics recorder that snapshots losses on a pass schedule.  Runs are
bit-reproducible from (config, seed, dataset) apart from wall-clock fields.
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
    :func:`resolve_config`: ``rho`` becomes 1e-3 times the smoothness bound,
    ``hess_batch_size`` becomes floor(sqrt(n)), ``update_freq`` becomes
    infinity for ridge (constant Hessian) and one pass for logistic, and
    ``stage_length`` becomes one pass worth of iterations.

    ``learning_rate`` is ``None`` (practical mode: re-estimated at every
    preconditioner refresh), a float (held fixed, no estimation cost), or
    ``"auto"`` in theoretical mode (estimated once per refresh, then fixed).
    """

    rank: int = 10
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
    bg = config.grad_batch_size
    if bg == AUTO:
        bg = min(256, n)
    bg = int(bg)
    bh = config.hess_batch_size
    if bh == AUTO:
        bh = max(1, min(n, int(math.floor(math.sqrt(n)))))
    bh = int(bh)
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
    m = int(m)

    resolved = replace(
        config,
        grad_batch_size=bg,
        hess_batch_size=bh,
        rho=rho,
        update_freq=u,
        stage_length=m,
    )
    _validate_resolved(resolved, n)
    return resolved


def _validate_resolved(cfg: OptimizerConfig, n: int) -> None:
    if cfg.rank < 1:
        raise ValueError("rank must be at least 1")
    if not 1 <= cfg.grad_batch_size <= n:
        raise ValueError(f"gradient batch size {cfg.grad_batch_size} must lie in [1, {n}]")
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


class _PassAccountant:
    """Counts sample rows touched by optimization work, exactly.

    Touches accumulate as an integer so that the total in passes equals the
    analytic formula b_g*K/n + sum_j (r+q)*b_h/n (+1 per snapshot) to the
    last bit.
    """

    def __init__(self, n: int):
        self.n = n
        self.samples = 0

    def charge(self, rows: int) -> None:
        self.samples += int(rows)

    @property
    def passes(self) -> float:
        return self.samples / self.n


class _Recorder:
    """Evaluates and stores metrics on a pass schedule.

    Evaluation is instrumentation: it is not charged to the pass accountant
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

    def maybe_record(self, w, passes: float, wall: float, iteration: int) -> None:
        if passes >= self._next:
            self._evaluate(w, passes, wall, iteration)

    def finalize(self, w, passes: float, wall: float, iteration: int) -> None:
        if not self.records or passes > self.records[-1].passes:
            self._evaluate(w, passes, wall, iteration)


def _check_finite(w: np.ndarray, iteration: int, records) -> None:
    if not np.all(np.isfinite(w)):
        raise DivergenceError(iteration, records)


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


def _refresh_preconditioner(oracle, cfg, w, rng, accountant):
    """Draw a Hessian batch, sketch it, and (optionally) refresh the step size."""
    batch = sample_batch(rng, oracle.n, cfg.hess_batch_size)
    nys = rand_nys_approx(
        lambda v: oracle.minibatch_hvp(w, batch, v),
        oracle.p,
        cfg.rank,
        rng,
        anchor_w=w,
        batch=batch,
    )
    accountant.charge(cfg.rank * cfg.hess_batch_size)
    eta = None
    if cfg.learning_rate is None or cfg.learning_rate == AUTO:
        fresh = sample_batch(rng, oracle.n, cfg.hess_batch_size)
        eta = estimate_learning_rate(
            oracle, nys, cfg.rho, w, fresh, cfg.power_iters, rng, cfg.lr_scale
        )
        accountant.charge(cfg.power_iters * cfg.hess_batch_size)
    return nys, eta


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
    rng = make_rng(cfg.seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    accountant = _PassAccountant(oracle.n)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)

    nys = None
    eta = cfg.learning_rate if isinstance(cfg.learning_rate, (int, float)) else None
    k = 0
    updates = 0
    lr_estimates = 0
    wall = 0.0
    while accountant.passes < cfg.max_passes:
        tic = time.perf_counter()
        if k == 0 or (math.isfinite(cfg.update_freq) and k % int(cfg.update_freq) == 0):
            nys, eta_new = _refresh_preconditioner(oracle, cfg, w, rng, accountant)
            updates += 1
            if eta_new is not None:
                eta = eta_new
                lr_estimates += 1
        batch = sample_batch(rng, oracle.n, cfg.grad_batch_size)
        grad = oracle.minibatch_gradient(w, batch)
        accountant.charge(cfg.grad_batch_size)
        w = w - eta * precond_solve(nys, cfg.rho, grad)
        k += 1
        wall += time.perf_counter() - tic
        _check_finite(w, k, recorder.records)
        recorder.maybe_record(w, accountant.passes, wall, k)
    recorder.finalize(w, accountant.passes, wall, k)
    return RunResult(
        w=w,
        records=recorder.records,
        iterations=k,
        precond_updates=updates,
        lr_estimates=lr_estimates,
        snapshots=0,
        samples_touched=accountant.samples,
        n=oracle.n,
        config=cfg,
    )


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
    rng = make_rng(cfg.seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    accountant = _PassAccountant(oracle.n)
    recorder = _Recorder(oracle, test_data, eval_every=math.inf)
    recorder.finalize(w, 0.0, 0.0, 0)

    nys = None
    eta = cfg.learning_rate if isinstance(cfg.learning_rate, (int, float)) else None
    t = 0
    updates = 0
    lr_estimates = 0
    wall = 0.0
    while accountant.passes < cfg.max_passes:
        tic = time.perf_counter()
        stage_sum = np.zeros(oracle.p)
        produced = 0
        for _ in range(cfg.stage_length):
            if t == 0 or (math.isfinite(cfg.update_freq) and t % int(cfg.update_freq) == 0):
                nys, eta_new = _refresh_preconditioner(oracle, cfg, w, rng, accountant)
                updates += 1
                if eta_new is not None:
                    eta = eta_new
                    lr_estimates += 1
            batch = sample_batch(rng, oracle.n, cfg.grad_batch_size)
            grad = oracle.minibatch_gradient(w, batch)
            accountant.charge(cfg.grad_batch_size)
            w = w - eta * precond_solve(nys, cfg.rho, grad)
            t += 1
            stage_sum += w
            produced += 1
            if accountant.passes >= cfg.max_passes:
                break
        if produced:
            w = stage_sum / produced
        wall += time.perf_counter() - tic
        _check_finite(w, t, recorder.records)
        recorder.finalize(w, accountant.passes, wall, t)
    return RunResult(
        w=w,
        records=recorder.records,
        iterations=t,
        precond_updates=updates,
        lr_estimates=lr_estimates,
        snapshots=0,
        samples_touched=accountant.samples,
        n=oracle.n,
        config=cfg,
    )


def sgd_run(
    oracle: ProblemOracle,
    learning_rate: float | None = None,
    grad_batch_size: int = 256,
    max_passes: float = 40.0,
    seed: int = 0,
    test_data: Dataset | None = None,
    eval_every: float = 1.0,
    w0: np.ndarray | None = None,
) -> RunResult:
    """Plain minibatch SGD baseline.

    The default step size is ``max(1/(3L), 1/(2(L + n*l2)))`` with L the
    smoothness upper bound, the standard default for variance-reduced
    solvers at this loss family.
    """
    eta = oracle.sgd_default_learning_rate() if learning_rate is None else float(learning_rate)
    if not eta >= 0:
        raise ValueError("learning rate must be nonnegative")
    bg = min(int(grad_batch_size), oracle.n)
    rng = make_rng(seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    accountant = _PassAccountant(oracle.n)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)
    k = 0
    wall = 0.0
    while accountant.passes < max_passes:
        tic = time.perf_counter()
        batch = sample_batch(rng, oracle.n, bg)
        grad = oracle.minibatch_gradient(w, batch)
        accountant.charge(bg)
        w = w - eta * grad
        k += 1
        wall += time.perf_counter() - tic
        _check_finite(w, k, recorder.records)
        recorder.maybe_record(w, accountant.passes, wall, k)
    recorder.finalize(w, accountant.passes, wall, k)
    return RunResult(
        w=w,
        records=recorder.records,
        iterations=k,
        precond_updates=0,
        lr_estimates=0,
        snapshots=0,
        samples_touched=accountant.samples,
        n=oracle.n,
        config=None,
    )


def svrg_run(
    oracle: ProblemOracle,
    learning_rate: float | None = None,
    grad_batch_size: int = 256,
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
    eta = oracle.sgd_default_learning_rate() if learning_rate is None else float(learning_rate)
    if not eta >= 0:
        raise ValueError("learning rate must be nonnegative")
    bg = min(int(grad_batch_size), oracle.n)
    n = oracle.n
    rng = make_rng(seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    accountant = _PassAccountant(n)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)
    full_index = np.arange(n, dtype=np.int64)
    inner_iters = int(math.ceil(n / bg))
    k = 0
    snapshots = 0
    wall = 0.0
    while accountant.passes < max_passes:
        tic = time.perf_counter()
        w_snap = w.copy()
        mu = oracle.minibatch_gradient(w_snap, full_index)
        accountant.charge(n)
        snapshots += 1
        wall += time.perf_counter() - tic
        recorder.maybe_record(w, accountant.passes, wall, k)
        for _ in range(inner_iters):
            if accountant.passes >= max_passes:
                break
            tic = time.perf_counter()
            batch = sample_batch(rng, n, bg)
            grad = (
                oracle.minibatch_gradient(w, batch)
                - oracle.minibatch_gradient(w_snap, batch)
                + mu
            )
            accountant.charge(bg)
            w = w - eta * grad
            k += 1
            wall += time.perf_counter() - tic
            _check_finite(w, k, recorder.records)
            recorder.maybe_record(w, accountant.passes, wall, k)
    recorder.finalize(w, accountant.passes, wall, k)
    return RunResult(
        w=w,
        records=recorder.records,
        iterations=k,
        precond_updates=0,
        lr_estimates=0,
        snapshots=snapshots,
        samples_touched=accountant.samples,
        n=oracle.n,
        config=None,
    )
