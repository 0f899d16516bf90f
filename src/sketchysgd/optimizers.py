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

Every run draws its minibatches a block at a time: up to ``_BLOCK_ROWS``
rows' worth in one :func:`sample_batch` call, never past the next refresh
(or snapshot) or the last step, so the draws of a refresh stay between
blocks.  Dense data and CSR data, factored and materialized steps, draw
the same blocks.

On CSR data every runner takes a factored step: between two refreshes
the preconditioner is fixed, so the iterate is kept as
``alpha * w_tilde + V s`` (see :class:`_FactoredIterate`), with the basis
kept on its support ``S`` (the sketch batch's columns), and a step costs
O(nnz(batch) + |S| r) instead of O(r p): no p-length gradient, no
``precond_solve``, no pass over w.  SGD is that step with the rank-zero
preconditioner and ``rho = 1`` (P = I, never refreshed), in O(nnz(batch)).
SVRG is the SGD step plus a drift ``c d`` that carries the snapshot
correction, also O(nnz(batch)) per step, and one full gradient per
snapshot, which restarts the factored iterate as a refresh would.  The
staged variant keeps its stage sum in the same lazy form, for
O(nnz(batch)) more per step and O(p + |S| r) to form the average at a
stage end.  A block's rows are gathered once; the extra memory is
O(nnz(block)).  The iterate itself is built, in O(p + |S| r), only at a
refresh, a snapshot, an evaluation, a stage end and the end of the run.
It is the same step as the materialized one, rounded differently (a
relative difference around 1e-15 on the losses).  Dense data takes the
materialized step.

A refresh gathers its Hessian batch once as a factor ``C`` with
``H_S = C' C``.  On CSR data the Nystrom build runs on the batch's column
support ``S``, for O(nnz(C) r + |S| r^2) instead of O(p r^2) (see
:func:`sketch_hessian`).  The step-size estimate runs its power iteration
in the b_h-dimensional space of a fresh Hessian batch, on CSR data with
the basis rows on that batch's support ``S'``, for O(nnz(C) + |S'| r) per
sweep (see :func:`estimate_learning_rate`), with
:func:`preconditioned_top_eigenvalue` as the generic reference.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .linalg import Rng, make_rng
from .nystrom import (
    NystromApprox,
    _check_rho,
    precond_inv_sqrt,
    precond_solve,
    rand_nys_approx,
)
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
    :func:`settings_problems` states what each field accepts, and
    ``BASELINE_FIELDS`` which fields the SGD and SVRG baselines read.
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


#: The fields of :class:`OptimizerConfig` that :func:`sgd_run` and
#: :func:`svrg_run` read.
BASELINE_FIELDS = ("learning_rate", "grad_batch_size", "max_passes", "seed")


def _number(x) -> float:
    """``x`` as a float if it is a number in float range other than a bool, else nan."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:
        return math.nan


def _count(x) -> bool:
    """A whole number >= 1: 3 or 3.0, not 2.5, ``True`` or ``"3"``."""
    return _number(x).is_integer() and x >= 1


def _positive(x) -> bool:
    return 0 < _number(x) < math.inf


#: Per field, what a value must be and its test.  A field takes "auto" where
#: its description offers it, so that the two cannot disagree.
_RULES = {
    **dict.fromkeys(("rank", "grad_batch_size", "hess_batch_size", "stage_length"),
                    ("a positive integer or 'auto'", _count)),
    "power_iters": ("a positive integer", _count),
    "rho": ("a positive finite number or 'auto'", _positive),
    **dict.fromkeys(("lr_scale", "max_passes"), ("a positive finite number", _positive)),
    "update_freq": ("an integer >= 1, 'inf', or 'auto'",
                    lambda x: x == "inf" or _number(x) == math.inf or _count(x)),
    "learning_rate": ("a finite number >= 0, None, or 'auto'",
                      lambda x: x is None or 0 <= _number(x) < math.inf),
    "seed": ("an integer >= 0",
             lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0),
    "mode": ("'practical' or 'theoretical'", lambda x: x in ("practical", "theoretical")),
}


def settings_problems(settings) -> list[str]:
    """Every problem that does not depend on the data in ``settings``, which
    maps some or all :class:`OptimizerConfig` fields to values (other keys
    are ignored).  The resolvers raise the first; the CLI reports them all."""
    problems = []
    for key, value in settings.items():
        what, test = _RULES.get(key, ("", None))
        if test is None or test(value) or (value == AUTO and "'auto'" in what):
            continue
        if test is _count and value != AUTO and not _number(value).is_integer():
            what = "a whole number"
        # a rejected "auto" is not echoed, so that the line does not offer it
        problems.append(f"{key} must be {what}" + ("" if value == AUTO else f", got {value!r}"))
    if settings.get("mode") == "theoretical" and settings.get("learning_rate") is None:
        problems.append("theoretical mode requires learning_rate (a float or 'auto')")
    return problems


def _fit(name: str, value, auto: int, limit: int) -> int:
    """A checked count, or ``auto`` for "auto", as an int no larger than ``limit``."""
    value = auto if value == AUTO else int(value)
    if value > limit:
        raise ValueError(f"{name} {value} must lie in [1, {limit}]")
    return value


def resolve_config(config: OptimizerConfig, oracle: ProblemOracle) -> OptimizerConfig:
    """Materialize every ``"auto"`` field against a concrete problem.

    Raises ``ValueError`` on the first of :func:`settings_problems`, then on
    a rank above p, a batch size above n, or a ``rho`` whose reciprocal
    overflows (an ``"auto"`` rho is 1e-3 times the data's smoothness bound).
    """
    for problem in settings_problems(vars(config)):
        raise ValueError(problem)
    n = oracle.n
    bg = _fit("gradient batch size", config.grad_batch_size, min(256, n), n)
    auto_u = math.inf if oracle.task == "ridge" else float(math.ceil(n / bg))
    return replace(
        config,
        rank=_fit("rank", config.rank, min(10, oracle.p), oracle.p),
        grad_batch_size=bg,
        hess_batch_size=_fit("Hessian batch size", config.hess_batch_size,
                             max(1, min(n, int(math.floor(math.sqrt(n))))), n),
        rho=_check_rho(1e-3 * oracle.smoothness_upper_bound if config.rho == AUTO else config.rho),
        update_freq=auto_u if config.update_freq == AUTO else float(config.update_freq),
        power_iters=int(config.power_iters),
        stage_length=math.ceil(n / bg) if config.stage_length == AUTO else int(config.stage_length),
    )


def resolve_baseline_config(config: OptimizerConfig, oracle: ProblemOracle) -> OptimizerConfig:
    """Check and materialize ``BASELINE_FIELDS``, the fields SGD and SVRG read.

    ``grad_batch_size`` resolves as in :func:`resolve_config`.  A
    ``learning_rate`` of ``None`` or ``"auto"`` becomes
    ``max(1/(3L), 1/(2(L + n*l2)))`` with L the smoothness upper bound, the
    standard default for variance-reduced solvers at this loss family.
    """
    for problem in settings_problems({key: getattr(config, key) for key in BASELINE_FIELDS}):
        raise ValueError(problem)
    lr = config.learning_rate
    eta = oracle.sgd_default_learning_rate() if lr in (None, AUTO) else float(lr)
    bg = _fit("gradient batch size", config.grad_batch_size, min(256, oracle.n), oracle.n)
    return replace(config, grad_batch_size=bg, learning_rate=eta)


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
        # One margin product per split, shared by that split's metrics.
        z = self.oracle.margins(w)
        train_loss = self.oracle.full_loss(w, margins=z)
        if not math.isfinite(train_loss):
            raise DivergenceError(iteration, self.records)
        logistic = self.oracle.task == "logistic"
        train_acc = self.oracle.accuracy(w, margins=z) if logistic else None
        test_loss = test_acc = None
        if self.test_oracle is not None:
            z = self.test_oracle.margins(w)
            test_loss = self.test_oracle.mean_sample_loss(w, margins=z)
            test_acc = self.test_oracle.accuracy(w, margins=z) if logistic else None
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


def _column_support(factor: sp.csr_matrix) -> tuple[np.ndarray, sp.csr_matrix]:
    """The columns ``S`` holding the stored entries of the CSR ``factor``
    (sorted), and ``factor`` with its columns renumbered onto them."""
    support, cols = np.unique(factor.indices, return_inverse=True)
    return support, sp.csr_matrix((factor.data, cols, factor.indptr),
                                  shape=(factor.shape[0], support.size))


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
    so the reference iterate ``y`` is carried as ``x = B y`` in R^b_h: the
    Rayleigh quotient is ``||x||^2`` and, with ``u = C' x``, the next iterate
    is ``C P^{-1} u / sqrt(u' P^{-1} u)``.  The same Gaussian start and retry
    give the same estimate in exact arithmetic.

    On CSR data ``C`` is renumbered onto the batch's column support ``S'``.
    ``u`` lives on ``S'``, and so does all of ``P^{-1} u`` that ``C`` reads,
    so a sweep applies ``P^{-1}`` with the rows ``V[S']`` of the basis, for
    O(nnz(C) + |S'| r).  Only the start needs ``V' z`` over all p (V lives
    on the sketch batch's support, not on ``S'``): one ``precond_inv_sqrt``
    per start and one ``precond_solve`` per sweep, in O(p + |S'| r) memory
    beyond ``C``.
    """
    factor = oracle.hessian_factor(w, fresh_batch)
    support, local = None, nys
    if sp.issparse(factor):
        support, factor = _column_support(factor)
        local = replace(nys, basis=nys.basis[support], support=None)
    factor_t = factor.T
    for _ in range(2):
        z = rng.standard_normal(nys.p)
        norm_z = float(np.linalg.norm(z))
        if norm_z == 0.0:
            continue
        start = precond_inv_sqrt(nys, rho, z / norm_z)
        x = factor @ (start if support is None else start[support])
        lam = math.nan
        for sweep in range(power_iters):
            lam = float(x @ x)
            u = factor_t @ x
            solved = precond_solve(local, rho, u)
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
    The sketch applies ``H_S = C' C`` (:meth:`ProblemOracle.hessian_factor`,
    gathered once).  On CSR data ``H_S`` lives on the batch's column support
    ``S``, and the Nystrom approximation ``Y (Omega' Y)^+ Y'``, ``Y = H_S
    Omega``, reads the test matrix only through its rows on ``S``.  So the
    build runs on ``S``: a |S| x r Gaussian test matrix gives the same
    distribution as a p x r one, and the QR, spectral norm, core and thin
    SVD are |S| x r, for O(nnz(C) r + |S| r^2).  The basis is then embedded
    in p x r, zero off ``S``, column-major as ``NystromApprox`` keeps it, and
    ``S`` is recorded as its ``support``.  Dense data, and a support smaller
    than the rank, use all p columns (``support`` None).
    """
    batch = sample_batch(rng, oracle.n, cfg.hess_batch_size)
    factor = oracle.hessian_factor(w, batch)
    support = None
    if sp.issparse(factor):
        cols, local = _column_support(factor)
        if cols.size >= cfg.rank:
            support, factor = cols.astype(np.intp), local
    nys = rand_nys_approx(
        lambda v: factor.T @ (factor @ v), factor.shape[1], cfg.rank, rng, batch=batch
    )
    if support is None:
        return nys
    basis = np.zeros((oracle.p, cfg.rank), order="F")
    basis[support] = nys.basis
    return replace(nys, basis=basis, support=support)


#: Smallest scale a factored iterate keeps before folding it into its
#: vector; below it the vector's entries grow as 1/alpha.
_ALPHA_FLOOR = 1e-8

#: Sample rows a run draws at a time, and a factored run gathers at a time
#: (whole minibatches, at least one).
_BLOCK_ROWS = 8192


class _FactoredIterate:
    """An iterate on CSR data between two preconditioner refreshes (or SVRG
    snapshots).

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

    SVRG is that SGD step (``P = I`` only) given the ``full_gradient`` mu
    at the start point, which becomes the snapshot ``w_snap``.  With the drift
    ``d = mu - l2 w_snap``, fixed until the next snapshot, its step
    ``w <- w - eta (g_B(w) - g_B(w_snap) + mu)`` is
    ``beta w - eta d - (eta / b) X_B' (slope(X_B w) - slope(X_B w_snap))``,
    so the iterate is kept as ``alpha * w_tilde + c d`` with
    ``c <- beta c - eta``, the slope difference in place of ``G``, and the
    margins ``alpha X_B w_tilde + c X_B d``.  A block's load also forms
    ``X [w_snap, d]``, in one product, for the snapshot slopes and ``X d``.

    V is kept on its support ``S`` only (``NystromApprox.support``: on CSR
    data the sketch batch's column support, every row after the all-p
    fallback, none at rank zero), as a column-major (|S| + 1) x r block
    ``V_S`` whose trailing row is zero, with a p-length map from each column
    to its place in ``S`` and from the columns off ``S`` to that trailing
    row.  Both products with ``V_S`` are matrix-vector products, which run
    faster column-major (2.5 against 4.5 us at |S| = 1067, r = 10, one
    OpenBLAS thread).  Steps run on a block of minibatches drawn at once
    (:meth:`load`): their rows are gathered once, and their column indices
    are converted to intp and mapped onto ``S`` once.  A step on rows ``X_k`` forms ``V_S s`` once,
    reads the margins ``X_k (alpha w_tilde + V s)`` from the gathered
    entries, and forms ``u = V_S' (X_k' slope)_S`` with one ``bincount``
    onto ``S``, whose weights ``vals * slope[rows]`` are also the update
    terms; it updates ``w_tilde`` on the batch's columns only.  A step
    costs O(nnz(X_k) + |S| r) and a refresh O(p + |S| r) beyond the sketch;
    no product of the block with V is formed.  The |S| r term dominates
    where |S| >> nnz(X_k), e.g. Hessian batches far larger than gradient
    batches with little column overlap (n in the millions at the default
    b_h = sqrt(n)).  ``w`` is built, in O(p + |S| r), only when asked for.
    When alpha falls below ``_ALPHA_FLOOR`` (every step once
    ``eta * l2 >= rho``) it is first folded into ``w_tilde``, an O(p)
    re-base.

    Given a ``stage_sum`` (the sum of the current stage's iterates so far),
    the iterate also keeps adding its steps to it, in the lazy form of
    averaged sparse SGD: with ``A`` the sum of the alphas since the last
    re-base, ``sum alpha_k w_tilde_k = A w_tilde - offset``, where a step
    adds ``A`` times its change of ``w_tilde`` to ``offset`` on the batch's
    columns, and ``sum s_k`` is kept as an r-vector.  That is O(nnz(X_k))
    more per step; a re-base also folds ``A w_tilde - offset`` into the
    dense carry, in O(p), and :meth:`stage_sum` builds the sum in
    O(p + |S| r).
    """

    def __init__(self, w: np.ndarray, nys: NystromApprox, rho: float, eta: float,
                 oracle: ProblemOracle, stage_sum: np.ndarray | None = None,
                 full_gradient: np.ndarray | None = None):
        self.oracle = oracle
        self.support = np.arange(oracle.p) if nys.support is None else nys.support
        size = self.support.size
        self.basis = np.zeros((size + 1, nys.rank), order="F")
        self.basis[:size] = nys.basis[self.support]
        self.place = np.full(oracle.p, size, dtype=np.intp)
        self.place[self.support] = np.arange(size)
        self.gain = (nys.eigenvalues + rho) ** -1.0 - rho**-1.0
        self.eta, self.l2, self.step_over_rho = eta, oracle.l2, eta / rho
        self.beta = 1.0 - eta * oracle.l2 / rho
        self.averaging = stage_sum is not None
        if full_gradient is not None and self.gain.size:
            raise NotImplementedError("the factored SVRG step takes P = I only")
        # SVRG: the columns [w_snap, d], C-ordered for one product per block
        self.anchor = None if full_gradient is None else np.column_stack(
            [w, full_gradient - oracle.l2 * w])
        self.restart(w, stage_sum)

    def restart(self, w: np.ndarray, stage_sum: np.ndarray | None) -> None:
        """Re-base at ``w``, which becomes the built iterate, with
        ``stage_sum`` as the stage sum when averaging; the loaded block
        stays valid, since it does not depend on w."""
        self.w_tilde, self.alpha, self.s = w.copy(), 1.0, np.zeros(self.gain.size)
        self.c = 0.0
        self.t = w[self.support] @ self.basis[:-1]
        self._w = w
        if self.averaging:
            self._carry, self._scale_sum = stage_sum, 0.0
            self._offset, self._s_sum = np.zeros(w.size), np.zeros(self.gain.size)

    def load(self, batches: np.ndarray) -> None:
        """Gather the rows of ``batches`` (one minibatch per row) for the
        next steps; holds their nonzeros until the next load."""
        size = batches.shape[1]
        feats, self._labels = self.oracle.row_block(batches.ravel())
        if self.anchor is not None:
            snap, self._drift_margins = (feats @ self.anchor).T
            self._snap_slopes = self.oracle.loss_slope(snap, self._labels)
        self._cols, self._vals = feats.indices.astype(np.intp, copy=False), feats.data
        if self.gain.size:
            self._places = self.place[self._cols]
        # each entry's row within its own minibatch
        self._rows = np.repeat(np.arange(feats.shape[0]) % size, np.diff(feats.indptr))
        self._bounds = feats.indptr[::size].tolist()
        self._size = size

    def step(self, j: int) -> bool:
        """One step on the ``j``-th loaded minibatch; False if alpha, c, s,
        the margins or the update terms are no longer finite.

        The margins read ``w_tilde`` on the batch's columns before the
        update, so a non-finite entry is caught by the next step that
        touches it.  An update that overflows in the subtraction itself is
        caught there too, or, if no later step touches that column, by the
        loop's check of the next built iterate.
        """
        size, lo, hi = self._size, self._bounds[j], self._bounds[j + 1]
        rows, cols, vals = self._rows[lo:hi], self._cols[lo:hi], self._vals[lo:hi]
        batch = slice(j * size, (j + 1) * size)
        coords = self.w_tilde[cols]
        coords *= self.alpha
        if self.gain.size:
            places = self._places[lo:hi]
            coords += (self.basis @ self.s)[places]  # (V s)[cols], zero off S
        coords *= vals
        z = np.bincount(rows, weights=coords, minlength=size)
        if self.anchor is not None:
            z += self.c * self._drift_margins[batch]
        slope = self.oracle.loss_slope(z, self._labels[batch])
        if self.anchor is not None:
            slope -= self._snap_slopes[batch]
            self.c = self.beta * self.c - self.eta
        weighted = slope[rows]
        weighted *= vals
        u = 0.0
        if self.gain.size:
            u = (np.bincount(places, weights=weighted, minlength=self.basis.shape[0])
                 @ self.basis) / size
        delta = self.gain * (u + self.l2 * self.t)
        alpha = self.beta * self.alpha
        finite = math.isfinite(alpha) and math.isfinite(self.c)
        if not alpha >= _ALPHA_FLOOR:
            if self.averaging:
                self._carry += self._scale_sum * self.w_tilde - self._offset
                self._scale_sum = 0.0
                self._offset.fill(0.0)
            self.w_tilde *= alpha
            alpha = 1.0
        self.alpha = alpha
        terms = (self.step_over_rho / (alpha * size)) * weighted
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
        """``w = alpha * w_tilde + V s (+ c d)`` (cached until the next step)."""
        if self._w is None:
            self._w = self.alpha * self.w_tilde
            self._w[self.support] += self.basis[:-1] @ self.s
            if self.anchor is not None:
                self._w += self.c * self.anchor[:, 1]
        return self._w

    def stage_sum(self) -> np.ndarray:
        """The stage sum given at the last (re)start plus every iterate
        stepped to since: ``carry + A w_tilde - offset + V sum s_k``."""
        out = self._carry + self._scale_sum * self.w_tilde - self._offset
        out[self.support] += self.basis[:-1] @ self._s_sum
        return out


def _block_steps(cfg: OptimizerConfig, update_freq: float, k: int, touched: int, n: int) -> int:
    """Minibatches a run draws at once before step ``k + 1``: the loop
    takes them all, with no refresh between them, unless it diverges.

    At most one block, and never past the next refresh or snapshot (every
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
    time covers the optimization work only.  Every run on CSR data steps
    through :class:`_FactoredIterate` unless ``factor_sparse_steps`` is
    False: SGD with the rank-zero preconditioner and ``rho = 1``, SVRG as
    SGD plus the snapshot's drift, restarted at every snapshot, in
    O(nnz(batch)) per step and one full gradient per snapshot, and an
    averaged run adding each step to the stage sum in O(nnz(batch)) and
    forming the average in O(p + |S| r) at a stage end.  Both paths draw
    the same blocks of minibatches.  Divergence is detected explicitly
    (:class:`DivergenceError`), so the arithmetic runs with overflow and
    invalid-value warnings off.
    """
    n, bg = oracle.n, cfg.grad_batch_size
    rng = make_rng(cfg.seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)
    record = recorder.finalize if average else recorder.maybe_record

    factored = factor_sparse_steps and oracle.data.is_sparse
    epoch = math.ceil(n / bg)
    # SGD and SVRG are the preconditioned step with P = I, never refreshed;
    # an SVRG snapshot restarts a factored iterate as a refresh would
    nys, rho = (None, cfg.rho) if precondition else (NystromApprox.rank_zero(oracle.p), 1.0)
    update_freq = cfg.update_freq if precondition else (epoch if svrg else math.inf)
    eta = cfg.learning_rate if isinstance(cfg.learning_rate, (int, float)) else None
    estimate = precondition and eta is None
    stage_sum, produced = np.zeros(oracle.p) if average else None, 0
    state = None
    # the minibatches drawn at once, of which the first ``taken`` are stepped on
    block, taken = [], 0
    # Sample rows touched, kept as an integer so that the passes equal the
    # analytic b_g*K/n + sum_j (r+q)*b_h/n (+1 per snapshot) to the last bit.
    touched = k = updates = lr_estimates = snapshots = 0
    wall = 0.0
    while touched / n < cfg.max_passes:
        tic = time.perf_counter()
        snapshot = svrg and k % epoch == 0
        if snapshot:
            if state is not None:
                w = state.iterate()
                if not np.all(np.isfinite(w)):
                    raise DivergenceError(k, recorder.records)
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
        if factored and (refresh or snapshot or state is None):
            state = _FactoredIterate(w, nys, rho, eta, oracle, stage_sum, mu if svrg else None)
        if taken == len(block):
            # _block_steps ends a block at the next refresh, and for a
            # factored run at the next snapshot too, so a block never comes
            # between a refresh's draws and a factored iterate loads every
            # block it steps on.
            block, taken = sample_batch(
                rng, n, bg, count=_block_steps(cfg, update_freq, k, touched, n)), 0
            if state is not None:
                state.load(block)
        batch, taken = block[taken], taken + 1
        touched += bg
        k += 1
        if state is not None:
            if not state.step(taken - 1):
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
