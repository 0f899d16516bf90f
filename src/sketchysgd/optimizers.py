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
(for SVRG, the next snapshot) or the last step, so the draws of a refresh
stay between blocks.  Dense data and CSR data, factored and materialized
steps, draw the same blocks.

Every step goes through an iterate object (see :func:`_drive`); the one
of dense data, :class:`_DenseIterate`, takes the materialized step.

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
relative difference around 1e-15 on the losses).

A refresh gathers its Hessian batch once as a factor ``C`` with
``H_S = C' C``.  On CSR data the Nystrom build runs on the batch's column
support ``S``, for O(nnz(C) r + |S| r^2) instead of O(p r^2) (see
:func:`sketch_hessian`).  The step-size estimate runs its power iteration
in the b_h-dimensional space of a fresh Hessian batch, on CSR data with
the basis rows on that batch's support ``S'``, for O(nnz(C) + |S'| r) per
sweep (see :func:`estimate_learning_rate`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from ._rules import AUTO, SEED, check_rules, count, number, positive, rule_problems
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
    :data:`SETTING_RULES` states what each field accepts, and
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


#: Per setting a runner takes (the fields of :class:`OptimizerConfig` and
#: the runners' ``eval_every``), what a value must be and its test.
SETTING_RULES = {
    **dict.fromkeys(("rank", "grad_batch_size", "hess_batch_size", "stage_length"),
                    ("a positive integer or 'auto'", count)),
    "power_iters": ("a positive integer", count),
    "rho": ("a positive finite number or 'auto'", positive),
    **dict.fromkeys(("lr_scale", "max_passes"), ("a positive finite number", positive)),
    "update_freq": ("an integer >= 1, 'inf', or 'auto'",
                    lambda x: x == "inf" or number(x) == math.inf or count(x)),
    "learning_rate": ("a finite number >= 0, None, or 'auto'",
                      lambda x: x is None or 0 <= number(x) < math.inf),
    "seed": SEED,
    "mode": ("'practical' or 'theoretical'", lambda x: x in ("practical", "theoretical")),
    # infinite for the staged runner, which records at every stage end
    "eval_every": ("a positive number", lambda x: number(x) > 0),
}


def settings_problems(settings) -> list[str]:
    """Every problem that does not depend on the data in ``settings``, which
    maps some or all keys of :data:`SETTING_RULES` to values (other keys are
    ignored).  The resolvers raise the first; the CLI reports them all."""
    problems = rule_problems(SETTING_RULES, settings)
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
    standard default for variance-reduced solvers at this loss family (for L
    positive and finite only).
    """
    for problem in settings_problems({key: getattr(config, key) for key in BASELINE_FIELDS}):
        raise ValueError(problem)
    eta = config.learning_rate
    if eta in (None, AUTO):
        if not 0 < oracle.smoothness_upper_bound < math.inf:
            raise ValueError("learning_rate 'auto' needs a positive finite smoothness bound, "
                             f"got {oracle.smoothness_upper_bound}")
        eta = oracle.sgd_default_learning_rate()
    bg = _fit("gradient batch size", config.grad_batch_size, min(256, oracle.n), oracle.n)
    return replace(config, grad_batch_size=bg, learning_rate=float(eta))


class _Recorder:
    """Evaluates and stores metrics on a pass schedule.

    Evaluation is instrumentation: it is not charged to the samples touched
    and its time is excluded from the wall-clock column.  A record forms at
    most one margin product per split, shared by that split's metrics; it
    takes the train margins from the loop when the loop formed them for an
    SVRG snapshot at the same iterate.
    """

    def __init__(self, oracle: ProblemOracle, test_data: Dataset | None, eval_every: float):
        self.oracle = oracle
        self.test_oracle = (
            ProblemOracle(test_data, oracle.task, 0.0) if test_data is not None else None
        )
        check_rules(SETTING_RULES, eval_every=eval_every)
        self.eval_every = float(eval_every)
        self.records: list[MetricsRecord] = []
        self._next = 0.0

    def record(self, w: np.ndarray, passes: float, wall: float, iteration: int,
               margins: np.ndarray | None = None) -> None:
        """Record the metrics at ``w``; ``margins``, if given, must be
        ``oracle.margins(w)``."""
        z = self.oracle.margins(w) if margins is None else margins
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
        # past the float range (a tiny eval_every), every check is due
        ratio = passes / self.eval_every
        self._next = (math.floor(ratio) + 1) * self.eval_every if ratio < math.inf else passes

    def due(self, passes: float) -> bool:
        return passes >= self._next

    def finalize(self, w, passes: float, wall: float, iteration: int) -> None:
        if not self.records or passes > self.records[-1].passes:
            self.record(w, passes, wall, iteration)


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

    ``lambda_q`` is the top eigenvalue of ``P^{-1/2} H_S P^{-1/2}``, with
    ``P = H_hat + rho I``, found by randomized powering in batch space.  With
    ``H_S = C' C`` (:meth:`ProblemOracle.hessian_factor`, gathered once) and
    ``B = C P^{-1/2}``, ``P^{-1/2} H_S P^{-1/2} = B' B``, whose top eigenvalue
    is that of ``B B'``, a b_h x b_h matrix.  The powering starts at
    ``x = B z / ||z||`` for a Gaussian ``z`` in R^p; a sweep reads the
    Rayleigh quotient ``||x||^2`` and, with ``u = C' x``, moves to
    ``C P^{-1} u / sqrt(u' P^{-1} u)``.  A start that meets a non-finite
    quotient or ``u' P^{-1} u = 0``, or ends at a quotient <= 0, is retried
    once with a fresh start; a second failure raises
    :class:`LearningRateError`.

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

    SVRG is that SGD step (``P = I``, no stage sum) given the ``snapshot``
    ``(w_snap, mu, X w_snap)``, mu the full gradient at the start ``w_snap``
    (the margins are not read here).  With
    the drift ``d = mu - l2 w_snap``, fixed until the next snapshot, its step
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
                 snapshot: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
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
        if snapshot is not None and (self.gain.size or self.averaging):
            raise NotImplementedError("the factored SVRG step takes P = I and no averaging")
        # SVRG: the columns [w_snap, d], C-ordered for one product per block
        self.anchor = None if snapshot is None else np.column_stack(
            [snapshot[0], snapshot[1] - oracle.l2 * snapshot[0]])
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


class _DenseIterate:
    """The materialized step ``w <- w - eta P^{-1} g``, in O(b p + p r), behind
    the interface of :class:`_FactoredIterate`: ``P = I`` at rank zero, ``g``
    SVRG-corrected given a ``snapshot``, and a step adds ``w`` to the stage
    sum in place.

    An SVRG step gathers its rows ``X_B`` once (:meth:`ProblemOracle.row_block`)
    and forms ``g_B(w)`` and ``g_B(w_snap)`` from them
    (:meth:`ProblemOracle.rows_gradient`), the latter from the margins
    ``X w_snap`` of the snapshot's full pass: three products with ``X_B``,
    not two gathers and four.
    """

    def __init__(self, w: np.ndarray, nys: NystromApprox, rho: float, eta: float,
                 oracle: ProblemOracle, stage_sum: np.ndarray | None = None,
                 snapshot: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        self.nys, self.rho, self.eta, self.oracle, self.snapshot = nys, rho, eta, oracle, snapshot
        self.restart(w, stage_sum)

    def restart(self, w: np.ndarray, stage_sum: np.ndarray | None) -> None:
        self.w, self.sum = w, stage_sum

    def load(self, batches: np.ndarray) -> None:
        self.batches = batches

    def step(self, j: int) -> bool:
        """One step on the ``j``-th loaded minibatch; False if w is no longer finite."""
        batch = self.batches[j]
        if self.snapshot is None:
            grad = self.oracle.minibatch_gradient(self.w, batch)
        else:
            w_snap, mu, snap_margins = self.snapshot
            feats, labels = self.oracle.row_block(batch)
            margins = np.asarray(feats @ self.w).ravel()
            grad = (self.oracle.rows_gradient(self.w, feats, labels, margins)
                    - self.oracle.rows_gradient(w_snap, feats, labels, snap_margins[batch]) + mu)
        self.w = self.w - self.eta * (precond_solve(self.nys, self.rho, grad)
                                      if self.nys.rank else grad)
        if self.sum is not None:
            self.sum += self.w
        return bool(np.isfinite(self.w).all())

    def iterate(self) -> np.ndarray:
        return self.w

    def stage_sum(self) -> np.ndarray:
        return self.sum


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
    short.  Every step goes through an iterate object (``load`` a block,
    ``step``, build the ``iterate``, ``restart``, ``stage_sum``), built at the
    first step and at every refresh and snapshot: a :class:`_FactoredIterate`
    on CSR data unless ``factor_sparse_steps`` is False, else a
    :class:`_DenseIterate`.  A step reports a non-finite iterate, as does the
    check at a refresh, snapshot, stage end or record
    (:class:`DivergenceError`), so the arithmetic runs with overflow and
    invalid-value warnings off.  Wall time covers the optimization work only.

    An SVRG snapshot ``(w_snap, mu, X w_snap)`` costs one product with X and
    one with X', both timed.  It does not move w, so a record at the end of
    the epoch before it and the record just after it share its product with
    X, which the loop forms inside the timed region (for the first, before
    it stops the clock at that epoch end).
    """
    n, bg = oracle.n, cfg.grad_batch_size
    rng = make_rng(cfg.seed)
    w = np.zeros(oracle.p) if w0 is None else np.array(w0, dtype=np.float64)
    recorder = _Recorder(oracle, test_data, eval_every)
    recorder.finalize(w, 0.0, 0.0, 0)

    factored = factor_sparse_steps and oracle.data.is_sparse
    iterate_class = _FactoredIterate if factored else _DenseIterate
    epoch = math.ceil(n / bg)
    # SGD and SVRG are the preconditioned step with P = I, never refreshed;
    # an SVRG snapshot restarts the iterate as a refresh would
    nys, rho = (None, cfg.rho) if precondition else (NystromApprox.rank_zero(oracle.p), 1.0)
    update_freq = cfg.update_freq if precondition else (epoch if svrg else math.inf)
    eta = cfg.learning_rate if isinstance(cfg.learning_rate, (int, float)) else None
    estimate = precondition and eta is None
    stage_sum, produced = np.zeros(oracle.p) if average else None, 0
    state = anchor = None
    # the minibatches drawn at once, of which the first ``taken`` are stepped on
    block, taken = [], 0
    # Sample rows touched, kept as an integer so that the passes equal the
    # analytic b_g*K/n + sum_j (r+q)*b_h/n (+1 per snapshot) to the last bit.
    touched = k = updates = lr_estimates = snapshots = 0
    wall = 0.0
    # X w, formed for the snapshot next and the record at w, else None
    margins = None
    while touched / n < cfg.max_passes:
        tic = time.perf_counter()
        snapshot = svrg and k % epoch == 0
        refresh = precondition and (
            k == 0 or (math.isfinite(update_freq) and k % int(update_freq) == 0)
        )
        if state is not None and (snapshot or refresh):
            w = state.iterate()
            if average:
                stage_sum = state.stage_sum()
            if not np.all(np.isfinite(w)):
                raise DivergenceError(k, recorder.records)
        if snapshot:
            if margins is None:
                margins = oracle.margins(w)
            full = np.arange(n, dtype=np.int64)
            anchor = (w.copy(), oracle.minibatch_gradient(w, full, margins=margins), margins)
            touched += n
            snapshots += 1
            wall += time.perf_counter() - tic
            if recorder.due(touched / n):
                recorder.record(w, touched / n, wall, k, margins)
            if touched / n >= cfg.max_passes:
                break
            tic = time.perf_counter()
        if refresh:
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
        if state is None or snapshot or refresh:
            state = iterate_class(w, nys, rho, eta, oracle, stage_sum, anchor)
            # _block_steps ends a block at every refresh (for SVRG, every
            # snapshot), so that no block comes between a refresh's draws; a
            # snapshot of a preconditioned SVRG run may fall inside one
            if taken < len(block):
                state.load(block)
        if taken == len(block):
            block, taken = sample_batch(
                rng, n, bg, count=_block_steps(cfg, update_freq, k, touched, n)), 0
            state.load(block)
        taken += 1
        touched += bg
        k += 1
        if not state.step(taken - 1):
            raise DivergenceError(k, recorder.records)
        if average:
            produced += 1
            due = produced >= cfg.stage_length or touched / n >= cfg.max_passes
            if due:
                w = state.stage_sum() / produced
                stage_sum, produced = np.zeros(oracle.p), 0
                state.restart(w, stage_sum)
        else:
            due = recorder.due(touched / n)
            if due:
                w = state.iterate()
        # the snapshot's product with X, formed now for the record to share
        margins = (oracle.margins(w) if due and svrg and k % epoch == 0
                   and touched / n < cfg.max_passes else None)
        wall += time.perf_counter() - tic
        if due:
            if not np.all(np.isfinite(w)):
                raise DivergenceError(k, recorder.records)
            recorder.record(w, touched / n, wall, k, margins)
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
