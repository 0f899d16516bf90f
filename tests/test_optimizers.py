import math

import numpy as np
import pytest
import scipy.sparse as sp

from sketchysgd import nystrom, optimizers
from sketchysgd.data import Dataset, split
from sketchysgd.linalg import ORTHONORMAL_TOL, eigh_small, make_rng
from sketchysgd.nystrom import NystromApprox, precond_solve, rand_nys_approx
from sketchysgd.optimizers import (
    AUTO,
    DivergenceError,
    OptimizerConfig,
    preconditioned_top_eigenvalue,
    resolve_baseline_config,
    resolve_config,
    sgd_run,
    sketchysgd_run,
    sketchysgd_theoretical_run,
    svrg_run,
)
from sketchysgd.oracles import ProblemOracle, sample_batch
from sketchysgd.synthetic import gaussian_dataset, planted_least_squares


def unit_row_oracle(task, n, p=5, seed=0):
    rng = make_rng(seed)
    a = rng.standard_normal((n, p))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    labels = np.where(rng.standard_normal(n) > 0, 1.0, -1.0) if task == "logistic" else rng.standard_normal(n)
    return ProblemOracle(Dataset(a, labels), task, 0.0)


def test_resolve_config_ridge_defaults():
    # p >= 10, so that the default rank min(10, p) is 10
    oracle = unit_row_oracle("ridge", n=10000, p=10)
    cfg = resolve_config(OptimizerConfig(), oracle)
    assert cfg.rho == pytest.approx(1e-3, rel=1e-12)
    assert cfg.hess_batch_size == 100
    assert math.isinf(cfg.update_freq)
    assert cfg.grad_batch_size == 256
    assert cfg.rank == 10 and cfg.lr_scale == 0.5


def test_resolve_config_logistic_update_freq():
    oracle = unit_row_oracle("logistic", n=1000)
    cfg = resolve_config(OptimizerConfig(grad_batch_size=256), oracle)
    assert cfg.update_freq == 4  # ceil(1000/256)


def test_resolve_config_logistic_rho():
    oracle = unit_row_oracle("logistic", n=500)
    cfg = resolve_config(OptimizerConfig(), oracle)
    assert cfg.rho == pytest.approx(2.5e-4, rel=1e-12)


def test_resolve_config_validation():
    oracle = unit_row_oracle("ridge", n=50)
    with pytest.raises(ValueError):
        resolve_config(OptimizerConfig(rank=0), oracle)
    with pytest.raises(ValueError):
        resolve_config(OptimizerConfig(mode="theoretical"), oracle)  # needs a learning rate
    with pytest.raises(ValueError):
        resolve_config(OptimizerConfig(rho=-1.0), oracle)
    with pytest.raises(ValueError, match="update_freq"):
        resolve_config(OptimizerConfig(update_freq=1.5), oracle)
    for whole in (3, 3.0, math.inf, "inf"):
        assert resolve_config(OptimizerConfig(update_freq=whole), oracle).update_freq == float(whole)
    # settings that do not fit the data (n = 50, p = 5) are rejected
    with pytest.raises(ValueError, match=r"rank 6 must lie in \[1, 5\]"):
        resolve_config(OptimizerConfig(rank=6), oracle)
    with pytest.raises(ValueError, match=r"gradient batch size 51 must lie in \[1, 50\]"):
        resolve_config(OptimizerConfig(grad_batch_size=51), oracle)
    with pytest.raises(ValueError, match="Hessian batch size 51"):
        resolve_config(OptimizerConfig(hess_batch_size=51), oracle)
    # integer settings are never truncated
    for key, value in (("rank", 2.5), ("grad_batch_size", 3.7), ("hess_batch_size", 4.5),
                       ("stage_length", 1.5), ("rank", "3")):
        with pytest.raises(ValueError, match=f"{key} must be a whole number, got {value!r}"):
            resolve_config(OptimizerConfig(**{key: value}), oracle)
    with pytest.raises(ValueError, match="grad_batch_size must be a whole number"):
        resolve_baseline_config(OptimizerConfig(grad_batch_size=3.7), oracle)
    whole = resolve_config(OptimizerConfig(rank=3.0, grad_batch_size=4.0, hess_batch_size=5.0,
                                           stage_length=6.0), oracle)
    assert (whole.rank, whole.grad_batch_size, whole.hess_batch_size, whole.stage_length) == (3, 4, 5, 6)
    assert all(type(v) is int for v in (whole.rank, whole.grad_batch_size, whole.hess_batch_size))
    with pytest.raises(ValueError, match="gradient batch size 51"):
        resolve_baseline_config(OptimizerConfig(grad_batch_size=51), oracle)
    for run in (sgd_run, svrg_run):
        with pytest.raises(ValueError, match="gradient batch size 51"):
            run(oracle, grad_batch_size=51)
        # settings that would end the run at once, or fail inside it
        for bad in ({"max_passes": -1}, {"max_passes": 0}, {"max_passes": math.nan},
                    {"max_passes": math.inf}, {"max_passes": "x"}, {"seed": -1}, {"seed": 1.5},
                    {"learning_rate": math.inf}, {"learning_rate": -1.0}):
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must be"):
                run(oracle, **bad)
    # settings that used to pass and then fail or diverge inside a run
    for key, value in (("power_iters", 2.5), ("power_iters", True), ("lr_scale", True),
                       ("lr_scale", "x"), ("max_passes", "x"), ("rho", math.inf),
                       ("lr_scale", math.inf), ("learning_rate", math.inf), ("seed", -1)):
        with pytest.raises(ValueError, match=f"{key} must be"):
            resolve_config(OptimizerConfig(**{key: value}), oracle)
    # integral floats count for every count, and a zero step size is allowed
    whole = resolve_config(OptimizerConfig(power_iters=3.0, learning_rate=0), oracle)
    assert type(whole.power_iters) is int and whole.learning_rate == 0
    # and "auto" fits them
    auto = resolve_config(OptimizerConfig(rank=AUTO, grad_batch_size=AUTO), oracle)
    assert (auto.rank, auto.grad_batch_size) == (5, 50)
    assert resolve_config(OptimizerConfig(), oracle).rank == 5
    for bg in (AUTO, 50):
        baseline = resolve_baseline_config(OptimizerConfig(grad_batch_size=bg), oracle)
        assert baseline.grad_batch_size == 50
        assert baseline.learning_rate == oracle.sgd_default_learning_rate()
    assert sgd_run(oracle, max_passes=2.0).samples_touched == 100


def test_power_iteration_identity_operator():
    # operator equal to the preconditioner itself: estimate is exactly 1
    h = None
    rng = make_rng(1)
    g = rng.standard_normal((30, 30))
    h = g @ g.T / 30
    nys = rand_nys_approx(lambda v: h @ v, 30, 6, make_rng(2))
    rho = 0.05
    op = lambda v: nys.apply(v) + rho * v
    lam = preconditioned_top_eigenvalue(op, nys, rho, 10, make_rng(3))
    assert abs(lam - 1.0) <= 1e-10


def test_power_iteration_rank_zero_scaled_identity():
    nys = NystromApprox.rank_zero(12)
    c, rho = 3.7, 0.2
    lam = preconditioned_top_eigenvalue(lambda v: c * v, nys, rho, 10, make_rng(4))
    assert lam == pytest.approx(c / rho, rel=1e-12)


def test_power_iteration_close_to_dense_top_eigenvalue():
    rng = make_rng(5)
    ds, _ = planted_least_squares(300, 40, condition=1e3, seed=5)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    full = np.arange(oracle.n)
    nys = rand_nys_approx(
        lambda v: oracle.minibatch_hvp(np.zeros(40), full, v), 40, 8, make_rng(6), batch=full
    )
    rho = 1e-3 * oracle.smoothness_upper_bound
    h = oracle.hessian_matrix(np.zeros(40))
    from sketchysgd.diagnostics import _inv_sqrt_psd

    pis = _inv_sqrt_psd(nys.matrix() + rho * np.eye(40))
    dense_top = eigh_small(pis @ h @ pis)[0][-1]
    lam = preconditioned_top_eigenvalue(
        lambda v: oracle.minibatch_hvp(np.zeros(40), full, v), nys, rho, 10, make_rng(7)
    )
    assert lam == pytest.approx(dense_top, rel=0.05)


def test_one_dimensional_quadratic_halves_iterate():
    # f(w) = 0.5*h*w^2 with h=4: one step with alpha=0.5 halves the iterate
    a = np.full((4, 1), 2.0)
    oracle = ProblemOracle(Dataset(a, np.zeros(4)), "ridge", 0.0)
    cfg = OptimizerConfig(
        rank=1, grad_batch_size=4, hess_batch_size=4, power_iters=1, max_passes=3.0, seed=0
    )
    res = sketchysgd_run(oracle, cfg, w0=np.array([1.0]))
    assert res.iterations == 1
    assert res.w[0] == pytest.approx(0.5, abs=1e-8)


def test_zero_gradient_is_fixed_point():
    ds, w_star = planted_least_squares(300, 20, condition=100.0, seed=8)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    cfg = OptimizerConfig(rank=5, grad_batch_size=32, hess_batch_size=17, max_passes=3.0, seed=1)
    res = sketchysgd_run(oracle, cfg, w0=w_star)
    np.testing.assert_array_equal(res.w, w_star)
    res_sgd = sgd_run(oracle, grad_batch_size=32, max_passes=3.0, seed=1, w0=w_star)
    np.testing.assert_array_equal(res_sgd.w, w_star)
    res_svrg = svrg_run(oracle, grad_batch_size=32, max_passes=3.0, seed=1, w0=w_star)
    np.testing.assert_array_equal(res_svrg.w, w_star)
    cfg_t = OptimizerConfig(
        rank=5, grad_batch_size=32, hess_batch_size=17, max_passes=3.0, seed=1,
        mode="theoretical", stage_length=4, learning_rate=0.5,
    )
    res_t = sketchysgd_theoretical_run(oracle, cfg_t, w0=w_star)
    np.testing.assert_allclose(res_t.w, w_star, rtol=1e-14)


def test_sgd_zero_learning_rate_keeps_iterate():
    oracle = unit_row_oracle("ridge", n=40)
    w0 = np.arange(5, dtype=float)
    res = sgd_run(oracle, learning_rate=0.0, max_passes=2.0, seed=0, w0=w0)
    np.testing.assert_array_equal(res.w, w0)


def test_sgd_one_dimensional_recursion():
    a = np.full((6, 1), 3.0)  # h = 9
    oracle = ProblemOracle(Dataset(a, np.zeros(6)), "ridge", 0.0)
    eta = 0.01
    res = sgd_run(oracle, learning_rate=eta, grad_batch_size=6, max_passes=5.0, seed=0, w0=np.array([2.0]))
    want = 2.0 * (1.0 - eta * 9.0) ** res.iterations
    assert res.w[0] == pytest.approx(want, rel=1e-12)


def test_svrg_full_batch_reduces_to_gradient_descent():
    ds, _ = planted_least_squares(50, 8, condition=10.0, seed=9)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    eta = 0.1
    res = svrg_run(oracle, learning_rate=eta, grad_batch_size=50, max_passes=6.0, seed=2)
    w = np.zeros(8)
    full = np.arange(50)
    for _ in range(res.iterations):
        w = w - eta * oracle.minibatch_gradient(w, full)
    np.testing.assert_array_equal(res.w, w)


def test_svrg_loss_decreases_on_ridge():
    finals = []
    for seed in range(5):
        ds, _ = planted_least_squares(200, 10, condition=50.0, seed=10 + seed)
        oracle = ProblemOracle(ds, "ridge", 1e-3)
        res = svrg_run(oracle, learning_rate=0.05, grad_batch_size=20, max_passes=8.0, seed=seed)
        losses = [r.train_loss for r in res.records]
        finals.append(np.all(np.diff(losses) <= 1e-12))
    assert np.median(finals) == 1.0


def test_theoretical_stage_one_matches_practical_fixed_lr():
    ds, _ = planted_least_squares(150, 12, condition=100.0, seed=11)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    base = dict(rank=4, grad_batch_size=16, hess_batch_size=12, max_passes=4.0, seed=3, learning_rate=0.3)
    res_p = sketchysgd_run(oracle, OptimizerConfig(**base))
    res_t = sketchysgd_theoretical_run(
        oracle, OptimizerConfig(mode="theoretical", stage_length=1, **base)
    )
    assert res_p.iterations == res_t.iterations
    np.testing.assert_array_equal(res_p.w, res_t.w)


def test_theoretical_full_batch_matches_dense_preconditioned_gd():
    n, p = 60, 10
    ds, _ = planted_least_squares(n, p, condition=100.0, seed=12)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    eta, rho = 0.4, 1e-3
    cfg = OptimizerConfig(
        mode="theoretical", stage_length=1, learning_rate=eta, rank=p,
        grad_batch_size=n, hess_batch_size=n, rho=rho, max_passes=30.0, seed=4,
    )
    res = sketchysgd_theoretical_run(oracle, cfg)
    # dense reference: the rank-p sketch of the full-batch Hessian is exact
    h = oracle.hessian_matrix(np.zeros(p))
    pmat = h + rho * np.eye(p)
    w = np.zeros(p)
    full = np.arange(n)
    for _ in range(res.iterations):
        w = w - eta * np.linalg.solve(pmat, oracle.minibatch_gradient(w, full))
    assert np.linalg.norm(res.w - w) <= 1e-8 * (1.0 + np.linalg.norm(w))


def test_preconditioned_space_equivalence_single_step():
    rng = make_rng(13)
    for trial in range(20):
        n, p = 80, 25
        ds = gaussian_dataset(n, p, "logistic", seed=200 + trial)
        oracle = ProblemOracle(ds, "logistic", 1e-3)
        w = rng.standard_normal(p)
        batch = sample_batch(rng, n, 16)
        rho = float(rng.uniform(1e-3, 1.0))
        hess_batch = sample_batch(rng, n, 32)
        nys = rand_nys_approx(
            lambda v: oracle.minibatch_hvp(w, hess_batch, v), p, 5, make_rng(300 + trial)
        )
        eta = 0.7
        g = oracle.minibatch_gradient(w, batch)
        w_direct = w - eta * precond_solve(nys, rho, g)
        # explicit change of variables through the dense square root
        vals, vecs = eigh_small(nys.matrix() + rho * np.eye(p))
        root = (vecs * np.sqrt(vals)) @ vecs.T
        inv_root = (vecs / np.sqrt(vals)) @ vecs.T
        z = root @ w
        z_next = z - eta * (inv_root @ g)
        w_mapped = inv_root @ z_next
        assert np.linalg.norm(w_direct - w_mapped) <= 1e-8 * (1.0 + np.linalg.norm(w_direct))


def test_pass_accounting_matches_formula():
    ds, _ = planted_least_squares(400, 15, condition=100.0, seed=14)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    cfg = OptimizerConfig(rank=3, grad_batch_size=64, hess_batch_size=21, power_iters=7,
                          update_freq=5, max_passes=6.0, seed=5)
    res = sketchysgd_run(oracle, cfg)
    k, j = res.iterations, res.precond_updates
    expected = 64 * k + j * (3 + 7) * 21
    assert res.samples_touched == expected
    assert res.passes == expected / 400


def test_pass_accounting_fixed_lr_skips_powering():
    ds, _ = planted_least_squares(300, 10, condition=10.0, seed=15)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    cfg = OptimizerConfig(rank=2, grad_batch_size=50, hess_batch_size=10,
                          learning_rate=0.2, max_passes=4.0, seed=6)
    res = sketchysgd_run(oracle, cfg)
    expected = 50 * res.iterations + res.precond_updates * 2 * 10
    assert res.samples_touched == expected
    assert res.lr_estimates == 0


def test_pass_accounting_svrg_snapshots():
    ds, _ = planted_least_squares(200, 8, condition=10.0, seed=16)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    res = svrg_run(oracle, learning_rate=0.01, grad_batch_size=32, max_passes=7.0, seed=7)
    expected = 32 * res.iterations + res.snapshots * 200
    assert res.samples_touched == expected


def test_reproducibility_bitwise():
    ds, _ = planted_least_squares(250, 12, condition=100.0, seed=17)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    test_ds, _ = planted_least_squares(50, 12, condition=100.0, seed=18)
    cfg = OptimizerConfig(rank=4, grad_batch_size=32, hess_batch_size=15, max_passes=5.0, seed=8)
    a = sketchysgd_run(oracle, cfg, test_data=test_ds)
    b = sketchysgd_run(oracle, cfg, test_data=test_ds)
    np.testing.assert_array_equal(a.w, b.w)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.passes == rb.passes
        assert ra.train_loss == rb.train_loss
        assert ra.test_loss == rb.test_loss


def test_records_monotone_and_fields():
    ds, _ = planted_least_squares(300, 10, condition=100.0, seed=19)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    res = sketchysgd_run(oracle, OptimizerConfig(max_passes=5.0, seed=9, hess_batch_size=17))
    passes = [r.passes for r in res.records]
    assert passes[0] == 0.0
    assert np.all(np.diff(passes) > 0)
    assert all(r.train_acc is None and r.test_acc is None for r in res.records)

    logit = gaussian_dataset(300, 10, "logistic", seed=20)
    test_logit = gaussian_dataset(80, 10, "logistic", seed=21)
    oracle2 = ProblemOracle(logit, "logistic", 1e-4)
    res2 = sketchysgd_run(
        oracle2, OptimizerConfig(max_passes=4.0, seed=10), test_data=test_logit
    )
    last = res2.records[-1]
    assert 0.0 <= last.train_acc <= 1.0 and 0.0 <= last.test_acc <= 1.0
    assert last.test_loss is not None


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_detection():
    ds, _ = planted_least_squares(120, 6, condition=10.0, seed=22)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    with pytest.raises(DivergenceError, match="divergence detected"):
        sgd_run(oracle, learning_rate=1e12, grad_batch_size=120, max_passes=50.0, seed=11)
    try:
        sgd_run(oracle, learning_rate=1e12, grad_batch_size=120, max_passes=50.0, seed=11)
    except DivergenceError as exc:
        assert exc.iteration >= 1
        assert exc.records  # baseline row survives for partial output


def csr_oracle(task, l2, n=400, p=60, seed=0):
    """Skewed CSR data: a few columns in most rows, a long tail in few."""
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, p + 1)
    cols = rng.choice(p, size=(n, 6), p=popularity / popularity.sum())
    rows = np.repeat(np.arange(n), 6)
    feats = sp.csr_matrix((rng.uniform(0.5, 1.5, rows.size), (rows, cols.ravel())), shape=(n, p))
    feats.sum_duplicates()
    if task == "logistic":
        labels = np.where(feats @ rng.standard_normal(p) + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0)
    else:
        labels = feats @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    return ProblemOracle(Dataset(feats, labels), task, l2)


def run_both(oracle, config, monkeypatch, eval_every=0.5, runner="sketchysgd"):
    """The factored sparse step and the materialized one on the same job.

    ``runner`` is ``"sketchysgd"``, ``"staged"`` (the theoretical variant),
    ``"sgd"`` or ``"svrg"``.  The factored run may neither build a p-length
    gradient, except for an SVRG snapshot, nor call ``precond_solve`` per
    step.
    """
    gradients, solves = [], []
    gradient = ProblemOracle.minibatch_gradient
    monkeypatch.setattr(ProblemOracle, "minibatch_gradient",
                        lambda self, w, batch: gradients.append(1) or gradient(self, w, batch))
    monkeypatch.setattr(optimizers, "precond_solve",
                        lambda *args: solves.append(1) or precond_solve(*args))
    if runner in ("sgd", "svrg"):
        cfg = resolve_baseline_config(config, oracle)
        run = sgd_run if runner == "sgd" else svrg_run
        factored = run(oracle, config.learning_rate, config.grad_batch_size, config.max_passes,
                       config.seed, eval_every=eval_every)
        flags = dict(svrg=runner == "svrg")
    elif runner == "staged":
        cfg, eval_every = resolve_config(config, oracle), math.inf
        factored = sketchysgd_theoretical_run(oracle, config)
        flags = dict(precondition=True, average=True)
    else:
        cfg = resolve_config(config, oracle)
        factored = sketchysgd_run(oracle, config, eval_every=eval_every)
        flags = dict(precondition=True)
    assert len(gradients) == factored.snapshots  # the factored step builds no p-length gradient
    assert len(solves) == cfg.power_iters * factored.lr_estimates  # only the step-size powering
    gradients.clear()
    dense = optimizers._drive(oracle, cfg, None, eval_every, None, factor_sparse_steps=False,
                              **flags)
    assert len(gradients) == (2 if runner == "svrg" else 1) * dense.iterations + dense.snapshots
    return factored, dense


COUNTERS = ("iterations", "precond_updates", "lr_estimates", "snapshots", "samples_touched")


def assert_same_run(factored, dense, rtol=1e-10):
    assert [getattr(factored, c) for c in COUNTERS] == [getattr(dense, c) for c in COUNTERS]
    assert len(factored.records) == len(dense.records)
    for a, b in zip(factored.records, dense.records):
        assert a.passes == b.passes
        for field in ("train_loss", "test_loss", "train_acc", "test_acc"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None)
            if x is not None:
                assert x == pytest.approx(y, rel=rtol, abs=0.0)
    # Entry-wise, relative to the largest entry: a coordinate no batch ever
    # touched is 0 on one path and a rounding residue on the other.
    np.testing.assert_allclose(factored.w, dense.w, rtol=rtol, atol=rtol * np.abs(dense.w).max())


@pytest.mark.parametrize("task, l2", [("logistic", 1e-2), ("ridge", 0.0)])
@pytest.mark.parametrize("update_freq", [3, "inf"])
@pytest.mark.parametrize("learning_rate", [None, 0.005])
def test_factored_sparse_step_matches_materialized_step(monkeypatch, task, l2, update_freq,
                                                        learning_rate):
    oracle = csr_oracle(task, l2)
    config = OptimizerConfig(rank=5, grad_batch_size=32, hess_batch_size=8, update_freq=update_freq,
                             learning_rate=learning_rate, max_passes=6.0, seed=3)
    factored, dense = run_both(oracle, config, monkeypatch)
    assert factored.iterations > 30 and factored.records[-1].train_loss < factored.records[0].train_loss
    assert_same_run(factored, dense)


@pytest.mark.parametrize("decay", [0.9, 1.0, 1.5])
def test_factored_step_rebases_when_the_scale_collapses(monkeypatch, decay):
    # eta * l2 / rho = decay: the scale alpha shrinks by 1 - decay every step,
    # so it crosses the floor every few steps (0.9) or at once (>= 1).
    oracle = csr_oracle("logistic", 0.05, seed=4)
    rho = 1e-2
    config = OptimizerConfig(rank=4, rho=rho, grad_batch_size=40, hess_batch_size=30,
                             learning_rate=decay * rho / oracle.l2, update_freq=5,
                             max_passes=2.0, seed=5)
    factored, dense = run_both(oracle, config, monkeypatch)
    assert np.isfinite(factored.w).all()
    assert_same_run(factored, dense)


def test_factored_iterate_does_not_depend_on_eval_every():
    oracle = csr_oracle("logistic", 1e-3, seed=6)
    config = OptimizerConfig(rank=5, grad_batch_size=20, hess_batch_size=30, max_passes=2.0, seed=7)
    runs = [sketchysgd_run(oracle, config, eval_every=e) for e in (0.05, 0.5, 10.0)]
    assert len(runs[0].records) > len(runs[1].records) > len(runs[2].records)
    for run in runs[1:]:
        np.testing.assert_array_equal(run.w, runs[0].w)
        assert run.records[-1].train_loss == runs[0].records[-1].train_loss


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_detection_on_the_factored_step(monkeypatch):
    oracle = csr_oracle("ridge", 0.0, seed=8)
    config = OptimizerConfig(rank=3, grad_batch_size=40, hess_batch_size=30, learning_rate=1e8,
                             update_freq="inf", max_passes=200.0, seed=9)
    monkeypatch.setattr(ProblemOracle, "minibatch_gradient", None)  # not on this path
    with pytest.raises(DivergenceError) as exc:
        sketchysgd_run(oracle, config, eval_every=1e9)
    assert 1 <= exc.value.iteration < 2000
    assert len(exc.value.records) == 1  # the record at w0 survives for partial output


@pytest.mark.parametrize("task, l2", [("logistic", 1e-2), ("ridge", 0.0)])
@pytest.mark.parametrize("update_freq", [3, 4, 5, "inf"])
@pytest.mark.parametrize("stage_length", [3, 4, 7])
@pytest.mark.parametrize("learning_rate", [AUTO, 0.005])
def test_factored_staged_run_matches_materialized_run(monkeypatch, task, l2, update_freq,
                                                      stage_length, learning_rate):
    oracle = csr_oracle(task, l2)
    config = OptimizerConfig(mode="theoretical", rank=5, grad_batch_size=32, hess_batch_size=8,
                             update_freq=update_freq, stage_length=stage_length,
                             learning_rate=learning_rate, max_passes=6.0, seed=3)
    factored, dense = run_both(oracle, config, monkeypatch, runner="staged")
    assert len(factored.records) > 5 and factored.records[-1].train_loss < factored.records[0].train_loss
    assert_same_run(factored, dense)


@pytest.mark.parametrize("decay", [0.9, 1.0, 1.5])
@pytest.mark.parametrize("stage_length", [3, 7])
def test_factored_staged_run_rebases_when_the_scale_collapses(monkeypatch, decay, stage_length):
    # as in the unaveraged case, with the stage sum folded at every re-base
    oracle = csr_oracle("logistic", 0.05, seed=4)
    rho = 1e-2
    config = OptimizerConfig(mode="theoretical", rank=4, rho=rho, grad_batch_size=40,
                             hess_batch_size=30, learning_rate=decay * rho / oracle.l2,
                             update_freq=5, stage_length=stage_length, max_passes=2.0, seed=5)
    factored, dense = run_both(oracle, config, monkeypatch, runner="staged")
    assert np.isfinite(factored.w).all()
    assert_same_run(factored, dense)


@pytest.mark.parametrize("task", ["logistic", "ridge"])
@pytest.mark.parametrize("l2", [0.0, 1e-2])
@pytest.mark.parametrize("learning_rate", [None, 0.02])
def test_factored_sgd_matches_materialized_sgd(monkeypatch, task, l2, learning_rate):
    oracle = csr_oracle(task, l2)
    config = OptimizerConfig(grad_batch_size=32, learning_rate=learning_rate, max_passes=6.0,
                             seed=3)
    factored, dense = run_both(oracle, config, monkeypatch, runner="sgd")
    assert factored.iterations > 30 and factored.records[-1].train_loss < factored.records[0].train_loss
    assert_same_run(factored, dense)


def test_theoretical_stage_one_matches_practical_fixed_lr_on_csr_data():
    oracle = csr_oracle("ridge", 0.0, seed=11)
    base = dict(rank=4, grad_batch_size=16, hess_batch_size=12, max_passes=4.0, seed=3,
                learning_rate=0.005)
    res_p = sketchysgd_run(oracle, OptimizerConfig(**base))
    res_t = sketchysgd_theoretical_run(
        oracle, OptimizerConfig(mode="theoretical", stage_length=1, **base)
    )
    assert res_p.iterations == res_t.iterations
    # the staged run re-bases its factored iterate at every stage end
    np.testing.assert_allclose(res_t.w, res_p.w, rtol=1e-10, atol=1e-10 * np.abs(res_p.w).max())


def test_divergence_detection_on_the_factored_staged_path(monkeypatch):
    oracle = csr_oracle("ridge", 0.0, seed=8)
    config = OptimizerConfig(mode="theoretical", rank=3, grad_batch_size=40, hess_batch_size=30,
                             learning_rate=1e8, update_freq="inf", stage_length=5,
                             max_passes=200.0, seed=9)
    monkeypatch.setattr(ProblemOracle, "minibatch_gradient", None)  # not on this path
    with pytest.raises(DivergenceError) as exc:
        sketchysgd_theoretical_run(oracle, config)
    assert 1 <= exc.value.iteration < 2000
    assert exc.value.records[0].passes == 0.0  # the record at w0 survives for partial output


@pytest.mark.parametrize("task, learning_rate", [("ridge", 2e8), ("logistic", 4e8)])
@pytest.mark.parametrize("max_passes, iteration", [(5.0, 2), (1.0, 1)])
def test_an_overflow_in_the_factored_update_is_caught_later(task, learning_rate, max_passes,
                                                            iteration):
    # Two equal rows with one entry of 1e300 and label -1: at w0 = 0 every
    # margin is 0, each update term is 1e308 and their sum overflows in the
    # scatter-subtract itself, with the margins and terms finite.  The next
    # step reads the entry in its margins (for logistic, its slope and
    # terms stay finite); a run that ends first builds a non-finite iterate
    # (no evaluation comes between).
    feats = sp.csr_matrix(np.full((2, 1), 1e300))
    oracle = ProblemOracle(Dataset(feats, np.array([-1.0, -1.0])), task, 0.0)
    with pytest.raises(DivergenceError) as exc:
        sgd_run(oracle, learning_rate=learning_rate, grad_batch_size=2, max_passes=max_passes,
                eval_every=1e9)
    assert exc.value.iteration == iteration
    assert len(exc.value.records) == 1


def with_empty_rows(oracle, empty):
    """The same problem with the rows ``empty`` cleared."""
    keep = np.ones(oracle.n)
    keep[empty] = 0.0
    feats = sp.csr_matrix(sp.diags(keep) @ oracle.data.features)
    feats.eliminate_zeros()
    return ProblemOracle(Dataset(feats, oracle.data.labels), oracle.task, oracle.l2)


def powering_problem(kind):
    if kind == "dense-ridge":
        ds, _ = planted_least_squares(300, 40, condition=1e3, seed=5)
        oracle = ProblemOracle(ds, "ridge", 0.0)
    else:
        oracle = csr_oracle("logistic", 1e-2, seed=10)
    if kind == "csr-empty-rows":
        oracle = with_empty_rows(oracle, np.arange(0, oracle.n, 3))
    rng = make_rng(11)
    w = 0.3 * rng.standard_normal(oracle.p)
    if kind == "csr-sketch":
        # the basis lives on the sketch batch's support only
        cfg = resolve_config(OptimizerConfig(rank=6, hess_batch_size=40), oracle)
        nys = optimizers.sketch_hessian(oracle, cfg, w, rng)
    else:
        sketch_batch = sample_batch(rng, oracle.n, 40)
        nys = rand_nys_approx(lambda v: oracle.minibatch_hvp(w, sketch_batch, v), oracle.p, 6,
                              rng)
    return oracle, nys, 1e-3 * oracle.smoothness_upper_bound, w


def support_of(oracle, batch):
    return np.unique(oracle.data.features[batch].indices)


@pytest.mark.parametrize("kind", ["dense-ridge", "csr-logistic", "csr-empty-rows", "csr-sketch"])
@pytest.mark.parametrize("power_iters", [1, 10])
def test_batch_space_powering_matches_reference_powering(kind, power_iters):
    oracle, nys, rho, w = powering_problem(kind)
    batch = sample_batch(make_rng(12), oracle.n, 25)
    if kind == "csr-empty-rows":
        assert (oracle.data.features[batch].getnnz(axis=1) == 0).any()
    if kind == "csr-sketch":
        fresh, sketched = support_of(oracle, batch), support_of(oracle, nys.batch)
        assert not np.isin(fresh, sketched).all() and not np.isin(sketched, fresh).all()
    rng, ref_rng = make_rng(13), make_rng(13)
    eta = optimizers.estimate_learning_rate(oracle, nys, rho, w, batch, power_iters, rng, 0.5)
    lam = preconditioned_top_eigenvalue(lambda v: oracle.minibatch_hvp(w, batch, v), nys, rho,
                                        power_iters, ref_rng)
    assert eta == pytest.approx(0.5 / lam, rel=1e-12, abs=0.0)
    assert rng.standard_normal() == ref_rng.standard_normal()  # same draws consumed


@pytest.mark.parametrize("sparse", [True, False])
def test_batch_space_powering_on_an_all_zero_batch_raises(sparse):
    oracle, nys, rho, w = powering_problem("csr-empty-rows")
    if not sparse:
        oracle = ProblemOracle(Dataset(oracle.data.dense_features(), oracle.data.labels),
                               oracle.task, oracle.l2)
    batch = np.arange(0, 30, 3)  # every one of these rows is empty
    rng, ref_rng = make_rng(14), make_rng(14)
    with pytest.raises(optimizers.LearningRateError):
        optimizers.estimate_learning_rate(oracle, nys, rho, w, batch, 10, rng)
    with pytest.raises(optimizers.LearningRateError):
        preconditioned_top_eigenvalue(lambda v: oracle.minibatch_hvp(w, batch, v), nys, rho, 10,
                                      ref_rng)
    assert rng.standard_normal() == ref_rng.standard_normal()  # both retried once


def sketch_problem(rank=6, hess_batch_size=40):
    """A CSR logistic problem whose Hessian batches cover a fraction of the
    columns, its resolved config and an iterate."""
    oracle = csr_oracle("logistic", 1e-2, n=400, p=300, seed=20)
    cfg = resolve_config(OptimizerConfig(rank=rank, hess_batch_size=hess_batch_size), oracle)
    return oracle, cfg, 0.3 * make_rng(21).standard_normal(oracle.p)


def record_test_matrices(monkeypatch):
    """The shapes of the Gaussian test matrices the Nystrom builds draw."""
    shapes = []
    draw = nystrom.gaussian_matrix
    monkeypatch.setattr(nystrom, "gaussian_matrix",
                        lambda rng, p, r: shapes.append((p, r)) or draw(rng, p, r))
    return shapes


def test_a_csr_sketch_lives_on_its_batch_support(monkeypatch):
    oracle, cfg, w = sketch_problem()
    shapes = record_test_matrices(monkeypatch)
    nys = optimizers.sketch_hessian(oracle, cfg, w, make_rng(22))
    support = support_of(oracle, nys.batch)
    assert cfg.rank <= support.size < oracle.p
    assert shapes == [(support.size, cfg.rank)]
    off = np.ones(oracle.p, dtype=bool)
    off[support] = False
    assert np.all(nys.basis[off] == 0.0)
    assert np.abs(nys.basis.T @ nys.basis - np.eye(cfg.rank)).max() <= ORTHONORMAL_TOL
    assert nys.basis.flags.f_contiguous
    assert np.array_equal(nys.support, support)


def test_a_csr_sketch_is_the_nystrom_formula_on_its_support_draw():
    oracle, cfg, w = sketch_problem()
    nys = optimizers.sketch_hessian(oracle, cfg, w, make_rng(23))
    rng = make_rng(23)
    batch = sample_batch(rng, oracle.n, cfg.hess_batch_size)
    support = support_of(oracle, batch)
    omega = rng.standard_normal((support.size, cfg.rank))
    y = oracle.hessian_matrix(w, batch)[np.ix_(support, support)] @ omega
    expected = np.zeros((oracle.p, oracle.p))
    expected[np.ix_(support, support)] = y @ np.linalg.solve(omega.T @ y, y.T)
    # entries far below the largest carry its rounding
    np.testing.assert_allclose(nys.matrix(), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def test_a_csr_sketch_on_a_support_below_the_rank_takes_every_column(monkeypatch):
    # two rows of at most six entries each: fewer than 20 columns
    oracle, cfg, w = sketch_problem(rank=20, hess_batch_size=2)
    shapes = record_test_matrices(monkeypatch)
    nys = optimizers.sketch_hessian(oracle, cfg, w, make_rng(24))
    assert support_of(oracle, nys.batch).size < cfg.rank
    assert shapes == [(oracle.p, cfg.rank)]
    assert nys.support is None
    assert np.abs(nys.basis.T @ nys.basis - np.eye(cfg.rank)).max() <= ORTHONORMAL_TOL
    np.testing.assert_allclose(nys.matrix(), oracle.hessian_matrix(w, nys.batch),
                               rtol=0.0, atol=1e-12)


def test_a_run_on_all_empty_rows_still_fails_its_step_size(monkeypatch):
    oracle = csr_oracle("logistic", 1e-2, n=40, p=30)
    oracle = with_empty_rows(oracle, np.arange(oracle.n))
    shapes = record_test_matrices(monkeypatch)
    with pytest.raises(optimizers.LearningRateError):
        sketchysgd_run(oracle, OptimizerConfig(rank=3, hess_batch_size=5, max_passes=2.0))
    assert shapes == [(oracle.p, 3)]


def test_a_dense_sketch_draws_the_stream_it_always_drew():
    ds, _ = planted_least_squares(300, 40, condition=1e3, seed=5)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    cfg = resolve_config(OptimizerConfig(rank=6, hess_batch_size=30), oracle)
    rng, ref = make_rng(25), make_rng(25)
    optimizers.sketch_hessian(oracle, cfg, np.zeros(oracle.p), rng)
    sample_batch(ref, oracle.n, cfg.hess_batch_size)
    ref.standard_normal((oracle.p, cfg.rank))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("block_rows, update_freq, max_passes", [
    (64, 3, 3.0),       # refreshes more often than a block of 4 steps
    (64, 4, 3.0),       # at the block length
    (64, 7, 3.0),       # less often: every other block is cut by a refresh
    (64, "inf", 3.0),
    (64, "inf", 2.9),   # the run ends partway through a block
    (8, 5, 2.0),        # a block smaller than one batch still holds one
    (None, 50, 4.0),    # the default block is longer than the run
])
def test_prefetched_batches_are_the_batches_of_the_materialized_loop(monkeypatch, block_rows,
                                                                      update_freq, max_passes):
    oracle = csr_oracle("logistic", 1e-2, seed=15)
    if block_rows is not None:
        monkeypatch.setattr(optimizers, "_BLOCK_ROWS", block_rows)
    block = max(1, optimizers._BLOCK_ROWS // 16)
    config = OptimizerConfig(rank=5, grad_batch_size=16, hess_batch_size=8, update_freq=update_freq,
                             max_passes=max_passes, seed=16)
    cfg = resolve_config(config, oracle)
    draws, loads = [], []
    monkeypatch.setattr(optimizers, "sample_batch", lambda rng, n, b, count=None:
                        draws[-1].append(sample_batch(rng, n, b, count)) or draws[-1][-1])
    load = optimizers._FactoredIterate.load
    monkeypatch.setattr(optimizers._FactoredIterate, "load",
                        lambda self, batches: loads.append(len(batches)) or load(self, batches))
    runs = []
    for factored in (True, False):
        draws.append([])
        runs.append(optimizers._drive(oracle, cfg, None, 1.0, None, precondition=True,
                                      factor_sparse_steps=factored))
    assert len(draws[0]) == len(draws[1])
    assert all(np.array_equal(a, b) for a, b in zip(*draws))
    assert_same_run(*runs)
    assert sum(loads) == runs[0].iterations and max(loads) == min(block, cfg.update_freq)
    if max_passes == 2.9:
        assert loads[-1] < block


def preconditioned_run(runner, oracle):
    """A SketchySGD or staged run on ``oracle`` with a few refreshes."""
    base = dict(rank=6, hess_batch_size=20, grad_batch_size=32, update_freq=10, max_passes=5.0,
                seed=26)
    if runner == "staged":
        return sketchysgd_theoretical_run(
            oracle, OptimizerConfig(mode="theoretical", learning_rate=AUTO, stage_length=4, **base))
    return sketchysgd_run(oracle, OptimizerConfig(**base), eval_every=0.5)


@pytest.mark.parametrize("runner", ["sketchysgd", "staged"])
def test_a_factored_run_forms_no_product_of_its_rows_with_the_basis(monkeypatch, runner):
    oracle, _cfg, _w = sketch_problem()
    products = []
    matmul = sp.csr_matrix.__matmul__

    def counting(self, other):
        if np.ndim(other) == 2 and np.shape(other)[0] == oracle.p:
            products.append(np.shape(other))
        return matmul(self, other)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
    res = preconditioned_run(runner, oracle)
    assert res.precond_updates >= 3
    assert products == []


@pytest.mark.parametrize("runner", ["sketchysgd", "staged"])
def test_a_factored_iterate_keeps_no_p_row_block(monkeypatch, runner):
    oracle, _cfg, _w = sketch_problem()
    states = []
    load = optimizers._FactoredIterate.load
    monkeypatch.setattr(optimizers._FactoredIterate, "load",
                        lambda self, batches: states.append(self) or load(self, batches))
    res = preconditioned_run(runner, oracle)
    assert len({id(state) for state in states}) == res.precond_updates >= 3
    for state in states:
        assert state.support.size < oracle.p
        for value in vars(state).values():
            assert not (isinstance(value, np.ndarray) and value.ndim == 2
                        and value.shape[0] >= oracle.p and value.shape[1] > 0)


@pytest.mark.parametrize("runner", ["sketchysgd", "staged"])
@pytest.mark.parametrize("learning_rate", [None, 0.005])
def test_factored_step_after_the_all_p_fallback_matches_materialized_step(monkeypatch, runner,
                                                                          learning_rate):
    # two Hessian rows of at most six entries each: every sketch takes all p columns
    oracle, _cfg, _w = sketch_problem()
    shapes = record_test_matrices(monkeypatch)
    if runner == "staged":
        learning_rate = AUTO if learning_rate is None else learning_rate
        config = OptimizerConfig(mode="theoretical", rank=20, hess_batch_size=2, grad_batch_size=32,
                                 update_freq=10, stage_length=4, learning_rate=learning_rate,
                                 max_passes=3.0, seed=27)
    else:
        config = OptimizerConfig(rank=20, hess_batch_size=2, grad_batch_size=32, update_freq=10,
                                 learning_rate=learning_rate, max_passes=3.0, seed=27)
    factored, dense = run_both(oracle, config, monkeypatch, runner=runner)
    assert factored.precond_updates >= 3
    assert set(shapes) == {(oracle.p, 20)}
    assert_same_run(factored, dense)


@pytest.mark.parametrize("task, l2", [("logistic", 1e-2), ("ridge", 0.0)])
@pytest.mark.parametrize("learning_rate", [None, 0.02])
@pytest.mark.parametrize("block_rows", [None, 128])
@pytest.mark.parametrize("ending", ["snapshot", "mid-block", "budget"])
def test_factored_svrg_matches_materialized_svrg(monkeypatch, task, l2, learning_rate, block_rows,
                                                 ending):
    # n = 400 and b = 32: an epoch of 13 steps, cut into blocks of 4, 4, 4
    # and 1 steps when a block holds 128 rows, and into one otherwise
    oracle = csr_oracle(task, l2)
    if block_rows is not None:
        monkeypatch.setattr(optimizers, "_BLOCK_ROWS", block_rows)
    n, bg, epoch = oracle.n, 32, 13
    max_passes = {
        "snapshot": (3 * n + 2 * epoch * bg) / n,   # the third snapshot spends the budget
        "mid-block": (3 * n + (2 * epoch + 6) * bg) / n,  # the 32nd step ends it
        "budget": 8.0,
    }[ending]
    config = OptimizerConfig(grad_batch_size=bg, learning_rate=learning_rate,
                             max_passes=max_passes, seed=3)
    factored, dense = run_both(oracle, config, monkeypatch, runner="svrg")
    if ending == "snapshot":
        assert (factored.snapshots, factored.iterations) == (3, 2 * epoch)
    elif ending == "mid-block":
        assert (factored.snapshots, factored.iterations) == (3, 2 * epoch + 6)
    assert factored.records[-1].train_loss < factored.records[0].train_loss
    assert_same_run(factored, dense)


@pytest.mark.parametrize("decay", [0.9, 1.0, 1.5])
def test_factored_svrg_rebases_when_the_scale_collapses(monkeypatch, decay):
    # eta * l2 = decay, as for the preconditioned step with rho = 1
    oracle = csr_oracle("logistic", 0.05, seed=4)
    config = OptimizerConfig(grad_batch_size=40, learning_rate=decay / oracle.l2, max_passes=6.0,
                             seed=5)
    factored, dense = run_both(oracle, config, monkeypatch, runner="svrg")
    assert factored.snapshots >= 2 and np.isfinite(factored.w).all()
    assert_same_run(factored, dense)


@pytest.mark.parametrize("task, l2", [("logistic", 1e-2), ("ridge", 0.0)])
def test_factored_full_batch_svrg_reduces_to_gradient_descent(task, l2):
    # grad_batch_size = n: every step follows a snapshot
    oracle = csr_oracle(task, l2, n=60, p=12, seed=9)
    eta = 0.1
    res = svrg_run(oracle, learning_rate=eta, grad_batch_size=60, max_passes=12.0, seed=2)
    assert res.snapshots == res.iterations >= 5
    w = np.zeros(oracle.p)
    full = np.arange(oracle.n)
    for _ in range(res.iterations):
        w = w - eta * oracle.minibatch_gradient(w, full)
    np.testing.assert_allclose(res.w, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def test_factored_svrg_iterate_does_not_depend_on_eval_every():
    oracle = csr_oracle("logistic", 1e-3, seed=6)
    runs = [svrg_run(oracle, grad_batch_size=20, max_passes=6.0, seed=7, eval_every=e)
            for e in (0.05, 0.5, 10.0)]
    assert runs[0].snapshots >= 2
    assert len(runs[0].records) > len(runs[1].records) > len(runs[2].records)
    for run in runs[1:]:
        np.testing.assert_array_equal(run.w, runs[0].w)
        assert run.records[-1].train_loss == runs[0].records[-1].train_loss


def test_divergence_detection_on_the_factored_svrg_path(monkeypatch):
    oracle = csr_oracle("ridge", 0.0, seed=8)
    gradients = []
    gradient = ProblemOracle.minibatch_gradient
    monkeypatch.setattr(ProblemOracle, "minibatch_gradient", lambda self, w, batch:
                        gradients.append(batch.size) or gradient(self, w, batch))
    with pytest.raises(DivergenceError) as exc:
        svrg_run(oracle, learning_rate=1e8, grad_batch_size=40, max_passes=200.0, seed=9,
                 eval_every=1e9)
    assert 1 <= exc.value.iteration < 2000
    assert set(gradients) == {oracle.n}  # only the snapshots build a gradient
    assert len(exc.value.records) == 1  # the record at w0 survives for partial output


@pytest.mark.parametrize("factored", [True, False])
def test_an_overflow_in_the_svrg_drift_is_caught_at_its_step(factored):
    # Two equal rows with one entry of 1e150 and label -1, at w0 = 0: the
    # snapshot's full gradient mu and the drift d are 1e150 and X d is
    # finite, but the first step's -eta * mu overflows.  The materialized
    # loop checks w after the step; the factored one builds w at the next
    # snapshot and checks it before taking a gradient there.
    feats = sp.csr_matrix(np.full((2, 1), 1e150))
    oracle = ProblemOracle(Dataset(feats, np.array([-1.0, -1.0])), "ridge", 0.0)
    cfg = resolve_baseline_config(
        OptimizerConfig(learning_rate=1e160, grad_batch_size=2, max_passes=10.0), oracle)
    with pytest.raises(DivergenceError) as exc:
        optimizers._drive(oracle, cfg, None, 1e9, None, svrg=True, factor_sparse_steps=factored)
    assert exc.value.iteration == 1
    assert len(exc.value.records) == 1


def test_factored_svrg_refuses_a_nystrom_preconditioner():
    # its drift is kept for P = I; a preconditioned SVRG on CSR data must
    # take the materialized step until the drift applies P^-1
    oracle = csr_oracle("logistic", 1e-2)
    cfg = resolve_config(OptimizerConfig(rank=3, learning_rate=0.01, max_passes=3.0), oracle)
    with pytest.raises(NotImplementedError):
        optimizers._drive(oracle, cfg, None, 1.0, None, precondition=True, svrg=True)
    res = optimizers._drive(oracle, cfg, None, 1.0, None, precondition=True, svrg=True,
                            factor_sparse_steps=False)
    assert res.snapshots >= 1 and np.isfinite(res.w).all()


def split_csr_logistic():
    """A CSR logistic problem and its held-out test split."""
    full = csr_oracle("logistic", 1e-2, n=500)
    train, test = split(full.data, 0.8, seed=3)
    return ProblemOracle(train, "logistic", 1e-2), test


def run_each(runner, oracle, test):
    if runner == "sketchysgd":
        return sketchysgd_run(oracle, OptimizerConfig(rank=4, max_passes=4.0), test_data=test,
                              eval_every=0.5)
    if runner == "staged":
        return sketchysgd_theoretical_run(
            oracle, OptimizerConfig(rank=4, mode="theoretical", learning_rate=AUTO,
                                    stage_length=3, max_passes=4.0), test_data=test)
    run = sgd_run if runner == "sgd" else svrg_run
    return run(oracle, grad_batch_size=32, max_passes=4.0, test_data=test, eval_every=0.5)


RUNNER_NAMES = ("sketchysgd", "staged", "sgd", "svrg")


@pytest.mark.parametrize("runner", RUNNER_NAMES)
def test_a_record_forms_one_margin_product_per_split(monkeypatch, runner):
    oracle, test = split_csr_logistic()
    products = {id(oracle.data.features): 0, id(test.features): 0}
    matmul = sp.csr_matrix.__matmul__

    def counting(self, other):
        if id(self) in products and np.ndim(other) == 1:
            products[id(self)] += 1
        return matmul(self, other)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
    res = run_each(runner, oracle, test)
    records = len(res.records)
    assert records >= 3 and all(r.test_acc is not None for r in res.records)
    # an SVRG snapshot forms the full-data product for its gradient too
    assert products[id(oracle.data.features)] == records + (res.snapshots if runner == "svrg" else 0)
    assert products[id(test.features)] == records


def old_full_loss(self, w, margins=None):
    z = np.asarray(self.data.features @ w).ravel()
    base = float(np.logaddexp(0.0, -self.data.labels * z).sum()) / self.n
    return base + 0.5 * self.l2 * float(w @ w)


def old_mean_sample_loss(self, w, margins=None):
    z = np.asarray(self.data.features @ w).ravel()
    return float(np.logaddexp(0.0, -self.data.labels * z).sum()) / self.n


def old_accuracy(self, w, margins=None):
    pred = np.where(np.asarray(self.data.features @ w).ravel() >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == self.data.labels))


@pytest.mark.parametrize("runner", RUNNER_NAMES)
def test_shared_margins_keep_runs_equal_to_the_old_metrics(monkeypatch, runner):
    oracle, test = split_csr_logistic()
    res = run_each(runner, oracle, test)
    with monkeypatch.context() as patch:
        for name, old in (("full_loss", old_full_loss), ("mean_sample_loss", old_mean_sample_loss),
                          ("accuracy", old_accuracy)):
            patch.setattr(ProblemOracle, name, old)
        ref = run_each(runner, oracle, test)
    np.testing.assert_array_equal(res.w, ref.w)
    assert [getattr(res, c) for c in COUNTERS] == [getattr(ref, c) for c in COUNTERS]
    assert [r.passes for r in res.records] == [r.passes for r in ref.records]
    assert [(r.train_acc, r.test_acc) for r in res.records] == [
        (r.train_acc, r.test_acc) for r in ref.records]
    for a, b in zip(res.records, ref.records):
        assert a.train_loss == pytest.approx(b.train_loss, rel=1e-15, abs=0.0)
        assert a.test_loss == pytest.approx(b.test_loss, rel=1e-15, abs=0.0)
