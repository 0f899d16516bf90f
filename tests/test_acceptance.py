"""Acceptance suite: the package's numbered end-to-end correctness gates.

Covers preconditioner algebra, sketch invariants, the learning-rate
estimator, certificate inequalities, oracle exactness, the ill-conditioned
head-to-head benchmark, reproducibility, and exact pass accounting, each at
a fixed tolerance.  Every test prints one ``PASS criterion N`` line on
success (run with ``-s`` to see them); a failed assertion marks that
criterion red.  Criterion 12 needs the E2006-tfidf libsvm file and is
skipped (not failed) when the file is absent.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sketchysgd.cli import main as cli_main
from sketchysgd.data import Dataset, condition_lower_bound, load_libsvm, normalize_rows, save_libsvm
from sketchysgd.diagnostics import (
    _inv_sqrt_psd,
    dissimilarity_upper_bound,
    rho_dissimilarity,
    sandwich_check,
)
from sketchysgd.linalg import eigh_small, make_rng
from sketchysgd.nystrom import (
    NystromApprox,
    precond_inv_sqrt,
    precond_solve,
    rand_nys_approx,
)
from sketchysgd.optimizers import (
    OptimizerConfig,
    sgd_run,
    sketchysgd_run,
    sketchysgd_theoretical_run,
    svrg_run,
)
from sketchysgd.oracles import ProblemOracle, sample_batch
from sketchysgd.synthetic import gaussian_dataset, planted_least_squares

from reference import minibatch_loss, nystrom_apply, preconditioned_top_eigenvalue


def _line(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}")


def random_nystrom(p, rank, seed):
    rng = make_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, rank)))
    eigs = np.sort(rng.uniform(0.0, 2.0, size=rank))[::-1]
    return NystromApprox(q, eigs)


def full_batch_sketch(oracle, w, rank, seed):
    full = np.arange(oracle.n)
    return rand_nys_approx(
        lambda v: oracle.minibatch_hvp(w, full, v), oracle.p, rank, make_rng(seed), batch=full
    )


def test_criterion_1_smw_correctness():
    start = time.perf_counter()
    p = 150
    combos = [(r, rho) for r in (1, 5, 10, 25) for rho in (1e-4, 1e-1, 1.0)]
    count = 0
    worst_solve = worst_sqrt = 0.0
    while count < 100:
        r, rho = combos[count % len(combos)]
        nys = random_nystrom(p, r, seed=1000 + count)
        v = make_rng(2000 + count).standard_normal(p)
        dense = nys.matrix() + rho * np.eye(p)
        want = np.linalg.solve(dense, v)
        got = precond_solve(nys, rho, v)
        worst_solve = max(worst_solve, np.linalg.norm(got - want) / np.linalg.norm(want))
        twice = precond_inv_sqrt(nys, rho, precond_inv_sqrt(nys, rho, v))
        worst_sqrt = max(worst_sqrt, np.linalg.norm(twice - got) / np.linalg.norm(got))
        count += 1
    elapsed = time.perf_counter() - start
    assert worst_solve <= 1e-10
    assert worst_sqrt <= 1e-10
    assert elapsed < 5.0
    _line(1, f"100 instances, solve err {worst_solve:.2e}, sqrt-compose err {worst_sqrt:.2e}, {elapsed:.2f}s")


def test_criterion_2_nystrom_invariants():
    start = time.perf_counter()
    rng = make_rng(7)
    worst_resid = 0.0
    worst_exact = 0.0
    for i in range(50):
        p = int(rng.integers(40, 301))
        exact_case = i % 2 == 0
        seed = 3000 + i
        gen = make_rng(seed)
        if exact_case:
            r = int(rng.integers(2, 12))
            g = gen.standard_normal((p, r))
            h = g @ g.T / r
            rank = r
        else:
            g = gen.standard_normal((p, p))
            h = g @ g.T / p
            rank = int(rng.integers(2, 20))
        nys = rand_nys_approx(lambda v: h @ v, p, rank, make_rng(seed + 1))
        top = eigh_small(h)[0][-1]
        resid = h - nys.matrix()
        lam_min = eigh_small(0.5 * (resid + resid.T))[0][0]
        worst_resid = max(worst_resid, -lam_min / top)
        if exact_case:
            err = np.linalg.norm(resid, 2) / top
            worst_exact = max(worst_exact, err)
    elapsed = time.perf_counter() - start
    assert worst_resid <= 1e-8
    assert worst_exact <= 1e-6
    assert elapsed < 30.0
    _line(2, f"50 instances, residual PSD slack {worst_resid:.2e}, exact-rank err {worst_exact:.2e}, {elapsed:.1f}s")


def test_criterion_3_learning_rate_estimator():
    # gapped instances: sketch rank 5 leaves lambda_6/lambda_7 = 2 as the
    # dominant/second preconditioned eigenvalue pair
    p, rho = 100, 1e-3
    eigs = np.concatenate([
        np.array([1.0, 0.6, 0.36, 0.2, 0.1, 0.02, 0.01]), np.full(p - 7, 1e-3)
    ])
    worst = 0.0
    gaps = []
    for seed in range(50):
        ds, _ = planted_least_squares(250, p, condition=1e3, seed=seed, eigenvalues=eigs)
        oracle = ProblemOracle(ds, "ridge", 0.0)
        w = np.zeros(p)
        nys = full_batch_sketch(oracle, w, rank=5, seed=5000 + seed)
        pis = _inv_sqrt_psd(nys.matrix() + rho * np.eye(p))
        h = oracle.hessian_matrix(w)
        conj = pis @ h @ pis
        dense = eigh_small(0.5 * (conj + conj.T))[0]
        gap = dense[-1] / dense[-2]
        gaps.append(gap)
        assert gap >= 1.1
        full = np.arange(oracle.n)
        lam = preconditioned_top_eigenvalue(
            lambda v: oracle.minibatch_hvp(w, full, v), nys, rho, 10, make_rng(6000 + seed)
        )
        worst = max(worst, abs(lam - dense[-1]) / dense[-1])
    assert worst <= 0.05
    # synthetic operator equal to the preconditioner: the estimate is exact
    nys = random_nystrom(40, 6, seed=1)
    op = lambda v: nystrom_apply(nys, v) + 0.05 * v
    lam = preconditioned_top_eigenvalue(op, nys, 0.05, 10, make_rng(2))
    eta = 0.5 / lam
    assert abs(eta - 0.5) <= 1e-10
    _line(3, f"50 gapped instances (min gap {min(gaps):.2f}), max rel err {worst:.3%}; synthetic eta exact")


def test_criterion_4_sandwich_certificates():
    rng = make_rng(11)
    worst_low = worst_high = worst_kappa = 0.0
    for i in range(50):
        p = int(rng.integers(15, 50))
        n = int(rng.integers(2 * p, 150))
        knee = int(rng.integers(2, 6))
        cond = float(rng.uniform(50, 5e3))
        head = np.geomspace(1.0, 10.0 / cond, knee)
        tail = np.full(p - knee, 1.0 / cond)
        ds, _ = planted_least_squares(n, p, condition=cond, seed=7000 + i,
                                      eigenvalues=np.concatenate([head, tail]))
        oracle = ProblemOracle(ds, "ridge", 0.0)
        rho = float(rng.uniform(1e-4, 1e-2))
        rank = int(rng.integers(2, 12))
        w = np.zeros(p)
        nys = full_batch_sketch(oracle, w, rank, seed=8000 + i)
        report = sandwich_check(oracle, w, nys, rho)
        worst_low = max(worst_low, 1.0 - report.lambda_min_sandwich)
        worst_high = max(worst_high, report.lambda_max_sandwich - report.sandwich_upper)
        worst_kappa = max(worst_kappa, report.kappa_precond / report.kappa_certificate - 1.0)
    assert worst_low <= 1e-8
    assert worst_high <= 1e-8
    assert worst_kappa <= 1e-8
    _line(4, f"50 instances: min-side slack {worst_low:.2e}, max-side slack {worst_high:.2e}, "
             f"kappa within certificate by {worst_kappa:.2e}")


def test_criterion_5_dissimilarity_inequality():
    rng = make_rng(13)
    violations = 0
    min_tau = np.inf
    for i in range(200):
        task = "ridge" if i % 2 == 0 else "logistic"
        n = int(rng.integers(20, 501))
        p = int(rng.integers(5, 51))
        l2 = 0.0 if i % 4 < 2 else 1e-2 / n
        rho = float(10.0 ** rng.uniform(-6, 0))
        ds = gaussian_dataset(n, p, task, seed=9000 + i, scale=float(rng.uniform(0.5, 3.0)))
        oracle = ProblemOracle(ds, task, l2)
        w = make_rng(9500 + i).standard_normal(p) * 0.7
        tau = rho_dissimilarity(oracle, w, rho)
        bound = dissimilarity_upper_bound(oracle, w, rho)
        min_tau = min(min_tau, tau)
        if tau > bound * (1 + 1e-10) or tau < 1.0 - 1e-10:
            violations += 1
    assert violations == 0
    assert min_tau >= 1.0 - 1e-10
    _line(5, f"200 instances, zero violations, min tau {min_tau:.12f}")


def test_criterion_6_oracle_checks():
    rng = make_rng(17)
    worst_fd = 0.0
    for i in range(100):
        task = "ridge" if i % 2 == 0 else "logistic"
        n = int(rng.integers(10, 120))
        p = int(rng.integers(3, 40))
        oracle = ProblemOracle(
            gaussian_dataset(n, p, task, seed=11000 + i), task, float(rng.uniform(0, 0.1))
        )
        local = make_rng(12000 + i)
        w = local.standard_normal(p)
        batch = sample_batch(local, n, int(local.integers(1, n + 1)))
        u = local.standard_normal(p)
        u /= np.linalg.norm(u)
        h = 1e-6 * (1.0 + np.linalg.norm(w))
        fd = (minibatch_loss(oracle, w + h * u, batch) - minibatch_loss(oracle, w - h * u, batch)) / (2 * h)
        grad_dir = float(oracle.minibatch_gradient(w, batch) @ u)
        worst_fd = max(worst_fd, abs(fd - grad_dir) / max(abs(fd), 1e-12))
    assert worst_fd <= 1e-6

    worst_hvp = 0.0
    for i in range(20):
        task = "ridge" if i % 2 == 0 else "logistic"
        p = int(rng.integers(20, 201))
        n = int(rng.integers(p // 2 + 2, 300))
        oracle = ProblemOracle(gaussian_dataset(n, p, task, seed=13000 + i), task, 0.0)
        local = make_rng(14000 + i)
        w = local.standard_normal(p)
        batch = sample_batch(local, n, int(local.integers(1, n + 1)))
        v = local.standard_normal(p)
        dense = oracle.hessian_matrix(w, batch)
        got = oracle.minibatch_hvp(w, batch, v)
        want = dense @ v
        denom = max(np.linalg.norm(want), 1e-12)
        worst_hvp = max(worst_hvp, np.linalg.norm(got - want) / denom)
    assert worst_hvp <= 1e-10
    _line(6, f"100 gradient FD checks (max {worst_fd:.2e}), 20 dense HVP checks (max {worst_hvp:.2e})")


def _benchmark_instance(seed):
    ds, w_star = planted_least_squares(2000, 100, condition=1e4, seed=seed)
    return ProblemOracle(ds, "ridge", 0.0), w_star


def test_criterion_7_ill_conditioned_head_to_head():
    start = time.perf_counter()
    sketchy_final = []
    sgd_final = []
    for seed in range(10):
        oracle, _ = _benchmark_instance(seed)
        res = sketchysgd_run(oracle, OptimizerConfig(seed=seed, max_passes=40.0))
        sketchy_final.append(res.records[-1].train_loss)
        res_sgd = sgd_run(oracle, max_passes=40.0, seed=seed)
        sgd_final.append(res_sgd.records[-1].train_loss)
    elapsed = time.perf_counter() - start
    sketchy_final = np.array(sketchy_final)
    sgd_final = np.array(sgd_final)
    hits = int(np.sum(sketchy_final <= 1e-6))
    assert hits >= 9
    assert np.all(sgd_final >= 100.0 * sketchy_final)
    assert elapsed < 120.0
    _line(7, f"{hits}/10 seeds below 1e-6 (worst {sketchy_final.max():.2e}); "
             f"SGD/SketchySGD ratio min {np.min(sgd_final / sketchy_final):.1f}; {elapsed:.1f}s")


def test_criterion_8_interpolation_linear_convergence():
    # fixed step 1/(4 L_hat) in preconditioned space, stage length = one pass
    logs = []
    for seed in range(10):
        oracle, _ = _benchmark_instance(seed)
        cfg = OptimizerConfig(
            seed=seed, mode="theoretical", learning_rate="auto", lr_scale=0.25,
            stage_length="auto", max_passes=40.0,
        )
        res = sketchysgd_theoretical_run(oracle, cfg)
        logs.append(np.log([r.train_loss for r in res.records]))
    length = min(len(l) for l in logs)
    median = np.median(np.array([l[:length] for l in logs]), axis=0)
    steps = np.diff(median)
    geo_rate = float(np.exp(steps.mean()))
    assert np.all(steps < 0.0)
    assert geo_rate <= 0.9
    _line(8, f"median stage losses decrease over {length - 1} stages, geometric rate {geo_rate:.3f}")


def test_criterion_9_preconditioned_space_equivalence():
    rng = make_rng(19)
    worst = 0.0
    for trial in range(20):
        p = int(rng.integers(10, 101))
        n = int(rng.integers(p, 300))
        task = "ridge" if trial % 2 == 0 else "logistic"
        oracle = ProblemOracle(gaussian_dataset(n, p, task, seed=15000 + trial), task, 1e-3)
        w = make_rng(16000 + trial).standard_normal(p)
        local = make_rng(17000 + trial)
        batch = sample_batch(local, n, int(local.integers(1, n + 1)))
        rho = float(10.0 ** local.uniform(-3, 0))
        hess_batch = sample_batch(local, n, max(2, n // 3))
        nys = rand_nys_approx(
            lambda v: oracle.minibatch_hvp(w, hess_batch, v), p, min(5, p), make_rng(trial)
        )
        eta = float(local.uniform(0.1, 1.0))
        g = oracle.minibatch_gradient(w, batch)
        direct = w - eta * precond_solve(nys, rho, g)
        vals, vecs = eigh_small(nys.matrix() + rho * np.eye(p))
        root = (vecs * np.sqrt(vals)) @ vecs.T
        inv_root = (vecs / np.sqrt(vals)) @ vecs.T
        mapped = inv_root @ ((root @ w) - eta * (inv_root @ g))
        worst = max(worst, np.linalg.norm(direct - mapped) / (1.0 + np.linalg.norm(direct)))
    assert worst <= 1e-8
    _line(9, f"20 random (w, batch, rho) triples, max deviation {worst:.2e}")


def test_criterion_10_condition_lower_bound():
    eigs = np.geomspace(1.0, 1e-5, 100)
    l2 = 1e-4
    ds, _ = planted_least_squares(300, 100, condition=1e5, seed=23, eigenvalues=eigs)
    worst = 0.0
    for r in (5, 20, 100):
        want = (eigs[0] + l2) / (eigs[r - 1] + l2)
        got = condition_lower_bound(ds, l2, r=r)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-6

    rng = make_rng(29)
    a = rng.standard_normal((400, 120))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    bound = condition_lower_bound(Dataset(a, np.zeros(400)), 0.0, r=100)
    assert bound >= 1.0
    _line(10, f"planted spectra reproduced to {worst:.2e}; unit-row bound {bound:.2f} >= 1")


def test_criterion_11_reproducibility_and_accounting(tmp_path):
    ds, _ = planted_least_squares(300, 20, condition=1e3, seed=31)
    save_libsvm(ds, tmp_path / "train.svm")
    config = {
        "dataset": {"path": "train.svm"},
        "task": "ridge",
        "l2": 0.0,
        "optimizers": [{"name": "sketchysgd"}, {"name": "svrg"}],
        "seeds": [0, 1],
        "max_passes": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("sketchysgd_seed0.csv", "sketchysgd_seed1.csv", "svrg_seed0.csv", "svrg_seed1.csv"):
        rows_a = (tmp_path / "a" / name).read_text().splitlines()
        rows_b = (tmp_path / "b" / name).read_text().splitlines()
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            ca, cb = ra.split(","), rb.split(",")
            assert ca[0] == cb[0] and ca[2:] == cb[2:]

    oracle = ProblemOracle(ds, "ridge", 0.0)
    cfg = OptimizerConfig(rank=4, grad_batch_size=32, hess_batch_size=17, power_iters=6,
                          update_freq=9, max_passes=6.0, seed=1)
    res = sketchysgd_run(oracle, cfg)
    expected = 32 * res.iterations + res.precond_updates * (4 + 6) * 17
    assert res.samples_touched == expected
    assert res.passes == expected / 300
    res_svrg = svrg_run(oracle, learning_rate=0.05, grad_batch_size=32, max_passes=6.0, seed=1)
    expected_svrg = 32 * res_svrg.iterations + res_svrg.snapshots * 300
    assert res_svrg.samples_touched == expected_svrg
    assert res_svrg.passes == expected_svrg / 300
    _line(11, "byte-identical CSVs modulo wall_seconds; pass totals match the analytic formula exactly")


E2006_PATH = os.environ.get("SKETCHYSGD_E2006_PATH", "data/E2006.train")


@pytest.mark.skipif(not Path(E2006_PATH).exists(), reason="E2006-tfidf file not provided")
def test_criterion_12_e2006_head_to_head():
    ds = normalize_rows(load_libsvm(E2006_PATH))
    oracle = ProblemOracle(ds, "ridge", 1e-2 / ds.n)
    res = sketchysgd_run(oracle, OptimizerConfig(seed=0, max_passes=40.0))
    res_sgd = sgd_run(oracle, max_passes=40.0, seed=0)
    res_svrg = svrg_run(oracle, max_passes=40.0, seed=0)
    final = res.records[-1].train_loss
    assert final < res_sgd.records[-1].train_loss
    assert final < res_svrg.records[-1].train_loss
    _line(12, f"E2006: {final:.4e} < sgd {res_sgd.records[-1].train_loss:.4e}, "
              f"svrg {res_svrg.records[-1].train_loss:.4e}")
