import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from sketchysgd import cli, optimizers
from sketchysgd.data import Dataset, save_libsvm
from sketchysgd.optimizers import OptimizerConfig, RunResult
from sketchysgd.oracles import ProblemOracle
from sketchysgd.synthetic import planted_least_squares

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def test_benchmark_checks_accept_right_and_reject_wrong_results():
    # The benchmark's own self-test, run as it is run by hand, so that a
    # package change that breaks one of its output checks fails here.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# The benchmark wraps these names where the package looks them up; a call
# that moves elsewhere would silently read 0 in its per-layer figures.
def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_every_patch_point_called(tracer, runners):
    stats = tracer.stats()
    spans = [
        "oracles.sample_batch", "oracles.eval", "nystrom.precond_solve", "nystrom.precond_inv_sqrt",
        "nystrom.rand_nys_approx", "optimizers.estimate_learning_rate",
        *(f"optimizers.{runner}" for runner in runners),
    ]
    assert [name for name in spans if stats.get(name, {}).get("calls", 0) < 1] == []
    assert [runner for runner, _ in tracer.results] == list(runners)
    assert all(isinstance(result, RunResult) for _, result in tracer.results)


def csr_logistic_oracle(n=300, p=40, seed=0):
    """CSR logistic data with six stored entries per row."""
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, p, size=(n, 6))
    feats = sp.csr_matrix((rng.uniform(0.5, 1.5, cols.size), (np.repeat(np.arange(n), 6),
                                                               cols.ravel())), shape=(n, p))
    feats.sum_duplicates()
    labels = np.where(feats @ rng.standard_normal(p) > 0, 1.0, -1.0)
    return ProblemOracle(Dataset(feats, labels), "logistic", 1e-2 / n)


def assert_library_runners_traced(oracle):
    """Every patch point sees the four runners on ``oracle``, and every SVRG
    snapshot is one traced full gradient, whatever it shares."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        optimizers.sketchysgd_run(oracle, OptimizerConfig(max_passes=2.0))
        optimizers.sketchysgd_theoretical_run(
            oracle, OptimizerConfig(mode="theoretical", learning_rate="auto", max_passes=2.0)
        )
        optimizers.sgd_run(oracle, max_passes=2.0)
        svrg = optimizers.svrg_run(oracle, max_passes=5.0)
    assert_every_patch_point_called(tracer, tracing.RUNNERS)
    # counted inside the SVRG span: when b_g = n the other runners' steps are full too
    runner = next(i for i, span in enumerate(tracer.spans) if span[0] == "optimizers.svrg_run")
    full = [span for span in tracer.spans if span[0] == "oracles.full_gradient"
            and span[3] == runner]
    assert len(full) == svrg.snapshots >= 2


def test_benchmark_patch_points_see_the_library_runners():
    ds, _ = planted_least_squares(200, 12, condition=100.0, seed=0)
    assert_library_runners_traced(ProblemOracle(ds, "ridge", 0.0))


def test_benchmark_patch_points_see_the_library_runners_on_csr_data():
    assert_library_runners_traced(csr_logistic_oracle())


def test_benchmark_patch_points_see_the_cli_jobs(tmp_path):
    tracing = load_tracing()
    ds, _ = planted_least_squares(200, 12, condition=100.0, seed=0)
    save_libsvm(ds, tmp_path / "train.svm")
    config = {
        "dataset": {"path": "train.svm"},
        "task": "ridge",
        "optimizers": [{"name": name} for name in cli.OPTIMIZER_NAMES],
        "seeds": [0],
        "max_passes": 2,
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["run", str(tmp_path / "config.json")]) == 0
    assert_every_patch_point_called(tracer, tracing.RUNNERS)
