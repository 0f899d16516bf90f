import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sketchysgd import cli, optimizers
from sketchysgd.data import save_libsvm
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


def test_benchmark_patch_points_see_the_library_runners():
    tracing = load_tracing()
    ds, _ = planted_least_squares(200, 12, condition=100.0, seed=0)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        optimizers.sketchysgd_run(oracle, OptimizerConfig(max_passes=2.0))
        optimizers.sketchysgd_theoretical_run(
            oracle, OptimizerConfig(mode="theoretical", learning_rate="auto", max_passes=2.0)
        )
        optimizers.sgd_run(oracle, max_passes=2.0)
        optimizers.svrg_run(oracle, max_passes=2.0)
    assert_every_patch_point_called(tracer, tracing.RUNNERS)


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
