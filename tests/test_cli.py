import hashlib
import itertools
import json
import math
import platform
import re
from dataclasses import fields

import numpy as np
import pytest
import scipy

from sketchysgd import cli
from sketchysgd.cli import file_sha256, main, records_to_csv, validate_config
from sketchysgd.data import load_libsvm, save_libsvm, split
from sketchysgd.nystrom import SketchNotPsdError
from sketchysgd.optimizers import (
    AUTO,
    BASELINE_FIELDS,
    LearningRateError,
    MetricsRecord,
    OptimizerConfig,
    resolve_baseline_config,
    resolve_config,
)
from sketchysgd.synthetic import gaussian_dataset, planted_least_squares


@pytest.fixture
def workspace(tmp_path):
    ds, _ = planted_least_squares(300, 20, condition=1e3, seed=0)
    data_path = tmp_path / "train.svm"
    save_libsvm(ds, data_path)
    config = {
        "dataset": {"path": "train.svm"},
        "task": "ridge",
        "l2": 0.0,
        "optimizers": [{"name": "sketchysgd"}, {"name": "sgd"}],
        "seeds": [0, 1, 2],
        "max_passes": 4,
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path, config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_run_produces_one_csv_per_job_plus_manifest(workspace):
    tmp_path, cfg_path, _ = workspace
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    csvs = sorted(f.name for f in out.glob("*.csv"))
    assert csvs == [
        "sgd_seed0.csv", "sgd_seed1.csv", "sgd_seed2.csv",
        "sketchysgd_seed0.csv", "sketchysgd_seed1.csv", "sketchysgd_seed2.csv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_sha256"]
    assert len(manifest["jobs"]) == 6
    assert all(job["status"] == "ok" for job in manifest["jobs"])
    resolved = manifest["jobs"][0]["resolved"]
    assert resolved["rho"] > 0 and resolved["update_freq"] == "inf"


def test_manifest_records_digest_versions_and_threads(workspace, monkeypatch):
    tmp_path, cfg_path, _ = workspace
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["run", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    want = hashlib.sha256((tmp_path / "train.svm").read_bytes()).hexdigest()
    assert manifest["dataset_sha256"] == want
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert set(env["threads"]) >= {"OMP_NUM_THREADS", "SKETCHYSGD_NUM_THREADS"}
    builds = np.show_config(mode="dicts")["Build Dependencies"]
    for lib in ("blas", "lapack"):
        assert env[lib]["name"] == builds[lib]["name"]
        assert env[lib]["version"] == builds[lib]["version"]
        assert env[lib].get("openblas configuration") == builds[lib].get("openblas configuration")


@pytest.mark.parametrize("size", [0, 5, (1 << 20) - 1, 1 << 20, (5 << 19) + 3])
def test_file_sha256_matches_hashlib(tmp_path, size):
    path = tmp_path / "blob"
    payload = np.random.default_rng(size).bytes(size)
    path.write_bytes(payload)
    assert file_sha256(path) == hashlib.sha256(payload).hexdigest()


def test_run_is_deterministic_apart_from_wall_clock(workspace, tmp_path):
    _, cfg_path, config = workspace
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("sketchysgd_seed0.csv", "sgd_seed2.csv"):
        rows_a = (tmp_path / "a" / name).read_text().splitlines()
        rows_b = (tmp_path / "b" / name).read_text().splitlines()
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            ca, cb = ra.split(","), rb.split(",")
            assert ca[:1] == cb[:1] and ca[2:] == cb[2:]  # all but wall_seconds


def test_csv_pass_column_strictly_increasing(workspace):
    tmp_path, cfg_path, _ = workspace
    main(["run", str(cfg_path)])
    rows = (tmp_path / "out" / "sketchysgd_seed0.csv").read_text().splitlines()
    passes = [float(r.split(",")[0]) for r in rows[1:]]
    assert all(b > a for a, b in zip(passes, passes[1:]))


def test_validate_ok_prints_resolved_config(workspace, capsys):
    _, cfg_path, _ = workspace
    assert main(["validate", str(cfg_path)]) == 0
    resolved = json.loads(capsys.readouterr().out)
    sketchy = resolved["optimizers"][0]
    assert sketchy["rho"] == pytest.approx(1e-3 * resolved["smoothness_upper_bound"])
    assert sketchy["hess_batch_size"] == 17  # floor(sqrt(300))
    assert resolved["n_train"] == 300


def test_validate_missing_dataset(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "dataset": {"path": "missing.svm"},
            "task": "ridge",
            "optimizers": [{"name": "sgd"}],
            "seeds": [0],
        },
    )
    assert main(["validate", str(cfg)]) == 2
    assert "dataset.path" in capsys.readouterr().err


def test_validate_lists_all_problems(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "dataset": {"path": "missing.svm"},
            "task": "poisson",
            "optimizers": [{"name": "adam"}],
            "seeds": [],
            "bogus": 1,
        },
    )
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    for fragment in ("dataset.path", "task", "optimizers[0]", "seeds", "bogus"):
        assert fragment in err


def test_validate_config_collects_optimizer_problems(tmp_path):
    problems = validate_config(
        {
            "dataset": {"path": "x"},
            "task": "ridge",
            "optimizers": [
                {"name": "sketchysgd", "rank": 0, "nonsense": 1},
                {"name": "sgd", "learning_rate": -2},
                {"name": "sgd"},
            ],
            "seeds": [0],
        },
        tmp_path,
    )
    text = "\n".join(problems)
    assert "rank" in text and "nonsense" in text and "learning_rate" in text
    assert "duplicate labels" in text


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_seed_and_max_passes_overrides(workspace):
    tmp_path, cfg_path, _ = workspace
    out = tmp_path / "override"
    assert main(["run", str(cfg_path), "--seed", "7", "--max-passes", "2",
                 "--output-dir", str(out)]) == 0
    csvs = sorted(f.name for f in out.glob("*.csv"))
    assert csvs == ["sgd_seed7.csv", "sketchysgd_seed7.csv"]
    rows = (out / "sgd_seed7.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) <= 3.0  # budget cut to 2 passes


def test_divergent_job_writes_partial_and_exits_3(workspace, capsys):
    tmp_path, _, config = workspace
    config = dict(config)
    config["optimizers"] = [
        {"name": "sgd", "learning_rate": 1e200},
        {"name": "sketchysgd"},
    ]
    config["output_dir"] = str(tmp_path / "diverge")
    cfg_path = write_config(tmp_path, config, "diverge.json")
    assert main(["run", str(cfg_path)]) == 3
    out = tmp_path / "diverge"
    partials = [f.name for f in out.glob("*.partial")]
    assert partials and all(name.startswith("sgd") for name in partials)
    # the healthy optimizer still completed
    assert (out / "sketchysgd_seed0.csv").exists()
    assert "divergence detected" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {job["file"]: job["status"] for job in manifest["jobs"]}
    assert statuses["sgd_seed0.csv.partial"] == "diverged"
    messages = {job["file"]: job["message"] for job in manifest["jobs"]}
    assert messages["sgd_seed0.csv.partial"].startswith("divergence detected at iteration")
    assert messages["sketchysgd_seed0.csv"] is None


@pytest.mark.parametrize(
    "error", [LearningRateError("learning-rate estimation failed"), SketchNotPsdError("sketch not PSD")]
)
def test_library_runtime_errors_exit_3(workspace, monkeypatch, capsys, error):
    tmp_path, cfg_path, _ = workspace

    def failing_run(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "sketchysgd_run", failing_run)
    assert main(["run", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"runtime error: {error}\n"
    # the other jobs still ran, and the manifest names the failed ones
    out = tmp_path / "out"
    assert sorted(f.name for f in out.glob("*.csv*")) == [f"sgd_seed{s}.csv" for s in range(3)]
    jobs = json.loads((out / "manifest.json").read_text())["jobs"]
    assert [(job["file"], job["status"], job["message"]) for job in jobs] == [
        (None, "failed", str(error))] * 3 + [(f"sgd_seed{s}.csv", "ok", None) for s in range(3)]
    assert [job["passes"] for job in jobs[:3]] == [None] * 3


def test_validate_rejects_fractional_update_freq(workspace, capsys):
    tmp_path, _, config = workspace
    config = dict(config, optimizers=[{"name": "sketchysgd", "update_freq": 1.5}])
    assert main(["validate", str(write_config(tmp_path, config, "frac.json"))]) == 2
    assert "update_freq must be an integer" in capsys.readouterr().err
    for ok in (3, 3.0, "inf", "auto"):
        config = dict(config, optimizers=[{"name": "sketchysgd", "update_freq": ok}])
        assert main(["validate", str(write_config(tmp_path, config, "whole.json"))]) == 0


def test_diagnose_identity_hessian(tmp_path, capsys):
    # planted flat spectrum with a full-rank sketch: preconditioned spectrum is flat
    ds, _ = planted_least_squares(120, 15, condition=2.0, seed=1,
                                  eigenvalues=np.ones(15))
    save_libsvm(ds, tmp_path / "iso.svm")
    config = {
        "dataset": {"path": "iso.svm"},
        "task": "ridge",
        "l2": 0.0,
        "optimizers": [{"name": "sketchysgd", "rank": 15, "hess_batch_size": 120}],
        "seeds": [0],
        "output_dir": str(tmp_path / "diag"),
        "diagnose": {"top_m": 15, "betas": [0.1]},
    }
    cfg_path = write_config(tmp_path, config)
    assert main(["diagnose", str(cfg_path)]) == 0
    summary = json.loads((tmp_path / "diag" / "spectrum_initial.json").read_text())
    assert summary["lambda_max_precond"] == pytest.approx(summary["lambda_min_precond"], rel=1e-4)
    csv_lines = (tmp_path / "diag" / "spectrum_initial.csv").read_text().splitlines()
    assert csv_lines[0] == "index,eig_raw,eig_precond"
    assert len(csv_lines) == 16


def test_diagnose_caps_exit_4(tmp_path, capsys):
    lines = ["1 3000:1.0", "-1 1:0.5"]
    (tmp_path / "wide.svm").write_text("\n".join(lines) + "\n")
    config = {
        "dataset": {"path": "wide.svm"},
        "task": "ridge",
        "optimizers": [{"name": "sketchysgd"}],
        "seeds": [0],
        "output_dir": str(tmp_path / "caps"),
    }
    cfg_path = write_config(tmp_path, config)
    assert main(["diagnose", str(cfg_path)]) == 4
    assert "cap" in capsys.readouterr().err


def test_diagnose_saved_iterate(tmp_path):
    ds, _ = planted_least_squares(150, 10, condition=100.0, seed=2)
    save_libsvm(ds, tmp_path / "d.svm")
    out = tmp_path / "res"
    config = {
        "dataset": {"path": "d.svm"},
        "task": "ridge",
        "l2": 0.0,
        "optimizers": [{"name": "sketchysgd"}],
        "seeds": [0],
        "max_passes": 3,
        "output_dir": str(out),
        "save_iterates": True,
    }
    cfg_path = write_config(tmp_path, config)
    assert main(["run", str(cfg_path)]) == 0
    iterate = out / "sketchysgd_seed0_iterate.npy"
    assert iterate.exists()
    config["diagnose"] = {"iterates": [str(iterate)]}
    cfg_path = write_config(tmp_path, config, "diag.json")
    assert main(["diagnose", str(cfg_path)]) == 0
    assert (out / "spectrum_sketchysgd_seed0_iterate.json").exists()


def test_logistic_pipeline_with_split_and_features(tmp_path):
    ds = gaussian_dataset(200, 12, "logistic", seed=3)
    save_libsvm(ds, tmp_path / "clf.svm")
    config = {
        "dataset": {"path": "clf.svm", "num_features": 12},
        "task": "logistic",
        "preprocessing": [
            {"normalize_rows": {}},
            {"split": {"fraction": 0.8, "seed": 0}},
            {"standardize": {}},
        ],
        "optimizers": [{"name": "svrg"}, {"name": "sketchysgd", "label": "nys"}],
        "seeds": [0],
        "max_passes": 4,
        "output_dir": str(tmp_path / "clf_out"),
    }
    cfg_path = write_config(tmp_path, config)
    assert main(["run", str(cfg_path)]) == 0
    rows = (tmp_path / "clf_out" / "nys_seed0.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header == ["pass", "wall_seconds", "train_loss", "test_loss", "train_acc", "test_acc"]
    last = rows[-1].split(",")
    assert all(cell != "" for cell in last)  # accuracy and test columns populated
    acc = float(last[4])
    assert 0.0 <= acc <= 1.0


def test_records_to_csv_empty_cells_for_ridge():
    rows = [MetricsRecord(0.0, 0.0, 0.5, None, None, None)]
    text = records_to_csv(rows)
    assert text.splitlines()[1] == "0.0,0.0,0.5,,,"


def test_thread_pool_matches_sequential(workspace, tmp_path, monkeypatch):
    _, cfg_path, _ = workspace
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "seq")]) == 0
    monkeypatch.setenv("SKETCHYSGD_NUM_THREADS", "4")
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "par")]) == 0
    for name in ("sketchysgd_seed0.csv", "sgd_seed1.csv"):
        rows_s = (tmp_path / "seq" / name).read_text().splitlines()
        rows_p = (tmp_path / "par" / name).read_text().splitlines()
        for rs, rp in zip(rows_s[1:], rows_p[1:]):
            cs, cp = rs.split(","), rp.split(",")
            assert cs[:1] == cp[:1] and cs[2:] == cp[2:]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "４"])
def test_bad_job_thread_count_exits_2_before_reading_data(workspace, monkeypatch, capsys, command,
                                                          value):
    tmp_path, cfg_path, _ = workspace
    monkeypatch.setenv("SKETCHYSGD_NUM_THREADS", value)
    monkeypatch.setattr(cli, "load_problem", None)  # never reached
    assert main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: SKETCHYSGD_NUM_THREADS must be a positive integer, got {value!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, threads", [("", 1), (" 3 ", 3), ("1", 1)])
def test_job_thread_count_unset_or_empty_means_one(monkeypatch, value, threads):
    monkeypatch.setenv("SKETCHYSGD_NUM_THREADS", value)
    assert cli.job_threads() == threads
    monkeypatch.delenv("SKETCHYSGD_NUM_THREADS")
    assert cli.job_threads() == 1


def test_theoretical_optimizer_and_inf_update_freq(workspace, tmp_path):
    wp, _, config = workspace
    config = dict(config)
    config["optimizers"] = [
        {"name": "sketchysgd-theoretical", "lr_scale": 0.25, "stage_length": 3},
        {"name": "sketchysgd", "update_freq": "inf", "label": "frozen"},
    ]
    config["output_dir"] = str(tmp_path / "theo")
    cfg_path = write_config(wp, config, "theo.json")
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "theo"
    rows = (out / "sketchysgd-theoretical_seed0.csv").read_text().splitlines()
    assert len(rows) > 2  # baseline plus stage-end records
    losses = [float(r.split(",")[2]) for r in rows[1:]]
    assert losses[-1] < losses[0]
    manifest = json.loads((out / "manifest.json").read_text())
    frozen = next(j for j in manifest["jobs"] if j["file"].startswith("frozen"))
    assert frozen["resolved"]["update_freq"] == "inf"
    # the staged runner records at stage ends, so it has no eval_every
    staged = next(j for j in manifest["jobs"] if j["file"].startswith("sketchysgd-theoretical"))
    assert staged["resolved"]["eval_every"] is None
    assert frozen["resolved"]["eval_every"] == 1.0


def test_run_head_to_head_benchmark_from_config(tmp_path):
    # the synthetic quadratic benchmark, driven entirely through the CLI:
    # the preconditioned run ends strictly below SGD on every seed
    ds, _ = planted_least_squares(2000, 100, condition=1e4, seed=0)
    save_libsvm(ds, tmp_path / "bench.svm")
    config = {
        "dataset": {"path": "bench.svm"},
        "task": "ridge",
        "l2": 0.0,
        "optimizers": [{"name": "sketchysgd"}, {"name": "sgd"}],
        "seeds": [0, 1, 2],
        "max_passes": 15,
        "output_dir": str(tmp_path / "bench_out"),
    }
    cfg_path = write_config(tmp_path, config, "bench.json")
    assert main(["run", str(cfg_path)]) == 0

    def final_loss(name, seed):
        rows = (tmp_path / "bench_out" / f"{name}_seed{seed}.csv").read_text().splitlines()
        return float(rows[-1].split(",")[2])

    for seed in (0, 1, 2):
        assert final_loss("sketchysgd", seed) < final_loss("sgd", seed)


@pytest.fixture
def narrow(tmp_path):
    # 50 rows and 5 features: below the default rank and batch sizes
    save_libsvm(gaussian_dataset(50, 5, "ridge", seed=4), tmp_path / "narrow.svm")
    config = {
        "dataset": {"path": "narrow.svm", "num_features": 5},
        "task": "ridge",
        "optimizers": [
            {"name": "sgd", "grad_batch_size": "auto"},
            {"name": "svrg"},
            {"name": "sketchysgd", "rank": "auto"},
            {"name": "sketchysgd-theoretical"},
        ],
        "seeds": [0, 1],
        "max_passes": 2,
        "output_dir": str(tmp_path / "out"),
    }
    return tmp_path, config


def test_auto_settings_resolve_to_fit_the_data(narrow, capsys):
    tmp_path, config = narrow
    cfg_path = write_config(tmp_path, config)
    assert main(["validate", str(cfg_path)]) == 0
    resolved = json.loads(capsys.readouterr().out)["optimizers"]
    assert [job["grad_batch_size"] for job in resolved] == [50, 50, 50, 50]
    assert [job["rank"] for job in resolved[2:]] == [5, 5]
    assert main(["run", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [job["status"] for job in manifest["jobs"]] == ["ok"] * 8
    assert [job["resolved"] for job in manifest["jobs"][::2]] == resolved


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "name, setting, reason",
    [
        ("sketchysgd", {"rank": 10}, "rank 10 must lie in [1, 5]"),
        ("sketchysgd", {"hess_batch_size": 100}, "Hessian batch size 100 must lie in [1, 50]"),
        ("sgd", {"grad_batch_size": 500}, "gradient batch size 500 must lie in [1, 50]"),
        ("svrg", {"grad_batch_size": 51}, "gradient batch size 51 must lie in [1, 50]"),
        ("sketchysgd-theoretical", {"grad_batch_size": 500},
         "gradient batch size 500 must lie in [1, 50]"),
    ],
    ids=["rank", "hess_batch_size", "sgd-grad_batch_size", "svrg-grad_batch_size",
         "theoretical-grad_batch_size"],
)
def test_settings_that_do_not_fit_the_data_exit_2_before_any_job(
    narrow, capsys, command, name, setting, reason
):
    tmp_path, config = narrow
    # a job that would run comes first; nothing may start
    config = dict(config, optimizers=[{"name": "sgd", "label": "first"}, {"name": name, **setting}])
    assert main([command, str(write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err == f"config error: optimizers[1] ({name}): {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["power_iters", "lr_scale"])
def test_validate_rejects_auto_where_nothing_resolves_it(workspace, capsys, key):
    tmp_path, _, config = workspace
    config = dict(config, optimizers=[{"name": "sketchysgd", key: "auto"}])
    assert main(["validate", str(write_config(tmp_path, config, "auto.json"))]) == 2
    err = capsys.readouterr().err
    assert f"optimizers[0]: {key} must be a positive" in err and "'auto'" not in err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("-1 99999999999999999999:1",
         "line 2: feature index 99999999999999999999 exceeds the largest supported index "
         "9223372036854775807"),
        ("-1 1:nan", "line 2: feature value nan is not finite"),
        ("nan 1:1", "line 2: label nan is not finite"),
    ],
    ids=["index-above-int64", "nan-value", "nan-label"],
)
def test_data_errors_exit_2_with_one_line(tmp_path, capsys, command, bad_line, reason):
    (tmp_path / "bad.svm").write_text("1 1:0.5 2:1\n" + bad_line + "\n")
    config = {"dataset": {"path": "bad.svm"}, "task": "logistic", "optimizers": [{"name": "sgd"}],
              "seeds": [0], "output_dir": str(tmp_path / "out")}
    assert main([command, str(write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err == f"config error: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_duplicate_seeds_exit_2(workspace, capsys, command):
    tmp_path, _, config = workspace
    config = dict(config, seeds=[0, 1, 0])
    assert main([command, str(write_config(tmp_path, config, "dup.json"))]) == 2
    assert capsys.readouterr().err == (
        "config error: seeds: duplicate seeds [0]; each seed names its own output files\n"
    )
    assert not (tmp_path / "out").exists()


def bad_labels(tmp_path, config):
    # labels {0, 1, 2} on a logistic task
    rows = "".join(f"{i % 3} 1:{0.1 * i + 0.5} 2:{1 - 0.02 * i}\n" for i in range(40))
    (tmp_path / "labels.svm").write_text(rows)
    return dict(config, dataset={"path": "labels.svm"}, task="logistic",
                optimizers=[{"name": "sgd"}]), [], (
        "config error: dataset: logistic labels must be -1 or +1, found 0.0\n")


def tiny_rho(tmp_path, config):
    return dict(config, optimizers=[{"name": "sketchysgd", "rho": 1e-320}]), [], (
        "config error: optimizers[0] (sketchysgd): rho 1e-320 is too small: "
        "its reciprocal overflows float64\n")


def overflowing_rho(tmp_path, config):
    # the squared row norms overflow, so the smoothness bound and the "auto"
    # rho = 1e-3 L are infinite
    (tmp_path / "huge.svm").write_text("".join(f"{i % 3} 1:{1e200 * (i + 1)}\n" for i in range(40)))
    return dict(config, dataset={"path": "huge.svm"}, optimizers=[{"name": "sketchysgd"}]), [], (
        "config error: optimizers[0] (sketchysgd): rho must be positive and finite, got inf\n")


def output_dir_is_a_file(tmp_path, config):
    (tmp_path / "taken").write_text("keep")
    return config, ["--output-dir", str(tmp_path / "taken")], (
        f"config error: output_dir: {tmp_path / 'taken'} exists and is not a directory\n")


def output_dir_under_a_file(tmp_path, config):
    (tmp_path / "taken").write_text("keep")
    return dict(config, output_dir=str(tmp_path / "taken" / "out")), [], (
        f"config error: output_dir: {tmp_path / 'taken'} exists and is not a directory\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", [bad_labels, tiny_rho, overflowing_rho, output_dir_is_a_file,
                                  output_dir_under_a_file])
def test_data_dependent_mistakes_exit_2_with_one_line(workspace, capsys, command, case):
    tmp_path, _, config = workspace
    config, flags, message = case(tmp_path, config)
    before = sorted(tmp_path.rglob("*"))
    cfg_path = write_config(tmp_path, config, "case.json")
    assert main([command, str(cfg_path), *flags]) == 2
    assert capsys.readouterr().err == message
    assert sorted(tmp_path.rglob("*")) == sorted([*before, cfg_path])
    if (tmp_path / "taken").exists():
        assert (tmp_path / "taken").read_text() == "keep"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_bad_label_in_the_test_split_only_is_a_config_error(tmp_path, capsys, command):
    labels = [1 if i % 2 else -1 for i in range(200)]
    labels[7] = 2
    (tmp_path / "d.svm").write_text("".join(f"{y} 1:{0.01 * i + 0.5}\n" for i, y in enumerate(labels)))
    ds = load_libsvm(tmp_path / "d.svm")
    seed = next(s for s in range(100) if 2.0 in split(ds, 0.5, s)[1].labels)
    config = {"dataset": {"path": "d.svm"}, "task": "logistic", "optimizers": [{"name": "sgd"}],
              "preprocessing": [{"split": {"fraction": 0.5, "seed": seed}}],
              "seeds": [0], "output_dir": str(tmp_path / "out")}
    assert main([command, str(write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err == (
        "config error: dataset: logistic labels must be -1 or +1, found 2.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "setting, flags, reason",
    [
        ({"max_passes": math.inf}, [], "max_passes must be a positive finite number, got inf"),
        ({}, ["--max-passes", "inf"], "max_passes must be a positive finite number, got inf"),
        ({}, ["--max-passes", "0"], "max_passes must be a positive finite number, got 0.0"),
        ({"seeds": [-1]}, [], "seeds: seed must be an integer >= 0, got -1"),
        ({}, ["--seed", "-1"], "seeds: seed must be an integer >= 0, got -1"),
        ({"l2": math.inf}, [], "l2: must be a finite nonnegative number or 'auto'"),
    ],
    ids=["infinite-max_passes", "infinite-max-passes-flag", "zero-max-passes-flag",
         "negative-seed", "negative-seed-flag", "infinite-l2"],
)
def test_bad_run_wide_settings_exit_2_with_one_line(workspace, capsys, command, setting, flags,
                                                    reason):
    tmp_path, _, config = workspace
    cfg_path = write_config(tmp_path, dict(config, **setting), "case.json")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, str(cfg_path), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


HOSTILE = [True, None, "x", "auto", [], 0, -1, 0.5, 3.0, math.inf, math.nan, 1e-320, 1e308]
# the checks that only the loaded data can make
DATA_DEPENDENT = re.compile(r"(rank|gradient batch size|Hessian batch size) \d+ must lie in "
                            r"\[1, \d+\]$|rho .* is too small: its reciprocal overflows float64$")


def test_cli_and_library_agree_on_every_setting(narrow, capsys):
    tmp_path, config = narrow
    oracle = cli.load_problem(config, tmp_path)[0]
    for name in cli.OPTIMIZER_NAMES:
        baseline = name in cli.BASELINES
        keys = BASELINE_FIELDS if baseline else [f.name for f in fields(OptimizerConfig)
                                                 if f.name != "mode"]
        for key, value in itertools.product(keys, HOSTILE):
            where = f"{name}: {key} = {value!r}"
            # max_passes and the seeds are run-wide in a config
            if key == "max_passes":
                case = dict(config, optimizers=[{"name": name}], max_passes=value)
            elif key == "seed":
                case = dict(config, optimizers=[{"name": name}], seeds=[value])
            else:
                case = dict(config, optimizers=[{"name": name, key: value}])
            problems = validate_config(case, tmp_path)
            settings = {key: value}
            if name == "sketchysgd-theoretical":
                settings = {"learning_rate": AUTO, **settings, "mode": "theoretical"}
            resolve = resolve_baseline_config if baseline else resolve_config
            try:
                resolve(OptimizerConfig(**settings), oracle)
                error = None
            except ValueError as exc:
                error = str(exc)
            if problems:
                assert error is not None, where
            else:
                assert error is None or DATA_DEPENDENT.match(error), (where, error)
            code = main(["validate", str(write_config(tmp_path, case))])
            assert code == (2 if problems or error else 0), where
            assert "Traceback" not in capsys.readouterr().err
