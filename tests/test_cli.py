import functools
import gc
import gzip
import hashlib
import itertools
import json
import math
import operator
import platform
import re
import shutil
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

import sketchysgd
from sketchysgd import cli
from sketchysgd import data as data_module
from sketchysgd.cli import file_sha256, main, records_to_csv, validate_config
from sketchysgd.data import FeatureMap, load_libsvm, parse_libsvm, save_libsvm, split
from sketchysgd.nystrom import SketchNotPsdError
from sketchysgd.optimizers import (
    AUTO,
    BASELINE_FIELDS,
    LearningRateError,
    MetricsRecord,
    OptimizerConfig,
    resolve_baseline_config,
    resolve_config,
    sgd_run,
)
from sketchysgd.oracles import ProblemOracle
from sketchysgd.synthetic import gaussian_dataset, planted_least_squares

import reference


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
    assert "OMP_NUM_THREADS" in env["threads"]
    builds = np.show_config(mode="dicts")["Build Dependencies"]
    for lib in ("blas", "lapack"):
        assert env[lib]["name"] == builds[lib]["name"]
        assert env[lib]["version"] == builds[lib]["version"]
        assert env[lib].get("openblas configuration") == builds[lib].get("openblas configuration")


def test_package_version_matches_pyproject():
    # The manifest's package_version is __version__; a release bumps both.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert match is not None and match.group(1) == sketchysgd.__version__


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
                {"name": "svrg", "label": []},
                {"name": "svrg", "label": []},
            ],
            "seeds": [0],
        },
        tmp_path,
    )
    text = "\n".join(problems)
    assert "rank" in text and "nonsense" in text and "learning_rate" in text
    assert "duplicate labels ['sgd']" in text
    assert "optimizers[3]: label must be a string" in text


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


@pytest.mark.parametrize(
    "write, reason",
    [
        (lambda path: np.save(path, np.zeros(7)), "must be a finite float vector of length 10"),
        (lambda path: np.save(path, np.full(10, np.nan)), "must be a finite float vector of length 10"),
        (lambda path: path.write_text("1 1:0.5\n"), "This file contains pickled (object) data."),
    ],
    ids=["wrong-length", "not-finite", "not-an-array"],
)
def test_diagnose_rejects_a_bad_iterate_before_writing(tmp_path, capsys, write, reason):
    ds, _ = planted_least_squares(150, 10, condition=100.0, seed=2)
    save_libsvm(ds, tmp_path / "d.svm")
    write(tmp_path / "w.npy")
    config = {"dataset": {"path": "d.svm"}, "task": "ridge", "optimizers": [{"name": "sketchysgd"}],
              "seeds": [0], "output_dir": str(tmp_path / "res"), "diagnose": {"iterates": ["w.npy"]}}
    assert main(["diagnose", str(write_config(tmp_path, config))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: diagnose.iterates: w.npy: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "res").exists()


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


@pytest.fixture
def zipf_problem(tmp_path, monkeypatch):
    """A benchmark-shaped logistic file and a normalize_rows, split chain; the
    file is read in blocks whose working set is small beside its data."""
    monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", 1 << 14)
    (tmp_path / "zipf.svm").write_text(reference.zipf_libsvm_text(20000, 20000, 10, seed=9))
    config = {"dataset": {"path": "zipf.svm"}, "task": "logistic", "optimizers": [{"name": "sgd"}],
              "preprocessing": [{"normalize_rows": {}}, {"split": {"fraction": 0.8, "seed": 0}}]}
    return tmp_path, config


def test_load_problem_holds_about_twice_its_result(zipf_problem):
    tmp_path, config = zipf_problem
    (oracle, test, _path), peak = reference.traced_peak(cli.load_problem, config, tmp_path)
    held = sum(ds.features.data.nbytes + ds.features.indices.nbytes + ds.features.indptr.nbytes
               + ds.labels.nbytes for ds in (oracle.data, test))
    assert peak <= 2.3 * held


def test_load_problem_drops_the_parsed_dataset_before_the_split(zipf_problem, monkeypatch):
    tmp_path, config = zipf_problem
    parsed = []

    def load(*args, **kwargs):
        ds = load_libsvm(*args, **kwargs)
        parsed.append(weakref.ref(ds))
        return ds

    def split_once_the_parse_is_gone(ds, fraction, seed):
        gc.collect()
        assert parsed[0]() is None
        return split(ds, fraction, seed)

    monkeypatch.setattr(cli, "load_libsvm", load)
    monkeypatch.setattr(cli, "split", split_once_the_parse_is_gone)
    cli.load_problem(config, tmp_path)
    assert len(parsed) == 1


def test_records_to_csv_empty_cells_for_ridge():
    rows = [MetricsRecord(0.0, 0.0, 0.5, None, None, None)]
    text = records_to_csv(rows)
    assert text.splitlines()[1] == "0.0,0.0,0.5,,,"


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
        # one read block: the first faulty line is named, not the malformed one
        ("-1 1:1e999\n" + "1 1:1\n" * 5 + "1 nocolon", "line 2: feature value inf is not finite"),
    ],
    ids=["index-above-int64", "nan-value", "nan-label", "inf-value-before-malformed-line"],
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


def overflowing_feature_map(tmp_path, config):
    # 1 / bandwidth is finite; the map's products with these values are not
    (tmp_path / "big.svm").write_text("".join(f"{i} 1:{1e10 * (i + 1)}\n" for i in range(40)))
    return dict(config, dataset={"path": "big.svm"}, preprocessing=[
        {"random_features": {"kind": "rff-cosine", "dim": 8, "bandwidth": 1e-300}}]), [], (
        "config error: preprocessing[0]: dataset contains non-finite feature values\n")


def empty_file(tmp_path, config):
    (tmp_path / "empty.svm").write_text("")
    return dict(config, dataset={"path": "empty.svm"}), [], (
        f"config error: dataset: {tmp_path / 'empty.svm'} holds no samples\n")


def one_row_split(tmp_path, config):
    (tmp_path / "one.svm").write_text("1 1:0.5\n")
    return dict(config, dataset={"path": "one.svm"},
                preprocessing=[{"split": {"fraction": 0.8, "seed": 0}}]), [], (
        f"config error: dataset: {tmp_path / 'one.svm'} holds one sample; "
        "a split needs at least two\n")


def labels_only(tmp_path, config):
    # "auto" would resolve the rank to min(10, p) = 0
    (tmp_path / "labels.svm").write_text("1\n-1\n1\n")
    return dict(config, dataset={"path": "labels.svm"}), [], (
        f"config error: dataset: {tmp_path / 'labels.svm'} holds no features\n")


def zero_smoothness_bound(tmp_path, config):
    # explicit zeros and no l2: the "auto" step size max(1/(3L), ...) has L = 0
    (tmp_path / "zeros.svm").write_text("1 1:0\n-1 1:0\n1 1:0\n")
    return dict(config, dataset={"path": "zeros.svm"}, optimizers=[{"name": "sgd"}]), [], (
        "config error: optimizers[0] (sgd): learning_rate 'auto' needs a positive finite "
        "smoothness bound, got 0.0\n")


def output_dir_is_a_file(tmp_path, config):
    (tmp_path / "taken").write_text("keep")
    return config, ["--output-dir", str(tmp_path / "taken")], (
        f"config error: output_dir: {tmp_path / 'taken'} exists and is not a directory\n")


def output_dir_under_a_file(tmp_path, config):
    (tmp_path / "taken").write_text("keep")
    return dict(config, output_dir=str(tmp_path / "taken" / "out")), [], (
        f"config error: output_dir: {tmp_path / 'taken'} exists and is not a directory\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", [bad_labels, tiny_rho, overflowing_rho, overflowing_feature_map,
                                  empty_file, one_row_split,
                                  labels_only, zero_smoothness_bound, output_dir_is_a_file,
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
        ({"l2": math.inf}, [], "l2 must be a finite number >= 0 or 'auto', got inf"),
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


def test_cli_and_library_agree_on_every_tabled_value(narrow):
    """``validate_config`` reports a problem exactly when the library function
    that takes the value raises ``ValueError``, and the library raises
    nothing else."""
    tmp_path, config = narrow
    ds = load_libsvm(tmp_path / "narrow.svm")
    features = {"kind": "rff-cosine", "dim": 3, "bandwidth": 1.0, "seed": 0}
    halves = {"fraction": 0.5, "seed": 0}
    cases = {  # key: (the config with the value, the library call on it)
        "task": (lambda v: dict(config, task=v), lambda v: ProblemOracle(ds, v)),
        # the CLI resolves an "auto" l2 before the oracle sees it
        "l2": (lambda v: dict(config, l2=v), lambda v: ProblemOracle(ds, "ridge", v)),
        "eval_every": (lambda v: dict(config, eval_every=v),
                       lambda v: sgd_run(ProblemOracle(ds, "ridge"), max_passes=0.5, eval_every=v)),
        "num_features": (lambda v: dict(config, dataset=dict(config["dataset"], num_features=v)),
                         lambda v: parse_libsvm("1 1:1\n", num_features=v)),
        **{f"random_features.{key}": (
            lambda v, key=key: dict(config, preprocessing=[{"random_features": {**features, key: v}}]),
            lambda v, key=key: FeatureMap.create(input_dim=ds.p, **{**features, key: v}))
           for key in features},
        **{f"split.{key}": (
            lambda v, key=key: dict(config, preprocessing=[{"split": {**halves, key: v}}]),
            lambda v, key=key: split(ds, **{**halves, key: v}))
           for key in halves},
    }
    for (key, (configured, library)), value in itertools.product(cases.items(), HOSTILE):
        if key == "l2" and value == AUTO:
            continue
        try:
            library(value)
            error = None
        except ValueError as exc:
            error = str(exc)
        problems = validate_config(configured(value), tmp_path)
        assert bool(problems) == (error is not None), (key, value, problems, error)


FUZZ_VALUES = [True, None, "x", "auto", [], {}, 0, -1, 0.5, 3.0, 1e-320, 1e308, math.nan, math.inf]
# keys whose value sizes an allocation or a loop: 10**4 stands in for 1e308
FUZZ_SIZES = {"dim", "num_features", "rank", "grad_batch_size", "hess_batch_size",
              "stage_length", "power_iters", "top_m"}
FUZZ_SETTINGS = {"rank": 2, "rho": "auto", "hess_batch_size": 3, "update_freq": 2,
                 "lr_scale": 0.5, "power_iters": 3, "stage_length": 2}
FUZZ_CONFIG = {
    "dataset": {"path": "d.svm", "format": "libsvm", "num_features": 3},
    "task": "logistic",
    "preprocessing": [
        {"normalize_rows": {}},
        {"random_features": {"kind": "rff-cosine", "dim": 4, "bandwidth": 1.0, "seed": 0}},
        {"split": {"fraction": 0.75, "seed": 0}},
        {"standardize": {}},
    ],
    "l2": "auto",
    "optimizers": [
        {"name": "sketchysgd", "label": "nys", "grad_batch_size": 4, "learning_rate": None,
         **FUZZ_SETTINGS},
        {"name": "sketchysgd-theoretical", "grad_batch_size": "auto", "learning_rate": "auto",
         **FUZZ_SETTINGS},
        {"name": "sgd", "label": "plain", "learning_rate": 0.5, "grad_batch_size": 4},
        {"name": "svrg", "learning_rate": "auto", "grad_batch_size": 4},
    ],
    "seeds": [0, 1],
    "max_passes": 0.5,
    "eval_every": 0.25,
    "output_dir": "out",
    "save_iterates": False,
    "diagnose": {"top_m": 3, "betas": [0.1], "compute_tau": False, "iterates": ["w.npy"]},
}
FUZZ_DATA = "".join(f"{1 if i % 3 else -1} 1:{0.3 * i - 2} 3:{1 + 0.1 * i}\n" for i in range(16))
FUZZ_FILES = {
    "empty": "",
    "label-only": "1\n-1\n1\n",
    "blank-lines-crlf": "\r\n" + FUZZ_DATA.replace("\n", "\r\n\r\n"),
    "repeated-index": FUZZ_DATA + "1 2:1 2:3\n",
    "subnormal": FUZZ_DATA + "1 1:5e-324 2:1e-310 3:-2.5e-320\n",
    "label-outside-pm1": FUZZ_DATA + "2 1:1\n",
    "one-row": "1 1:0.5 2:1\n",
}
# data that cannot be read as text: the dataset file's name and bytes
_FUZZ_GZ = gzip.compress(FUZZ_DATA.encode(), mtime=0)
FUZZ_UNREADABLE = {
    "not-utf8": ("d.svm", FUZZ_DATA.encode("utf-16")),
    "gz-not-gzip": ("d.svm.gz", FUZZ_DATA.encode()),
    "gz-truncated": ("d.svm.gz", _FUZZ_GZ[:-12]),
    "gz-corrupt": ("d.svm.gz", _FUZZ_GZ[:15] + bytes(10) + _FUZZ_GZ[25:]),
}
# labels that name no file in the output directory
FUZZ_LABELS = ["a/b", "a\0b", ""]


def fuzz_paths(node, path=()):
    """The path of every key and list entry below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from fuzz_paths(child, (*path, key))


def test_cli_failure_contract_under_fuzzed_configs_and_data(tmp_path, monkeypatch, capsys):
    """Every mutation of one key, or of the data file, exits 0, 2 or 3 with
    one-line reasons, writes nothing on exit 2, and writes a manifest naming
    every job on a run; any NumPy warning fails the case.  A label that names
    no file and a data file that cannot be read as text exit 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.svm").write_text(FUZZ_DATA)
    np.save(tmp_path / "w.npy", np.full(4, 0.1))
    rng = np.random.default_rng(23)
    line = re.compile(r"(config error|runtime error|\S+ seed \d+): ")

    def check(command, config, where):
        (tmp_path / "c.json").write_text(json.dumps(config))
        before = set(tmp_path.rglob("*"))
        try:
            code = main([command, "c.json"])
        except Exception as exc:  # a traceback on the command line
            raise AssertionError(f"{command} {where}: {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (command, where, code, err)
        assert all(line.match(text) for text in err.splitlines()), (command, where, err)
        if code == 2:
            assert set(tmp_path.rglob("*")) == before, (command, where)
        elif command == "run":
            jobs = json.loads((Path(config["output_dir"]) / "manifest.json").read_text())["jobs"]
            assert len(jobs) == len(config["optimizers"]) * len(config["seeds"]), where
            assert all(job["status"] in ("ok", "diverged", "failed") for job in jobs), where
        for path in set(tmp_path.iterdir()) - {tmp_path / name for name in ("d.svm", "d.svm.gz", "w.npy", "c.json")}:
            shutil.rmtree(path)
        return code, err

    for command in ("validate", "run", "diagnose"):
        check(command, FUZZ_CONFIG, "the base config")
    for path in fuzz_paths(FUZZ_CONFIG):
        for value in FUZZ_VALUES:
            if value == 1e308 and path[-1] in FUZZ_SIZES:
                value = 10**4
            config = json.loads(json.dumps(FUZZ_CONFIG))
            parent = functools.reduce(operator.getitem, path[:-1], config)
            parent[path[-1]] = value
            where = f"{'.'.join(map(str, path))} = {value!r}"
            if path[0] == "diagnose":
                check("diagnose", config, where)
                continue
            valid = check("validate", config, where)[0] == 0
            # every run that can start a job, and some that cannot; a run is
            # bounded by the base's passes and seeds
            if path[0] not in ("max_passes", "seeds") and (valid or rng.random() < 0.05):
                check("run", config, where)
    for label in FUZZ_LABELS:
        config = json.loads(json.dumps(FUZZ_CONFIG))
        config["optimizers"][2]["label"] = label
        for command in ("validate", "run"):
            code, err = check(command, config, f"optimizers.2.label = {label!r}")
            assert code == 2 and err.startswith("config error: optimizers[2]: label must be ")
            assert err.count("\n") == 1, err
    # output file names over 255 bytes, from a label or from a seed, or not
    # encodable at all
    for key, value in (("label", "x" * 300), ("seeds", [10**300]), ("label", "\ud800")):
        config = json.loads(json.dumps(FUZZ_CONFIG))
        config["optimizers"] = config["optimizers"][2:3]
        (config["optimizers"][0] if key == "label" else config)[key] = value
        for command in ("validate", "run"):
            code, err = check(command, config, f"{key} = {value!r}")
            assert code == 2 and err.startswith("config error: optimizers[0]: output file name "), err
            assert err.count("\n") == 1, err
    for name, text in FUZZ_FILES.items():
        (tmp_path / "d.svm").write_text(text)
        for command in ("validate", "run"):
            check(command, FUZZ_CONFIG, f"data file {name}")
    for name, (file_name, raw) in FUZZ_UNREADABLE.items():
        (tmp_path / file_name).write_bytes(raw)
        config = {**FUZZ_CONFIG, "dataset": {**FUZZ_CONFIG["dataset"], "path": file_name}}
        for command in ("validate", "run", "diagnose"):
            code, err = check(command, config, f"data file {name}")
            assert code == 2 and err.startswith(f"config error: dataset: cannot read {file_name}: ")
            assert err.count("\n") == 1, err
