"""Configuration-driven command line: dataset in, metrics CSV out.

Three subcommands share one JSON config document::

    sketchysgd run config.json       # optimize, write CSV metrics + manifest
    sketchysgd diagnose config.json  # spectrum reports before/after preconditioning
    sketchysgd validate config.json  # schema check, print the resolved config

Exit codes: 0 ok, 2 config or data error (including a malformed libsvm
line, a feature index above 2^63 - 1, a non-finite label or value, a
repeated seed, a logistic label other than +-1 in either split, a ``rho``
whose reciprocal overflows float64, and an output directory that names an
existing file; each is one ``config error: ...`` line), 3 runtime or
divergence error, 4 dense diagnostic caps exceeded.  A ``run`` job that
diverges or whose sketch or step-size powering fails does not stop the
others: the manifest is still written, and gives each job a ``status``
(``ok``, ``diverged`` with its records in ``<file>.csv.partial``, or
``failed`` with no file) and a one-line ``message``; the exit code is then
3.  The ``SKETCHYSGD_NUM_THREADS`` environment variable sizes the thread
pool that runs independent (optimizer, seed) jobs; each job owns its
generator and writes its own files, so results do not depend on the pool
size.  Unset or empty, it means 1; ``validate`` and ``run`` check it before
reading any data, and any other value but a positive integer is a config
error.

Config schema (JSON object)::

    {
      "dataset": {"path": "data.svm[.gz]", "format": "libsvm", "num_features": 123},
      "task": "ridge" | "logistic",
      "preprocessing": [                      # optional, applied in order
        {"normalize_rows": {}},
        {"standardize": {}},                  # train statistics after a split
        {"random_features": {"kind": "rff-cosine", "dim": 1000,
                              "bandwidth": 1.0, "seed": 0}},
        {"split": {"fraction": 0.8, "seed": 0}}
      ],
      "l2": "auto" | number,                  # auto = 1e-2 / n_train
      "optimizers": [{"name": "sketchysgd", ...hyperparameters or "auto"}],
      "seeds": [0, 1, 2],
      "max_passes": 40,
      "eval_every": 1.0,
      "output_dir": "results",
      "save_iterates": false,
      "diagnose": {"top_m": 100, "betas": [0.01], "compute_tau": false,
                    "iterates": ["results/sketchysgd_seed0_iterate.npy"]}
    }

These keys take ``"auto"``, their default, which resolves against the
loaded problem (n training rows, p features, L the smoothness bound) to:
``l2`` 1e-2/n; ``rank`` min(10, p); ``rho`` 1e-3*L; ``grad_batch_size`` (every
optimizer) min(256, n); ``hess_batch_size`` floor(sqrt(n)); ``update_freq``
never for ridge (as does ``"inf"``) and ceil(n/grad_batch_size) for
logistic; ``stage_length`` ceil(n/grad_batch_size); ``learning_rate``
re-estimated at every refresh for SketchySGD and max(1/(3L), 1/(2(L +
n*l2))) for SGD and SVRG.  Each setting, overrides included, must pass
``optimizers.settings_problems``, the rules the library applies: counts are
whole numbers >= 1 (3.0 counts), seeds integers >= 0, and every number
finite.  ``validate`` and ``run`` resolve every (optimizer, seed) job before
the first one starts: a setting that does not fit the data, such as a rank
above p or a batch size above n, is a config error,
``optimizers[i] (<label>): <reason>``, and ``run`` then writes no file.

Every number in an output CSV is reproducible from the manifest plus the
dataset file alone, at the BLAS thread count the manifest records; two
runs of one config differ only in the ``wall_seconds`` column.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import (
    Dataset,
    FeatureMap,
    LibsvmParseError,
    load_libsvm,
    normalize_rows,
    random_features,
    split,
    standardization_stats,
    standardize,
)
from .diagnostics import conditioning_report
from .linalg import DiagnosticCapError
from .nystrom import SketchNotPsdError
from .optimizers import (
    AUTO,
    BASELINE_FIELDS,
    DivergenceError,
    LearningRateError,
    MetricsRecord,
    OptimizerConfig,
    resolve_baseline_config,
    resolve_config,
    settings_problems,
    sgd_run,
    sketchysgd_run,
    sketchysgd_theoretical_run,
    svrg_run,
)
from .oracles import ProblemOracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CAPS = 4

OPTIMIZER_NAMES = ("sketchysgd", "sketchysgd-theoretical", "sgd", "svrg")
BASELINES = ("sgd", "svrg")

# An entry sets the hyperparameters its runner reads; the run-wide max_passes
# and seeds and the mode (from the name) come from elsewhere.
_RUN_WIDE = {"max_passes", "seed", "mode"}
_SKETCHY_KEYS = {"name", "label"} | ({f.name for f in fields(OptimizerConfig)} - _RUN_WIDE)
_FIRST_ORDER_KEYS = {"name", "label"} | (set(BASELINE_FIELDS) - _RUN_WIDE)


class ConfigError(ValueError):
    """Invalid run configuration; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# validation


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _validate_preprocessing(steps, problems):
    if not isinstance(steps, list):
        problems.append("preprocessing: must be a list of single-key objects")
        return
    seen_split = False
    for i, step in enumerate(steps):
        tag = f"preprocessing[{i}]"
        if not isinstance(step, dict) or len(step) != 1:
            problems.append(f"{tag}: each step must be an object with exactly one key")
            continue
        name, args = next(iter(step.items()))
        if not isinstance(args, dict):
            problems.append(f"{tag}: step arguments must be an object")
            continue
        if name in ("normalize_rows", "standardize"):
            if args:
                problems.append(f"{tag}: {name} takes no arguments")
        elif name == "random_features":
            kind = args.get("kind")
            if kind not in ("rff-cosine", "relu"):
                problems.append(f"{tag}: random_features.kind must be 'rff-cosine' or 'relu'")
            if not isinstance(args.get("dim"), int) or args.get("dim", 0) < 1:
                problems.append(f"{tag}: random_features.dim must be a positive integer")
            if "bandwidth" in args and not (_is_num(args["bandwidth"]) and args["bandwidth"] > 0):
                problems.append(f"{tag}: random_features.bandwidth must be a positive number")
            if not isinstance(args.get("seed", 0), int):
                problems.append(f"{tag}: random_features.seed must be an integer")
            extra = set(args) - {"kind", "dim", "bandwidth", "seed"}
            if extra:
                problems.append(f"{tag}: unknown random_features keys {sorted(extra)}")
        elif name == "split":
            frac = args.get("fraction")
            if not (_is_num(frac) and 0.0 < frac < 1.0):
                problems.append(f"{tag}: split.fraction must lie strictly between 0 and 1")
            if not isinstance(args.get("seed", 0), int):
                problems.append(f"{tag}: split.seed must be an integer")
            extra = set(args) - {"fraction", "seed"}
            if extra:
                problems.append(f"{tag}: unknown split keys {sorted(extra)}")
            if seen_split:
                problems.append(f"{tag}: only one split step is allowed")
            seen_split = True
        else:
            problems.append(f"{tag}: unknown step {name!r}")


def _validate_optimizer(spec, i, problems):
    tag = f"optimizers[{i}]"
    if not isinstance(spec, dict):
        problems.append(f"{tag}: must be an object")
        return
    name = spec.get("name")
    if name not in OPTIMIZER_NAMES:
        problems.append(f"{tag}: name must be one of {list(OPTIMIZER_NAMES)}, got {name!r}")
        return
    allowed = _SKETCHY_KEYS if name.startswith("sketchysgd") else _FIRST_ORDER_KEYS
    extra = set(spec) - allowed
    if extra:
        problems.append(f"{tag}: unknown keys for {name}: {sorted(extra)}")
    settings = _settings({key: value for key, value in spec.items() if key in allowed})
    problems.extend(f"{tag}: {problem}" for problem in settings_problems(settings))
    if "label" in spec and not isinstance(spec["label"], str):
        problems.append(f"{tag}: label must be a string")


def _settings(spec: dict) -> dict:
    """The OptimizerConfig fields an optimizer entry sets, with the mode and
    default learning rate of the staged variant."""
    settings = {key: value for key, value in spec.items() if key not in ("name", "label")}
    if spec["name"] == "sketchysgd-theoretical":
        settings = {"learning_rate": AUTO, **settings, "mode": "theoretical"}
    return settings


def validate_config(config: dict, base_dir: Path) -> list[str]:
    """Collect every schema violation; an empty list means the config is valid."""
    problems: list[str] = []
    if not isinstance(config, dict):
        return ["config: top level must be a JSON object"]

    dataset = config.get("dataset")
    if not isinstance(dataset, dict):
        problems.append("dataset: required object with a 'path' field")
    else:
        path = dataset.get("path")
        if not isinstance(path, str) or not path:
            problems.append("dataset.path: required string")
        else:
            resolved = (base_dir / path).expanduser()
            if not resolved.exists():
                problems.append(f"dataset.path: file not found: {resolved}")
        if dataset.get("format", "libsvm") != "libsvm":
            problems.append("dataset.format: only 'libsvm' is supported")
        if "num_features" in dataset and (
            not isinstance(dataset["num_features"], int) or dataset["num_features"] < 1
        ):
            problems.append("dataset.num_features: must be a positive integer")
        extra = set(dataset) - {"path", "format", "num_features"}
        if extra:
            problems.append(f"dataset: unknown keys {sorted(extra)}")

    if config.get("task") not in ("ridge", "logistic"):
        problems.append("task: required, 'ridge' or 'logistic'")

    if "preprocessing" in config:
        _validate_preprocessing(config["preprocessing"], problems)

    l2 = config.get("l2", AUTO)
    if not (l2 == AUTO or (_is_num(l2) and 0 <= l2 < math.inf)):
        problems.append("l2: must be a finite nonnegative number or 'auto'")

    optimizers = config.get("optimizers")
    if not isinstance(optimizers, list) or not optimizers:
        problems.append("optimizers: required nonempty list")
    else:
        labels = []
        for i, spec in enumerate(optimizers):
            _validate_optimizer(spec, i, problems)
            if isinstance(spec, dict):
                labels.append(spec.get("label", spec.get("name")))
        dup = {x for x in labels if labels.count(x) > 1}
        if dup:
            problems.append(
                f"optimizers: duplicate labels {sorted(dup)}; give each a unique 'label'"
            )

    seeds = config.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        problems.append("seeds: required nonempty list of integers")
    elif bad := [f"seeds: {p}" for seed in seeds for p in settings_problems({"seed": seed})]:
        problems.extend(bad)
    elif len(set(seeds)) < len(seeds):
        dup = sorted({s for s in seeds if seeds.count(s) > 1})
        problems.append(f"seeds: duplicate seeds {dup}; each seed names its own output files")

    if "max_passes" in config:
        problems.extend(settings_problems({"max_passes": config["max_passes"]}))
    if "eval_every" in config and not (_is_num(config["eval_every"]) and config["eval_every"] > 0):
        problems.append("eval_every: must be a positive number")
    if "output_dir" in config and not isinstance(config["output_dir"], str):
        problems.append("output_dir: must be a string")
    if "save_iterates" in config and not isinstance(config["save_iterates"], bool):
        problems.append("save_iterates: must be a boolean")

    if "diagnose" in config:
        diag = config["diagnose"]
        if not isinstance(diag, dict):
            problems.append("diagnose: must be an object")
        else:
            if "top_m" in diag and (not isinstance(diag["top_m"], int) or diag["top_m"] < 1):
                problems.append("diagnose.top_m: must be a positive integer")
            if "betas" in diag and not (
                isinstance(diag["betas"], list) and all(_is_num(b) and b > 0 for b in diag["betas"])
            ):
                problems.append("diagnose.betas: must be a list of positive numbers")
            if "compute_tau" in diag and not isinstance(diag["compute_tau"], bool):
                problems.append("diagnose.compute_tau: must be a boolean")
            if "iterates" in diag:
                if not isinstance(diag["iterates"], list):
                    problems.append("diagnose.iterates: must be a list of paths")
                else:
                    for q in diag["iterates"]:
                        if not isinstance(q, str) or not (base_dir / q).expanduser().exists():
                            problems.append(f"diagnose.iterates: file not found: {q}")
            extra = set(diag) - {"top_m", "betas", "compute_tau", "iterates"}
            if extra:
                problems.append(f"diagnose: unknown keys {sorted(extra)}")

    known = {
        "dataset", "task", "preprocessing", "l2", "optimizers", "seeds",
        "max_passes", "eval_every", "output_dir", "save_iterates", "diagnose",
    }
    extra = set(config) - known
    if extra:
        problems.append(f"config: unknown top-level keys {sorted(extra)}")
    return problems


# ---------------------------------------------------------------------------
# loading and resolution


def _apply_preprocessing(ds: Dataset, steps) -> tuple[Dataset, Dataset | None]:
    train, test = ds, None
    for step in steps:
        name, args = next(iter(step.items()))
        if name == "normalize_rows":
            train = normalize_rows(train)
            test = normalize_rows(test) if test is not None else None
        elif name == "standardize":
            stats = standardization_stats(train)
            train = standardize(train, stats)
            test = standardize(test, stats) if test is not None else None
        elif name == "random_features":
            fmap = FeatureMap.create(
                kind=args["kind"],
                dim=args["dim"],
                input_dim=train.p,
                seed=args.get("seed", 0),
                bandwidth=args.get("bandwidth", 1.0),
            )
            train = random_features(train, fmap)
            test = random_features(test, fmap) if test is not None else None
        elif name == "split":
            train, test = split(train, args["fraction"], args.get("seed", 0))
    return train, test


def load_problem(config: dict, base_dir: Path):
    """Load the dataset, run the preprocessing chain, and build the oracle."""
    spec = config["dataset"]
    path = (base_dir / spec["path"]).expanduser()
    ds = load_libsvm(path, num_features=spec.get("num_features"))
    train, test = _apply_preprocessing(ds, config.get("preprocessing", []))
    l2 = config.get("l2", AUTO)
    if l2 == AUTO:
        l2 = 1e-2 / train.n
    try:
        oracle = ProblemOracle(train, config["task"], float(l2))
        if test is not None:
            ProblemOracle(test, config["task"])  # the runners evaluate it
    except ValueError as exc:
        raise ConfigError([f"dataset: {exc}"]) from exc
    return oracle, test, path


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return _jsonable(value.item())
    return value


@dataclass(frozen=True)
class Job:
    """One (optimizer, seed) job, resolved against the loaded problem.

    ``config`` is both what the runner is called with and what the
    manifest's ``resolved`` entry is written from.
    """

    name: str
    label: str
    seed: int
    config: OptimizerConfig
    eval_every: float

    def resolved(self) -> dict:
        entry = {"name": self.name, "label": self.label, "seed": self.seed}
        cfg = self.config
        if self.name in BASELINES:  # seed keeps its place
            entry.update({key: getattr(cfg, key) for key in BASELINE_FIELDS})
        else:
            entry.update(asdict(cfg))
        # The staged runner records at every stage end, whatever eval_every is.
        entry["eval_every"] = None if self.name == "sketchysgd-theoretical" else self.eval_every
        return _jsonable(entry)

    def run(self, oracle: ProblemOracle, test_data: Dataset | None):
        # Looked up in this module's globals at call time, where tests and the
        # benchmark's tracer replace them.
        cfg = self.config
        if self.name == "sketchysgd":
            return sketchysgd_run(oracle, cfg, test_data=test_data, eval_every=self.eval_every)
        if self.name == "sketchysgd-theoretical":
            return sketchysgd_theoretical_run(oracle, cfg, test_data=test_data)
        return (sgd_run if self.name == "sgd" else svrg_run)(
            oracle, **{key: getattr(cfg, key) for key in BASELINE_FIELDS}, test_data=test_data,
            eval_every=self.eval_every)


def resolve_jobs(config: dict, oracle: ProblemOracle) -> list[Job]:
    """Resolve every (optimizer, seed) job, ordered by optimizer then seed.

    Raises :class:`ConfigError` with one ``optimizers[i] (<label>): <reason>``
    line per optimizer whose settings do not fit the problem.
    """
    max_passes = float(config.get("max_passes", 40.0))
    eval_every = float(config.get("eval_every", 1.0))
    jobs, problems = [], []
    for i, spec in enumerate(config["optimizers"]):
        name = spec["name"]
        label = spec.get("label", name)
        settings = _settings(spec)
        resolve = resolve_baseline_config if name in BASELINES else resolve_config
        try:
            for seed in config["seeds"]:
                cfg = OptimizerConfig(max_passes=max_passes, seed=seed, **settings)
                jobs.append(Job(name, label, seed, resolve(cfg, oracle), eval_every))
        except ValueError as exc:
            problems.append(f"optimizers[{i}] ({label}): {exc}")
    if problems:
        raise ConfigError(problems)
    return jobs


# ---------------------------------------------------------------------------
# metrics serialization


def records_to_csv(records: list[MetricsRecord]) -> str:
    """Shortest-round-trip CSV; absent metrics are empty cells."""

    def cell(x):
        return "" if x is None else repr(float(x))

    lines = ["pass,wall_seconds,train_loss,test_loss,train_acc,test_acc"]
    for r in records:
        lines.append(
            ",".join(
                [repr(float(r.passes)), repr(float(r.wall_seconds)), cell(r.train_loss),
                 cell(r.test_loss), cell(r.train_acc), cell(r.test_acc)]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load(args):
    """The checked config with the command-line overrides, and its problem."""
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        raise ConfigError([f"config: cannot read {args.config}: {exc}"]) from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
    base_dir = config_path.parent
    if isinstance(config, dict):  # the overrides pass the same checks
        for key, value in (("output_dir", args.output_dir), ("max_passes", args.max_passes),
                           ("seeds", None if args.seed is None else [args.seed])):
            if value is not None:
                config[key] = value
    problems = validate_config(config, base_dir)
    if problems:
        raise ConfigError(problems)
    _check_output_dir(Path(config.get("output_dir", "results")))
    return (config, base_dir, *load_problem(config, base_dir))


def _check_output_dir(out_dir: Path) -> None:
    """The nearest existing one of ``out_dir`` and its parents must be a directory."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError([f"output_dir: {path} exists and is not a directory"])
            return


def job_threads() -> int:
    """The job pool size from ``SKETCHYSGD_NUM_THREADS``; 1 if unset or empty."""
    value = os.environ.get("SKETCHYSGD_NUM_THREADS", "")
    digits = value.strip()
    if not digits:
        return 1
    if not (digits.isascii() and digits.isdigit() and int(digits) >= 1):
        raise ConfigError([f"SKETCHYSGD_NUM_THREADS must be a positive integer, got {value!r}"])
    return int(digits)


def cmd_validate(args) -> int:
    job_threads()
    config, _base_dir, oracle, test, _path = _load(args)
    jobs = resolve_jobs(config, oracle)
    resolved = {
        "task": oracle.task,
        "n_train": oracle.n,
        "n_test": test.n if test is not None else 0,
        "p": oracle.p,
        "l2": oracle.l2,
        "smoothness_upper_bound": oracle.smoothness_upper_bound,
        "max_passes": jobs[0].config.max_passes,
        "eval_every": jobs[0].eval_every,
        "seeds": config["seeds"],
        # the first seed's job of every optimizer
        "optimizers": [job.resolved() for job in jobs[:: len(config["seeds"])]],
    }
    print(json.dumps(_jsonable(resolved), indent=2))
    return EXIT_OK


# Results change in the last bits with the BLAS thread count, so the
# manifest records these next to the library versions.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "SKETCHYSGD_NUM_THREADS",
)


def file_sha256(path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment() -> dict:
    """Interpreter and library versions, BLAS/LAPACK builds and thread settings."""
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
    try:
        builds = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # NumPy before 1.26 can only print its configuration
        builds = {}
    for lib in ("blas", "lapack"):
        build = builds.get(lib, {})
        env[lib] = {key: build[key] for key in ("name", "version", "openblas configuration") if key in build}
    return env


def cmd_run(args) -> int:
    workers = job_threads()
    config, _base_dir, oracle, test, dataset_path = _load(args)
    jobs = resolve_jobs(config, oracle)
    out_dir = Path(config.get("output_dir", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)

    def execute(job):
        """``(result, file, status, message)``; a failed job leaves the others
        running and writes no file."""
        name = f"{job.label}_seed{job.seed}"
        try:
            result = job.run(oracle, test)
        except DivergenceError as exc:
            (out_dir / f"{name}.csv.partial").write_text(records_to_csv(exc.records))
            return None, f"{name}.csv.partial", "diverged", str(exc)
        except (LearningRateError, SketchNotPsdError) as exc:
            return None, None, "failed", str(exc)
        (out_dir / f"{name}.csv").write_text(records_to_csv(result.records))
        if config.get("save_iterates", False):
            np.save(out_dir / f"{name}_iterate.npy", result.w)
        return result, f"{name}.csv", "ok", None

    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(execute, jobs))
    else:
        outcomes = [execute(job) for job in jobs]

    manifest = {
        "package_version": __version__,
        "environment": environment(),
        "dataset_path": str(dataset_path),
        "dataset_sha256": file_sha256(dataset_path),
        "task": oracle.task,
        "n_train": oracle.n,
        "n_test": test.n if test is not None else 0,
        "p": oracle.p,
        "l2": oracle.l2,
        "config": _jsonable(config),
        "jobs": [
            {
                "file": file,
                "resolved": job.resolved(),
                "status": status,
                "message": message,
                "passes": result.passes if result is not None else None,
            }
            for job, (result, file, status, message) in zip(jobs, outcomes)
        ],
    }
    (out_dir / "manifest.json").write_text(json.dumps(_jsonable(manifest), indent=2) + "\n")

    # One line per divergent job; a library failure once per distinct reason
    # (the manifest names every job it stopped).
    lines = [f"{job.label} seed {job.seed}: {message}" if status == "diverged"
             else f"runtime error: {message}"
             for job, (_result, _file, status, message) in zip(jobs, outcomes) if status != "ok"]
    for line in dict.fromkeys(lines):
        print(line, file=sys.stderr)
    return EXIT_RUNTIME if lines else EXIT_OK


def cmd_diagnose(args) -> int:
    config, base_dir, oracle, _test, _path = _load(args)
    # The first SketchySGD job's preconditioner, else the defaults.
    cfg = next(
        (job.config for job in resolve_jobs(config, oracle) if job.name.startswith("sketchysgd")),
        OptimizerConfig(seed=config["seeds"][0]),
    )
    diag = config.get("diagnose", {})
    out_dir = Path(config.get("output_dir", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)

    points = [("initial", np.zeros(oracle.p))]
    for q in diag.get("iterates", []):
        path = (base_dir / q).expanduser()
        points.append((Path(q).stem, np.load(path)))

    for tag, w in points:
        report = conditioning_report(
            oracle,
            w,
            cfg,
            top_m=diag.get("top_m", 100),
            compute_tau=diag.get("compute_tau", False),
            d_eff_betas=tuple(diag.get("betas", ())),
        )
        (out_dir / f"spectrum_{tag}.csv").write_text(report.to_csv())
        (out_dir / f"spectrum_{tag}.json").write_text(report.to_json() + "\n")
        print(f"spectrum_{tag}: kappa {report.kappa_raw:.4g} -> {report.kappa_precond:.4g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sketchysgd",
        description="Preconditioned stochastic optimization from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("diagnose", cmd_diagnose), ("validate", cmd_validate)):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to the JSON config")
        cmd.add_argument("--output-dir", default=None, help="override the config's output_dir")
        cmd.add_argument("--max-passes", type=float, default=None, help="override max_passes")
        cmd.add_argument("--seed", type=int, default=None, help="run a single seed")
        cmd.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except LibsvmParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DiagnosticCapError as exc:
        print(f"caps exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except (DivergenceError, LearningRateError, SketchNotPsdError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
