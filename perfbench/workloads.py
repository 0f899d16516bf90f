"""The three benchmark workloads: inputs, one timed round, output checks.

``run.py`` starts this file in fresh processes with a fixed BLAS thread
count::

    python3 perfbench/workloads.py prepare <workload> <seed> <out.json>
    python3 perfbench/workloads.py round <workload> <seed> <traced> <out.json>

``prepare`` writes the generated input files into the work directory (and,
for the CLI workload, checks that the package parses its file exactly).
``round`` runs one round: it sets the problem up and runs every planned
solve (or one ``sketchysgd run``), checks the outputs and writes the
figures; with ``traced`` = 1 the package's public functions are wrapped by
:class:`tracing.Tracer` and the span statistics are written too.  Each round
runs in its own process because the speed of the same code differs by
several percent from one process to the next; a run's medians are taken
across processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import sketchysgd
from sketchysgd import cli, data, optimizers, oracles, synthetic

import checks
import instances
from tracing import RUNNERS, Tracer, cli_table

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
LOG2 = math.log(2.0)
clock = time.perf_counter


def run_seeds(seed: int, count: int) -> list[int]:
    """The run's optimizer seeds, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Solve:
    runner: str
    seed: int
    wall_s: float
    result: object  # RunResult, or the exception the call raised

    @property
    def ok(self) -> bool:
        return isinstance(self.result, optimizers.RunResult)


@dataclass
class Round:
    setup_s: float
    solve_s: float
    pipeline_s: float
    solves: list[Solve]
    crossings: list = field(default_factory=list)  # (passes, loop seconds) per SketchySGD seed
    problems: list[str] = field(default_factory=list)


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class LibraryWorkload:
    """Set up a problem through the library, then run every runner on it."""

    task = ""
    max_passes = 0.0
    eval_every = 0.25
    sketchy_seeds = 0
    baseline_seeds = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.seeds = run_seeds(seed, self.sketchy_seeds)
        # A baseline seed runs the three baselines right after its SketchySGD
        # solve, so that the baselines are sampled across the whole round.
        stride = self.sketchy_seeds // self.baseline_seeds
        self.plan = []
        for i, s in enumerate(self.seeds):
            self.plan.append(("sketchysgd_run", s))
            if i % stride == 0 and i // stride < self.baseline_seeds:
                self.plan += [(runner, s) for runner in RUNNERS[1:]]
        self.expected = {}

    @property
    def operations(self) -> int:
        return len(self.plan)

    def setup(self):
        raise NotImplementedError

    def solve(self, runner: str, oracle, seed: int):
        """One runner call with default hyperparameters at the pass budget."""
        mp, ev = self.max_passes, self.eval_every
        if runner == "sketchysgd_run":
            cfg = optimizers.OptimizerConfig(seed=seed, max_passes=mp)
            return optimizers.sketchysgd_run(oracle, cfg, eval_every=ev)
        if runner == "sketchysgd_theoretical_run":
            cfg = optimizers.OptimizerConfig(
                seed=seed, max_passes=mp, mode="theoretical", learning_rate="auto")
            return optimizers.sketchysgd_theoretical_run(oracle, cfg)
        run = getattr(optimizers, runner)
        return run(oracle, seed=seed, max_passes=mp, eval_every=ev)

    def round(self, tracer: Tracer, traced: bool) -> tuple[Round, object]:
        """Set-up, then every planned solve, each timed from outside."""
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = clock()
            problem = self.setup()
            t1 = clock()
            solves = []
            for runner, seed in self.plan:
                start = clock()
                try:
                    result = self.solve(runner, problem.oracle, seed)
                except Exception as exc:  # a failed operation is counted, not fatal
                    result = exc
                solves.append(Solve(runner, seed, clock() - start, result))
            t2 = clock()
        return Round(setup_s=t1 - t0, solve_s=t2 - t1, pipeline_s=t2 - t0, solves=solves), problem

    def output_bytes(self) -> int:
        return 0

    def check_common(self, rnd: Round, problem) -> None:
        """Failures, target crossings and pass accounting for every solve."""
        n = problem.oracle.n
        for solve in rnd.solves:
            label = f"{solve.runner} seed {solve.seed}"
            if not solve.ok:
                rnd.problems.append(f"{label} failed: {_failure(solve.result)}")
                continue
            res = solve.result
            key = solve.runner
            if key not in self.expected:
                self.expected[key] = checks.expected_counts(key, n, self.max_passes, self.task)
            counts = {k: getattr(res, k) for k in self.expected[key]}
            rnd.problems += checks.check_accounting(label, counts, self.expected[key], n, self.task)
            if solve.runner == "sketchysgd_run":
                rows = [(r.passes, r.wall_seconds, r.train_loss) for r in res.records]
                rnd.problems += checks.check_reaches(label, rows, problem.target)
                rnd.crossings.append(checks.first_at_or_below(rows, problem.target))


@dataclass
class Problem:
    oracle: object
    target: float
    w_star: np.ndarray | None = None


class RidgeDense(LibraryWorkload):
    """Planted ill-conditioned least squares: f* = 0 at a known w*."""

    name = "ridge-dense"
    task = "ridge"
    shape = (20000, 200)
    condition = 1e4
    # One instance for every workload seed: across planted instances the
    # passes to the target vary far more than across optimizer seeds.
    instance_seed = 0
    target = 1e-10
    max_passes = 10.0
    eval_every = 0.5
    sketchy_seeds = 24
    baseline_seeds = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.w_lstsq = None

    def setup(self) -> Problem:
        ds, w_star = synthetic.planted_least_squares(*self.shape, self.condition, seed=self.instance_seed)
        oracle = oracles.ProblemOracle(ds, "ridge", 0.0)
        oracle.smoothness_upper_bound  # noqa: B018 - part of the timed set-up
        return Problem(oracle, self.target, w_star)

    def check(self, rnd: Round, problem: Problem) -> None:
        self.check_common(rnd, problem)
        oracle = problem.oracle
        a, b = oracle.data.features, oracle.data.labels
        if self.w_lstsq is None:
            self.w_lstsq = np.linalg.lstsq(a, b, rcond=None)[0]
        rnd.problems += checks.check_close("lstsq solution vs planted w*", self.w_lstsq, problem.w_star, 1e-8)

        def own_loss(w):
            resid = a @ w - b
            return 0.5 * float(resid @ resid) / a.shape[0]

        w = np.random.default_rng([self.seed, 2]).standard_normal(oracle.p)
        rnd.problems += checks.check_close("full_loss at a random point", oracle.full_loss(w), own_loss(w), 1e-12)
        finals = {}
        for solve in rnd.solves:
            if not solve.ok:
                continue
            finals[(solve.runner, solve.seed)] = solve.result.records[-1].train_loss
            if solve.runner == "sketchysgd_run":
                label = f"sketchysgd_run seed {solve.seed}"
                # Loss <= target and Hessian eigenvalues >= 1/condition bound the error.
                radius = math.sqrt(2.0 * self.target * self.condition) / np.linalg.norm(self.w_lstsq)
                rnd.problems += checks.check_close(f"{label} iterate vs lstsq", solve.result.w, self.w_lstsq, radius)
                rnd.problems += checks.check_close(
                    f"{label} full_loss at the final iterate", oracle.full_loss(solve.result.w),
                    own_loss(solve.result.w), 1e-6)
        for (runner, seed), loss in finals.items():
            if runner == "sgd_run" and ("sketchysgd_run", seed) in finals:
                rnd.problems += checks.check_at_least(
                    f"sgd_run seed {seed} final loss / 100", loss / 100.0, finals[("sketchysgd_run", seed)])


class SparseInstance:
    """A fixed sparse logistic instance, written as libsvm with its rows in
    an order the workload seed picks."""

    name = ""
    shape = (0, 0)
    draws_per_row = 10
    instance_seed = 0
    seed = 0

    @property
    def path(self) -> Path:
        return WORK / f"{self.name}.svm"

    def instance(self):
        """(features, labels) of the instance, then of its permuted rows."""
        n, p = self.shape
        features, labels = instances.sparse_logistic(n, p, self.draws_per_row, self.instance_seed)
        perm = np.random.default_rng([self.seed, 1]).permutation(n)
        return features, labels, features[perm], labels[perm]


class LogisticSparse(SparseInstance, LibraryWorkload):
    """l2-regularized logistic regression on skewed CSR data read from libsvm."""

    name = "logistic-sparse"
    task = "logistic"
    shape = (50000, 20000)
    instance_seed = 7
    target_fraction = 0.4
    max_passes = 5.0
    sketchy_seeds = 4
    baseline_seeds = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.l2 = 1e-2 / self.shape[0]
        self.objective = None
        self.reference = None

    def prepare(self) -> list[str]:
        features, labels, permuted, permuted_labels = self.instance()
        instances.write_libsvm(permuted, permuted_labels, self.path)
        self.load_reference(instances.LogisticObjective(features, labels, self.l2))
        return []

    def load_reference(self, objective) -> None:
        key = {"shape": list(self.shape), "draws": self.draws_per_row,
               "seed": self.instance_seed, "l2": self.l2}
        self.reference = instances.cached_reference(
            objective, WORK / f"reference-{self.name}.json", key)

    @property
    def target(self) -> float:
        f_ref = self.reference["f_ref"]
        return f_ref + self.target_fraction * (LOG2 - f_ref)

    def setup(self) -> Problem:
        ds = data.normalize_rows(data.load_libsvm(self.path, num_features=self.shape[1]))
        oracle = oracles.ProblemOracle(ds, "logistic", self.l2)
        oracle.smoothness_upper_bound  # noqa: B018 - part of the timed set-up
        return Problem(oracle, self.target)

    def check(self, rnd: Round, problem: Problem) -> None:
        self.check_common(rnd, problem)
        oracle = problem.oracle
        if self.objective is None:
            _f, _y, permuted, permuted_labels = self.instance()
            self.objective = instances.LogisticObjective(permuted, permuted_labels, self.l2)
        w = np.random.default_rng([self.seed, 2]).standard_normal(oracle.p)
        value, grad = self.objective.value_and_grad(w)
        rnd.problems += checks.check_close("full_loss at a random point", oracle.full_loss(w), value, 1e-10)
        full = np.arange(oracle.n)
        rnd.problems += checks.check_close(
            "full gradient at a random point", oracle.minibatch_gradient(w, full), grad, 1e-10)
        lower = self.reference["f_lower"] - 1e-9
        for solve in rnd.solves:
            if solve.ok:
                lowest = min(r.train_loss for r in solve.result.records)
                rnd.problems += checks.check_at_least(
                    f"{solve.runner} seed {solve.seed} lowest loss vs certified optimum", lowest, lower)


class LibsvmCli(SparseInstance):
    """``sketchysgd run`` on a generated libsvm file, called through ``cli.main``."""

    name = "libsvm-cli"
    shape = (100000, 20000)
    instance_seed = 11
    max_passes = 2.0
    eval_every = 0.25
    split_fraction = 0.8
    config_seeds = 2
    # Every seed is below this share of the loss at w = 0 (0.568) at the
    # first evaluation (0.25 passes: losses 0.521-0.541 over 80 split and
    # optimizer seeds), so the crossing, and the passes to it, do not depend
    # on the seed.  A later target would: at 0.5 passes the losses are
    # 0.488-0.509, a gap of about two standard deviations below those at
    # 0.25, and at 0.75 passes (0.464-0.492) they overlap those at 0.5.
    target_fraction_of_zero_loss = 0.82

    def __init__(self, seed: int):
        self.seed = seed
        self.config_path = WORK / f"{self.name}.json"
        self.out_dir = WORK / f"{self.name}-out"
        self.seeds = run_seeds(seed, self.config_seeds)
        self.plan = [(runner, s) for runner in RUNNERS for s in self.seeds]
        self.digest = None

    @property
    def operations(self) -> int:
        return len(self.plan)

    @property
    def target(self) -> float:
        return self.target_fraction_of_zero_loss * LOG2

    def config(self) -> dict:
        return {
            "dataset": {"path": self.path.name, "num_features": self.shape[1]},
            "task": "logistic",
            "preprocessing": [{"normalize_rows": {}}, {"split": {"fraction": self.split_fraction, "seed": self.seed}}],
            "l2": "auto",
            "optimizers": [{"name": name} for name in cli.OPTIMIZER_NAMES],
            "seeds": self.seeds,
            "max_passes": self.max_passes,
            "eval_every": self.eval_every,
        }

    def prepare(self) -> list[str]:
        """Write the file and config; check that the package parses the file exactly."""
        _f, _y, permuted, permuted_labels = self.instance()
        instances.write_libsvm(permuted, permuted_labels, self.path)
        self.config_path.write_text(json.dumps(self.config(), indent=1) + "\n")
        ds = data.load_libsvm(self.path, num_features=self.shape[1])
        return checks.check_same_matrix(ds.features, ds.labels, permuted, permuted_labels)

    def round(self, tracer: Tracer, traced: bool) -> tuple[Round, object]:
        """One whole ``sketchysgd run`` (the pipeline).

        Untraced, only ``cli.load_problem`` and the runners the CLI calls are
        wrapped, to read the set-up time and each job's outside wall time.
        The set-up sample is the CLI's own ``load_problem`` call, so a round
        parses the file once; the smoothness bound (one pass over the row
        norms) is left to the first job that needs it.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with tracer.installed(None if traced else cli_table()):
            t0 = clock()
            try:
                code = cli.main(["run", str(self.config_path), "--output-dir", str(self.out_dir)])
            except Exception as exc:  # counted as failed jobs, not fatal
                code = _failure(exc)
            pipeline_s = clock() - t0
        loads = [span[2] - span[1] for span in tracer.spans if span[0] == "cli.load_problem"]
        jobs = [span for span in tracer.spans
                if span[0].startswith("optimizers.") and span[0][11:] in RUNNERS]
        solves = [Solve(span[0][11:], seed, span[2] - span[1], result)
                  for span, (_r, result), (_runner, seed) in zip(jobs, tracer.results, self.plan)]
        rnd = Round(setup_s=loads[0] if loads else 0.0, solve_s=pipeline_s, pipeline_s=pipeline_s,
                    solves=solves)
        # The training rows that the documented split rule keeps.
        n_train = math.floor(self.split_fraction * self.shape[0])
        return rnd, (code, n_train)

    def output_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.out_dir.iterdir())

    def check(self, rnd: Round, outcome) -> None:
        code, n_train = outcome
        if not isinstance(code, int):
            rnd.problems.append(f"cli: raised {code}")
            return
        try:
            manifest = json.loads((self.out_dir / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            rnd.problems.append(f"cli: no readable manifest ({exc})")
            return
        rnd.problems += checks.check_manifest(manifest, code, self.operations)
        if self.digest is None:
            sha = hashlib.sha256()
            with open(self.path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(block)
            self.digest = sha.hexdigest()
        rnd.problems += checks.check_digest(manifest, self.digest)
        for job in manifest.get("jobs", []):
            name, label = job["resolved"]["name"], job["file"]
            runner = {"sketchysgd": "sketchysgd_run", "sketchysgd-theoretical": "sketchysgd_theoretical_run",
                      "sgd": "sgd_run", "svrg": "svrg_run"}[name]
            expected = checks.expected_counts(runner, n_train, self.max_passes, "logistic")
            touched = round(job["passes"] * n_train) if job["passes"] is not None else -1
            rnd.problems += checks.check_accounting(
                label, {"samples_touched": touched}, expected, n_train, "logistic")
            rows = checks.read_metrics_csv((self.out_dir / label).read_text())
            rnd.problems += checks.check_csv_start(label, rows, LOG2)
            if name == "sketchysgd":
                triples = [(r["pass"], r["wall_seconds"], r["train_loss"]) for r in rows]
                rnd.problems += checks.check_reaches(label, triples, self.target)
                rnd.crossings.append(checks.first_at_or_below(triples, self.target))
        failed_solves = [s for s in rnd.solves if not s.ok]
        rnd.problems += [f"{s.runner} seed {s.seed} failed: {_failure(s.result)}" for s in failed_solves]


WORKLOADS = {cls.name: cls for cls in (RidgeDense, LogisticSparse, LibsvmCli)}


def environment() -> dict:
    """Versions, BLAS build, thread settings and CPU of this process."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), "")
    except OSError:
        pass
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sketchysgd": sketchysgd.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SKETCHYSGD_NUM_THREADS")},
        "cli_job_threads": int(os.environ.get("SKETCHYSGD_NUM_THREADS", "1")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def run_round(wl, traced: bool, spans_path: Path) -> dict:
    """One round in this process, checked; traced rounds also return span statistics."""
    tracer = Tracer()
    rnd, outcome = wl.round(tracer, traced)
    failed = wl.operations - sum(1 for s in rnd.solves if s.ok)
    wl.check(rnd, outcome)
    out = {
        "setup_s": rnd.setup_s,
        "solve_s": rnd.solve_s,
        "pipeline_s": rnd.pipeline_s,
        "solves": [[s.runner, s.seed, s.wall_s, s.ok] for s in rnd.solves],
        "crossings": rnd.crossings,
        "operations": wl.operations,
        "failed": failed,
        "problems": rnd.problems,
        "counters": {
            runner: {key: sum(getattr(s.result, key) for s in rnd.solves if s.ok and s.runner == runner)
                     for key in ("iterations", "samples_touched", "precond_updates", "lr_estimates")}
            for runner in RUNNERS
        },
        "traced": traced,
        "plan": wl.plan,
        "target": wl.target,
        "environment": environment(),
    }
    if traced:
        out["stats"] = tracer.stats()
        out["output_bytes"] = wl.output_bytes()
        tracer.write(spans_path)
    return out


def main(argv: list[str]) -> int:
    """``prepare W SEED OUT`` or ``round W SEED TRACED OUT``."""
    command, name, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[-1])
    src = (ROOT / "src").resolve()
    if src not in Path(sketchysgd.__file__).resolve().parents:
        raise RuntimeError(f"sketchysgd imported from {sketchysgd.__file__}, not from {src}")
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed)
    if command == "prepare":
        result = {"problems": wl.prepare() if hasattr(wl, "prepare") else []}
    else:
        if isinstance(wl, LogisticSparse):
            wl.load_reference(None)
        result = run_round(wl, argv[3] == "1", out.with_suffix(".spans.jsonl"))
    out.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
