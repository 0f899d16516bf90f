"""Benchmark entry point.

    python3 perfbench/run.py --workload <ridge-dense|logistic-sparse|libsvm-cli>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Every step runs in a fresh child process
(``workloads.py``) with the BLAS pools fixed at one thread and the CLI job
pool at its default of one: ``prepare`` writes the generated inputs, then
identical ``round`` processes, one per round, follow one another until
``--seconds`` have passed.  The last line printed on standard output is the
result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A run has at least ``MIN_ROUNDS`` rounds, however long they take.
``--trace 0`` reports the end-to-end metrics, medians across the rounds (for
the time to target, one median per SketchySGD seed, then summed), so that a
burst of load on a shared host spoils one sample, not the run;
``peak_rss_mb`` is the largest peak resident set of a round process, read
from ``wait4``.  With ``--trace 1`` every second round is traced and the
per-layer metrics are reported.  The full result, with the environment,
every round's figures and any failed check, is kept in
``.perfbench/results/``.  The exit code is 0 when a result was printed and 1
otherwise (no ``src/sketchysgd`` next to this directory, a crashed or
overdue child).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("ridge-dense", "logistic-sparse", "libsvm-cli")
RUNNERS = ("sketchysgd_run", "sketchysgd_theoretical_run", "sgd_run", "svrg_run")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0
MIN_ROUNDS = 3


def child(args: list[str], out: Path, env: dict, deadline: float):
    """Run ``workloads.py args out`` to completion; return what it wrote and its rusage."""
    out.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args, str(out)],
                            env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"workloads.py {args[0]} exceeded the time limit")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py {args[0]} exited with code {proc.returncode}")
    return json.loads(out.read_text()), usage


def _median(values):
    return statistics.median(values) if values else 0.0


def time_to_target(rounds: list[dict]) -> float:
    """Each seed's median loop time to the target across the rounds, summed over the seeds.

    Every round runs the same seeds in the same order, so position ``i`` of
    each round's crossings is the same seed.
    """
    per_round = [[c[1] for c in rnd["crossings"] if c] for rnd in rounds]
    return sum(statistics.median(times) for times in zip(*per_round))


def end_to_end(rounds: list[dict], peak_kib: int) -> dict:
    """Medians over the run's rounds, one process each."""
    solves = [s for rnd in rounds for s in rnd["solves"] if s[3]]
    metrics = {
        "setup_s": (_median([rnd["setup_s"] for rnd in rounds]), "s"),
        "sketchysgd_time_to_target_s": (time_to_target(rounds), "s"),
        "sketchysgd_passes_to_target": (sum(c[0] for c in rounds[0]["crossings"] if c), "passes"),
    }
    for runner in RUNNERS:
        metrics[runner[: -len("_run")] + "_solve_s"] = (
            _median([s[2] for s in solves if s[0] == runner]), "s")
    metrics["pipeline_s"] = (_median([rnd["pipeline_s"] for rnd in rounds]), "s")
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")  # ru_maxrss is in KiB on Linux
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    stats: dict[str, dict] = {}
    for rnd in traced:
        for name, entry in rnd["stats"].items():
            total = stats.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
    rounds = len(traced)

    def entry(name):
        return stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})

    def per_call(name, key="total_s", scale=1e6):
        e = entry(name)
        return e[key] / e["calls"] * scale if e["calls"] else 0.0

    m = {}
    for name in ("minibatch_gradient", "full_gradient", "sample_batch", "minibatch_hvp_block",
                 "minibatch_hvp_vec", "eval"):
        m[f"oracles.{name}.us_per_call"] = (per_call(f"oracles.{name}"), "us")
    m["oracles.minibatch_gradient.calls"] = (entry("oracles.minibatch_gradient")["calls"] / rounds, "count")
    for name in ("precond_solve", "precond_inv_sqrt"):
        m[f"nystrom.{name}.us_per_call"] = (per_call(f"nystrom.{name}"), "us")
    m["nystrom.rand_nys_approx.self_us_per_call"] = (per_call("nystrom.rand_nys_approx", "self_s"), "us")
    m["nystrom.rand_nys_approx.calls"] = (entry("nystrom.rand_nys_approx")["calls"] / rounds, "count")
    for name in ("qr_econ", "thin_svd", "spectral_norm", "cholesky"):
        m[f"linalg.{name}.us_per_call"] = (per_call(f"linalg.{name}"), "us")
    m["optimizers.estimate_learning_rate.self_us_per_call"] = (
        per_call("optimizers.estimate_learning_rate", "self_s"), "us")
    for runner in RUNNERS:
        m[f"optimizers.{runner}.self_s"] = (entry(f"optimizers.{runner}")["self_s"] / rounds, "s")
        for counter, value in traced[0]["counters"][runner].items():
            m[f"optimizers.{runner}.{counter}"] = (value, "count")
    parse = entry("data.parse_libsvm")
    m["data.parse_libsvm.ns_per_nnz"] = (
        parse["total_s"] / parse["count"] * 1e9 if parse["count"] else 0.0, "ns")
    for name in ("data.load_libsvm", "data.normalize_rows", "data.split",
                 "synthetic.planted_least_squares", "cli.load_problem"):
        m[f"{name}.s"] = (per_call(name, scale=1.0), "s")
    m["cli.cmd_run.self_s"] = (per_call("cli.cmd_run", "self_s", scale=1.0), "s")
    m["cli.records_to_csv.us_per_call"] = (per_call("cli.records_to_csv"), "us")
    m["cli.output_bytes"] = (_median([rnd["output_bytes"] for rnd in traced]), "bytes")
    m["trace.overhead_s"] = (
        _median([rnd["solve_s"] for rnd in traced]) - _median([rnd["solve_s"] for rnd in plain]), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src" / "sketchysgd" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'sketchysgd'}", file=sys.stderr)
        return 1
    # Turn a termination request into SystemExit, so that child() stops its process.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))
    trace = args.trace == "1"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {k: v for k, v in os.environ.items() if k != "SKETCHYSGD_NUM_THREADS"}
    env.update(THREADS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    deadline = time.monotonic() + TIME_LIMIT_S
    base = [args.workload, str(args.seed)]
    rounds, peak_kib = [], 0
    try:
        prepared, _usage = child(["prepare", *base], results / f"{tag}-prepare.json", env, deadline)
        problems = [f"prepare: {p}" for p in prepared["problems"]]
        start = time.monotonic()
        while True:
            traced = "1" if trace and len(rounds) % 2 == 1 else "0"
            out = results / f"{tag}-round{len(rounds)}.json"
            result, usage = child(["round", *base, traced], out, env, deadline)
            rounds.append(result)
            peak_kib = max(peak_kib, usage.ru_maxrss)
            elapsed = time.monotonic() - start
            if len(rounds) >= MIN_ROUNDS and elapsed > args.seconds - 0.5 * elapsed / len(rounds):
                break
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems += [f"round {i}: {p}" for i, rnd in enumerate(rounds) for p in rnd["problems"]]
    first = [c[0] for c in rounds[0]["crossings"] if c]
    problems += [f"round {i}: passes to target differ from round 0"
                 for i, rnd in enumerate(rounds) if [c[0] for c in rnd["crossings"] if c] != first]
    plain = [rnd for rnd in rounds if not rnd["traced"]]
    metrics = (per_layer(plain, [rnd for rnd in rounds if rnd["traced"]]) if trace
               else end_to_end(plain, peak_kib))
    result = {
        "correct": not problems,
        "attempted": sum(rnd["operations"] for rnd in rounds),
        "failed": sum(rnd["failed"] for rnd in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, problems=problems, rounds=[
        {k: v for k, v in rnd.items() if k not in ("stats", "environment")} for rnd in rounds],
        environment=rounds[0]["environment"], measured_s=time.monotonic() - start)
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
