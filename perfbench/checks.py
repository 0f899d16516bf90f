"""Output checks.  Each returns a list of problems; an empty list passes.

The checks compare the package against computations made here (NumPy
least squares, the benchmark's own logistic objective, its own SHA-256 and
its own copy of the generated matrix) or against properties the method must
have (exact pass accounting, reaching the target, never beating a certified
lower bound).  None of them compares against stored output of the package.
``selftest.py`` feeds each one a wrong result to show that it rejects it.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Defaults documented in the package README ("auto" resolution).
RANK = 10
POWER_ITERS = 10
GRAD_BATCH = 256


def default_batches(n: int, task: str) -> dict:
    """Gradient/Hessian batch sizes and refresh period that "auto" resolves to."""
    bg = min(GRAD_BATCH, n)
    return {
        "bg": bg,
        "bh": max(1, min(n, math.isqrt(n))),
        "update_freq": math.inf if task == "ridge" else float(math.ceil(n / bg)),
    }


def expected_counts(runner: str, n: int, max_passes: float, task: str) -> dict:
    """Work counters a run with default hyperparameters must report.

    Replays the documented schedule with integer row counts: a refresh at
    iteration 0 and every ``update_freq`` iterations after, each charging
    ``r*b_h`` for the sketch and ``q*b_h`` for the step-size estimate; one
    ``b_g`` per step; SVRG charges ``n`` per snapshot and ``ceil(n/b_g)``
    inner steps per epoch.  The run stops once ``rows/n >= max_passes``.
    """
    b = default_batches(n, task)
    bg, bh, u = b["bg"], b["bh"], b["update_freq"]
    rows = steps = refreshes = snapshots = 0
    if runner == "svrg_run":
        while rows / n < max_passes:
            rows += n
            snapshots += 1
            for _ in range(math.ceil(n / bg)):
                if rows / n >= max_passes:
                    break
                rows += bg
                steps += 1
    else:
        preconditioned = runner != "sgd_run"
        while rows / n < max_passes:
            if preconditioned and (steps == 0 or (math.isfinite(u) and steps % int(u) == 0)):
                refreshes += 1
                rows += (RANK + POWER_ITERS) * bh
            rows += bg
            steps += 1
    return {
        "iterations": steps,
        "precond_updates": refreshes,
        "lr_estimates": refreshes,
        "snapshots": snapshots,
        "samples_touched": rows,
    }


def check_accounting(label: str, counts: dict, expected: dict, n: int, task: str) -> list[str]:
    """Counters equal the replayed schedule and the README formula
    ``b_g*K + refreshes*(r+q)*b_h + n*snapshots``."""
    b = default_batches(n, task)
    problems = [
        f"{label}: {key} is {counts[key]}, expected {expected[key]}"
        for key in expected if key in counts and counts[key] != expected[key]
    ]
    formula = (b["bg"] * counts.get("iterations", expected["iterations"])
               + counts.get("precond_updates", expected["precond_updates"]) * RANK * b["bh"]
               + counts.get("lr_estimates", expected["lr_estimates"]) * POWER_ITERS * b["bh"]
               + counts.get("snapshots", expected["snapshots"]) * n)
    if counts["samples_touched"] != formula:
        problems.append(f"{label}: samples_touched {counts['samples_touched']} != formula {formula}")
    return problems


def first_at_or_below(rows, target: float):
    """(passes, loop seconds) of the first evaluation with train loss <= target, or None.

    ``rows`` holds (passes, wall_seconds, train_loss) triples in order.
    """
    for passes, wall, loss in rows:
        if loss <= target:
            return passes, wall
    return None


def check_reaches(label: str, rows, target: float) -> list[str]:
    if first_at_or_below(rows, target) is None:
        final = rows[-1][2] if rows else math.nan
        return [f"{label}: never reached the target {target:.6g} (final loss {final:.6g})"]
    return []


def check_close(label: str, got, want, rtol: float) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    err = float(np.linalg.norm(got - want))
    scale = max(float(np.linalg.norm(want)), np.finfo(float).tiny)
    if not err <= rtol * scale:
        return [f"{label}: relative error {err / scale:.3g} exceeds {rtol:.1g}"]
    return []


def check_at_least(label: str, value: float, floor: float) -> list[str]:
    if not value >= floor:
        return [f"{label}: {value!r} is below {floor!r}"]
    return []


def check_manifest(manifest: dict, exit_code: int, jobs: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"cli: exit code {exit_code}"]
    entries = manifest.get("jobs", [])
    if len(entries) != jobs:
        problems.append(f"cli: manifest lists {len(entries)} jobs, expected {jobs}")
    problems += [f"cli: job {e.get('file')} has status {e.get('status')!r}"
                 for e in entries if e.get("status") != "ok"]
    return problems


def check_digest(manifest: dict, digest: str) -> list[str]:
    if manifest.get("dataset_sha256") != digest:
        return [f"cli: manifest dataset_sha256 {manifest.get('dataset_sha256')} != {digest}"]
    return []


def check_same_matrix(features, labels, want_features, want_labels) -> list[str]:
    """Parsed CSR equals the generated one exactly (structure, values, labels)."""
    if features.shape != want_features.shape:
        return [f"parse: shape {features.shape} != {want_features.shape}"]
    same = (np.array_equal(features.indptr, want_features.indptr)
            and np.array_equal(features.indices, want_features.indices)
            and np.array_equal(features.data, want_features.data)
            and np.array_equal(labels, want_labels))
    return [] if same else ["parse: parsed matrix differs from the generated one"]


def read_metrics_csv(text: str) -> list[dict]:
    return [
        {key: (float(value) if value != "" else None) for key, value in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


def check_csv_start(label: str, rows: list[dict], loss_at_zero: float) -> list[str]:
    """The first row is pass 0 at w = 0: train and test loss both ``loss_at_zero``."""
    if not rows:
        return [f"{label}: empty metrics file"]
    first = rows[0]
    problems = [] if first["pass"] == 0.0 else [f"{label}: first row at pass {first['pass']}"]
    for key in ("train_loss", "test_loss"):
        value = first[key]
        if value is None or not abs(value - loss_at_zero) <= 1e-12 * loss_at_zero:
            problems.append(f"{label}: first {key} {value!r}, expected {loss_at_zero!r}")
    return problems
