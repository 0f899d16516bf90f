"""Show that every output check accepts a right result and rejects a wrong one.

    python3 perfbench/selftest.py

Uses small instances (a few seconds in all).  Exits 1 if a check rejects a
right result or lets a wrong one through.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from sketchysgd import OptimizerConfig, ProblemOracle, planted_least_squares, sketchysgd_run, svrg_run  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402

FAILURES = []


def expect(name: str, right: list[str], wrong: list[str]) -> None:
    ok = not right and bool(wrong)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: right -> {right or 'accepted'}; wrong -> {wrong or 'accepted'}")
    if not ok:
        FAILURES.append(name)


def main() -> int:
    ds, _w_star = planted_least_squares(8000, 50, 1e3, seed=0)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    res = sketchysgd_run(oracle, OptimizerConfig(seed=0, max_passes=8.0), eval_every=0.5)
    expected = checks.expected_counts("sketchysgd_run", oracle.n, 8.0, "ridge")
    counts = {k: getattr(res, k) for k in expected}
    off_by_one = dict(counts, iterations=counts["iterations"] + 1)
    expect("pass accounting, one extra step", checks.check_accounting("run", counts, expected, oracle.n, "ridge"),
           checks.check_accounting("run", off_by_one, expected, oracle.n, "ridge"))
    extra_rows = dict(counts, samples_touched=counts["samples_touched"] + 1)
    expect("pass accounting, one extra row", [], checks.check_accounting("run", extra_rows, expected, oracle.n, "ridge"))

    snap = svrg_run(oracle, seed=0, max_passes=3.0)
    expected = checks.expected_counts("svrg_run", oracle.n, 3.0, "ridge")
    counts = {k: getattr(snap, k) for k in expected}
    expect("SVRG accounting, one snapshot fewer", checks.check_accounting("svrg", counts, expected, oracle.n, "ridge"),
           checks.check_accounting("svrg", dict(counts, snapshots=counts["snapshots"] - 1), expected, oracle.n, "ridge"))

    w_ls = np.linalg.lstsq(ds.features, ds.labels, rcond=None)[0]
    radius = 1e-3
    perturbed = res.w + 2 * radius * np.linalg.norm(w_ls) * np.eye(oracle.p)[0]
    expect("iterate close to the least-squares solution", checks.check_close("w", res.w, w_ls, radius),
           checks.check_close("w", perturbed, w_ls, radius))

    resid = ds.features @ res.w - ds.labels
    own = 0.5 * float(resid @ resid) / oracle.n
    expect("loss agrees with NumPy", checks.check_close("loss", oracle.full_loss(res.w), own, 1e-12),
           checks.check_close("loss", oracle.full_loss(res.w) * (1 + 1e-9), own, 1e-12))

    rows = [(r.passes, r.wall_seconds, r.train_loss) for r in res.records]
    target = 1e-8
    expect("reaches the target", checks.check_reaches("run", rows, target),
           checks.check_reaches("run", [(p, t, loss + 1.0) for p, t, loss in rows], target))
    expect("SGD at least 100x worse", checks.check_at_least("ratio", 1e-3 / 100, 1e-9),
           checks.check_at_least("ratio", 1e-8 / 100, 1e-9))

    features, labels = instances.sparse_logistic(400, 60, 5, seed=0)
    objective = instances.LogisticObjective(features, labels, 1e-2 / 400)
    ref = objective.reference_optimum()
    expect("no loss below the certified optimum", checks.check_at_least("lowest", ref["f_ref"], ref["f_lower"] - 1e-9),
           checks.check_at_least("lowest", ref["f_lower"] - 1e-6, ref["f_lower"] - 1e-9))

    digest = hashlib.sha256(b"data").hexdigest()
    manifest = {"dataset_sha256": digest, "jobs": [{"file": "a.csv", "status": "ok"}] * 4}
    expect("manifest exit code and job status", checks.check_manifest(manifest, 0, 4),
           checks.check_manifest(dict(manifest, jobs=manifest["jobs"][:3] + [{"file": "b", "status": "diverged"}]), 0, 4))
    expect("manifest exit code", [], checks.check_manifest(manifest, 3, 4))
    expect("dataset checksum", checks.check_digest(manifest, digest),
           checks.check_digest(manifest, hashlib.sha256(b"datA").hexdigest()))

    moved = features.copy()
    moved.data[7] += 1e-4
    expect("parsed matrix equals the generated one", checks.check_same_matrix(features, labels, features, labels),
           checks.check_same_matrix(moved, labels, features, labels))

    log2 = math.log(2.0)
    good = f"pass,wall_seconds,train_loss,test_loss,train_acc,test_acc\n0.0,0.0,{log2!r},{log2!r},0.5,0.5\n"
    late = good.replace("\n0.0,0.0", "\n0.25,0.0")
    expect("CSV starts at pass 0", checks.check_csv_start("csv", checks.read_metrics_csv(good), log2),
           checks.check_csv_start("csv", checks.read_metrics_csv(late), log2))
    shifted = good.replace(f",{log2!r},", f",{log2 * (1 + 1e-9)!r},", 1)
    expect("CSV starts at loss log 2", [], checks.check_csv_start("csv", checks.read_metrics_csv(shifted), log2))

    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "every check rejects its wrong result")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
