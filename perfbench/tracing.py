"""In-memory spans around the package's public functions.

A :class:`Tracer` replaces a function with a wrapper *in the namespace of
the module that calls it* (``sketchysgd.optimizers.precond_solve`` is the
name the optimizer loop looks up, so that is the one patched) and restores
every original on exit.  Each call becomes a span ``[name, start, end,
parent, count]``; ``parent`` is the index of the enclosing span (-1 at the
top) and ``count`` an optional work count such as parsed nonzeros.  Self
time is a span's duration minus the durations of its direct children.

Nothing here is imported by the package, and nothing is patched outside a
``with tracer.installed(...)`` block, so untraced runs execute the package
exactly as users do.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np
import sketchysgd.cli
import sketchysgd.data
import sketchysgd.nystrom
import sketchysgd.optimizers
import sketchysgd.synthetic
from sketchysgd.oracles import ProblemOracle

RUNNERS = ("sketchysgd_run", "sketchysgd_theoretical_run", "sgd_run", "svrg_run")


def _gradient_name(args, kwargs):
    oracle, batch = args[0], (args[2] if len(args) > 2 else kwargs["batch"])
    return "oracles.full_gradient" if np.size(batch) == oracle.n else "oracles.minibatch_gradient"


def _hvp_name(args, kwargs):
    v = args[3] if len(args) > 3 else kwargs["v"]
    return "oracles.minibatch_hvp_block" if np.ndim(v) == 2 else "oracles.minibatch_hvp_vec"


def _nnz(result):
    return int(result.features.nnz)


def _patch_table():
    """(owner, attribute, span name or namer, count function) for every traced call."""
    opt, nys, cli, data = (sketchysgd.optimizers, sketchysgd.nystrom, sketchysgd.cli,
                           sketchysgd.data)
    table = [
        (ProblemOracle, "minibatch_gradient", _gradient_name, None),
        (ProblemOracle, "minibatch_hvp", _hvp_name, None),
        (ProblemOracle, "full_loss", "oracles.eval", None),
        (ProblemOracle, "mean_sample_loss", "oracles.eval", None),
        (ProblemOracle, "accuracy", "oracles.eval", None),
        (opt, "sample_batch", "oracles.sample_batch", None),
        (opt, "precond_solve", "nystrom.precond_solve", None),
        (opt, "precond_inv_sqrt", "nystrom.precond_inv_sqrt", None),
        (opt, "rand_nys_approx", "nystrom.rand_nys_approx", None),
        (opt, "estimate_learning_rate", "optimizers.estimate_learning_rate", None),
        (nys, "qr_econ", "linalg.qr_econ", None),
        (nys, "thin_svd", "linalg.thin_svd", None),
        (nys, "spectral_norm", "linalg.spectral_norm", None),
        (nys, "cholesky", "linalg.cholesky", None),
        (data, "parse_libsvm", "data.parse_libsvm", _nnz),
        (data, "load_libsvm", "data.load_libsvm", None),
        (data, "normalize_rows", "data.normalize_rows", None),
        (sketchysgd.synthetic, "planted_least_squares", "synthetic.planted_least_squares", None),
        (cli, "load_libsvm", "data.load_libsvm", None),
        (cli, "normalize_rows", "data.normalize_rows", None),
        (cli, "split", "data.split", None),
        (cli, "load_problem", "cli.load_problem", None),
        (cli, "cmd_run", "cli.cmd_run", None),
        (cli, "records_to_csv", "cli.records_to_csv", None),
    ]
    for runner in RUNNERS:
        # The benchmark calls runners through sketchysgd.optimizers; the CLI
        # through the names it imported.
        table.append((opt, runner, f"optimizers.{runner}", None))
        table.append((cli, runner, f"optimizers.{runner}", None))
    return table


def cli_table():
    """Only the CLI's ``load_problem`` and runner entry points: the set-up time
    and the outside wall time of each job."""
    return [entry for entry in _patch_table()
            if entry[0] is sketchysgd.cli and entry[1] in ("load_problem", *RUNNERS)]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: list[tuple[str, object]] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, count):
        spans, stack, results, clock = self.spans, self._stack, self.results, time.perf_counter

        runner = name[len("optimizers."):] if isinstance(name, str) else None
        runner = runner if runner in RUNNERS else None

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            out = None
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                out = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if runner is not None:
                    # A runner's RunResult, or the exception it raised.
                    results.append((runner, out))
            if count is not None:
                span[4] = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, table=None):
        table = _patch_table() if table is None else table
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _n, _c in table]
        try:
            for owner, attr, name, count in table:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stats(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        for i, (name, start, end, _parent, count) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["count"] += count
        return dict(out)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, count."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
