"""Reference code that the tests compare the package against.

:func:`unshared_reads` patches the optimization loop back to the data reads
of version 0.3.0, which gave the same numbers with more work: a dense SVRG
step that calls ``minibatch_gradient`` at ``w`` and at ``w_snap`` (two row
gathers and four products), and a snapshot gradient and records that each
form their own margin products.
"""

import numpy as np

from sketchysgd import optimizers
from sketchysgd.nystrom import precond_solve
from sketchysgd.oracles import ProblemOracle


def two_gather_step(self, j):
    """``_DenseIterate.step`` as two minibatch gradients per SVRG step."""
    batch = self.batches[j]
    grad = self.oracle.minibatch_gradient(self.w, batch)
    if self.snapshot is not None:
        w_snap, mu = self.snapshot[:2]
        grad = grad - self.oracle.minibatch_gradient(w_snap, batch) + mu
    self.w = self.w - self.eta * (precond_solve(self.nys, self.rho, grad)
                                  if self.nys.rank else grad)
    if self.sum is not None:
        self.sum += self.w
    return bool(np.isfinite(self.w).all())


def unshared_reads(monkeypatch):
    """Patch in :func:`two_gather_step`, and make every snapshot gradient
    and record form its own margins (``monkeypatch`` undoes it)."""
    monkeypatch.setattr(optimizers._DenseIterate, "step", two_gather_step)
    gradient = ProblemOracle.minibatch_gradient
    monkeypatch.setattr(ProblemOracle, "minibatch_gradient",
                        lambda self, w, batch, margins=None: gradient(self, w, batch))
    record = optimizers._Recorder.record

    def own_margins(self, w, passes, wall, iteration, margins=None):
        record(self, w, passes, wall, iteration)

    monkeypatch.setattr(optimizers._Recorder, "record", own_margins)
