"""One BLAS thread per test process unless the caller sets a count.

Set here, before any test module imports NumPy, so that OpenBLAS does not
start a thread per core: with several processes on a small host that
oversubscribes the cores, and the wall-time bound of
``test_acceptance.py::test_criterion_2_nystrom_invariants`` assumes it does
not.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
