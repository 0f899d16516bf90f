import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_checks_accept_right_and_reject_wrong_results():
    # The benchmark's own self-test, run as it is run by hand, so that a
    # package change that breaks one of its output checks fails here.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
