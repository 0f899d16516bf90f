import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [path.stem for path in DEMOS] == [
        "libsvm_pipeline", "preconditioner_quality", "quadratic_head_to_head",
        "spectral_diagnostics"]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_in_process(path, tmp_path, monkeypatch, capsys):
    # anything a demo writes lands in the test's temporary directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
