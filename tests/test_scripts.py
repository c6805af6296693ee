"""Smoke test of the command-line scripts in scripts/."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_load_and_driving_fractions_runs(tmp_path, monkeypatch):
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths
    for path in paths:
        # imports and definitions only: the run is guarded by __main__
        runpy.run_path(str(path), run_name="smoke")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["driving_fractions.py"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "driving_fractions.py"), run_name="__main__")
    assert done.value.code == 0
    lines = (tmp_path / "driving_fractions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# experiment = gaussdrive"
