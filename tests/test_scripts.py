"""Smoke test of the command-line scripts in scripts/."""

import json
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


def test_table_diff_reports_metadata_and_column_deviations(tmp_path, capsys, monkeypatch):
    from dipnesim.cli import main

    old, same, new = (tmp_path / name for name in ("old.csv", "same.csv", "new.csv"))
    for path in (old, same):
        assert main(["interference", "--fraction_count", "3", "--out", str(path)]) == 0
    lines = old.read_text(encoding="utf-8").splitlines()
    body = lines.index("fraction,L_intf_sim,L_intf_theory,abs_error")
    lines[1] = lines[1] + "0"
    fraction, sim, theory, error = lines[body + 2].split(",")
    lines[body + 2] = ",".join((fraction, repr(float(sim) + 0.25), theory, error))
    new.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    def run(*argv):
        with pytest.raises(SystemExit) as done:
            monkeypatch.setattr(sys, "argv", ["table_diff.py", *map(str, argv)])
            runpy.run_path(str(SCRIPTS / "table_diff.py"), run_name="__main__")
        captured = capsys.readouterr()
        return done.value.code, captured.out.splitlines(), captured.err

    code, out, _ = run(old, same)
    assert (code, out) == (0, ["byte-identical"])
    code, out, _ = run(old, new)
    assert code == 1
    assert out[:2] == ["not byte-identical", "metadata: 1 line(s) differ"]
    assert out[2:5] == [f"  - {old.read_text().splitlines()[1]}", f"  + {lines[1]}", "rows: 3"]
    columns = {line.split()[0]: line.split()[1:] for line in out[6:]}
    assert columns["fraction"] == ["0", "0"]
    assert columns["L_intf_sim"] == ["1", "0.25"]
    assert columns["L_intf_theory"] == ["0", "0"]
    code, _, _ = run(old)
    assert code == 2
    # an unreadable file is a usage error, not a differing table
    code, out, err = run(old, tmp_path / "missing.csv")
    assert (code, out) == (2, []) and err.startswith("error:") and "missing.csv" in err
    new.write_bytes(b"\xff\xfe")
    code, out, err = run(old, new)
    assert (code, out) == (2, []) and err.startswith("error:")


def test_ab_inprocess_reports_pairs(capsys):
    # structure only, on a tiny config: the timings themselves are not checked
    src = str(SCRIPTS.parent / "src")
    script = runpy.run_path(str(SCRIPTS / "ab_inprocess.py"), run_name="smoke")
    argv = [src, src, "oracle-check", "--seeds", "3-4", "--reps", "2", "--set", "circuits=3", "--set", "cutoff=6"]
    assert script["main"](argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [pair["seed"] for pair in report["pairs"]] == [3, 4]
    assert all(pair["parent"] > 0 and pair["change"] > 0 for pair in report["pairs"])
    assert report["overrides"] == {"circuits": "3", "cutoff": "6"}
    assert 0 <= report["change_wins"] <= 2 and report["ratio_of_sums"] > 0
    assert script["main"](argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed parent_s change_s ratio faster"
    assert [line.split()[0] for line in lines[1:4]] == ["3", "4", "sum"]
    assert lines[4].startswith("change faster on ") and lines[4].endswith("/2 seeds")
    assert script["main"]([src, src]) == 2
