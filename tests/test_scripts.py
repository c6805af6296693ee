"""Smoke test of the command-line scripts in scripts/."""

import ast
import json
import os
import runpy
import subprocess
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


def test_table_diff_matches_differing_row_sets_on_key_columns(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "table_diff.py"), run_name="smoke")
    header = "# experiment = demo\nsection,n0,diff,probability\n"
    old, new, floats, fewer = (tmp_path / name for name in ("old.csv", "new.csv", "floats.csv", "fewer.csv"))
    old.write_text(header + "joint,0,-1,0.5\njoint,1,0,0.25\njoint,2,1,0.25\n", encoding="utf-8")
    new.write_text(header + "joint,0,-1,0.5\njoint,1,0,0.125\njoint,3,2,0.125\ndifference,-1,0,0.25\n", encoding="utf-8")
    out = script["compare"](old, new)
    assert out[:3] == ["not byte-identical", "metadata: identical (1 lines)", "rows: 3 -> 4, 2 matched on their first 3 column(s)"]
    columns = {line.split()[0]: line.split()[1:] for line in out[4:8]}
    assert columns["section"] == ["0", "n/a"] and columns["n0"] == ["0", "0"]
    assert columns["probability"] == ["1", "0.125"]
    assert out[8:] == ["only in old: 1 row(s)", "  joint,2,1,0.25", "only in new: 2 row(s)", "  joint,3,2,0.125", "  difference,-1,0,0.25"]
    # a leading float column is no key: rows stay matched by position
    floats.write_text("x,y\n0.5,1\n1.5,2\n", encoding="utf-8")
    fewer.write_text("x,y\n0.5,1\n", encoding="utf-8")
    assert script["compare"](floats, fewer)[-1] == "row counts differ: 2 -> 1"


def test_table_diff_reads_json_tables_as_json(tmp_path):
    from dipnesim.cli import main

    script = runpy.run_path(str(SCRIPTS / "table_diff.py"), run_name="smoke")
    old, new, csv = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "old.csv"
    argv = ["oracle-check", "--circuits", "4", "--cutoff", "40", "--out"]
    assert main(argv + [str(old), "--json"]) == 0 and main(argv + [str(csv)]) == 0
    table = json.loads(old.read_text(encoding="utf-8"))
    assert table["metadata"]["within_tolerance"] == "yes"
    table["metadata"]["within_tolerance"] = "no"
    table["rows"][1][1] += 0.5
    new.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    out = script["compare"](old, new)
    assert out[:5] == [
        "not byte-identical",
        "metadata: 1 line(s) differ",
        "  - # within_tolerance = yes",
        "  + # within_tolerance = no",
        "rows: 5",
    ]
    columns = {line.split()[0]: line.split()[1:] for line in out[6:]}
    assert columns == {
        "circuit_id": ["0", "n/a"],
        "max_meanphoton_error": ["1", "0.5"],
        "max_quadrature_error": ["0", "0"],
    }
    # the same run as CSV and as JSON holds the same metadata and cells
    same = script["compare"](csv, old)
    assert same[1:3] == [f"metadata: identical ({len(table['metadata'])} lines)", "rows: 5"]
    assert all(line.split()[1] == "0" for line in same[4:])
    # a file that starts as JSON but is none is a usage error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n", encoding="utf-8")
    assert script["main"]([str(old), str(bad)]) == 2


def test_table_diff_survives_a_closed_pipe(tmp_path):
    # table_diff.py OLD NEW | head -1: the reader closes after one line
    header = "# experiment = demo\nsection,n0,probability\n"
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(header + "joint,0,0.5\n", encoding="utf-8")
    # rows only in new: a report far larger than a pipe's buffer
    new.write_text(header + "".join(f"joint,{n},0.25\n" for n in range(20000)), encoding="utf-8")
    argv = [sys.executable, str(SCRIPTS / "table_diff.py"), str(old), str(new)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"not byte-identical\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_traffic_lines_traces_one_run():
    import dipnesim
    from dipnesim.experiments import make_config, run_experiment

    script = runpy.run_path(str(SCRIPTS / "traffic_lines.py"), run_name="smoke")
    package = Path(dipnesim.__file__).resolve().parent
    seen = script["reached_lines"](lambda: run_experiment(make_config("gaussdrive")), package)
    missed = set(script["unreached"](package, seen)["experiments"])
    path = package / "experiments.py"
    found, lines = script["statements"](path), path.read_text(encoding="utf-8").splitlines()
    bodies = {
        node.name: [first for first in found if node.lineno < first <= node.end_lineno]
        for node in ast.parse("\n".join(lines)).body
        if isinstance(node, ast.FunctionDef)
    }
    # every statement of run_gaussdrive runs but its input check's raise
    raises = {first for first in bodies["run_gaussdrive"] if lines[first - 1].lstrip().startswith("raise ")}
    assert len(raises) == 1
    assert missed.intersection(bodies["run_gaussdrive"]) == raises
    assert bodies["run_numberdiff"] and missed.issuperset(bodies["run_numberdiff"])


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_traffic_lines_reaches_pin_blas_with_a_thread_variable_set(tmp_path, monkeypatch, variable):
    import dipnesim
    from dipnesim.cli import main

    monkeypatch.setenv(variable, "2")
    script = runpy.run_path(str(SCRIPTS / "traffic_lines.py"), run_name="smoke")
    package = Path(dipnesim.__file__).resolve().parent
    seen = script["reached_lines"](lambda: main(["gaussdrive", "--r_steps", "2", "--out", str(tmp_path / "t.csv")]), package)
    assert os.environ[variable] == "2"
    path = package / "cli.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    pin = next(node for node in ast.parse("\n".join(lines)).body if getattr(node, "name", None) == "_pin_blas")
    body = sorted(first for first in script["statements"](path) if pin.lineno < first <= pin.end_lineno)
    missed = set(script["unreached"](package, seen)["cli"])
    # the early return goes unreached and the body after it runs
    assert lines[body[1] - 1].strip() == "return" and body[1] in missed
    assert lines[body[2] - 1].lstrip().startswith("libs = ") and body[2] not in missed


def test_table_ab_compares_each_table_under_both_thread_counts(tmp_path):
    # structure only, on one tiny config and one that exits before writing
    src = str(SCRIPTS.parent / "src")
    script = runpy.run_path(str(SCRIPTS / "table_ab.py"), run_name="smoke")
    tables = [("tiny.csv", ["gaussdrive", "--r_steps", "2"]), ("bad.csv", ["gaussdrive", "--r_steps", "x"])]
    results = script["compare_trees"](src, src, tables, tmp_path)
    assert [result[:4] for result in results] == [
        (threads, label, code, code) for threads in ("1", "2") for label, code in (("tiny.csv", 0), ("bad.csv", 2))
    ]
    assert [result[4] for result in results] == [["byte-identical"], ["missing table"]] * 2
    labels = [label for label, _ in script["jobs"]()]
    assert len(labels) == len(set(labels)) == 47
    assert script["main"]([src]) == 2


def test_ab_inprocess_reports_pairs(capsys):
    # structure only, on a tiny config: the timings themselves are not checked
    src = str(SCRIPTS.parent / "src")
    script = runpy.run_path(str(SCRIPTS / "ab_inprocess.py"), run_name="smoke")
    argv = [src, src, "oracle-check", "--seeds", "3-4", "--reps", "2", "--set", "circuits=3", "--set", "cutoff=6"]
    assert script["main"](argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [pair["seed"] for pair in report["pairs"]] == [3, 4]
    assert all(pair["parent"] > 0 and pair["change"] > 0 for pair in report["pairs"])
    # each interpreter's ru_maxrss: at least numpy's import, far below a GB
    assert all(10 < pair[f"{side}_rss_mb"] < 1000 for pair in report["pairs"] for side in ("parent", "change"))
    assert report["overrides"] == {"circuits": "3", "cutoff": "6"}
    assert 0 <= report["change_wins"] <= 2 and report["ratio_of_sums"] > 0
    assert script["main"](argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed parent_s change_s ratio faster parent_rss_mb change_rss_mb"
    assert [line.split()[0] for line in lines[1:4]] == ["3", "4", "sum"]
    assert all(len(line.split()) == 7 and float(line.split()[5]) > 10 for line in lines[1:3])
    assert lines[4].startswith("change faster on ") and lines[4].endswith("/2 seeds")
    assert script["main"]([src, src]) == 2
