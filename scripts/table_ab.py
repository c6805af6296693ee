#!/usr/bin/env python3
"""Check that two src/ trees print the same tables, byte for byte.

Usage: table_ab.py PARENT_SRC CHANGE_SRC

Each table is one dipne-sim call in a fresh interpreter that imports
dipnesim from the tree, with PYTHONPATH removed, once under
OPENBLAS_NUM_THREADS=1 and once under =2 (OMP_NUM_THREADS removed).  The
tables are:
- the seven default experiments, as CSV and with --json;
- each bench workload's argv for seeds 1-8 (bench/workloads.py, read
  only);
- oracle-check --seed 2005.

Each pair of tables is compared with table_diff.compare (JSON tables as
JSON), and a pair whose exit codes differ counts as differing.  Prints one
line per differing pair with table_diff's full report, then a summary
line.  Exits 0 when every pair is
byte-identical with equal exit codes, 1 otherwise, and 2 on a usage error.
"""

import importlib.util
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
THREADS = ("1", "2")

CHILD = """
import sys, warnings
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("ignore")
from dipnesim.cli import main
sys.exit(main(sys.argv[2:]))
"""


def jobs() -> list[tuple[str, list[str]]]:
    """(label, argv) of every table the check compares."""
    sys.path.insert(0, str(ROOT / "src"))
    from dipnesim.experiments import EXPERIMENTS

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    found = [(f"{name}.csv", [name]) for name in EXPERIMENTS]
    found += [(f"{name}.json", [name, "--json"]) for name in EXPERIMENTS]
    for workload in workloads.WORKLOADS.values():
        found += [(f"{workload.name}-{seed}.csv", workload.argv(seed)) for seed in SEEDS]
    found.append(("oracle-check-2005.csv", ["oracle-check", "--seed", "2005"]))
    return found


def write_table(src: str, argv: list[str], out: Path, threads: str) -> int:
    """Run one dipne-sim call on the tree at src in a fresh interpreter,
    writing its table to out; its exit code."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env.pop("OMP_NUM_THREADS", None)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-c", CHILD, os.path.abspath(src), *argv, "--out", str(out)]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def compare_trees(parent: str, change: str, tables, workdir: Path) -> list[tuple[str, str, int, int, list[str]]]:
    """(threads, label, parent code, change code, table_diff report) for
    every table under every thread count."""
    compare = runpy.run_path(str(Path(__file__).with_name("table_diff.py")), run_name="table_diff")["compare"]
    results = []
    for threads in THREADS:
        for label, argv in tables:
            paths = [workdir / f"{side}-{threads}-{label}" for side in ("parent", "change")]
            codes = [write_table(src, argv, path, threads) for src, path in zip((parent, change), paths)]
            report = compare(*paths) if all(path.exists() for path in paths) else ["missing table"]
            results.append((threads, label, *codes, report))
    return results


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = compare_trees(*argv, jobs(), Path(tmp))
    same = 0
    for threads, label, parent_code, change_code, report in results:
        if report == ["byte-identical"] and parent_code == change_code:
            same += 1
            continue
        print(f"threads={threads} {label}: exit {parent_code} -> {change_code}, {report[0]}")
        for line in report[1:]:
            print(f"  {line}")
    print(f"{same} of {len(results)} table pairs byte-identical")
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
