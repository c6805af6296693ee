#!/usr/bin/env python3
"""List the statements of src/dipnesim that no traffic reaches.

Usage: traffic_lines.py

In one process under sys.settrace it runs the traffic:
- the seven default experiments;
- each bench workload's argv for seeds 1-8 (bench/workloads.py, read
  only), each followed by the workload's verify on the table it wrote;
- tests/test_acceptance.py, whose output goes to stderr.

The import of dipnesim runs under the trace as well.  OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS are removed from os.environ while the traffic runs and
restored afterwards, so cli._pin_blas takes its full path and the count
does not depend on the caller's environment.  Then it prints, per
module, each statement in a function body that none of it reached: its
line number and first source line.  Docstrings and statements with no
bytecode (global, nonlocal) are left out, and so is module and class level
code, which runs at import.  A compound statement counts as reached when
its header runs.
"""

import ast
import contextlib
import importlib.util
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
# cli._pin_blas returns early when either is set
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _header_lines(stmt: ast.stmt) -> range:
    """The lines of a simple statement, or of a compound one's header."""
    inner = [
        (child.pattern if isinstance(child, ast.match_case) else child).lineno
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case))
    ]
    return range(stmt.lineno, max(stmt.lineno, min(inner, default=stmt.end_lineno + 1) - 1) + 1)


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path) -> dict[int, range]:
    """{first line: header lines} of each statement with bytecode in a
    function body of the module at path, docstrings left out."""
    source = Path(path).read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo = node.body[1:] if ast.get_docstring(node) is not None else list(node.body)
        while todo:
            stmt = todo.pop()
            lines = _header_lines(stmt)
            if executable.intersection(lines):
                found[stmt.lineno] = lines
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # ast.walk reaches nested functions on its own
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    todo.append(child)
                elif isinstance(child, (ast.excepthandler, ast.match_case)):
                    todo.extend(child.body)
    return found


def reached_lines(run, package: Path) -> dict[str, set[int]]:
    """Call run() under sys.settrace, with THREAD_VARIABLES out of
    os.environ; {file: lines run} for the .py files of package, keyed by
    their real paths."""
    prefix = str(package.resolve()) + os.sep
    real: dict[str, str | None] = {}
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[real[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path.startswith(prefix) else None
            if real[name]:
                seen.setdefault(path, set())
        return local if real[name] else None

    saved = {name: os.environ.pop(name) for name in THREAD_VARIABLES if name in os.environ}
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
        os.environ.update(saved)
    return seen


def unreached(package: Path, seen: dict[str, set[int]]) -> dict[str, list[int]]:
    """{module: first lines of the statements none of seen reached}."""
    report = {}
    for path in sorted(package.resolve().glob("*.py")):
        lines = seen.get(str(path), set())
        report[path.stem] = sorted(first for first, header in statements(path).items() if not lines.intersection(header))
    return report


def _traffic() -> None:
    import pytest

    from dipnesim.cli import main
    from dipnesim.experiments import EXPERIMENTS, make_config, run_experiment

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in EXPERIMENTS:
            run_experiment(make_config(name))
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.WORKLOADS.values():
                for seed in SEEDS:
                    argv, out = workload.argv(seed), Path(tmp, f"{workload.name}-{seed}.csv")
                    rc = main(argv + ["--out", str(out)])
                    text = out.read_text(encoding="utf-8") if out.exists() else None
                    _, failed = workload.verify(argv, rc, text)
                    if failed:
                        print(f"{workload.name} seed {seed}: {failed} row(s) failed verify", file=sys.stderr)
    with contextlib.redirect_stdout(sys.stderr):
        pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"])


def main(argv) -> int:
    if argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    # the import runs under the trace too: SCHEMAS calls _choice at import
    sys.path.insert(0, str(ROOT / "src"))
    package = ROOT / "src" / "dipnesim"
    report = unreached(package, reached_lines(_traffic, package))
    for module, firsts in report.items():
        source = (package / f"{module}.py").read_text(encoding="utf-8").splitlines()
        print(f"{module}: {len(firsts)} statement(s) not reached")
        for first in firsts:
            print(f"  {first:4d}  {source[first - 1].strip()}")
    print(f"total: {sum(map(len, report.values()))} statement(s) not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
