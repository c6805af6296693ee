"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py

They run the real program on reduced versions of the workload argv, so the
whole file takes about half a minute.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _with(argv: list[str], **changes: str) -> list[str]:
    """argv with some ``--key value`` pairs replaced."""
    out = list(argv)
    for key, value in changes.items():
        out[out.index(f"--{key}") + 1] = value
    return out


# each workload's seed-0 argv, cut down to a few seconds of work where needed
SMALL = {
    "fit-sweep": _with(WORKLOADS["fit-sweep"].argv(0), k_list="1,3,5", squeeze_steps="2"),
    "gadget": _with(WORKLOADS["gadget"].argv(0), fraction_count="3"),
    "match-grid": WORKLOADS["match-grid"].argv(0),
    "oracle-circuits": _with(WORKLOADS["oracle-circuits"].argv(0), circuits="6"),
}


def _corrupt(csv_text: str, row: int, column: str, value: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].rstrip("\n").split(",").index(column)
    cells = lines[header + 1 + row].rstrip("\n").split(",")
    cells[col] = value
    lines[header + 1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


# (row, column, corrupt value) that each workload's check must reject
CORRUPTIONS = {
    "fit-sweep": (5, "infidelity_sqcat", "0.5"),  # k = 5 worse than k = 3
    "gadget": (1, "L_intf_sim", "-1.0"),
    "match-grid": (0, "r_required", "0.25"),
    "oracle-circuits": (2, "max_quadrature_error", "1e-3"),
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Untraced and traced table and spans of every SMALL argv."""
    invoke = run.Invoker("selftest", str(tmp_path_factory.mktemp("bench")))
    return {name: (invoke(argv), invoke(argv, "--trace")) for name, argv in SMALL.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_gives_the_same_argv_for_a_seed(name):
    from dipnesim import make_config

    workload = WORKLOADS[name]
    argvs = [workload.argv(seed) for seed in range(12)]
    assert argvs == [workload.argv(seed) for seed in range(12)]
    assert len({tuple(a) for a in argvs}) > 1
    for argv in argvs:
        make_config(argv[0], {k[2:]: v for k, v in workloads.params(argv).items()})


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrappers_are_transparent(tables, name):
    plain, traced = tables[name]
    assert plain["rc"] == 0 and traced["rc"] == 0
    assert plain["csv"] == traced["csv"]
    summary = spans.summarize(traced["spans"])
    assert summary["cli.main.calls"] == 1
    assert summary["experiments.run_experiment.calls"] == 1
    assert summary["trace.coverage"] > 0.9


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corrupted_value_fails_its_check(tables, name):
    workload, argv = WORKLOADS[name], SMALL[name]
    good = tables[name][0]["csv"]
    expected, failed = workload.verify(argv, 0, good)
    assert expected == len(workloads.parse_csv(good).rows) and failed == 0

    bad = _corrupt(good, *CORRUPTIONS[name])
    assert workload.verify(argv, 0, bad) == (expected, 1)
    # a repeat that differs from the first table fails all its rows
    records = [{"rc": 0, "csv": good}, {"rc": 0, "csv": bad}]
    assert run.verify(workload, argv, records) == (2 * expected, expected)
    # so does an invocation that exits non-zero
    assert run.verify(workload, argv, [{"rc": 2}]) == (expected, expected)


def test_summarize_self_time_and_ratios():
    # cli.main [0, 10] > run_experiment [1, 9] > fit [2, 6] > cat_state x2
    recs = [
        ["cli.main", -1, 0.0, 10.0, 0],
        ["experiments.run_experiment", 0, 1.0, 9.0, 0],
        ["catfit.fit_squeezed_cat", 1, 2.0, 6.0, 0],
        ["states.cat_state", 2, 2.5, 3.5, 11],
        ["states.cat_state", 2, 4.0, 5.0, 11],
    ]
    out = spans.summarize(recs)
    assert out["cli.main.self_s"] == pytest.approx(2.0)
    assert out["experiments.run_experiment.self_s"] == pytest.approx(4.0)
    assert out["catfit.fit_squeezed_cat.self_s"] == pytest.approx(2.0)
    assert out["catfit.fit_squeezed_cat.self_share"] == pytest.approx(0.2)
    assert out["cli.main.wall_s"] == pytest.approx(10.0)
    assert out["states.cat_state.calls"] == 2
    assert out["states.cat_state.amps"] == 22
    assert out["catfit.probes_per_fit"] == 2
    assert out["trace.coverage"] == pytest.approx(0.8)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
