"""dipne-sim benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed picks the experiment argv (see
workloads.py); the run then replays that argv as a closed loop with one
client: fresh interpreters one after another, each importing dipnesim from
``src/`` and calling ``dipnesim.cli.main(argv + ["--out", FILE])``, until
``--seconds`` have passed.  Every table is checked after the loop, outside
the timed region, and every repeat must be byte-identical to the first.

``--trace 0`` reports the end-to-end metrics (medians over the run):
run_s, setup_s and peak_rss_mb.  ``--trace 1`` alternates untraced and
traced invocations and reports the per-layer metrics of the traced ones
(medians), plus the tracing overhead.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; a fuller
report, with the machine block, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

import spans  # noqa: E402  (this directory is sys.path[0])
from workloads import WORKLOADS  # noqa: E402

# setup_s is the median of at least this many imports per run
SETUP_SAMPLES = 5
# no child is started, or left running, past this many seconds of the run
HARD_LIMIT_S = 165.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Functions that some workloads never call report their self time as a
# share of cli.main wall time: a time that reads 0 on every run of a
# workload is indistinguishable from one that was never measured.
_LAYER_FUNCTIONS = {
    "catfit.fit_squeezed_cat": ("calls", "self_share"),
    "states.cat_state": ("calls", "self_share", "amps"),
    "kitten.kitten_direct": ("calls", "self_share"),
    "kitten.kitten_probability": ("calls", "self_share"),
    "circuits.beamsplit": ("calls", "self_share", "bytes"),
    "circuits.squeeze_op": ("calls", "self_share", "bytes"),
    "circuits.displace": ("calls", "self_share"),
    "circuits.interference_gadget": ("calls", "self_share"),
    "fock.marginal_number_distribution": ("calls", "self_share"),
    "fock.tensor": ("calls", "self_share", "bytes"),
    "fock.inner": ("calls", "self_share"),
    "measure.l_intf": ("calls", "self_share"),
    "measure.mean_quadrature": ("calls", "self_share"),
    "analytics.squeeze_to_match": ("calls", "self_share"),
    "analytics.gaussian_propagate": ("calls", "self_share"),
}
_UNITS = {"calls": "count", "self_share": "ratio", "amps": "count", "bytes": "B"}

PER_LAYER = {
    "cli.main.wall_s": "s",
    "cli.main.self_s": "s",
    "cli.main.cpu_s": "s",
    "experiments.run_experiment.self_s": "s",
    **{
        f"{fn}.{part}": _UNITS[part]
        for fn, parts in _LAYER_FUNCTIONS.items()
        for part in parts
    },
    "catfit.probes_per_fit": "count",
    "analytics.fits_per_match": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Invoker:
    """Starts benchmark children one at a time, within the run's hard limit."""

    def __init__(self, workload: str, out_dir: str = OUT_DIR):
        self.start = time.monotonic()
        self.record_path = os.path.join(out_dir, f"{workload}.record.json")
        self.csv_path = os.path.join(out_dir, f"{workload}.csv")

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def __call__(self, argv: list[str], *flags: str) -> dict:
        """Run one child; return its record, with the table text as ``csv``."""
        for path in (self.record_path, self.csv_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.record_path, *flags, "--"]
        if "--setup-only" not in flags:
            cmd += argv + ["--out", self.csv_path]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining(), 1.0)
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return {"rc": None, "error": "timed out"}
        try:
            with open(self.record_path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"rc": None}
        if proc.returncode != 0:
            record["rc"] = None
        record["stderr"] = proc.stderr[-2000:]
        if os.path.exists(self.csv_path):
            with open(self.csv_path, encoding="utf-8") as fh:
                record["csv"] = fh.read()
        return record


def closed_loop(invoke: Invoker, argv: list[str], seconds: float, traced: bool) -> list[dict]:
    """Invocations back to back until ``seconds`` have passed (at least one
    round); with ``traced`` each round is an untraced then a traced call."""
    records = []
    t0 = time.monotonic()
    while not records or (time.monotonic() - t0 < seconds and invoke.remaining() > 0):
        rec = invoke(argv)
        records.append(rec)
        if traced and rec.get("rc") == 0:
            records.append(invoke(argv, "--trace"))
        if rec.get("rc") != 0:
            break
    return records


def verify(workload, argv: list[str], records: list[dict]) -> tuple[int, int]:
    """Rows attempted and failed over all invocations.  Repeats are not
    re-checked: a table that is not byte-identical to the first one fails
    all its rows."""
    first = records[0]
    expected, first_failed = workload.verify(argv, first.get("rc"), first.get("csv"))
    failed = 0
    for rec in records:
        same = rec.get("rc") == 0 and rec.get("csv") == first.get("csv")
        failed += first_failed if same else expected
    return expected * len(records), failed


def end_to_end(records: list[dict], setup_samples: list[float]) -> dict[str, float]:
    ok = [r for r in records if "run_s" in r]
    return {
        "run_s": statistics.median(r["run_s"] for r in ok),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    """Medians over the traced invocations of every summarized span metric,
    plus cli.main.cpu_s and trace.overhead."""
    traced = [r for r in records if "spans" in r]
    plain = [r for r in records if "spans" not in r and "run_s" in r]
    rows = []
    for rec in traced:
        row = spans.summarize(rec["spans"])
        row["cli.main.cpu_s"] = rec["cpu_s"]
        rows.append(row)
    names = set(PER_LAYER).union(*rows) - {"trace.overhead"}
    out = {name: statistics.median(row.get(name, 0) for row in rows) for name in sorted(names)}
    out["trace.overhead"] = (
        statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain) - 1.0
    )
    return out


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(args)

    if not os.path.isfile(os.path.join(ROOT, "src", "dipnesim", "__init__.py")):
        print(f"error: no dipnesim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[opts.workload]
    argv = workload.argv(opts.seed)
    invoke = Invoker(workload.name)

    warm = invoke(argv, "--setup-only")  # fills the page and bytecode caches
    if "setup_s" not in warm:
        print(f"error: dipnesim does not import:\n{warm.get('stderr', '')}", file=sys.stderr)
        return 2

    records = closed_loop(invoke, argv, opts.seconds, traced=bool(opts.trace))
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the checks import dipnesim
    attempted, failed = verify(workload, argv, records)
    metrics: dict[str, tuple[float, str]] = {}
    layers: dict[str, float] = {}
    if opts.trace and any("spans" in r for r in records):
        layers = per_layer(records)
        metrics = {k: (layers[k], unit) for k, unit in PER_LAYER.items()}
    elif not opts.trace and any("run_s" in r for r in records):
        setup = [r["setup_s"] for r in records if "setup_s" in r]
        while len(setup) < SETUP_SAMPLES and invoke.remaining() > 0:
            rec = invoke(argv, "--setup-only")
            if "setup_s" in rec:
                setup.append(rec["setup_s"])
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(records, setup).items()}

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": opts.seed,
        "argv": argv,
        "replay": "dipne-sim " + " ".join(argv),
        "trace": opts.trace,
        "machine": machine(),
        "invocations": [
            {k: v for k, v in r.items() if k not in ("csv", "spans")} for r in records
        ],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": layers,
    }
    name = f"{workload.name}-seed{opts.seed}-trace{opts.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {workload.name} seed {opts.seed} trace {opts.trace}")
    print(f"replay: {report['replay']}")
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    print(f"invocations {len(records)}, rows attempted {attempted}, failed {failed}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": bool(metrics) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
