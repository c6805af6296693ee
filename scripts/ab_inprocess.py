#!/usr/bin/env python3
"""Paired in-process timing of one experiment on two src/ trees.

Usage: ab_inprocess.py PARENT_SRC CHANGE_SRC EXPERIMENT [--seeds A-B]
           [--reps N] [--set KEY=VALUE ...] [--json]

For each seed in A..B (default 2001-2010) the two trees run one after the
other, each in a fresh interpreter, and the order alternates from seed to
seed.  An interpreter pins the BLAS pools to one thread, imports dipnesim
from its tree, builds the experiment's config (the seed goes to the config
key "seed" when the experiment has one, and only labels the pair
otherwise), runs it once to warm the caches and then times N calls of
run_experiment (default 6).  Warnings are off.  Each interpreter also
reports its peak resident set size (ru_maxrss, in MB as bench/child.py
counts it), import and warm-up call included.

Prints one line per seed with both medians, their ratio (change over
parent), the faster side and both peak RSS figures, then the ratio of the
summed medians and the number of seeds the change won.  --json prints the
same as one JSON object, with parent_rss_mb and change_rss_mb per pair.
Timing and memory only: the tables are not compared (use table_diff.py for
that).
"""

import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, resource, sys, time, warnings
src, experiment, seed, reps, overrides = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), json.loads(sys.argv[5])
sys.path.insert(0, src)
warnings.simplefilter("ignore")
from dipnesim.experiments import SCHEMAS, make_config, run_experiment
if "seed" in SCHEMAS[experiment]:
    overrides["seed"] = seed
config = make_config(experiment, overrides)
run_experiment(config)
times = []
for _ in range(reps):
    start = time.perf_counter()
    run_experiment(config)
    times.append(time.perf_counter() - start)
print(json.dumps([times, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
"""

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usage(message: str) -> int:
    print(f"ab_inprocess.py: {message}", file=sys.stderr)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


def _time(src: str, experiment: str, seed: int, reps: int, overrides: dict) -> tuple[float, float]:
    """Median of ``reps`` warm in-process calls in a fresh interpreter, and
    that interpreter's peak RSS in MB."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "-c", CHILD, os.path.abspath(src), experiment, str(seed), str(reps), json.dumps(overrides)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    times, rss_mb = json.loads(out)
    return statistics.median(times), rss_mb


def main(argv: list[str]) -> int:
    args, seeds, reps, overrides, as_json = [], (2001, 2010), 6, {}, False
    it = iter(argv)
    try:
        for arg in it:
            if arg == "--seeds":
                lo, _, hi = next(it).partition("-")
                seeds = (int(lo), int(hi or lo))
            elif arg == "--reps":
                reps = int(next(it))
            elif arg == "--set":
                key, sep, value = next(it).partition("=")
                if not sep:
                    return _usage("--set takes KEY=VALUE")
                overrides[key] = value
            elif arg == "--json":
                as_json = True
            else:
                args.append(arg)
    except (StopIteration, ValueError):
        return _usage("bad option value")
    if len(args) != 3 or reps < 1 or seeds[1] < seeds[0]:
        return _usage("expected PARENT_SRC CHANGE_SRC EXPERIMENT")
    parent, change, experiment = args
    pairs = []
    for i, seed in enumerate(range(seeds[0], seeds[1] + 1)):
        sides = [("parent", parent), ("change", change)]
        timed = {name: _time(src, experiment, seed, reps, overrides) for name, src in sides[:: 1 if i % 2 == 0 else -1]}
        pair = {"seed": seed}
        for name, (median, rss_mb) in timed.items():
            pair[name], pair[f"{name}_rss_mb"] = median, rss_mb
        pairs.append(pair)
    total_parent = sum(pair["parent"] for pair in pairs)
    total_change = sum(pair["change"] for pair in pairs)
    wins = sum(pair["change"] < pair["parent"] for pair in pairs)
    if as_json:
        summary = {"experiment": experiment, "reps": reps, "overrides": overrides, "pairs": pairs}
        print(json.dumps({**summary, "ratio_of_sums": total_change / total_parent, "change_wins": wins}))
        return 0
    print("seed parent_s change_s ratio faster parent_rss_mb change_rss_mb")
    for pair in pairs:
        faster = "change" if pair["change"] < pair["parent"] else "parent"
        print(f"{pair['seed']} {pair['parent']:.4f} {pair['change']:.4f} {pair['change'] / pair['parent']:.3f} {faster}"
              f" {pair['parent_rss_mb']:.2f} {pair['change_rss_mb']:.2f}")
    print(f"sum {total_parent:.4f} {total_change:.4f} {total_change / total_parent:.3f}")
    print(f"change faster on {wins}/{len(pairs)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
