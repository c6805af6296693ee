#!/usr/bin/env python3
"""Compare two CSV tables written by dipne-sim.

Usage: table_diff.py OLD.csv NEW.csv

Prints whether the two files are byte-identical, each "# key = value"
metadata line that differs, and for every column the number of cells that
differ and, when both sides parse as numbers, the largest absolute
deviation |new - old|.  Exits 0 when the files are byte-identical, 1 when
they differ, and 2 on a usage error or a file that cannot be read as UTF-8
text.
"""

import math
import sys


def _read(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return raw, meta, body[0] if body else [], body[1:]


def _deviation(old, new):
    """|new - old| for two numeric cells, None if either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a)


def compare(old_path, new_path) -> list[str]:
    """Report lines; the first says whether the files are byte-identical."""
    old_raw, old_meta, old_cols, old_rows = _read(old_path)
    new_raw, new_meta, new_cols, new_rows = _read(new_path)
    if old_raw == new_raw:
        return ["byte-identical"]
    report = ["not byte-identical"]
    moved = [(a, b) for a, b in zip(old_meta, new_meta) if a != b]
    for line in old_meta[len(new_meta):]:
        moved.append((line, "(missing)"))
    for line in new_meta[len(old_meta):]:
        moved.append(("(missing)", line))
    if moved:
        report.append(f"metadata: {len(moved)} line(s) differ")
        for a, b in moved:
            report.extend((f"  - {a}", f"  + {b}"))
    else:
        report.append(f"metadata: identical ({len(old_meta)} lines)")
    if old_cols != new_cols:
        report.append(f"columns differ: {','.join(old_cols)} -> {','.join(new_cols)}")
        return report
    if len(old_rows) != len(new_rows):
        report.append(f"row counts differ: {len(old_rows)} -> {len(new_rows)}")
        return report
    report.append(f"rows: {len(old_rows)}")
    width = max([len("column")] + [len(c) for c in old_cols])
    report.append(f"{'column':<{width}}  differing  max |new - old|")
    for i, col in enumerate(old_cols):
        cells = [(a[i], b[i]) for a, b in zip(old_rows, new_rows)]
        differing = sum(a != b for a, b in cells)
        devs = [_deviation(a, b) for a, b in cells]
        if any(dev is None for dev in devs):
            largest = "n/a"
        else:
            largest = f"{max(devs, default=0.0):.3g}"
        report.append(f"{col:<{width}}  {differing:>9}  {largest}")
    return report


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        report = compare(*argv)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    return 0 if report == ["byte-identical"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
