#!/usr/bin/env python3
"""Compare two tables written by dipne-sim, as CSV or with --json.

Usage: table_diff.py OLD NEW

Prints whether the two files are byte-identical, each metadata entry that
differs (key by key, as "# key = value" lines), and for every column the
number of cells that differ and, when both sides parse as numbers, the
largest absolute deviation |new - old|.  A JSON table is read as JSON:
its metadata object, its column list and its rows, whose cells are
compared as the CSV cells would be.  Rows are matched by position, unless
their row sets differ and the tables have key columns: the leading
columns that hold integers or text, never other numbers, in both files
(for numberdiff section, n0, n1 and diff).  Then rows are matched on
those keys, the deviations cover the matched rows, and the rows found in
only one file are listed.  Exits 0 when the files are byte-identical, 1
when they differ, and 2 on a usage error or a file that cannot be read as
UTF-8 text or, when it starts with "{", as JSON, with the same status and
no traceback when the reader of the report closes early
(table_diff.py OLD NEW | head).
"""

import json
import math
import os
import sys


def _read(path):
    """(raw bytes, {metadata key: value text}, columns, rows of cell texts)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    if text.startswith("{"):
        table = json.loads(text)
        rows = [[cell if isinstance(cell, str) else json.dumps(cell) for cell in row] for row in table["rows"]]
        return raw, {key: str(value) for key, value in table["metadata"].items()}, table["columns"], rows
    lines = text.splitlines()
    meta = dict(line[2:].partition(" = ")[::2] for line in lines if line.startswith("#"))
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


def _is_key_cell(cell) -> bool:
    """An integer or text, not any other number."""
    try:
        int(cell)
        return True
    except ValueError:
        pass
    try:
        float(cell)
    except ValueError:
        return True
    return False


def _key_width(old_rows, new_rows) -> int:
    """How many leading columns hold only key cells in both tables."""
    if not old_rows or not new_rows:
        return 0
    rows, width = old_rows + new_rows, 0
    while all(width < len(row) and _is_key_cell(row[width]) for row in rows):
        width += 1
    return width


def _match(old_rows, new_rows):
    """(pairs, only_old, only_new, note): rows paired by position, or by key
    when the row sets differ and the tables have unique key columns; None in
    place of the report when neither applies."""
    width = _key_width(old_rows, new_rows)
    old_keys, new_keys = ([tuple(row[:width]) for row in rows] for rows in (old_rows, new_rows))
    if width == 0 or old_keys == new_keys:
        if len(old_rows) != len(new_rows):
            return None
        return list(zip(old_rows, new_rows)), [], [], f"rows: {len(old_rows)}"
    if len(set(old_keys)) < len(old_keys) or len(set(new_keys)) < len(new_keys):
        return None
    new_by_key = dict(zip(new_keys, new_rows))
    pairs = [(row, new_by_key[key]) for key, row in zip(old_keys, old_rows) if key in new_by_key]
    only_old = [row for key, row in zip(old_keys, old_rows) if key not in new_by_key]
    old_set = set(old_keys)
    only_new = [row for key, row in zip(new_keys, new_rows) if key not in old_set]
    note = f"rows: {len(old_rows)} -> {len(new_rows)}, {len(pairs)} matched on their first {width} column(s)"
    return pairs, only_old, only_new, note


def compare(old_path, new_path) -> list[str]:
    """Report lines; the first says whether the files are byte-identical."""
    old_raw, old_meta, old_cols, old_rows = _read(old_path)
    new_raw, new_meta, new_cols, new_rows = _read(new_path)
    if old_raw == new_raw:
        return ["byte-identical"]
    report = ["not byte-identical"]
    moved = [
        tuple(f"# {key} = {meta[key]}" if key in meta else "(missing)" for meta in (old_meta, new_meta))
        for key in {**old_meta, **new_meta}
        if old_meta.get(key) != new_meta.get(key)
    ]
    if moved:
        report.append(f"metadata: {len(moved)} line(s) differ")
        for a, b in moved:
            report.extend((f"  - {a}", f"  + {b}"))
    else:
        report.append(f"metadata: identical ({len(old_meta)} lines)")
    if old_cols != new_cols:
        report.append(f"columns differ: {','.join(old_cols)} -> {','.join(new_cols)}")
        return report
    matched = _match(old_rows, new_rows)
    if matched is None:
        report.append(f"row counts differ: {len(old_rows)} -> {len(new_rows)}")
        return report
    pairs, only_old, only_new, note = matched
    report.append(note)
    width = max([len("column")] + [len(c) for c in old_cols])
    report.append(f"{'column':<{width}}  differing  max |new - old|")
    for i, col in enumerate(old_cols):
        cells = [(a[i], b[i]) for a, b in pairs]
        differing = sum(a != b for a, b in cells)
        devs = [_deviation(a, b) for a, b in cells]
        if any(dev is None for dev in devs):
            largest = "n/a"
        else:
            largest = f"{max(devs, default=0.0):.3g}"
        report.append(f"{col:<{width}}  {differing:>9}  {largest}")
    for label, rows in (("old", only_old), ("new", only_new)):
        if rows:
            report.append(f"only in {label}: {len(rows)} row(s)")
            report.extend(f"  {','.join(row)}" for row in rows)
    return report


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        report = compare(*argv)
    # ValueError covers UnicodeDecodeError and a malformed JSON table, KeyError a JSON object with no table
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print("\n".join(report), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe (table_diff.py ... | head): point stdout
        # at devnull, so the interpreter's flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report == ["byte-identical"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
