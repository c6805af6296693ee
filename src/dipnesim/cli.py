"""Command-line entry point.

    dipne-sim <experiment> [--config FILE] [--out FILE] [--json] [--key value ...]

Exit codes: 0 success, 2 config error or unwritable --out file,
3 oracle-check tolerance breach, 4 numerical failure (LinAlgError,
FloatingPointError or MemoryError).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    EXPERIMENTS,
    make_config,
    read_config_file,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipne-sim",
        description="Run a simulation experiment and print its table.",
        epilog="Any extra --key value pairs override config-file entries.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="write the table here instead of stdout")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    return parser


def _pair_overrides(extra: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--") or len(token) == 2:
            raise ValueError(f"expected --key value pairs, got {token!r}")
        if i + 1 >= len(extra):
            raise ValueError(f"missing value for {token}")
        overrides[token[2:]] = extra[i + 1]
        i += 2
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        params: dict[str, str] = {}
        if args.config:
            params.update(read_config_file(args.config))
        params.update(_pair_overrides(extra))
        config = make_config(args.experiment, params)
        table = run_experiment(config)
        text = table.to_json() if args.json else table.to_csv()
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    # before ValueError, which LinAlgError subclasses
    except (np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.experiment == "oracle-check":
        try:
            ok = table.meta("within_tolerance") == "yes"
        except KeyError:
            ok = False
        if not ok:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
