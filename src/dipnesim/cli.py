"""Command-line entry point.

    dipne-sim EXPERIMENT [--config FILE] [--out FILE] [--json] [--key value ...]

Exit codes: 0 success (and -h/--help), 2 usage or config error or
unwritable --out file (opened before the run; a regular file is replaced
only once the table is ready), 3 oracle-check tolerance breach, 4
numerical failure (LinAlgError, FloatingPointError or MemoryError).

The arguments are read by hand: a CLI call is often a run of a few
milliseconds, and argparse's parser build and gettext lookup cost a
noticeable share of that.  For the same reason a call pins numpy's
bundled OpenBLAS to one thread (see _pin_blas).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys

import numpy as np

from .experiments import (
    EXPERIMENTS,
    make_config,
    read_config_file,
    run_experiment,
)

USAGE = "usage: dipne-sim EXPERIMENT [--config FILE] [--out FILE] [--json] [--key value ...]"

HELP = f"""{USAGE}

Run a simulation experiment and print its table.

experiments: {', '.join(EXPERIMENTS)}

options:
  -h, --help     show this message and exit
  --config FILE  flat key=value config file
  --out FILE     write the table here instead of stdout
  --json         emit JSON instead of CSV

Any extra --key value pairs override config-file entries.
"""


def _pin_blas() -> None:
    """One thread for the OpenBLAS that numpy bundles, unless
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS says otherwise.  After an idle
    pause, a call big enough to wake the pool's second thread runs ~70x
    slow for about a second, and no experiment gains from a second thread.
    Without the bundled library or its symbol this does nothing."""
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    with contextlib.suppress(OSError):
        for name in os.listdir(libs):
            if name.startswith("libscipy_openblas64_"):
                with contextlib.suppress(OSError, AttributeError):
                    set_threads = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_set_num_threads64_
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    set_threads(1)


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


def _parse(argv: list[str]) -> tuple[str, dict[str, str | None], bool, list[str]]:
    """(experiment, {"--config": FILE, "--out": FILE}, json, extra tokens);
    a missing or unknown experiment, or an option without its value or with
    an empty one, raises."""
    experiment, files, as_json, extra = None, {"--config": None, "--out": None}, False, []
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name in files:
            files[name] = value if eq else next(tokens, None)
            if not files[name]:
                raise ValueError(f"{name} needs a value")
        elif token == "--json":
            as_json = True
        elif experiment is None and not token.startswith("-"):
            experiment = token
        else:
            extra.append(token)
    if experiment not in EXPERIMENTS:
        what = "missing experiment" if experiment is None else f"unknown experiment {experiment!r}"
        raise ValueError(f"{what}: valid names are {', '.join(EXPERIMENTS)}")
    return experiment, files, as_json, extra


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(HELP, end="")
        return 0
    try:
        experiment, files, as_json, extra = _parse(argv)
    except ValueError as exc:
        print(f"error: {exc}\n{USAGE}", file=sys.stderr)
        return 2
    _pin_blas()
    try:
        params: dict[str, str] = {}
        if files["--config"]:
            params.update(read_config_file(files["--config"]))
        params.update(_pair_overrides(extra))
        config = make_config(experiment, params)
        # open --out before the run, so an unwritable path fails fast; append mode keeps an
        # existing file until the table is ready, then truncates it if regular (not a device or pipe)
        out = files["--out"]
        sink = (
            open(out, "a", encoding="utf-8", newline="")
            if out
            else contextlib.nullcontext(sys.stdout)
        )
        with sink as fh:
            table = run_experiment(config)
            text = table.to_json() if as_json else table.to_csv()
            if out and os.path.isfile(out):
                fh.truncate(0)
            fh.write(text)
    # before ValueError, which LinAlgError subclasses
    except (np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if experiment == "oracle-check":
        try:
            ok = table.meta("within_tolerance") == "yes"
        except KeyError:
            ok = False
        if not ok:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
