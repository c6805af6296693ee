"""One benchmark invocation in a fresh interpreter, as a CLI user runs it.

    python3 bench/child.py RECORD_JSON [--trace] [--setup-only] -- ARGV...

Times the import of dipnesim (setup) and one ``dipnesim.cli.main(ARGV)``
call (run), then writes a JSON record with the exit code, the timings, the
process CPU time of the call, the peak resident set size and, with
``--trace``, the spans recorded around every public function of the
package.  Only the standard library is imported before the timed import,
so numpy and scipy are paid for inside setup.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(args: list[str]) -> int:
    sep = args.index("--")
    record_path, flags, argv = args[0], set(args[1:sep]), args[sep + 1 :]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import dipnesim  # noqa: F401
    import dipnesim.cli

    t1 = time.perf_counter()
    record = {"setup_s": t1 - t0, "module": dipnesim.__file__}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            import spans  # from this directory, sys.path[1]

            tracer = spans.install()
        rc = None
        c0 = time.process_time()
        t2 = time.perf_counter()
        try:
            rc = dipnesim.cli.main(argv)
        except Exception:  # a crash is a result to report, not a harness error
            record["error"] = traceback.format_exc()
        t3 = time.perf_counter()
        record.update(
            rc=rc,
            run_s=t3 - t2,
            cpu_s=time.process_time() - c0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
