"""Span tracing of dipnesim from outside the package.

``install()`` wraps every public function of the nine library modules and
puts the wrapper on every module binding of that function (the defining
module, modules that imported it by name, and the package namespace), so
intra-module calls such as ``interference_gadget -> beamsplit`` and
cross-module ones such as ``analytics -> fit_squeezed_cat`` are both seen.
Spans stay in memory as ``[name, parent, start, end, work]`` lists; the
caller writes them out when the run ends.  ``summarize()`` turns one
invocation's spans into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "fock",
    "states",
    "circuits",
    "measure",
    "kitten",
    "catfit",
    "analytics",
    "experiments",
    "cli",
)

AMPLITUDE_BYTES = 16  # complex128


def _state_pass_bytes(args, kwargs, result):
    """Computed bytes of one read and one write of the state, 0 for a no-op."""
    if result is (args[0] if args else kwargs.get("state")):
        return 0
    return 2 * AMPLITUDE_BYTES * result.amplitudes.size


def _tensor_bytes(args, kwargs, result):
    a, b = args[0], args[1]
    return AMPLITUDE_BYTES * (a.amplitudes.size + b.amplitudes.size + result.amplitudes.size)


def _amplitudes(args, kwargs, result):
    return result.amplitudes.size


# span name -> (metric suffix, work computed from (args, kwargs, result))
WORK = {
    "circuits.beamsplit": ("bytes", _state_pass_bytes),
    "circuits.squeeze_op": ("bytes", _state_pass_bytes),
    "fock.tensor": ("bytes", _tensor_bytes),
    "states.cat_state": ("amps", _amplitudes),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if work is not None:
                rec[4] = int(work(args, kwargs, result))
            return result

        return span


def install() -> Tracer:
    """Wrap the public functions of every module in MODULES, in place."""
    tracer = Tracer()
    wrappers = {}
    for short in MODULES:
        module = sys.modules[f"dipnesim.{short}"]
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not inspect.isgeneratorfunction(obj)
            ):
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "dipnesim" or modname.startswith("dipnesim.")):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    return tracer


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    For each span name: ``.calls``, ``.self_s`` (duration minus the time
    its direct child spans cover), ``.self_share`` (``.self_s`` over the
    wall time of the root ``cli.main`` span) and the summed work
    (``.bytes`` or ``.amps``) where WORK defines one.  Also
    ``cli.main.wall_s``, the ratios ``catfit.probes_per_fit`` and
    ``analytics.fits_per_match`` (direct children per parent span) and
    ``trace.coverage`` (share of ``cli.main`` covered by its direct
    children).
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, parent, start, end, work) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child_time[i])
        if name in WORK:
            key = f"{name}.{WORK[name][0]}"
            out[key] = out.get(key, 0) + work

    roots = [i for i, s in enumerate(spans) if s[0] == "cli.main" and s[1] < 0]
    wall = sum(spans[i][3] - spans[i][2] for i in roots)
    for key in [k for k in out if k.endswith(".self_s")]:
        out[key[: -len("self_s")] + "self_share"] = out[key] / wall if wall > 0 else 0.0
    out["cli.main.wall_s"] = wall
    out["trace.coverage"] = sum(child_time[i] for i in roots) / wall if wall > 0 else 0.0

    def per_parent(child: str, parent: str) -> float:
        parents = sum(1 for s in spans if s[0] == parent)
        children = sum(1 for s in spans if s[0] == child and s[1] >= 0 and spans[s[1]][0] == parent)
        return children / parents if parents else 0.0

    out["catfit.probes_per_fit"] = per_parent("states.cat_state", "catfit.fit_squeezed_cat")
    out["analytics.fits_per_match"] = per_parent("catfit.fit_squeezed_cat", "analytics.squeeze_to_match")
    return out
