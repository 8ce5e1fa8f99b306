"""Tracing of dimspectra from outside the package: wraps the public
functions of each module and aggregates their spans in memory.

`install()` replaces every public function of every dimspectra module at
every name that binds it: `from .numerics import log_sum_exp` leaves a
separate reference in each importing module, and the package attribute
`dimspectra.pressure` is the function, not the submodule, so modules are
reached through `sys.modules`.  Also wrapped: `CylinderTable.level` (a call
that finds its level cached counts as a hit), the level builders
`CylinderTable._extend` and `_base_level`, `Branch.inverse`, and
`cli._write_manifest`.

Each span adds its duration to its name's total and to its parent's child
time, so self time = duration - time covered by child spans.  The first
SPAN_CAP spans outside the hot leaf calls are kept whole (name, start, end,
parent index); the hot calls are kept only as aggregates so that tracing
does not distort memory.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

MODULES = (
    "cli",
    "maps",
    "symbolic",
    "numerics",
    "pressure",
    "spectrum",
    "finite_measures",
    "induced",
    "weak_gibbs",
)

# Leaf calls made hundreds of thousands of times: aggregates only.
HOT = {
    "numerics.log_sum_exp",
    "numerics.bisect_root",
    "numerics.expand_to_sign_change",
    "numerics.golden_section_min",
    "symbolic.CylinderTable.level",
    "maps.Branch.inverse",
    "pressure.potential_floor",
    "pressure.gluing_length",
    "symbolic.cylinder",
    "symbolic.validate_potential",
    "symbolic.shared_table",
    "symbolic.words_at_level",
}
SPAN_CAP = 20000

# Root finders whose function evaluations are counted.
FEVAL = {
    "numerics.bisect_root": "bisect_fevals",
    "numerics.expand_to_sign_change": "expand_fevals",
    "numerics.golden_section_min": "golden_fevals",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [child time, span index] per open span

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None, on_call=None):
        hot = name in HOT
        feval = FEVAL.get(name)
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if feval is not None and args:
                inner = args[0]

                def counted(x, _inner=inner):
                    self.count(feval)
                    return _inner(x)

                args = (counted,) + args[1:]
            if on_call is not None:
                on_call(self, args, kwargs)
            parent = stack[-1][1] if stack else -1
            index = -1
            if not hot and len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent))
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if index >= 0:
                    self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced


def _level_call(tracer: Tracer, args, kwargs) -> None:
    table, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    if n in getattr(table, "_levels", {}):
        tracer.count("level_hits")


def _extend_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("level_builds")
    tracer.count("words_built", result.count)
    tracer.counters["max_level"] = max(tracer.counters.get("max_level", 0), result.n)


def _lse_call(tracer: Tracer, args, kwargs) -> None:
    values = args[0] if args else kwargs["values"]
    tracer.count("lse_elems", getattr(values, "size", 1))


def _inverse_call(tracer: Tracer, args, kwargs) -> None:
    y = args[1] if len(args) > 1 else kwargs["y"]
    tracer.count("inverse_points", getattr(y, "size", 1))


def _pressure_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("pressure_stop_level_sum", result.level)
    if result.mode == "ratio":
        tracer.count("ratio_stops")


def _b_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("b_stop_level_sum", result.level)


def _induced_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("induced_branches", len(result.branches))


CALL_HOOKS = {
    "symbolic.CylinderTable.level": _level_call,
    "numerics.log_sum_exp": _lse_call,
    "maps.Branch.inverse": _inverse_call,
}
RESULT_HOOKS = {
    "symbolic.CylinderTable._extend": _extend_result,
    "symbolic.CylinderTable._base_level": _extend_result,
    "pressure.pressure": _pressure_result,
    "spectrum.b_of_a": _b_result,
    "induced.build_induced": _induced_result,
}
# Private functions traced because they are the layer boundary.
EXTRA = {
    "cli": ("_write_manifest",),
}
METHODS = {
    "symbolic": {"CylinderTable": ("level", "_extend", "_base_level")},
    "maps": {"Branch": ("inverse",)},
}


def install(tracer: Tracer) -> int:
    """Wrap dimspectra's public functions at every binding; return how many
    distinct functions were wrapped."""
    mods = {name: sys.modules[f"dimspectra.{name}"] for name in MODULES}
    bindings = list(mods.values()) + [sys.modules["dimspectra"]]
    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        names = [
            n for n, obj in vars(mod).items()
            if callable(obj) and not isinstance(obj, type) and not n.startswith("_")
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        names += [n for n in EXTRA.get(short, ()) if hasattr(mod, n)]
        for n in names:
            fn = getattr(mod, n)
            key = f"{short}.{n}"
            wrapped[id(fn)] = (
                fn,
                tracer.wrap(key, fn, RESULT_HOOKS.get(key), CALL_HOOKS.get(key)),
            )
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = getattr(cls, meth, None)
                if fn is None:
                    continue
                key = f"{short}.{cls_name}.{meth}"
                setattr(
                    cls, meth,
                    tracer.wrap(key, fn, RESULT_HOOKS.get(key), CALL_HOOKS.get(key)),
                )
    for mod in bindings:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(wrapped)
