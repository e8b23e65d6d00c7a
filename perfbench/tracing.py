"""Per-layer tracing of the library from outside its source.

``installed(tracer)`` rebinds the public functions listed in ``LAYERS``
to timing wrappers in every ``staircase_groth`` module namespace that
holds them, since the library calls many of them through names imported
from a sibling module, and restores the originals on exit.  Classes are
traced by wrapping their ``__init__``.

Every wrapped call pushes a frame on one stack; a call's self time is
its duration minus the time of the wrapped calls made beneath it.  Calls
of the names in ``SPANS`` are also kept as spans (id, name, start, end,
parent id, case id); the others are hot leaves and are only counted.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from contextlib import contextmanager

LAYERS = {
    "shapes": ("SkewShape", "partition", "contains", "subpartitions",
               "conjugate"),
    "tableaux": ("content_counts", "signed_svt_counts", "count_fillings",
                 "count_lattice_fillings"),
    "symfunc": ("m_to_schur", "split_alphabets", "hall_inner", "schur_to_m",
                "multiply", "SymFunc"),
    "grothendieck": ("schur", "dual_g", "big_G", "big_G_double", "skew_by",
                     "to_schur_expansion", "lr_coeff", "alpha"),
}

# hot leaves are counted, not recorded as spans
_COUNTED_ONLY = {f"shapes.{n}" for n in LAYERS["shapes"]} | {
    "tableaux.count_fillings", "symfunc.SymFunc"}
SPANS = {f"{layer}.{n}" for layer, names in LAYERS.items() for n in names
         } - _COUNTED_ONLY
# memoized constructors whose share of distinct arguments is reported
DISTINCT = ("grothendieck.schur", "grothendieck.dual_g", "grothendieck.big_G",
            "tableaux.count_lattice_fillings")
# counters whose returned coefficient tables measure the work done
COEFFS_OUT = ("tableaux.content_counts", "tableaux.signed_svt_counts")

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "case")


class Tracer:
    """Call counts, self and inclusive times, and spans of wrapped calls."""

    def __init__(self, clock=time.perf_counter, keep_spans: bool = True):
        self.clock = clock
        self.keep_spans = keep_spans
        self.case = None  # trace id stamped on new spans
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.coeffs_out: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[list] = []  # [span id, start, child time]
        self._active: dict[str, int] = {}
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        span = name in SPANS
        distinct = name in DISTINCT
        coeffs = name in COEFFS_OUT
        for table in (self.calls, self.self_s, self.total_s):
            table.setdefault(name, 0)
        if distinct:
            self.keys.setdefault(name, set())
        if coeffs:
            self.coeffs_out.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr = self
            stack = tr._stack
            parent = stack[-1][0] if stack else None
            sid = next(tr._ids)
            active = tr._active.get(name, 0)
            tr._active[name] = active + 1
            frame = [sid, tr.clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tr.clock()
                stack.pop()
                tr._active[name] = active
                dur = end - frame[1]
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[2]
                if not active:  # outermost call of a recursion
                    tr.total_s[name] += dur
                if stack:
                    stack[-1][2] += dur
                if span and tr.keep_spans:
                    tr.spans.append((sid, name, frame[1], end, parent, tr.case))
            if distinct:
                tr.keys[name].add((args, tuple(sorted(kwargs.items()))))
            if coeffs:
                tr.coeffs_out[name] += sum(1 for v in result.values() if v)
            return result

        return traced

    def layer_self_s(self) -> dict[str, float]:
        return {layer: sum(self.self_s.get(f"{layer}.{n}", 0.0) for n in names)
                for layer, names in LAYERS.items()}

    def distinct_share(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return len(self.keys.get(name, ())) / calls if calls else 0.0


def library_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "staircase_groth" or n.startswith("staircase_groth.")]


@contextmanager
def installed(tracer: Tracer):
    """Trace every name in LAYERS for the duration of the block."""
    import staircase_groth  # noqa: F401  (loads every module)
    restore: list[tuple] = []
    try:
        for layer, names in LAYERS.items():
            module = sys.modules[f"staircase_groth.{layer}"]
            for attr in names:
                name = f"{layer}.{attr}"
                original = getattr(module, attr)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    restore.append((original, "__init__", init))
                    setattr(original, "__init__", tracer.wrap(name, init))
                    continue
                wrapper = tracer.wrap(name, original)
                for mod in library_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        yield tracer
    finally:
        for target, key, original in reversed(restore):
            setattr(target, key, original)
