"""Spans and counters for the traced benchmark run, installed from outside pspin.

``Tracer.install`` replaces every binding of each target function in the
loaded ``pspin`` modules with a timing wrapper, so calls through
``from .x import f`` copies (``pspin.twopoint.assemble_grade`` as well as
``pspin.moments.assemble_grade``) are timed too.  Spans are kept in memory
with a parent id and a per-run trace id and written out once at the end.
Counts come only from arguments and return values; no private state of the
program is read.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer (pspin module) -> public functions that get a span
TARGETS = {
    "twopoint": ("grade_contributions", "two_point_series", "two_point_low_orders"),
    "moments": ("combine_contributions", "assemble_grade", "reduce_moment"),
    "correlators": (
        "extract_intersections",
        "calibration_constant",
        "general_p_interpolate",
        "finite_n_evaluate",
    ),
    "onepoint": ("genus_coefficient",),
    "tautology": ("string_check", "dilaton_check", "selection_rule"),
    "oracle": ("mc_trace_moments", "quad_moment"),
    "density": ("blackhole_density_compare", "binet_check"),
}
LAYERS = ("cli",) + tuple(TARGETS)

# span name -> self-time metric; the three tautology checks share one metric
SELF_TIME_METRIC = {
    f"{layer}.{name}": f"{layer}.{name}_s" for layer, names in TARGETS.items() for name in names
}
for _name in TARGETS["tautology"]:
    SELF_TIME_METRIC[f"tautology.{_name}"] = "tautology.checks_s"
SELF_TIME_METRIC["cli.import"] = "cli.import_s"
SELF_TIME_METRIC["cli.command"] = "cli.command_s"

COUNT_METRICS = (
    "twopoint.contributions",
    "twopoint.distinct_symbols",
    "moments.reduce_moment.calls",
    "correlators.entries",
    "correlators.finite_n_evaluate.calls",
    "oracle.quad_moment.calls",
    "oracle.mc.samples",
    "tautology.records",
)


def _count_contributions(counts, args, kwargs, result):
    counts["twopoint.contributions"] += len(result)
    counts["twopoint.distinct_symbols"] += len({sym for _, _, sym in result})


def _count_calls(metric):
    def count(counts, args, kwargs, result):
        counts[metric] += 1

    return count


def _count_entries(counts, args, kwargs, result):
    counts["correlators.entries"] += len(result)


def _count_samples(counts, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    counts["oracle.mc.samples"] += cfg.sample_count


def _count_records(counts, args, kwargs, result):
    counts["tautology.records"] += len(result.checked)


COUNTERS = {
    "twopoint.grade_contributions": _count_contributions,
    "moments.reduce_moment": _count_calls("moments.reduce_moment.calls"),
    "correlators.extract_intersections": _count_entries,
    "correlators.finite_n_evaluate": _count_calls("correlators.finite_n_evaluate.calls"),
    "oracle.quad_moment": _count_calls("oracle.quad_moment.calls"),
    "oracle.mc_trace_moments": _count_samples,
    "tautology.string_check": _count_records,
    "tautology.dilaton_check": _count_records,
}


class Tracer:
    """In-memory span recorder for one pass (one trace id)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [id, parent id or None, name, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._raised: list[BaseException] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _note_error(self, layer: str, exc: Exception) -> None:
        # an exception is charged once, to the innermost layer it left
        if not any(seen is exc for seen in self._raised):
            self._raised.append(exc)
            self.errors[layer] += 1

    @contextmanager
    def span(self, name: str, layer: str | None = None):
        sid = self._open(name)
        try:
            yield
        except Exception as exc:
            if layer:
                self._note_error(layer, exc)
            raise
        finally:
            self._close(sid)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span (timed before the tracer existed)."""
        self.spans.append([len(self.spans), None, name, start, end])

    def _wrap(self, fn, layer: str, name: str):
        span_name = f"{layer}.{name}"
        counter = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._note_error(layer, exc)
                raise
            finally:
                self._close(sid)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target in the loaded pspin modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "pspin" or n.startswith("pspin."))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules[f"pspin.{layer}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(fn, layer, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Span name -> total self time (duration minus child durations)."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Self times, counts and errors under their per-layer metric names."""
        out = {metric: 0.0 for metric in set(SELF_TIME_METRIC.values())}
        for name, seconds in self.self_times().items():
            metric = SELF_TIME_METRIC.get(name)
            if metric:
                out[metric] += seconds
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path, **extra) -> None:
        payload = {
            **extra,
            "trace_id": self.trace_id,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, name, round(start - self.origin, 9), round(end - self.origin, 9)]
                for sid, parent, name, start, end in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


# lru_cache functions whose public cache_info() gives the hit and miss counts
CACHED = ("twopoint.two_point_grade", "onepoint.genus_coefficient", "correlators.calibration_constant")


def cache_counts() -> dict[str, int]:
    out = {}
    for name in CACHED:
        layer, fn_name = name.split(".")
        fn = getattr(sys.modules[f"pspin.{layer}"], fn_name)
        while not hasattr(fn, "cache_info"):  # under a timing wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")
IMPORT_PACKAGES = ("pspin", "sympy", "scipy", "numpy", "mpmath")


def import_breakdown(stderr_text: str) -> dict[str, float]:
    """Cumulative import seconds per top-level package from ``-X importtime``.

    The log lists each module after the modules it imported, indented one
    step deeper per nesting level.  A package's figure sums the cumulative
    times of its outermost entries (those not nested inside the same
    package), so scipy includes the numpy it pulls in, as the log does.
    """
    nodes = []  # (depth, top-level package, cumulative us, parent index)
    stack: list[int] = []
    for line in stderr_text.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, indent, name = int(match.group(2)), match.group(3), match.group(4)
        depth = (len(indent) - 1) // 2
        idx = len(nodes)
        nodes.append([depth, name.split(".")[0], cumulative, None])
        while stack and nodes[stack[-1]][0] > depth:
            nodes[stack.pop()][3] = idx
        stack.append(idx)
    out = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for depth, top, cumulative, parent in nodes:
        if top in out and (parent is None or nodes[parent][1] != top):
            out[top] += cumulative / 1e6
    return {f"import.{pkg}_s": seconds for pkg, seconds in out.items()}
