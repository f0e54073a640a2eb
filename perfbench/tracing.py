"""In-memory span tracer wrapped around dynball's public boundaries.

Nothing inside dynball is edited: the tracer rebinds names from the
outside.  A function hook replaces every reference to the function object
across the loaded ``dynball`` modules (so ``entropy.survival_counts`` and
``expansiveness.survival_counts`` are one hook), a method hook replaces
the class attribute, and map hooks wrap each ``SystemSpec`` instance's
``forward``/``inverse`` as it is built.  A target that does not exist is
recorded as an absent layer instead of failing, so the trace survives
renames in the program it measures.

A span is ``[name, start, end, parent, op, child_s, attrs]``; its self
time is its duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

NAME, START, END, PARENT, OP, CHILD_S, ATTRS = range(7)

MAP_SPANS = ("systems.forward", "systems.inverse")
KERNEL = "expansiveness.survival_counts"

# (module, attribute, span name) for the public estimators: their self time
# is the estimator work outside the kernel, the maps and sampling.
ESTIMATORS = [
    ("dynball.expansiveness", name, f"estimator.{name}") for name in (
        "decay_series", "expansiveness_verdict", "power_consistency_check",
        "product_diagonal_test", "generator_check", "converging_semiorbit_fraction",
        "periodic_fraction", "dyn_ball_contains")
] + [
    ("dynball.entropy", name, f"estimator.{name}") for name in (
        "local_entropy", "bk_entropy", "power_law_check",
        "entropy_implies_expansive_check", "volume_expanding_check")
]

FUNCTIONS = [
    ("dynball.rng", "uniform_block", "rng.uniform_block"),
    ("dynball.expansiveness", "survival_counts", KERNEL),
    ("dynball.denjoy", "build_denjoy", "denjoy.build_denjoy"),
    ("dynball.entropy", "fit_decay_slope", "entropy.fit_decay_slope"),
    ("dynball.stats", "wilson_interval", "stats.wilson_interval"),
    ("dynball.battery", "consistency_matrix", "battery.consistency_matrix"),
    # the per-case runner; its first argument is the registry entry
    ("dynball.battery", "_run_case", "battery.case"),
] + ESTIMATORS

METHODS = [("dynball.measures", "MeasureSpec", "sample_coords", "measures.sample_coords")]


def _rows(span, args, kwargs, result):
    span[ATTRS]["rows"] = len(result)


def _kernel_cells(sig):
    def record(span, args, kwargs, result):
        try:
            samples = len(sig.bind(*args, **kwargs).arguments["batch"])
        except (TypeError, KeyError):
            return  # signature changed: the kernel is timed but not sized
        span[ATTRS]["cells"] = result.size * samples
        span[ATTRS]["alive"] = int(result.sum())
    return record


def _case_id(span, args, kwargs, result):
    span[ATTRS]["case"] = args[0][0]


class Tracer:
    """Collects spans for ops run one after another in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> list:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]
        return span

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span (used for the op itself)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(idx)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result
        return traced

    # -- hooks -------------------------------------------------------------
    def hook_function(self, module_name, attr, span_name, on_return=None):
        module = sys.modules.get(module_name)
        target = getattr(module, attr, None) if module is not None else None
        if not callable(target):
            self.absent.append(f"{module_name}.{attr}")
            return
        traced = self.wrap(span_name, target, on_return)
        for mod in [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "dynball" or n.startswith("dynball."))]:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, target))

    def hook_method(self, module_name, cls_name, attr, span_name, on_return=None):
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        target = getattr(cls, attr, None) if cls is not None else None
        if not callable(target):
            self.absent.append(f"{module_name}.{cls_name}.{attr}")
            return
        setattr(cls, attr, self.wrap(span_name, target, on_return))
        self._undo.append((cls, attr, target))

    def hook_maps(self, module_name="dynball.systems", cls_name="SystemSpec"):
        """Wrap forward/inverse of every system built from now on."""
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is None:
            self.absent.append(f"{module_name}.{cls_name}")
            return
        original = cls.__init__
        tracer = self

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            for field in ("forward", "inverse"):
                fn = getattr(obj, field, None)
                if callable(fn):
                    object.__setattr__(obj, field, tracer.wrap(f"systems.{field}", fn, _rows))

        cls.__init__ = init
        self._undo.append((cls, "__init__", original))

    def install(self):
        """Hook every boundary the layer metrics read."""
        import dynball  # noqa: F401  (loads every submodule the hooks name)
        self.hook_maps()
        for module_name, attr, span_name in FUNCTIONS:
            on_return = None
            if span_name == "rng.uniform_block":
                on_return = _rows
            elif span_name == KERNEL:
                target = getattr(sys.modules.get(module_name), attr, None)
                if callable(target):
                    on_return = _kernel_cells(inspect.signature(target))
            elif span_name == "battery.case":
                on_return = _case_id
            self.hook_function(module_name, attr, span_name, on_return)
        for module_name, cls_name, attr, span_name in METHODS:
            self.hook_method(module_name, cls_name, attr, span_name, _rows)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# aggregation

def self_time(span) -> float:
    return span[END] - span[START] - span[CHILD_S]


def _total(spans, name):
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def layer_metrics(spans, case_ids=()) -> dict:
    """Per-layer numbers of one traced pass.  Op spans are named ``cli.<cmd>``."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    maps = [s for s in spans if s[NAME] in MAP_SPANS]
    has_map_child = {s[PARENT] for s in maps if s[PARENT] is not None}
    innermost = [i for i, s in enumerate(spans) if s[NAME] in MAP_SPANS and i not in has_map_child]
    points = sum(spans[i][ATTRS].get("rows", 0) for i in innermost)
    innermost_s = sum(spans[i][END] - spans[i][START] for i in innermost)

    def outermost_map_s(name):
        return sum(s[END] - s[START] for s in maps
                   if s[NAME] == name and (s[PARENT] is None or spans[s[PARENT]][NAME] not in MAP_SPANS))

    kernel = by_name.get(KERNEL, [])
    cells = sum(s[ATTRS].get("cells", 0) for s in kernel)
    alive = sum(s[ATTRS].get("alive", 0) for s in kernel)
    ops = [s for s in spans if s[PARENT] is None and s[NAME].startswith("cli.")]

    m = {
        "expansiveness.kernel_s": _total(spans, KERNEL),
        "expansiveness.kernel_self_s": sum(self_time(s) for s in kernel),
        "expansiveness.kernel_calls": len(kernel),
        "expansiveness.kernel_cells": cells,
        "expansiveness.alive_frac": alive / cells if cells else 0.0,
        "expansiveness.other_self_s": sum(self_time(s) for s in spans
                                          if s[NAME].startswith("estimator.")),
        "systems.forward_s": outermost_map_s("systems.forward"),
        "systems.inverse_s": outermost_map_s("systems.inverse"),
        "systems.points": points,
        "systems.ns_per_point": 1e9 * innermost_s / points if points else 0.0,
        "denjoy.build_s": _total(spans, "denjoy.build_denjoy"),
        "denjoy.builds": len(by_name.get("denjoy.build_denjoy", [])),
        "rng.busy_s": _total(spans, "rng.uniform_block"),
        "rng.draws": sum(s[ATTRS].get("rows", 0) for s in by_name.get("rng.uniform_block", [])),
        "measures.busy_s": _total(spans, "measures.sample_coords"),
        "entropy.fit_s": _total(spans, "entropy.fit_decay_slope"),
        "stats.wilson_s": _total(spans, "stats.wilson_interval"),
        "cli.overhead_s": sum(self_time(s) for s in ops),
        "battery.consistency_s": _total(spans, "battery.consistency_matrix"),
    }
    for cmd in ("decay", "verdict", "entropy", "generator"):
        m[f"cli.{cmd}_s"] = _total(ops, f"cli.{cmd}")
    for cid in case_ids:
        m[f"battery.{cid}_s"] = sum(s[END] - s[START] for s in by_name.get("battery.case", [])
                                    if s[ATTRS].get("case") == cid)
    return m


# which hook each metric depends on, so an absent hook marks its metrics absent
_METRIC_HOOKS = {
    "expansiveness.kernel": "dynball.expansiveness.survival_counts",
    "expansiveness.alive": "dynball.expansiveness.survival_counts",
    "systems.": "dynball.systems.SystemSpec",
    "denjoy.": "dynball.denjoy.build_denjoy",
    "rng.": "dynball.rng.uniform_block",
    "measures.": "dynball.measures.MeasureSpec.sample_coords",
    "entropy.": "dynball.entropy.fit_decay_slope",
    "stats.": "dynball.stats.wilson_interval",
    "battery.consistency": "dynball.battery.consistency_matrix",
    "battery.": "dynball.battery._run_case",
}


def absent_metrics(metric_names, absent) -> list[str]:
    """Metrics whose hook target was missing in the traced program."""
    out = []
    for name in metric_names:
        for prefix, hook in _METRIC_HOOKS.items():
            if name.startswith(prefix):
                if hook in absent:
                    out.append(name)
                break
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
