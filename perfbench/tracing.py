"""Outside-in layer tracing for the perfbench harness.

The traced run installs timing wrappers on the public boundaries of the
``repro`` layers from here — the package itself is not modified — records
nested spans ``[name, start, end, parent, attrs]`` in memory, and reduces
them to per-layer self times and counts. A span's self time is its
duration minus the part of that interval its child spans cover, so the
layer self times plus ``trace.unattributed_s`` add up to the traced wall.

Patching rules (each one silently changed results or missed calls when
broken):

* a module-level function is patched in its defining module *and* in
  every loaded ``repro`` module that holds it by name — ``from x import f``
  copies the reference, and the package attribute ``repro.spec.build`` is
  the re-exported *function*, not the module;
* a method is patched only in the class whose ``__dict__`` defines it.
  Shadowing an inherited method on a subclass makes ``ensure_unmodified``
  see an override and moves that scenario to the legacy path;
* classmethods (``KernelPlan.compile``, ``BatchedPlan.compile``) are
  unwrapped, wrapped, and re-wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

__all__ = ["LAYER_METRICS", "Tracer", "layer_metrics", "self_times"]

#: Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    ("kernel.loop_s", "s", "lower"),
    ("kernel.us_per_step", "us", "lower"),
    ("conditioning.tracker_s", "s", "lower"),
    ("conditioning.iv_evals", "count", "lower"),
    ("engine.legacy_s", "s", "lower"),
    ("engine.legacy_us_per_step", "us", "lower"),
    ("batched.loop_s", "s", "lower"),
    ("batched.us_per_lane_step", "us", "lower"),
    ("spec.build_s", "s", "lower"),
    ("spec.build_calls", "count", "lower"),
    ("environment.synth_s", "s", "lower"),
    ("environment.synth_calls", "count", "lower"),
    ("environment.compile_s", "s", "lower"),
    ("kernel.lower_s", "s", "lower"),
    ("kernel.lower_calls", "count", "lower"),
    ("metrics.compute_s", "s", "lower"),
    ("catalog.archive_s", "s", "lower"),
    ("catalog.archive_calls", "count", "lower"),
    ("catalog.store_bytes", "bytes", "lower"),
    ("catalog.key_s", "s", "lower"),
    ("catalog.lookup_s", "s", "lower"),
    ("catalog.restore_s", "s", "lower"),
    ("catalog.hits", "count", "higher"),
    ("catalog.misses", "count", "lower"),
    ("paths.batched", "count", "higher"),
    ("paths.kernel", "count", "higher"),
    ("paths.codegen", "count", "higher"),
    ("paths.legacy", "count", "lower"),
    ("paths.mixed", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

ROOT = "workload"
ENGINE_RUN = "repro.simulation.engine:Simulator.run"
RUN_PLAN = "repro.simulation.kernel.plan:run_plan"
RUN_BATCHED = "repro.simulation.kernel.batched:run_batched"


def _plan_attrs(args, kwargs, completed):
    start = kwargs.get("start", args[7] if len(args) > 7 else 0)
    return {"steps": completed - start}


def _batched_attrs(args, kwargs, paths):
    return {"lanes": len(args[1]), "steps": args[3], "paths": list(paths)}


def _engine_attrs(args, kwargs, result):
    return {"steps": len(result.recorder), "path": result.execution_path}


#: Timed boundaries: ``module:qualname`` -> (layer metric, attrs hook).
SPANS = {
    RUN_PLAN: ("kernel.loop_s", _plan_attrs),
    "repro.simulation.kernel.plan:KernelPlan.compile": ("kernel.lower_s", None),
    "repro.simulation.kernel.batched:BatchedPlan.compile":
        ("kernel.lower_s", None),
    RUN_BATCHED: ("batched.loop_s", _batched_attrs),
    # Self time counts toward engine.legacy_s only on legacy paths.
    ENGINE_RUN: ("engine.legacy_s", _engine_attrs),
    "repro.spec.build:build": ("spec.build_s", None),
    "repro.analysis.experiments.common:make_reference_system":
        ("spec.build_s", None),
    "repro.spec.build:build_environment": ("environment.synth_s", None),
    # Where a sweep turns a scenario's environment (spec or factory) into
    # traces; the E5 factories are partials bound at import time.
    "repro.simulation.sweep:_build_environment": ("environment.synth_s", None),
    "repro.environment.composite:outdoor_environment":
        ("environment.synth_s", None),
    "repro.environment.composite:indoor_industrial_environment":
        ("environment.synth_s", None),
    "repro.environment.composite:agricultural_environment":
        ("environment.synth_s", None),
    "repro.environment.composite:urban_rf_environment":
        ("environment.synth_s", None),
    "repro.environment.composite:scaled_environment":
        ("environment.synth_s", None),
    "repro.environment.compiled:CompiledEnvironment.__init__":
        ("environment.compile_s", None),
    "repro.simulation.metrics:compute_metrics": ("metrics.compute_s", None),
    "repro.catalog.store:Catalog.archive": ("catalog.archive_s", None),
    "repro.catalog.store:Catalog.lookup": ("catalog.lookup_s", None),
    "repro.catalog.store:Catalog.restore": ("catalog.restore_s", None),
    "repro.catalog.hashing:scenario_cache_key": ("catalog.key_s", None),
}

#: Hill-climbing trackers: the scalar ``step`` and the ``prepare`` replay
#: returned by ``lower_batched`` are timed as conditioning.tracker_s.
TRACKERS = ("PerturbObserve", "IncrementalConductance")
TRACKER_MODULE = "repro.conditioning.mppt"
for _cls in TRACKERS:
    for _method in ("step", "prepare"):
        SPANS[f"{TRACKER_MODULE}:{_cls}.{_method}"] = \
            ("conditioning.tracker_s", None)

#: I-V queries counted while a tracker span is open. ``power_at`` and
#: ``power_at_row`` evaluate exactly one current each, so counting the
#: current queries counts every evaluation once.
IV_QUERIES = (
    "repro.harvesters.base:TheveninHarvester.current_at",
    "repro.harvesters.photovoltaic:PhotovoltaicCell.current_at",
    "repro.harvesters.base:_TheveninSurface.current_at_row",
    "repro.harvesters.photovoltaic:_PVSurface.current_at_row",
)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.iv_evals = 0
        self._stack: list = []
        self._tracker_depth = 0
        self._patches: list = []

    def wrap(self, name: str, fn, attrs=None, tracker: bool = False):
        """``fn`` timed as a span named ``name``, nested under the caller's."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if tracker:
                tracer._tracker_depth += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if tracker:
                    tracer._tracker_depth -= 1
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _count_iv(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._tracker_depth:
                tracer.iv_evals += 1
            return fn(*args, **kwargs)

        return counted

    def _traced_lowering(self, cls_name: str, fn):
        name = f"{TRACKER_MODULE}:{cls_name}.prepare"

        @functools.wraps(fn)
        def lower_batched(*args, **kwargs):
            lowered = fn(*args, **kwargs)
            lowered.prepare = self.wrap(name, lowered.prepare, tracker=True)
            return lowered

        return lower_batched

    def _patch(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]  # defined here, never inherited
            new = classmethod(make(raw.__func__)) \
                if isinstance(raw, classmethod) else make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(owner, attr)
        new = make(original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or
                                      module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, new)

    def install(self) -> None:
        """Wrap every boundary (modules must import cleanly first)."""
        for target, (_, attrs) in SPANS.items():
            if target.endswith(".prepare"):
                continue  # reached through lower_batched below
            tracker = target.startswith(TRACKER_MODULE)
            self._patch(target, lambda fn, t=target, a=attrs, k=tracker:
                        self.wrap(t, fn, a, tracker=k))
        for cls_name in TRACKERS:
            self._patch(f"{TRACKER_MODULE}:{cls_name}.lower_batched",
                        lambda fn, c=cls_name: self._traced_lowering(c, fn))
        for target in IV_QUERIES:
            self._patch(target, self._count_iv)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list:
    """Per-span duration minus the union of its children's intervals
    (clipped to the span), in span order."""
    children: list = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda j: spans[j][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def _metric_of(span):
    """Layer metric a span's self time counts toward (None: unattributed)."""
    entry = SPANS.get(span[0])
    if entry is None:
        return None
    if span[0] == ENGINE_RUN and "legacy" not in (span[4] or {}).get(
            "path", "legacy"):
        return None
    return entry[0]


def layer_metrics(spans, counters: dict) -> dict:
    """Reduce one traced run to the per-layer metrics (minus
    ``trace.overhead_s``, which needs the untraced wall).

    ``spans[0]`` must be the root span around the whole workload;
    ``counters`` supplies ``conditioning.iv_evals`` and the catalog
    counts the workload reads off its results.
    """
    values = {name: 0 for name, _, _ in LAYER_METRICS
              if name != "trace.overhead_s"}
    values.update(counters)
    selfs = self_times(spans)
    metrics = [_metric_of(span) for span in spans]
    wall = spans[0][2] - spans[0][1]
    attributed = 0.0
    kernel_steps = legacy_steps = lane_steps = 0
    # Steps a legacy-path engine run handed to the kernel before peeling.
    kernel_steps_under: dict = {}
    calls = {"spec.build_s": "spec.build_calls",
             "environment.synth_s": "environment.synth_calls"}
    for index, span in enumerate(spans):
        name, attrs, metric = span[0], span[4] or {}, metrics[index]
        if metric is not None:
            values[metric] += selfs[index]
            attributed += selfs[index]
        if metric in calls:
            parent = span[3]
            while parent >= 0 and metrics[parent] != metric:
                parent = spans[parent][3]
            if parent < 0:  # outermost span of its layer
                values[calls[metric]] += 1
        elif metric == "kernel.lower_s":
            values["kernel.lower_calls"] += 1
        elif metric == "catalog.archive_s":
            values["catalog.archive_calls"] += 1
        paths = ()
        if name == RUN_PLAN:
            kernel_steps += attrs["steps"]
            kernel_steps_under[span[3]] = \
                kernel_steps_under.get(span[3], 0) + attrs["steps"]
        elif name == RUN_BATCHED:
            lane_steps += attrs["lanes"] * attrs["steps"]
            paths = attrs["paths"]
        elif name == ENGINE_RUN:
            paths = (attrs["path"],)
        for path in paths:
            values["paths.mixed" if "+" in path else f"paths.{path}"] += 1
    for index, span in enumerate(spans):
        if span[0] == ENGINE_RUN and metrics[index] is not None:
            legacy_steps += (span[4] or {}).get("steps", 0) - \
                kernel_steps_under.get(index, 0)
    if kernel_steps:
        values["kernel.us_per_step"] = \
            values["kernel.loop_s"] / kernel_steps * 1e6
    if legacy_steps:
        values["engine.legacy_us_per_step"] = \
            values["engine.legacy_s"] / legacy_steps * 1e6
    if lane_steps:
        values["batched.us_per_lane_step"] = \
            values["batched.loop_s"] / lane_steps * 1e6
    values["trace.unattributed_s"] = wall - attributed
    return values
