"""Per-layer spans for the Magus benchmark, recorded from outside ``src/``.

:class:`LayerTracer` replaces each public function of a ``repro`` layer
with a thin wrapper *at the attribute its caller looks up* — a module
global for ``from x import f`` callers, the class attribute for methods
— so no program code changes.  A span is ``(name, start, end, parent,
request, phase)`` plus the process's RSS high-water mark (``ru_maxrss``)
at both boundaries; spans stay in memory and are written once, at exit.

:func:`layer_metrics` reduces the spans and the ``magus.*`` registry
counters to the ``<module>.<function>.<stat>`` names in
``BENCHMARK.json``'s ``per_layer`` list: ``s`` is inclusive time,
``self_s`` is time minus the wrapped children, ``calls`` / ``cells`` /
``bytes`` / ``candidates`` are counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Count functions: ``(args, kwargs, result) -> int`` for one call.
def _nbytes(args, kwargs, result):
    return int(getattr(result, "nbytes", 0))


def _raster_cells(args, kwargs, result):
    return int(np.size(args[1]))          # (self, raster)


def _batch_candidates(args, kwargs, result):
    return len(args[2])                   # (self, incumbent, configs, ...)


def _scored_candidates(args, kwargs, result):
    return len(args[1])                   # (self, configs)


def _crc_bytes(args, kwargs, result):
    return len(args[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


#: (span name, owner, attribute, count function or None).  The owner
#: is the namespace the *caller* resolves the name in: ``module`` or
#: ``module:Class``.  One span name may cover several owners.
LAYERS = (
    # storage: pack, load, checksums (model.plossdb, faults.durable)
    ("plossdb.stream_database", "repro.synthetic.market", "stream_database",
     _file_bytes),
    ("plossdb.load_packed", "repro.synthetic.market", "load_packed", None),
    ("durable.crc32c", "repro.faults.durable", "crc32c", _crc_bytes),
    # area construction (synthetic.*) and path loss (model.pathloss)
    ("market.generate_environment", "repro.synthetic.market",
     "generate_environment", None),
    ("placement.build_network", "repro.synthetic.market", "build_network",
     None),
    ("pathloss.from_environment", "repro.model.pathloss:PathLossDatabase",
     "from_environment", None),
    ("pathloss.gain_tensor_mw", "repro.model.pathloss:PathLossDatabase",
     "gain_tensor_mw", _nbytes),
    ("pathloss.gain_matrix_mw", "repro.model.pathloss:PathLossDatabase",
     "gain_matrix_mw", None),
    # offline planning pass (core.planning)
    ("planning.optimize_planned_configuration", "repro.synthetic.market",
     "optimize_planned_configuration", None),
    # the engine: anchor, delta chains, batch (model.engine)
    ("engine.evaluate", "repro.model.engine:AnalysisEngine", "evaluate",
     None),
    ("engine.evaluate_with_incumbent", "repro.model.engine:AnalysisEngine",
     "evaluate_with_incumbent", None),
    ("engine.evaluate_delta", "repro.model.engine:AnalysisEngine",
     "evaluate_delta", None),
    ("engine.evaluate_delta_windowed", "repro.model.engine:AnalysisEngine",
     "_evaluate_delta_windowed", None),
    ("engine.runner_up", "repro.model.engine:DeltaIncumbent", "runner_up",
     None),
    ("engine.evaluate_batch", "repro.model.engine:AnalysisEngine",
     "evaluate_batch", _batch_candidates),
    # region-of-influence scoring (model.roi)
    ("roi.score_candidate", "repro.model.roi", "score_candidate", None),
    ("roi.baseline", "repro.model.roi:RoiBaseline", "from_incumbent", None),
    # CQI -> rate and the utility reduction (model.linkrate, core.utility)
    ("linkrate.max_rate_bps", "repro.model.linkrate:LinkAdaptation",
     "max_rate_bps", _raster_cells),
    ("utility.per_ue", "repro.core.utility:PerformanceUtility", "per_ue",
     _raster_cells),
    # the memoizing evaluator (core.evaluation)
    ("evaluation.score_candidates", "repro.core.evaluation:Evaluator",
     "score_candidates", _scored_candidates),
    ("evaluation.utility_of", "repro.core.evaluation:Evaluator",
     "utility_of", None),
    ("evaluation.state_of", "repro.core.evaluation:Evaluator", "state_of",
     None),
    # search passes, gradual schedule, handover accounting
    ("search.tune_power", "repro.core.magus", "tune_power", None),
    ("search.tune_power", "repro.core.joint", "tune_power", None),
    ("search.tune_tilt", "repro.core.magus", "tune_tilt", None),
    ("search.tune_tilt", "repro.core.joint", "tune_tilt", None),
    ("search.tune_joint", "repro.core.magus", "tune_joint", None),
    ("search.tune_naive", "repro.core.magus", "tune_naive", None),
    ("gradual.gradual_migration", "repro.core.magus", "gradual_migration",
     None),
    ("handover.attachment_diff", "repro.core.gradual", "attachment_diff",
     None),
    # candidate-level pooling (parallel.service)
    ("parallel.score_batch", "repro.parallel.service:EvaluationService",
     "score_batch", None),
    ("parallel.score_batch_roi", "repro.parallel.service:EvaluationService",
     "score_batch_roi", None),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTracer:
    """Wraps the :data:`LAYERS` boundaries and records their spans.

    Wrappers are installed only inside :meth:`recording`, so untraced
    work — and pool workers forked outside it — run the plain program.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.request = -1
        #: [name, start_ns, end_ns, parent, request, phase, rss0, rss1,
        #:  count]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- installation ---------------------------------------------------
    @contextlib.contextmanager
    def recording(self, phase: str):
        """Record spans of ``phase`` ("setup" or "timed") in the block."""
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        for name, owner_path, attr, count in LAYERS:
            owner = _resolve(owner_path)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, count))
            else:
                wrapped = self._wrap(name, raw, count)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable,
              count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request,
                    self.phase, _maxrss_kb(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                span[7] = _maxrss_kb()
                stack.pop()
            if count is not None:
                span[8] = count(args, kwargs, result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump every span as JSON (one write, at exit)."""
        keys = ("name", "start_ns", "end_ns", "parent", "request", "phase",
                "maxrss_kb_start", "maxrss_kb_end", "count")
        with open(path, "w") as fh:
            json.dump({"schema": "perfbench.spans/1",
                       "spans": [dict(zip(keys, s)) for s in self.spans]},
                      fh)

    def peak_raiser(self) -> Optional[str]:
        """The innermost recorded span during which ``ru_maxrss``
        reached its highest recorded value: the boundary that set the
        peak."""
        if not self.spans:
            return None
        peak = max(s[7] for s in self.spans)
        raisers = [s for s in self.spans if s[7] == peak and s[6] < peak]
        if not raisers:
            return None
        return min(raisers, key=lambda s: s[2] - s[1])[0]


class _Stats:
    __slots__ = ("calls", "s", "self_s", "count", "rss_kb")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.rss_kb = 0


def span_stats(spans: List[list],
               phase: Optional[str] = None) -> Dict[str, _Stats]:
    """Per-name calls, inclusive/self seconds, counts, RSS growth,
    over every span or only those of ``phase``.

    Inclusive time counts only the outermost of nested same-name spans,
    so recursion is not double counted.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    stats: Dict[str, _Stats] = {}
    for i, s in enumerate(spans):
        if phase is not None and s[5] != phase:
            continue
        st = stats.setdefault(s[0], _Stats())
        dur = s[2] - s[1]
        st.calls += 1
        st.self_s += (dur - child_ns[i]) / 1e9
        st.count += s[8]
        outer = True
        parent = s[3]
        while parent >= 0:
            if spans[parent][0] == s[0]:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            st.s += dur / 1e9
            st.rss_kb += s[7] - s[6]
    return stats


def time_within(spans: List[list], name: str, ancestor: str) -> float:
    """Seconds spent in ``name`` spans that run inside an ``ancestor``
    span (e.g. checksumming inside the pack build)."""
    total = 0
    for s in spans:
        if s[0] != name:
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += s[2] - s[1]
    return total / 1e9


def phase_coverage(spans: List[list], phase: str, wall_s: float) -> float:
    """Share of a phase's wall time inside top-level layer spans."""
    if wall_s <= 0:
        return 0.0
    covered = sum(s[2] - s[1] for s in spans
                  if s[3] < 0 and s[5] == phase)
    return covered / 1e9 / wall_s


#: Units and directions by statistic; names not listed are ratios.
_STAT_UNITS = {"s": ("s", "lower"), "self_s": ("s", "lower"),
               "worker_busy_s": ("s", "lower"),
               "dispatch_overhead_s": ("s", "lower"),
               "calls": ("count", "lower"), "cells": ("count", "lower"),
               "candidates": ("count", "lower"),
               "bytes": ("bytes", "lower"), "spilled_bytes": ("bytes", "lower"),
               "rss_growth_mb": ("MB", "lower"),
               "mb_per_s": ("MB/s", "higher"),
               "tasks": ("count", "lower"), "steals": ("count", "lower"),
               "chunk_retries": ("count", "lower"),
               "pool_respawns": ("count", "lower"),
               "evaluations_per_ticket": ("count", "lower"),
               "steps_per_ticket": ("count", "lower")}
#: Ratios where less is better (the rest: more is better).
_LOWER_RATIOS = ("roi.window_fraction", "obs.tracing_overhead_share")


def unit_of(name: str) -> Tuple[str, str]:
    """``(unit, better)`` of a per-layer metric name."""
    stat = name.rsplit(".", 1)[-1]
    if stat in _STAT_UNITS:
        return _STAT_UNITS[stat]
    return ("ratio", "lower" if name in _LOWER_RATIOS else "higher")


def _counter(registry, name: str) -> int:
    return (registry.counter(name).value if name in registry.names()
            else 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, registry, *, tickets: int,
                  search_steps: int, gradual_steps: int, grid_cells: int,
                  workers: int, setup_wall_s: float, timed_wall_s: float,
                  untraced_timed_wall_s: float) -> Dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` for one run.

    ``timed_wall_s`` is the wall time of the recorded tickets and
    ``untraced_timed_wall_s`` that of the same tickets planned plain,
    back to back with them; the difference is the tracing overhead.
    """
    stats = span_stats(tracer.spans)
    empty = _Stats()

    def get(name: str) -> _Stats:
        return stats.get(name, empty)

    c = functools.partial(_counter, registry)
    out: Dict[str, float] = {}

    def put(name: str, *fields: str) -> None:
        st = get(name)
        for field in fields:
            if field == "rss_growth_mb":
                out[f"{name}.{field}"] = st.rss_kb / 1024.0
            elif field in ("bytes", "cells", "candidates"):
                out[f"{name}.{field}"] = st.count
            else:
                out[f"{name}.{field}"] = getattr(st, field)

    put("plossdb.stream_database", "s", "bytes")
    put("plossdb.load_packed", "s")
    put("durable.crc32c", "s", "bytes")
    crc = get("durable.crc32c")
    out["durable.crc32c.mb_per_s"] = _ratio(crc.count / 1e6, crc.s)
    put("market.generate_environment", "s")
    put("placement.build_network", "s")
    put("pathloss.from_environment", "s")
    put("pathloss.gain_tensor_mw", "calls", "s", "bytes", "rss_growth_mb")
    put("pathloss.gain_matrix_mw", "calls", "s")
    put("planning.optimize_planned_configuration", "s")
    put("engine.evaluate_delta", "calls", "s")
    out["engine.evaluate_delta.windowed_share"] = _ratio(
        get("engine.evaluate_delta_windowed").calls,
        get("engine.evaluate_delta").calls)
    deltas = c("magus.engine.delta_evaluations")
    out["engine.delta_hit_ratio"] = _ratio(
        deltas, deltas + c("magus.engine.delta_fallbacks"))
    put("engine.evaluate", "calls", "s")
    put("engine.evaluate_with_incumbent", "calls", "s", "self_s",
        "rss_growth_mb")
    put("engine.runner_up", "calls", "s")
    put("engine.evaluate_batch", "calls", "candidates", "s", "self_s")
    put("roi.score_candidate", "calls", "s")
    put("roi.baseline", "calls", "s", "rss_growth_mb")
    roi_evals = c("magus.engine.roi_evaluations")
    out["roi.hit_ratio"] = _ratio(
        roi_evals, roi_evals + c("magus.engine.roi_fallbacks"))
    out["roi.window_fraction"] = _ratio(
        c("magus.engine.roi_cells"), roi_evals * grid_cells)
    put("linkrate.max_rate_bps", "calls", "cells", "s")
    put("utility.per_ue", "calls", "cells", "s")
    put("evaluation.score_candidates", "calls", "candidates", "s", "self_s")
    put("evaluation.utility_of", "calls", "s")
    hits = c("magus.evaluator.cache_hits")
    out["evaluation.cache_hit_ratio"] = _ratio(
        hits, hits + c("magus.evaluator.model_evaluations"))
    for tuning in ("power", "tilt", "joint", "naive"):
        put(f"search.tune_{tuning}", "self_s")
    out["search.evaluations_per_ticket"] = _ratio(
        c("magus.plan.model_evaluations"), tickets)
    out["search.steps_per_ticket"] = _ratio(search_steps, tickets)
    put("gradual.gradual_migration", "s")
    out["gradual.steps_per_ticket"] = _ratio(gradual_steps, tickets)
    put("handover.attachment_diff", "s")
    put("parallel.score_batch_roi", "calls", "s")
    put("parallel.score_batch", "s")
    out["parallel.tasks"] = c("magus.parallel.tasks")
    out["parallel.steals"] = c("magus.parallel.steals")
    out["parallel.spilled_bytes"] = c("magus.parallel.spilled_bytes")
    busy_s = c("magus.parallel.worker_busy_ns") / 1e9
    pool_s = (get("parallel.score_batch_roi").s
              + get("parallel.score_batch").s)
    out["parallel.worker_busy_s"] = busy_s
    out["parallel.worker_utilization"] = _ratio(busy_s, workers * pool_s) \
        if workers > 1 else 0.0
    # Parent-side pool wall not explained by the workers computing in
    # parallel: dispatch, pickling, result collection, idle waiting.
    out["parallel.dispatch_overhead_s"] = \
        max(pool_s - busy_s / workers, 0.0) if workers > 1 else 0.0
    out["parallel.chunk_retries"] = c("magus.parallel.chunk_retries")
    out["parallel.pool_respawns"] = c("magus.parallel.pool_respawns")
    out["obs.tracing_overhead_share"] = _ratio(
        timed_wall_s - untraced_timed_wall_s, untraced_timed_wall_s)
    out["obs.setup_span_coverage"] = phase_coverage(
        tracer.spans, "setup", setup_wall_s)
    out["obs.timed_span_coverage"] = phase_coverage(
        tracer.spans, "timed", timed_wall_s)
    return {k: float(v) for k, v in out.items()}
