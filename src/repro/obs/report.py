"""``RunReport``: one mitigation run serialized for offline analysis.

The report is the run-level artifact the paper's evaluation is built
from — per-phase wall time, the per-iteration utility trajectory and
the model-evaluation budget — flattened into a JSON document (schema
``magus.run-report/1``) plus a human-readable table.  The CLI's
``--metrics-out`` flag writes it; benchmarks attach the same snapshot
to their results.

Schema (all keys always present)::

    {
      "schema": "magus.run-report/1",
      "command": "mitigate",                  # producing subcommand
      "meta": {...},                          # free-form run context
      "phases": [                             # from span.* timers
        {"name": "magus.tilt_pass", "calls": 1,
         "wall_time_s": 0.81, "mean_s": 0.81}, ...],
      "iterations": [                         # one per accepted step
        {"step": 1, "sector": 12, "knob": "tilt", "old_value": 6.0,
         "new_value": 5.0, "utility": 812.4, "delta_utility": 3.2}, ...],
      "utility_trajectory": [809.2, 812.4, ...],   # initial + per step
      "total_model_evaluations": 118,         # the plan's evaluations
      "metrics": {...},                       # full registry snapshot
      "resources": {                          # getrusage(RUSAGE_SELF)
        "peak_rss_mb": 344.9,                 #   when the report is
        "minor_faults": 148501,               #   built ({} where the
        "major_faults": 0}                    #   platform has none)
    }
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .registry import (SPAN_TIMER_PREFIX, MetricsRegistry, get_registry,
                       split_metric_label)

try:
    import resource
except ImportError:             # not on every platform
    resource = None

__all__ = ["RunReport", "SCHEMA"]

SCHEMA = "magus.run-report/1"


@dataclass
class RunReport:
    """Serializable collection of one run's observability artifacts."""

    command: str = "unknown"
    meta: Dict[str, object] = field(default_factory=dict)
    phases: List[Dict[str, object]] = field(default_factory=list)
    iterations: List[Dict[str, object]] = field(default_factory=list)
    utility_trajectory: List[float] = field(default_factory=list)
    total_model_evaluations: int = 0
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    resources: Dict[str, object] = field(default_factory=dict)

    # -- construction --------------------------------------------------
    @classmethod
    def from_mitigation(cls, result, command: str = "mitigate",
                        registry: Optional[MetricsRegistry] = None,
                        meta: Optional[Dict[str, object]] = None
                        ) -> "RunReport":
        """Build from a :class:`~repro.core.plan.MitigationResult`.

        ``total_model_evaluations`` is ``result.evaluations``, the
        evaluations the plan's cost meter counted (the same number
        ``magus.plan.model_evaluations`` grew by); the trajectory comes
        from the tuning trace.  The registry contributes per-phase wall
        time, the raw metric snapshot and any kept spans on top.
        """
        registry = registry if registry is not None else get_registry()
        tuning = result.tuning
        report = cls(command=command, meta=dict(meta or {}))
        report.meta.setdefault("utility", result.utility_name)
        report.meta.setdefault("target_sectors",
                               list(result.target_sectors))
        report.meta.setdefault("termination", tuning.termination)
        report.meta.setdefault("f_before", result.f_before)
        report.meta.setdefault("f_upgrade", result.f_upgrade)
        report.meta.setdefault("f_after", result.f_after)
        report.meta.setdefault("recovery_ratio", result.recovery)
        report.utility_trajectory = [float(u)
                                     for u in tuning.utility_trace()]
        for i, step in enumerate(tuning.steps):
            change = step.change
            report.iterations.append({
                "step": i + 1,
                "sector": change.sector_id,
                "knob": change.parameter.value,
                "old_value": change.old_value,
                "new_value": change.new_value,
                "utility": step.utility,
                "delta_utility": step.utility
                                 - report.utility_trajectory[i],
            })
        report.total_model_evaluations = result.evaluations
        report.attach_registry(registry)
        return report

    @classmethod
    def from_registry(cls, command: str,
                      registry: Optional[MetricsRegistry] = None,
                      utility_trajectory: Optional[List[float]] = None,
                      total_model_evaluations: int = 0,
                      meta: Optional[Dict[str, object]] = None
                      ) -> "RunReport":
        """Build a report for runs without a tuning trace (testbed)."""
        report = cls(command=command, meta=dict(meta or {}),
                     utility_trajectory=[float(u) for u in
                                         (utility_trajectory or [])],
                     total_model_evaluations=total_model_evaluations)
        report.attach_registry(
            registry if registry is not None else get_registry())
        return report

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """Snapshot ``registry`` into :attr:`metrics` and derive phases,
        copy its kept :attr:`spans` (reading leaves them for other
        consumers) and read the process's :attr:`resources`."""
        self.metrics = registry.snapshot()
        self.phases = _phases_from_metrics(self.metrics)
        self.spans = [span.to_dict() for span in registry.spans()]
        self.resources = _resources()

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema": SCHEMA,
            "command": self.command,
            "meta": self.meta,
            "phases": self.phases,
            "iterations": self.iterations,
            "utility_trajectory": self.utility_trajectory,
            "total_model_evaluations": self.total_model_evaluations,
            "metrics": self.metrics,
            "resources": self.resources,
        }
        if self.spans:
            out["spans"] = self.spans
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"unsupported run-report schema {schema!r}")
        return cls(
            command=data.get("command", "unknown"),
            meta=data.get("meta", {}),
            phases=data.get("phases", []),
            iterations=data.get("iterations", []),
            utility_trajectory=data.get("utility_trajectory", []),
            total_model_evaluations=data.get("total_model_evaluations", 0),
            metrics=data.get("metrics", {}),
            spans=data.get("spans", []),
            resources=data.get("resources", {}),
        )

    def write(self, path: str) -> None:
        """Atomic write: an abort mid-flush never truncates the report."""
        from ..faults.durable import atomic_write  # avoids import cycle

        atomic_write(path, self.to_json() + "\n", kind="report")

    # -- presentation --------------------------------------------------
    def to_table(self) -> str:
        """A compact human-readable summary of the report."""
        lines = [f"run report ({self.command}): "
                 f"{len(self.iterations)} accepted steps, "
                 f"{self.total_model_evaluations} model evaluations"]
        if self.utility_trajectory:
            lines.append(
                f"utility: {self.utility_trajectory[0]:.4g} -> "
                f"{self.utility_trajectory[-1]:.4g} over "
                f"{len(self.utility_trajectory) - 1} steps")
        if self.phases:
            width = max(len(p["name"]) for p in self.phases)
            lines.append("phase" + " " * (max(width - 5, 0) + 2)
                         + "calls   wall (s)")
            for p in self.phases:
                lines.append(f"{p['name']:<{width}}  "
                             f"{p['calls']:>5}  {p['wall_time_s']:>9.4f}")
        workers = [f"  worker {row['worker']} (pid {row['pid']}): "
                   f"{row['chunks']} chunks, "
                   f"{row['busy_s']:.3f} s busy "
                   f"({row['busy_share'] * 100.0:.1f}%), "
                   f"{row['evaluations']} evaluations"
                   for row in self.worker_utilization()]
        # "parallel" comes last: the worker rows close its section.
        for title, metrics in (("resources", self.resources),
                               ("resilience", self.resilience_metrics()),
                               ("delta engine", self.delta_metrics()),
                               ("roi", self.roi_metrics()),
                               ("parallel", self.parallel_metrics())):
            if not (metrics or (title == "parallel" and workers)):
                continue
            lines.append(f"{title}:")
            width = max((len(name) for name in metrics), default=0)
            for name, value in metrics.items():
                lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines + workers)

    def delta_metrics(self) -> Dict[str, object]:
        """Incremental-evaluation counters, if the delta engine ran.

        ``magus.engine.delta_evaluations`` / ``delta_fallbacks``
        expose the hit rate of the incremental path,
        ``magus.evaluator.reanchors`` how often candidate scoring had
        to re-anchor on its parent, and
        ``magus.evaluator.state_rebuilds`` how often ``state_of`` met a
        memoized configuration whose state neither its entry nor a
        ring anchor held; empty under ``--no-delta`` (or when nothing
        was evaluated), keeping full-strategy reports unchanged.
        """
        return self._values("magus.engine.delta_evaluations",
                            "magus.engine.delta_fallbacks",
                            "magus.evaluator.reanchors",
                            "magus.evaluator.state_rebuilds")

    def roi_metrics(self) -> Dict[str, object]:
        """Region-of-influence counters, if windowed scoring ran.

        ``magus.engine.roi_evaluations`` / ``roi_cells`` expose how
        many delta evaluations and scored candidates ran through a
        window and how much of the grid it actually touched
        (``roi_cells / (roi_evaluations * H * W)`` is the mean window
        fraction; full-grid windows count too); empty when nothing
        single-sector was evaluated.
        """
        return self._values("magus.engine.roi_evaluations",
                            "magus.engine.roi_cells")

    def _values(self, *names: str) -> Dict[str, object]:
        """The value of each of ``names`` the metrics hold, in order."""
        return {name: self.metrics[name].get("value") for name in names
                if name in self.metrics}

    def parallel_metrics(self) -> Dict[str, object]:
        """Unlabeled pool and sweep-throughput values, if a pool ran.

        Covers the parent-side ``magus.parallel.*`` aggregates and the
        live ``magus.sweep.*`` throughput gauges; per-worker labeled
        entries are rendered separately by :meth:`worker_utilization`.
        """
        out: Dict[str, object] = {}
        for name, stats in self.metrics.items():
            base, label = split_metric_label(name)
            if label is not None:
                continue
            if base.startswith(("magus.parallel.", "magus.sweep.")):
                out[name] = stats.get("value")
        return out

    def worker_utilization(self) -> List[Dict[str, object]]:
        """Per-worker rows from the labeled cross-process merge.

        Each row aggregates one worker process's labeled metrics
        (``magus.parallel.chunks{pid=…,worker=…}`` etc.) into chunk
        count, busy wall time, busy share of the pool total, and
        engine evaluations — the data behind the report's
        "parallel:" section that makes pool imbalance visible.
        """
        per_worker: Dict[str, Dict[str, object]] = {}
        for name, stats in self.metrics.items():
            base, label = split_metric_label(name)
            if label is None:
                continue
            tags = dict(part.split("=", 1)
                        for part in label.split(",") if "=" in part)
            if "pid" not in tags:
                continue
            row = per_worker.setdefault(label, {
                "pid": int(tags["pid"]),
                "worker": int(tags.get("worker") or 0),
                "chunks": 0, "busy_ns": 0, "evaluations": 0,
            })
            value = stats.get("value") or 0
            if base == "magus.parallel.chunks":
                row["chunks"] = int(value)
            elif base == "magus.parallel.worker_busy_ns":
                row["busy_ns"] = int(value)
            elif base == "magus.engine.evaluations":
                row["evaluations"] = int(value)
        rows = sorted(per_worker.values(),
                      key=lambda r: (r["worker"], r["pid"]))
        total_busy = sum(r["busy_ns"] for r in rows)
        for row in rows:
            row["busy_s"] = row["busy_ns"] / 1e9
            row["busy_share"] = (row["busy_ns"] / total_busy
                                 if total_busy else 0.0)
        return rows

    def resilience_metrics(self) -> Dict[str, object]:
        """Fault/retry/degradation counters, if any were recorded.

        Empty when no fault plan or resilient executor ran — the
        NullRegistry pattern guarantees disabled fault machinery adds
        no keys anywhere.
        """
        out: Dict[str, object] = {}
        for name, stats in self.metrics.items():
            if name.startswith(("magus.faults.", "magus.resilience.")):
                out[name] = stats.get("value")
        return out


def _resources() -> Dict[str, object]:
    """Peak RSS and page faults of this process so far."""
    if resource is None:
        return {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in kB on Linux (bytes on macOS).
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return {"peak_rss_mb": round(usage.ru_maxrss / scale, 1),
            "minor_faults": usage.ru_minflt,
            "major_faults": usage.ru_majflt}


def _phases_from_metrics(metrics: Dict[str, Dict[str, object]]
                         ) -> List[Dict[str, object]]:
    """Per-phase wall time rows from the ``span.*`` timers."""
    phases = []
    for name, stats in metrics.items():
        if not name.startswith(SPAN_TIMER_PREFIX):
            continue
        if stats.get("type") != "timer":
            continue
        count = int(stats.get("count") or 0)
        total_ns = int(stats.get("total_ns") or 0)
        phases.append({
            "name": name[len(SPAN_TIMER_PREFIX):],
            "calls": count,
            "wall_time_s": total_ns / 1e9,
            "mean_s": (total_ns / count / 1e9) if count else 0.0,
        })
    phases.sort(key=lambda p: -p["wall_time_s"])
    return phases
