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
        {"step": 1, "sector": 12, "knob": "tilt",
         "utility": 812.4, "delta_utility": 3.2, "evaluations": 5}, ...],
      "utility_trajectory": [809.2, 812.4, ...],   # initial + per step
      "total_model_evaluations": 118,         # == tuning trace total
      "metrics": {...}                        # full registry snapshot
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .registry import MetricsRegistry, get_registry, split_metric_label
from .tracer import SPAN_TIMER_PREFIX, Tracer

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

    # -- construction --------------------------------------------------
    @classmethod
    def from_mitigation(cls, result, command: str = "mitigate",
                        registry: Optional[MetricsRegistry] = None,
                        tracer: Optional[Tracer] = None,
                        meta: Optional[Dict[str, object]] = None
                        ) -> "RunReport":
        """Build from a :class:`~repro.core.plan.MitigationResult`.

        ``total_model_evaluations`` and the trajectory come from the
        tuning trace itself, so they agree with
        ``result.tuning.total_evaluations`` by construction; the
        registry contributes per-phase wall time and the raw metric
        snapshot on top.
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
                "evaluations": step.candidates_evaluated,
            })
        report.total_model_evaluations = tuning.total_evaluations
        report.attach_registry(registry)
        if tracer is not None and tracer.enabled:
            report.spans = [s.to_dict() for s in tracer.drain()]
        return report

    @classmethod
    def from_registry(cls, command: str,
                      registry: Optional[MetricsRegistry] = None,
                      tracer: Optional[Tracer] = None,
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
        if tracer is not None and tracer.enabled:
            report.spans = [s.to_dict() for s in tracer.drain()]
        return report

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """Snapshot ``registry`` into :attr:`metrics` and derive phases."""
        self.metrics = registry.snapshot()
        self.phases = _phases_from_metrics(self.metrics)

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
        resilience = self.resilience_metrics()
        if resilience:
            lines.append("resilience:")
            width = max(len(name) for name in resilience)
            for name, value in resilience.items():
                lines.append(f"  {name:<{width}}  {value}")
        delta = self.delta_metrics()
        if delta:
            lines.append("delta engine:")
            width = max(len(name) for name in delta)
            for name, value in delta.items():
                lines.append(f"  {name:<{width}}  {value}")
        roi = self.roi_metrics()
        if roi:
            lines.append("roi:")
            width = max(len(name) for name in roi)
            for name, value in roi.items():
                lines.append(f"  {name:<{width}}  {value}")
        parallel = self.parallel_metrics()
        workers = self.worker_utilization()
        if parallel or workers:
            lines.append("parallel:")
            if parallel:
                width = max(len(name) for name in parallel)
                for name, value in parallel.items():
                    lines.append(f"  {name:<{width}}  {value}")
            for row in workers:
                lines.append(
                    f"  worker {row['worker']} (pid {row['pid']}): "
                    f"{row['chunks']} chunks, "
                    f"{row['busy_s']:.3f} s busy "
                    f"({row['busy_share'] * 100.0:.1f}%), "
                    f"{row['evaluations']} evaluations")
        return "\n".join(lines)

    def delta_metrics(self) -> Dict[str, object]:
        """Incremental-evaluation counters, if the delta engine ran.

        ``magus.engine.delta_evaluations`` / ``delta_fallbacks`` /
        ``batched_candidates`` expose the hit rate of the incremental
        path, and ``magus.evaluator.reanchors`` how often candidate
        scoring had to re-anchor on its parent; empty under
        ``--no-delta`` (or when nothing was evaluated), keeping
        full-strategy reports unchanged.
        """
        out: Dict[str, object] = {}
        for name in ("magus.engine.delta_evaluations",
                     "magus.engine.delta_fallbacks",
                     "magus.evaluator.reanchors",
                     "magus.engine.batched_candidates"):
            stats = self.metrics.get(name)
            if stats is not None:
                out[name] = stats.get("value")
        return out

    def roi_metrics(self) -> Dict[str, object]:
        """Region-of-influence counters, if windowed scoring ran.

        ``magus.engine.roi_evaluations`` / ``roi_cells`` /
        ``roi_fallbacks`` expose how many candidates took the sparse
        window path and how much of the grid it actually touched
        (``roi_cells / (roi_evaluations * H * W)`` is the mean window
        fraction); empty under ``--no-roi`` or a backend without
        footprints, keeping dense reports unchanged.
        """
        out: Dict[str, object] = {}
        for name in ("magus.engine.roi_evaluations",
                     "magus.engine.roi_cells",
                     "magus.engine.roi_fallbacks"):
            stats = self.metrics.get(name)
            if stats is not None:
                out[name] = stats.get("value")
        return out

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
