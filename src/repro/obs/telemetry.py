"""Cross-process telemetry: worker capture/merge and Chrome trace export.

Process-pool workers run with a *copy* of the parent's registry (fork
semantics), so everything they record — engine evaluation counters,
batch timers, events, spans — would die with the chunk.  This module
is the bridge:

* **worker side** — :func:`reset_worker_observability` gives a freshly
  forked worker a fresh registry (so pre-fork parent counts are not
  replayed and the parent's open spans are not inherited), and
  :func:`drain_worker_telemetry` packages the worker's registry
  capture, recorded events and finished spans into a picklable
  :class:`WorkerTelemetry` after each chunk, resetting for the next;
* **parent side** — :func:`merge_worker_telemetry` folds one payload
  into the parent registry under a ``pid=…,worker=…`` label
  (counters summed, timer rings folded, see
  :meth:`~repro.obs.registry.MetricsRegistry.merge_capture`), appends
  the worker's events to the parent's ring and adopts its spans, with
  the same attribution in their tags;
* **export** — :func:`export_chrome_trace` serializes any span
  collection (parent and adopted worker spans alike) to the Chrome
  trace-event JSON format, one track per process, loadable in
  Perfetto / ``chrome://tracing``; :func:`validate_chrome_trace` is
  the format check the tests (and consumers) share.

Timestamps are ``time.perf_counter_ns`` values; on Linux that clock is
CLOCK_MONOTONIC, which is system-wide, so parent and worker tracks are
mutually aligned to well under a millisecond.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .registry import MetricsRegistry, Span, get_registry, set_registry

__all__ = [
    "WorkerTelemetry", "worker_label",
    "reset_worker_observability", "drain_worker_telemetry",
    "merge_worker_telemetry",
    "span_payload", "span_from_payload",
    "chrome_trace_events", "export_chrome_trace", "validate_chrome_trace",
    "CHROME_TRACE_SCHEMA",
]

#: ``otherData.schema`` marker written into exported trace files.
CHROME_TRACE_SCHEMA = "magus.chrome-trace/1"

#: Span tag keys under which worker attribution is recorded on adoption.
_PID_TAG = "pid"
_WORKER_TAG = "worker"


@dataclass
class WorkerTelemetry:
    """One chunk's worth of a worker process's observability state."""

    pid: int
    worker_id: int
    busy_ns: int = 0
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)


def worker_label(pid: int, worker_id: int) -> str:
    """The metric label under which one worker's capture is merged."""
    return f"pid={pid},worker={worker_id}"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _pool_worker_id() -> int:
    """The 1-based pool slot of the current process (0 outside a pool)."""
    identity = getattr(multiprocessing.current_process(), "_identity", ())
    return identity[0] if identity else 0


def reset_worker_observability() -> None:
    """Give a freshly forked worker a clean registry.

    A ``fork`` child inherits the parent's *populated* registry, its
    finished spans and the spans open at fork time (e.g.
    ``magus.tuning`` mid-search); capturing those would replay parent
    counts into the merge, and the worker's own spans would nest under
    phantom open ones.  Called from the pool initializer: when
    telemetry is on (a real registry was active at fork time), install
    a fresh registry with the parent's ``keep_spans``; when it is off,
    leave the null registry untouched.
    """
    registry = get_registry()
    if registry.enabled:
        set_registry(MetricsRegistry(keep_spans=registry.keep_spans))


def drain_worker_telemetry(busy_ns: int = 0) -> WorkerTelemetry:
    """Capture-and-reset this worker's registry, events and spans.

    Each call returns the *delta* since the previous one (the registry
    is reset), so successive chunk payloads merge into the parent
    without double counting.
    """
    registry = get_registry()
    metrics = registry.capture()
    events = registry.events()
    spans = [span_payload(span) for span in registry.spans()]
    if metrics or events or spans:
        registry.reset()
    return WorkerTelemetry(pid=os.getpid(), worker_id=_pool_worker_id(),
                           busy_ns=busy_ns, metrics=metrics, spans=spans,
                           events=events)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def merge_worker_telemetry(payload: WorkerTelemetry,
                           registry: Optional[MetricsRegistry] = None
                           ) -> None:
    """Fold one worker payload into the parent's registry.

    Metrics land labeled (``name{pid=…,worker=…}``); events join the
    parent's ring with fresh ``seq`` numbers and ``pid``/``worker``
    keys; spans are adopted with the same attribution in their tags,
    which is what puts them on their own track in the Chrome trace
    export.
    """
    registry = registry if registry is not None else get_registry()
    tags = {_PID_TAG: payload.pid, _WORKER_TAG: payload.worker_id}
    if payload.metrics:
        registry.merge_capture(
            payload.metrics,
            label=worker_label(payload.pid, payload.worker_id))
    if payload.events:
        registry.adopt_events(payload.events, **tags)
    for span_dict in payload.spans:
        registry.adopt_span(span_from_payload(span_dict, extra_tags=tags))


# ----------------------------------------------------------------------
# span transport
# ----------------------------------------------------------------------
def span_payload(span: Span) -> Dict[str, object]:
    """A picklable dict preserving everything a span carries.

    Unlike :meth:`Span.to_dict` (a reporting artifact), the payload
    keeps absolute ``start_ns``/``end_ns`` so cross-process timelines
    stay aligned after reconstruction.
    """
    out: Dict[str, object] = {
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "status": span.status,
    }
    if span.tags:
        out["tags"] = dict(span.tags)
    if span.error is not None:
        out["error"] = span.error
    if span.children:
        out["children"] = [span_payload(c) for c in span.children]
    return out


def span_from_payload(payload: Dict[str, object],
                      extra_tags: Optional[Dict[str, object]] = None
                      ) -> Span:
    """Rebuild a :class:`Span` tree from :func:`span_payload` output."""
    span = Span(str(payload.get("name", "unnamed")),
                tags=payload.get("tags"))
    if extra_tags:
        span.tags.update(extra_tags)
    span.start_ns = int(payload.get("start_ns") or 0)
    span.end_ns = int(payload.get("end_ns") or 0)
    span.status = str(payload.get("status", "ok"))
    error = payload.get("error")
    span.error = None if error is None else str(error)
    span.children = [span_from_payload(c, extra_tags)
                     for c in payload.get("children") or ()]
    return span


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def _span_track(span: Span, parent_pid: int) -> tuple:
    """``(pid, track_name)`` for one root span."""
    pid = span.tags.get(_PID_TAG)
    if pid is None or int(pid) == parent_pid:
        return parent_pid, f"magus parent (pid {parent_pid})"
    worker = span.tags.get(_WORKER_TAG, "?")
    return int(pid), f"magus worker {worker} (pid {int(pid)})"


def _complete_events(span: Span, pid: int, out: List[dict]) -> None:
    args: Dict[str, object] = {str(k): v for k, v in span.tags.items()}
    args["status"] = span.status
    if span.error is not None:
        args["error"] = span.error
    out.append({
        "name": span.name,
        "cat": "magus",
        "ph": "X",
        "ts": span.start_ns / 1e3,          # microseconds
        "dur": span.duration_ns / 1e3,
        "pid": pid,
        "tid": 1,
        "args": args,
    })
    for child in span.children:
        _complete_events(child, pid, out)


def chrome_trace_events(spans: Sequence[Span],
                        parent_pid: Optional[int] = None) -> List[dict]:
    """Flatten span trees into Chrome trace-event dicts.

    Each process gets its own ``pid`` track (named via a
    ``process_name`` metadata event); spans nest by time containment
    within a track, which is how the trace-event format renders
    ``ph="X"`` complete events.
    """
    parent_pid = parent_pid if parent_pid is not None else os.getpid()
    events: List[dict] = []
    named: Dict[int, str] = {}
    for span in spans:
        pid, track = _span_track(span, parent_pid)
        if pid not in named:
            named[pid] = track
        _complete_events(span, pid, events)
    metadata = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 1,
        "args": {"name": track},
    } for pid, track in sorted(named.items())]
    return metadata + events


def export_chrome_trace(path: str,
                        spans: Optional[Sequence[Span]] = None,
                        parent_pid: Optional[int] = None) -> dict:
    """Write ``spans`` (default: the active registry's finished spans)
    as a Chrome trace-event JSON file.

    The file loads directly in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.  Returns the written payload.
    """
    if spans is None:
        spans = get_registry().spans()
    payload = {
        "traceEvents": chrome_trace_events(spans, parent_pid=parent_pid),
        "displayTimeUnit": "ms",
        "otherData": {"schema": CHROME_TRACE_SCHEMA},
    }
    from ..faults.durable import atomic_write_json  # avoids import cycle

    atomic_write_json(path, payload, kind="trace")
    return payload


def validate_chrome_trace(payload: dict) -> int:
    """Check ``payload`` against the Chrome trace-event JSON format.

    Returns the number of events; raises :class:`ValueError` on the
    first violation.  This is the schema check the test suite asserts
    over ``--trace-out`` files.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload lacks a 'traceEvents' array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if ph not in ("X", "M"):
            raise ValueError(f"traceEvents[{i}] has unsupported "
                             f"phase {ph!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{i}] lacks a string 'name'")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"traceEvents[{i}] lacks an integer 'pid'")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"traceEvents[{i}] needs non-negative "
                        f"numeric {key!r}")
            if not isinstance(event.get("tid"), int):
                raise ValueError(f"traceEvents[{i}] lacks an integer "
                                 f"'tid'")
        elif not isinstance(event.get("args"), dict):
            raise ValueError(f"traceEvents[{i}] metadata lacks 'args'")
    return len(events)
