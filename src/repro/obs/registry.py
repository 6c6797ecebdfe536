"""The metrics registry: counters, gauges and ns-resolution timers.

Everything here is dependency-free (no NumPy) because the registry sits
*inside* the model's inner loop: the engine and evaluator bump counters
and timers on every single evaluation.  The design therefore has two
modes with very different cost profiles:

* the **null registry** (the process-wide default) — every ``counter()``
  / ``gauge()`` / ``timer()`` call returns a shared no-op singleton, so
  instrumented code pays a couple of attribute lookups and nothing
  else.  ``snapshot()`` is always empty: disabled instrumentation
  leaves no trace.
* a real :class:`MetricsRegistry` — installed for one run via
  :func:`set_registry` or the :func:`use_registry` context manager
  (the CLI's ``--metrics-out`` / ``--trace`` flags do this), it keeps
  one metric object per name and serializes to a plain dict.

Timers record integer nanoseconds (``time.perf_counter_ns``) into a
bounded ring buffer, so percentiles stay O(ring) regardless of how many
observations a long search produces.

Metrics answer "how much"; the **event ring** answers "what happened,
in what order" when a run dies: :meth:`MetricsRegistry.record` keeps the
last :data:`FLIGHT_CAPACITY` structured events, and
:meth:`MetricsRegistry.flush` dumps them to ``flight_out`` exactly once.

Phases are **spans**: ``with get_registry().span("magus.tilt_pass"):``
times the block into the ``span.<name>`` timer (this is how
``RunReport`` gets per-phase wall time), and a registry built with
``keep_spans=True`` (CLI ``--trace``/``--trace-out``) also keeps the
finished span trees — name, tags, ns bounds, status, children — for
printing, the report and the Chrome trace.  An exception marks its
span ``error`` and propagates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter", "CostMeter", "Gauge", "Timer", "MetricsRegistry",
    "NullRegistry", "NULL_REGISTRY", "get_registry", "set_registry",
    "use_registry", "labeled_metric", "split_metric_label",
    "FLIGHT_SCHEMA", "FLIGHT_CAPACITY", "Span", "SPAN_TIMER_PREFIX",
]

#: Schema tag stamped into every flight dump.
FLIGHT_SCHEMA = "magus.flight-recorder/1"

#: Events the ring retains — generous for a mitigation run (a full
#: gradual rollout with retries emits a few hundred events) while
#: bounding a week-long sweep to a few hundred KB of memory.
FLIGHT_CAPACITY = 2048

#: Registry-timer prefix under which span durations are recorded.
SPAN_TIMER_PREFIX = "span."


def labeled_metric(name: str, label: str) -> str:
    """The registry name of ``name`` tagged with ``label``.

    Labels use the ``name{k=v,...}`` convention (e.g.
    ``magus.engine.evaluations{pid=4242,worker=1}``), so labeled
    entries keep their base prefix — prefix-scanning consumers such as
    :meth:`~repro.obs.report.RunReport.resilience_metrics` see them
    automatically.
    """
    return f"{name}{{{label}}}"


def split_metric_label(name: str) -> "Tuple[str, Optional[str]]":
    """Split a registry name into ``(base, label)``; label may be None."""
    if name.endswith("}"):
        brace = name.find("{")
        if brace > 0:
            return name[:brace], name[brace + 1:-1]
    return name, None


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self, value: int = 0) -> None:
        self._value = value

    def meter(self) -> "CostMeter":
        """A zero-point handle for measuring cost spent from *now*."""
        return CostMeter(self)

    def snapshot(self) -> Dict[str, int]:
        return {"type": "counter", "value": self._value}

    def state(self) -> Dict[str, object]:
        """Full transportable state (for cross-process merging)."""
        return {"type": "counter", "value": self._value}

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another counter's captured state in (values sum)."""
        self._value += int(state.get("value") or 0)


class CostMeter:
    """Reads the cost a :class:`Counter` accrued since the meter was made.

    This replaces the fragile ``before = c.value; ...; spent = c.value -
    before`` diffing pattern: callers take a meter, run the work, and ask
    :meth:`spent` — the zero point can never be forgotten or reused.
    """

    __slots__ = ("_counter", "_zero")

    def __init__(self, counter: Counter) -> None:
        self._counter = counter
        self._zero = counter.value

    def spent(self) -> int:
        return self._counter.value - self._zero


class Gauge:
    """A set-to-latest float metric (also tracks min/max seen)."""

    __slots__ = ("name", "_value", "_min", "_max", "_updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Optional[float] = None
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._updates = 0

    def set(self, value: float) -> None:
        self._value = value
        self._updates += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def value(self) -> Optional[float]:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self._value, "min": self._min,
                "max": self._max, "updates": self._updates}

    def state(self) -> Dict[str, object]:
        """Full transportable state (for cross-process merging)."""
        return self.snapshot()

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another gauge's captured state in.

        The incoming value wins (set-to-latest semantics); min/max and
        the update count fold exactly.
        """
        updates = int(state.get("updates") or 0)
        if not updates:
            return
        self._updates += updates
        value = state.get("value")
        if value is not None:
            self._value = float(value)
        for incoming in (state.get("min"), state.get("max")):
            if incoming is None:
                continue
            incoming = float(incoming)
            if self._min is None or incoming < self._min:
                self._min = incoming
            if self._max is None or incoming > self._max:
                self._max = incoming


class _TimerHandle:
    """One in-flight timing; returned by :meth:`Timer.time`."""

    __slots__ = ("_timer", "_start_ns")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer
        self._start_ns = 0

    def __enter__(self) -> "_TimerHandle":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.observe_ns(time.perf_counter_ns() - self._start_ns)


class Timer:
    """Duration metric: count/total plus a ring buffer for percentiles."""

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns", "_ring")

    def __init__(self, name: str, ring_size: int = 4096) -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self._ring: Deque[int] = deque(maxlen=ring_size)

    def time(self) -> _TimerHandle:
        """``with timer.time(): ...`` records the block's duration."""
        return _TimerHandle(self)

    def observe_ns(self, duration_ns: int) -> None:
        self.count += 1
        self.total_ns += duration_ns
        if self.min_ns is None or duration_ns < self.min_ns:
            self.min_ns = duration_ns
        if self.max_ns is None or duration_ns > self.max_ns:
            self.max_ns = duration_ns
        self._ring.append(duration_ns)          # drops the oldest

    def percentile_ns(self, q: float) -> Optional[float]:
        """Linear-interpolated percentile (``q`` in [0, 100]) over the ring."""
        if not self._ring:
            return None
        ordered = sorted(self._ring)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def mean_ns(self) -> Optional[float]:
        return self.total_ns / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "timer",
            "count": self.count,
            "total_ns": self.total_ns,
            "mean_ns": self.mean_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "p50_ns": self.percentile_ns(50.0),
            "p90_ns": self.percentile_ns(90.0),
            "p99_ns": self.percentile_ns(99.0),
        }

    def state(self) -> Dict[str, object]:
        """Full transportable state, ring included (for merging)."""
        return {
            "type": "timer",
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "ring": list(self._ring),
            "ring_size": self._ring.maxlen,
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another timer's captured state in.

        Count/total/min/max fold exactly; the incoming ring samples are
        pushed through the bounded ring, so the merged ring never
        exceeds ``ring_size`` — merged percentiles are computed over a
        (recency-biased) sample of the union, within ring-size bounds.
        """
        self.count += int(state.get("count") or 0)
        self.total_ns += int(state.get("total_ns") or 0)
        for attr in ("min_ns", "max_ns"):
            incoming = state.get(attr)
            if incoming is None:
                continue
            mine = getattr(self, attr)
            if (mine is None
                    or (attr == "min_ns" and incoming < mine)
                    or (attr == "max_ns" and incoming > mine)):
                setattr(self, attr, int(incoming))
        self._ring.extend(int(sample) for sample in state.get("ring") or ())


class Span:
    """One traced phase: a node of a kept span tree."""

    __slots__ = ("name", "tags", "start_ns", "end_ns", "status",
                 "error", "children")

    def __init__(self, name: str, tags: Optional[Dict[str, object]] = None
                 ) -> None:
        self.name = name
        self.tags: Dict[str, object] = dict(tags or {})
        self.start_ns = 0
        self.end_ns = 0
        self.status = "ok"
        self.error: Optional[str] = None
        self.children: List["Span"] = []

    @property
    def duration_ns(self) -> int:
        return max(self.end_ns - self.start_ns, 0)

    def to_dict(self) -> Dict[str, object]:
        """The subtree as the run report's nested span dicts."""
        out: Dict[str, object] = {
            "name": self.name,
            "duration_ns": self.duration_ns,
            "status": self.status,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _SpanContext:
    """One live span of a registry that keeps span trees."""

    __slots__ = ("_registry", "_span")

    def __init__(self, registry: "MetricsRegistry", span: Span) -> None:
        self._registry = registry
        self._span = span

    def __enter__(self) -> Span:
        self._registry._open.append(self._span)
        self._span.start_ns = time.perf_counter_ns()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc}"
        self._registry._close(span)


# ----------------------------------------------------------------------
class MetricsRegistry:
    """One metric object per name, the run's bounded event ring and,
    with ``keep_spans``, its finished span trees.

    Metrics serialize to a plain dict (:meth:`snapshot`), events to the
    flight dump (:meth:`flight_snapshot`) that :meth:`flush` writes,
    spans to :meth:`spans`.
    """

    def __init__(self, flight_out: Optional[str] = None,
                 keep_spans: bool = False) -> None:
        self._metrics: Dict[str, object] = {}
        # Re-entrant: merge_capture holds the lock while calling the
        # accessors (counter/gauge/timer), which lock again.
        self._lock = threading.RLock()
        self.flight_out = flight_out
        self._events: Deque[dict] = deque(maxlen=FLIGHT_CAPACITY)
        self._seq = 0
        #: ``_seq`` at the last flush; None until the first one.
        self._flushed_seq: Optional[int] = None
        self.keep_spans = keep_spans
        self._open: List[Span] = []         # open spans, innermost last
        self._spans: List[Span] = []        # finished root spans

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}")
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    @property
    def enabled(self) -> bool:
        return True

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every metric, retained event and finished span."""
        with self._lock:
            self._metrics.clear()
            self._events.clear()
            self._spans.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics as ``{name: {type, ...stats}}`` (JSON-safe)."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    # -- cross-process merging -----------------------------------------
    def capture(self) -> Dict[str, Dict[str, object]]:
        """Transportable full state of every metric (rings included).

        Unlike :meth:`snapshot` — a reporting artifact with derived
        percentiles — a capture preserves everything
        :meth:`merge_capture` needs to fold the metrics into another
        registry exactly: raw timer rings, gauge update counts.  The
        payload is plain dicts/lists/ints, safe to pickle across a
        process boundary.
        """
        with self._lock:
            return {name: metric.state()
                    for name, metric in self._metrics.items()}

    def merge_capture(self, capture: Dict[str, Dict[str, object]],
                      label: Optional[str] = None) -> None:
        """Fold a :meth:`capture` from another registry into this one.

        Counters sum, timers fold (ring-bounded), gauges keep
        set-to-latest semantics with exact min/max/updates folding —
        so merging N worker captures is order-independent and
        sum-exact for counters.  With ``label``, every metric lands
        under :func:`labeled_metric` (e.g. ``...{pid=7,worker=1}``)
        instead of the bare name; successive captures from the same
        worker accumulate into the same labeled entry.  Thread-safe:
        the whole merge happens under the registry lock.
        """
        kinds = {"counter": self.counter, "gauge": self.gauge,
                 "timer": self.timer}
        with self._lock:
            for name, state in capture.items():
                accessor = kinds.get(str(state.get("type")))
                if accessor is None:
                    continue
                target = labeled_metric(name, label) if label else name
                accessor(target).merge_state(state)

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **tags):
        """``with registry.span(name, **tags):`` times the block into
        the ``span.<name>`` timer; with ``keep_spans`` the block also
        becomes a node of the run's span tree."""
        if not self.keep_spans:
            return self.timer(SPAN_TIMER_PREFIX + name).time()
        return _SpanContext(self, Span(name, tags))

    def _close(self, span: Span) -> None:
        stack = self._open
        del stack[stack.index(span):]  # and any span left open inside it
        self.timer(SPAN_TIMER_PREFIX + span.name).observe_ns(
            span.duration_ns)
        if stack:
            stack[-1].children.append(span)
        else:
            self.adopt_span(span)

    def adopt_span(self, span: Span) -> None:
        """Keep a finished root span (with ``keep_spans`` only) — also
        one a pool worker recorded and shipped home."""
        if self.keep_spans:
            with self._lock:
                self._spans.append(span)

    def spans(self) -> List[Span]:
        """The finished root spans, oldest first; reading keeps them."""
        with self._lock:
            return list(self._spans)

    # -- the event ring ------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """Append one event; the oldest fall off a full ring.

        Events are ``{"seq", "kind", "t_unix_s", "t_mono_ns", "data"}``;
        ``seq`` counts every event ever recorded, so a dump shows how
        many early events the ring dropped.
        """
        with self._lock:
            self._events.append({
                "seq": self._seq,
                "kind": kind,
                "t_unix_s": time.time(),
                "t_mono_ns": time.monotonic_ns(),
                "data": fields,
            })
            self._seq += 1

    def adopt_events(self, events: List[dict], **tags) -> None:
        """Append events recorded in another process, renumbered.

        Each keeps its kind, timestamps and ``data``, takes the next
        ``seq`` here and gains ``tags`` (a worker's ``pid``/``worker``).
        """
        with self._lock:
            for event in events:
                self._events.append({**event, "seq": self._seq, **tags})
                self._seq += 1

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """The retained events, oldest first, optionally one kind."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        return events

    def flight_snapshot(self) -> Dict[str, object]:
        """The flight dump: schema, ring stats and retained events."""
        with self._lock:
            return {
                "schema": FLIGHT_SCHEMA,
                "capacity": FLIGHT_CAPACITY,
                "recorded": self._seq,
                "dropped": self._seq - len(self._events),
                "events": list(self._events),
            }

    def flush(self) -> Optional[str]:
        """Write the flight dump to ``flight_out``; returns the path.

        A no-op (None) without ``flight_out`` or when nothing was
        recorded since the last flush.  The ring is marked flushed
        *before* the write, so an event the write itself causes (a
        chaos hook corrupting the dump) re-arms the next flush.
        """
        with self._lock:
            if self.flight_out is None or self._flushed_seq == self._seq:
                return None
            payload = self.flight_snapshot()
            self._flushed_seq = self._seq
        # Lazy import: faults.durable is repro-import-free, but going
        # through the faults package from obs at module scope would be
        # circular (faults.executor imports obs).
        from ..faults.durable import atomic_write_json

        atomic_write_json(self.flight_out, payload, kind="flight")
        return self.flight_out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:      # noqa: D102 — no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullTimerHandle:
    __slots__ = ()

    def __enter__(self) -> "_NullTimerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_TIMER_HANDLE = _NullTimerHandle()


class _NullTimer(Timer):
    __slots__ = ()

    def time(self) -> _NullTimerHandle:          # type: ignore[override]
        return _NULL_TIMER_HANDLE

    def observe_ns(self, duration_ns: int) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled-instrumentation registry: shared no-op singletons.

    Every accessor returns the same do-nothing metric object, so
    instrumented call sites cost two attribute lookups and a no-op call
    (:meth:`record` and :meth:`span` included).  Its :meth:`snapshot`
    is always empty — a key acceptance property (disabled
    instrumentation must add no keys anywhere).
    """

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._timer = _NullTimer("null", ring_size=0)

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def timer(self, name: str) -> Timer:
        return self._timer

    def span(self, name: str, **tags) -> _NullTimerHandle:
        return _NULL_TIMER_HANDLE

    @property
    def enabled(self) -> bool:
        return False

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def capture(self) -> Dict[str, Dict[str, object]]:
        return {}

    def merge_capture(self, capture: Dict[str, Dict[str, object]],
                      label: Optional[str] = None) -> None:
        return None   # never mutate the shared no-op singletons

    def record(self, kind: str, **fields) -> None:
        return None

    def adopt_events(self, events: List[dict], **tags) -> None:
        return None


#: Process-wide shared no-op registry (the default active registry).
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (the null registry by default)."""
    return _active


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the active one; ``None`` disables.

    Returns the previously active registry so callers can restore it.
    """
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]
                 ) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry`: restores the previous one on exit."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)
