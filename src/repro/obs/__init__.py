"""Observability: one run instrument (metrics, events, spans), reports.

The package is dependency-free and disabled by default — the active
registry is a shared no-op (:data:`NULL_REGISTRY`), so the NumPy inner
loop pays only a couple of no-op calls per evaluation.  A run opts in::

    from repro.obs import MetricsRegistry, get_registry, set_registry

    set_registry(MetricsRegistry(keep_spans=True))  # keep span trees

    with get_registry().span("magus.tilt_pass"):
        ...

    get_registry().record("search_pass", phase="tuning")
    snapshot = get_registry().snapshot()
    roots = get_registry().spans()

Without ``keep_spans`` a span only times its block into the
``span.<name>`` timer.  The registry also keeps the run's bounded
event ring, which :meth:`MetricsRegistry.flush` dumps to its
``flight_out``.  The CLI exposes the switches as ``--metrics-out``,
``--trace``/``--trace-out`` and ``--flight-out``; :class:`RunReport`
turns a finished mitigation run into the JSON/tabular artifact of the
first two.
"""

from .logging import (ROOT_LOGGER_NAME, get_logger, setup_logging,
                      verbosity_to_level)
from .registry import (FLIGHT_CAPACITY, FLIGHT_SCHEMA, NULL_REGISTRY,
                       Counter, CostMeter, Gauge, MetricsRegistry,
                       NullRegistry, Span, Timer, get_registry,
                       labeled_metric, set_registry, split_metric_label,
                       use_registry)
from .report import SCHEMA, RunReport
from .telemetry import (CHROME_TRACE_SCHEMA, WorkerTelemetry,
                        chrome_trace_events, drain_worker_telemetry,
                        export_chrome_trace, merge_worker_telemetry,
                        reset_worker_observability, validate_chrome_trace,
                        worker_label)

__all__ = [
    "Counter", "CostMeter", "Gauge", "Timer",
    "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
    "get_registry", "set_registry", "use_registry",
    "labeled_metric", "split_metric_label",
    "Span",
    "RunReport", "SCHEMA",
    "WorkerTelemetry", "worker_label",
    "reset_worker_observability", "drain_worker_telemetry",
    "merge_worker_telemetry",
    "chrome_trace_events", "export_chrome_trace", "validate_chrome_trace",
    "CHROME_TRACE_SCHEMA",
    "FLIGHT_SCHEMA", "FLIGHT_CAPACITY",
    "ROOT_LOGGER_NAME", "get_logger", "setup_logging",
    "verbosity_to_level",
]
