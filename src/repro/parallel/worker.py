"""Worker-process side of the evaluation service.

Everything in this module runs inside pool workers (plus the tiny
parent-side shims that set up the fork-inherited state).  The contract
with :mod:`repro.parallel.service`:

* every dispatched item runs through :func:`run_item`, which offers
  the item's dispatch index to the chaos injector, runs the caller's
  function and ships the result home together with the worker's
  telemetry delta — one entry point for every kind of work;
* the parent sets :data:`_SWEEP_STATE` **before** creating the pool,
  so ``fork`` children inherit the planner (engine and rasters
  included) copy-on-write — the sweep payload never travels through
  pickle.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..obs import get_registry
from ..obs.telemetry import drain_worker_telemetry, reset_worker_observability

__all__ = ["run_item"]


# -- process-global state ----------------------------------------------
#: Set by the parent immediately before forking a sweep-capable pool.
_SWEEP_STATE: Optional[tuple] = None
#: The child's :class:`~repro.faults.chaos.ChaosInjector`, if any
#: (established by :func:`_init_worker`).
_CHAOS = None


def _init_worker(chaos=None) -> None:
    """Pool initializer: bind the chaos injector, reset telemetry.

    The fork inherits the parent's *populated* registry, open and
    finished spans included; a fresh one makes the telemetry each item
    ships home a clean worker-local delta.
    """
    global _CHAOS
    _CHAOS = chaos
    reset_worker_observability()


def run_item(fn: Callable, index: int, item):
    """Run ``fn(item)`` for dispatch item ``index`` inside a worker.

    Returns ``(result, telemetry)``: ``telemetry`` is the worker
    registry's capture-and-reset delta plus any completed spans, which
    the parent merges pid/worker-labeled.
    """
    t0 = time.perf_counter_ns()
    if _CHAOS is not None:
        # Chaos injection point: may SIGKILL this worker or stall the
        # item past its deadline (the supervision tests' trigger).
        _CHAOS.on_chunk(index)
    registry = get_registry()
    with registry.span("magus.parallel.run_item", item=index):
        result = fn(item)
    busy_ns = time.perf_counter_ns() - t0
    registry.counter("magus.parallel.chunks").inc()
    registry.counter("magus.parallel.worker_busy_ns").inc(busy_ns)
    return result, drain_worker_telemetry(busy_ns)


def _run_sweep_item(index: int):
    """Run one planner scenario from the fork-inherited sweep state."""
    planner, scenarios, kwargs = _SWEEP_STATE
    return planner._mitigate_cold(scenarios[index], **kwargs)
