"""Multi-core planning: whole mitigations on a supervised process pool.

Operators plan several independent upgrade tickets per maintenance
window, and each ticket's mitigation is a self-contained computation.
That is the grain this package parallelizes:
:meth:`UpgradePlanner.sweep_scenarios` fans whole scenario mitigations
out over :class:`EvaluationService` (``service.py``), whose
:meth:`~EvaluationService.run_tasks` returns results in item order —
identical to the serial loop — under per-item deadlines, pool
respawns and serial quarantine.  One ``Magus.plan_mitigation`` always
runs in-process: its candidate batches (a handful of sub-millisecond
windowed scores per call) are far too fine-grained for process IPC to
pay for itself.

Everything degrades gracefully: one worker, a daemonic caller (a
worker cannot fork grandchildren), a missing ``fork`` start method or
a failed dispatch all route back to the serial loop, so results never
depend on where they were computed.

Instrumentation lands under ``magus.parallel.*``: the ``tasks``
(items dispatched), ``steals`` (items absorbed by workers beyond
their even share) and ``worker_busy_ns`` (summed in-worker compute
time) counters, plus the supervision counters.  Each item result
additionally carries a :class:`~repro.obs.telemetry.WorkerTelemetry`
payload that the service merges into the parent registry under a
``pid=…,worker=…`` label (see :mod:`repro.obs.telemetry`).
"""

from .service import EvaluationService, resolve_workers

__all__ = [
    "EvaluationService",
    "resolve_workers",
]
