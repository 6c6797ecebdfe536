"""The supervised process pool (parent side).

:class:`EvaluationService` runs whole work items — one scenario
mitigation each, see :meth:`UpgradePlanner.sweep_scenarios` — on a
pool of worker processes.  Design constraints, in order:

1. **Identity with the serial loop.**  Each item is a full,
   self-contained computation whose result does not depend on where it
   ran; results are returned in item order, so neither placement nor
   completion order can perturb a bit.
2. **Fork-inherited inputs.**  Under the ``fork`` start method the
   engine (path-loss rasters included) and the caller's payload are
   inherited copy-on-write at pool start; an item travels as a small
   picklable value.
3. **Supervised degradation.**  Every dispatched item runs under a
   deadline (``chunk_deadline_s``); an item whose worker dies (SIGKILL
   leaves its ``AsyncResult`` forever un-ready — detected by polling
   the pool's worker pids) or times out is re-dispatched to a freshly
   respawned pool, bounded by a respawn budget.  An item that fails
   twice is *quarantined*: re-run serially in the parent while the
   rest of the dispatch stays on the pool, so one poisoned item
   degrades only itself.  Completed items are never recomputed.
   Every decision lands in the registry's event ring (the flight
   dump) and the
   ``magus.parallel.{chunk_retries,pool_respawns,chunks_quarantined}``
   counters (rendered in the run report's ``parallel:`` section).
   Events a worker records (search passes, say) ride home in its
   telemetry payload and join the same ring, tagged ``pid``/``worker``.
   A single-worker service or a daemonic caller returns ``None`` — the
   caller's serial loop answers instead, with identical results.

Candidate scoring inside one mitigation is not pooled: at a few
candidates of well under a millisecond each per call, dispatch cost
more than it saved on every workload measured.

The service is a context manager; :meth:`close` terminates the pool
and is always safe to call again (the pool forks lazily on the next
dispatch).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine, DeltaIncumbent
from ..model.network import Configuration
from ..obs import get_logger, get_registry
from ..obs.telemetry import merge_worker_telemetry
from . import worker as _worker

__all__ = ["EvaluationService", "resolve_workers"]

_LOG = get_logger("parallel.service")

#: Default per-item deadline; override with ``chunk_deadline_s`` (or
#: `--chunk-deadline-s` on the CLI).
_RESULT_TIMEOUT_S = 600.0

#: Full-pool respawns allowed per dispatch before failed items go
#: straight to serial quarantine.
DEFAULT_MAX_POOL_RESPAWNS = 2

#: After a worker death is detected, items still in flight get this
#: long to land before being declared lost with it (the dead worker's
#: item can never land; its siblings usually finish well within it).
_DEATH_GRACE_S = 5.0

#: Poll interval of the supervision loop.
_POLL_S = 0.02


def resolve_workers(workers: Optional[int]) -> int:
    """Default worker count: one per available core."""
    if workers is None:
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except AttributeError:  # pragma: no cover — non-Linux
            return os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def _in_daemon() -> bool:
    """Pool workers are daemonic and cannot fork grandchildren."""
    return multiprocessing.current_process().daemon


class EvaluationService:
    """Runs independent work items on a supervised process pool."""

    def __init__(self, engine: AnalysisEngine, ue_density: np.ndarray,
                 utility, workers: Optional[int] = None, *,
                 chunk_deadline_s: Optional[float] = None,
                 max_pool_respawns: int = DEFAULT_MAX_POOL_RESPAWNS,
                 chaos=None) -> None:
        if chunk_deadline_s is not None and chunk_deadline_s <= 0:
            raise ValueError("chunk_deadline_s must be positive")
        if max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be non-negative")
        self.engine = engine
        self.ue_density = np.asarray(ue_density, dtype=float)
        self.utility = utility
        self.workers = resolve_workers(workers)
        self.chunk_deadline_s = (chunk_deadline_s
                                 if chunk_deadline_s is not None
                                 else _RESULT_TIMEOUT_S)
        self.max_pool_respawns = max_pool_respawns
        #: Optional :class:`~repro.faults.chaos.ChaosInjector` handed
        #: to workers at pool start so chaos plans can SIGKILL or stall
        #: dispatch items from inside the pool.
        self.chaos = chaos
        self._pool = None
        self._pool_epoch: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._pool is not None

    def usable(self) -> bool:
        """Whether this process can ever profit from the pool."""
        return self.workers >= 2 and not _in_daemon()

    def close(self) -> None:
        """Terminate the workers (idempotent)."""
        self._shutdown_pool()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_pool(self) -> None:
        if not self.usable():
            return
        epoch = self.engine.pathloss.cache_epoch
        if self._pool is not None:
            if self._pool_epoch == epoch:
                return
            # Fork-inherited rasters are stale; re-fork from the
            # current parent state.
            _LOG.info("pathloss epoch changed (%s -> %s); restarting "
                      "worker pool", self._pool_epoch, epoch)
            self._shutdown_pool()
        ctx = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods()
               else multiprocessing.get_context())
        self._pool = ctx.Pool(processes=self.workers,
                              initializer=_worker._init_worker,
                              initargs=(self.chaos,))
        self._pool_epoch = epoch

    def _shutdown_pool(self) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        self._pool_epoch = None
        pool.terminate()
        pool.join()

    # ------------------------------------------------------------------
    # in-process windowed scoring
    # ------------------------------------------------------------------
    # perfbench/layer_trace.py wraps these two methods by name, so a
    # traced benchmark run needs both attributes.  They are dropped
    # together with those stale stage names (ROADMAP item 1(d)).
    def score_batch(self, incumbent: DeltaIncumbent,
                    configs: Sequence[Configuration]
                    ) -> Optional[List[float]]:
        """Windowed utilities for single-sector ``configs``.

        ``None`` when a candidate is not a single-sector change of
        ``incumbent`` or the incumbent carries no finished state.
        """
        windows = []
        for config in configs:
            changed = self.engine.single_sector_change(incumbent, config)
            if changed is None:
                return None
            windows.append((changed, self.engine.roi_window(
                incumbent, config, changed)))
        baseline = _roi.RoiBaseline.from_incumbent(
            incumbent, self.utility, self.ue_density)
        if baseline is None:
            return None
        return self.score_batch_roi(baseline, configs, windows)

    def score_batch_roi(self, baseline: "_roi.RoiBaseline",
                        configs: Sequence[Configuration],
                        windows: Sequence[Tuple[int, tuple]]
                        ) -> List[float]:
        """:func:`repro.model.roi.score_windows`, run in this process."""
        return _roi.score_windows(self.engine, baseline, configs, windows,
                                  self.ue_density, self.utility)

    # ------------------------------------------------------------------
    # supervised fan-out
    # ------------------------------------------------------------------
    def run_tasks(self, fn: Callable, items: Sequence,
                  progress: Optional[Callable[[int], None]] = None,
                  serial_fn: Optional[Callable] = None) -> Optional[list]:
        """Run ``fn(item)`` for every item on the pool, results ordered.

        ``fn`` must be picklable (a module-level function).  Every item
        runs through :func:`repro.parallel.worker.run_item`, which
        offers its index to the chaos injector and ships the worker's
        telemetry home with the result.  ``progress`` (if given) is
        called with the completed-item count after each result lands —
        sweeps use it to publish live throughput gauges.  ``serial_fn``
        rescues quarantined items in the parent; without one, a
        dispatch whose retries are exhausted returns ``None`` — but
        items that *did* complete are never recomputed on the pool
        either way.
        """
        if not items:
            return []
        if not self.usable():
            return None
        self._ensure_pool()
        if self._pool is None:
            return None
        return self._dispatch(fn, items, progress=progress,
                              serial_fn=serial_fn)

    def _worker_pids(self) -> frozenset:
        procs = getattr(self._pool, "_pool", None) or ()
        return frozenset(p.pid for p in procs)

    def _dispatch(self, fn: Callable, items: Sequence,
                  progress: Optional[Callable[[int], None]] = None,
                  serial_fn: Optional[Callable] = None) -> Optional[list]:
        """Run every item with per-item supervision.

        The state machine per item: *submitted* → *done* on a clean
        result; → *failed(reason)* on deadline expiry, worker death or
        a worker-raised exception.  First failure re-dispatches the
        item (``chunk_retries``), respawning the pool first when the
        failure implicates it (``pool_respawns``, bounded by
        ``max_pool_respawns``); second failure quarantines the item
        to ``serial_fn`` in the parent (``chunks_quarantined``) while
        the rest of the dispatch stays on the pool.
        """
        registry = get_registry()
        deadline_s = self.chunk_deadline_s
        n = len(items)
        #: ``(result, telemetry)`` per item; telemetry is None for
        #: items rescued in the parent.
        results: List = [None] * n
        done = [False] * n
        failures = [0] * n
        respawns = 0
        registry.counter("magus.parallel.tasks").inc(n)
        #: index -> [AsyncResult, deadline (monotonic)]
        pending: Dict[int, list] = {}
        pids = frozenset()

        def submit(indices: Sequence[int]) -> None:
            now = time.monotonic()
            for i in indices:
                pending[i] = [self._pool.apply_async(
                    _worker.run_item, (fn, i, items[i])),
                    now + deadline_s]

        def await_round() -> List[Tuple[int, str, Optional[str]]]:
            """Drain ``pending``; return failures as (index, reason,
            error).  On a detected worker death the remaining items'
            deadlines shrink to a grace window — the dead worker's
            item can never land, and its siblings either finish
            within the grace or share its fate."""
            nonlocal pids
            failed: List[Tuple[int, str, Optional[str]]] = []
            death_seen = False
            while pending:
                progressed = False
                now = time.monotonic()
                for i in list(pending):
                    handle, deadline_at = pending[i]
                    if handle.ready():
                        del pending[i]
                        progressed = True
                        try:
                            results[i] = handle.get(0)
                        except Exception as exc:
                            failed.append((i, "worker_raised",
                                           f"{type(exc).__name__}: {exc}"))
                        else:
                            done[i] = True
                            if progress is not None:
                                progress(sum(done))
                    elif now >= deadline_at:
                        del pending[i]
                        progressed = True
                        failed.append((
                            i,
                            "worker_died" if death_seen else "deadline",
                            None))
                if not pending:
                    break
                current = self._worker_pids()
                if current != pids:
                    if pids - current:
                        death_seen = True
                        registry.record(
                            "worker_death",
                            lost_pids=sorted(pids - current),
                            in_flight=len(pending))
                        grace = now + min(_DEATH_GRACE_S, deadline_s)
                        for entry in pending.values():
                            entry[1] = min(entry[1], grace)
                    pids = current
                if not progressed:
                    time.sleep(_POLL_S)
            return failed

        submit(range(n))
        pids = self._worker_pids()
        while True:
            failed = await_round()
            if not failed:
                break
            retry: List[int] = []
            quarantine: List[int] = []
            pool_suspect = False
            for i, reason, error in failed:
                failures[i] += 1
                registry.record("chunk_failed", chunk=i, reason=reason,
                                error=error, attempt=failures[i])
                pool_suspect = pool_suspect or reason != "worker_raised"
                (quarantine if failures[i] >= 2 else retry).append(i)
            if retry and pool_suspect and respawns >= self.max_pool_respawns:
                # Budget exhausted: no healthy pool to retry on.
                registry.record("respawn_budget_exhausted",
                                chunks=sorted(retry))
                quarantine.extend(retry)
                retry = []
            if retry:
                if pool_suspect:
                    respawns += 1
                    registry.counter("magus.parallel.pool_respawns").inc()
                    registry.record("pool_respawn", attempt=respawns,
                                    chunks=sorted(retry))
                    self._shutdown_pool()
                    self._ensure_pool()
                    if self._pool is None:   # pragma: no cover — daemon
                        quarantine.extend(retry)
                        retry = []
                    else:
                        pids = frozenset()
                if retry:
                    registry.counter(
                        "magus.parallel.chunk_retries").inc(len(retry))
                    for i in retry:
                        registry.record("chunk_retry", chunk=i,
                                        attempt=failures[i] + 1)
                    submit(retry)
                    pids = self._worker_pids()
            # Serial quarantine rescue runs in the parent while any
            # retried items execute on the pool.
            for i in quarantine:
                registry.counter(
                    "magus.parallel.chunks_quarantined").inc()
                registry.record("chunk_quarantined", chunk=i,
                                failures=failures[i],
                                rescued=serial_fn is not None)
                if serial_fn is None:
                    _LOG.warning(
                        "item %d failed %d times and no serial rescue "
                        "is available; abandoning the dispatch "
                        "(completed items: %d/%d)",
                        i, failures[i], sum(done), n)
                    registry.record(
                        "pool_fallback", reason="dispatch_failed",
                        completed=sum(done), submitted=n)
                    self._shutdown_pool()
                    return None
                results[i] = (serial_fn(items[i]), None)
                done[i] = True
                if progress is not None:
                    progress(sum(done))
        self._merge_telemetry([telemetry for _, telemetry in results
                               if telemetry is not None], registry)
        return [value for value, _ in results]

    def _merge_telemetry(self, payloads: list, registry) -> None:
        """Fold per-item worker telemetry into the parent registry.

        Each :class:`~repro.obs.telemetry.WorkerTelemetry` payload (the
        worker's capture-and-reset registry delta plus completed spans)
        merges pid/worker-labeled — that is the per-worker breakdown
        the run report renders — while the parent-side unlabeled
        aggregates (total busy time, steals) derive from the same
        payloads.  Steal accounting: an even world gives every worker
        ``ceil(items / workers)``; anything a worker ran beyond that
        share it took from a slower sibling.
        """
        if not payloads:
            return
        per_pid: dict = {}
        busy_total = 0
        for payload in payloads:
            per_pid[payload.pid] = per_pid.get(payload.pid, 0) + 1
            busy_total += payload.busy_ns
            merge_worker_telemetry(payload, registry=registry)
        fair = math.ceil(len(payloads) / self.workers)
        steals = sum(max(0, count - fair) for count in per_pid.values())
        if steals:
            registry.counter("magus.parallel.steals").inc(steals)
        registry.counter("magus.parallel.worker_busy_ns").inc(busy_total)
