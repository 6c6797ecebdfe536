"""Worker-process side of the evaluation service.

Everything in this module runs inside pool workers (plus the tiny
parent-side shims that set up the fork-inherited state).  The contract
with :mod:`repro.parallel.service`:

* the parent sets :data:`_FORK_STATE` (and, for scenario sweeps,
  :data:`_SWEEP_STATE`) **before** creating the pool, so ``fork``
  children inherit the engine / planner copy-on-write — no pickling;
  under ``spawn`` the same payload arrives through the initializer;
* a :class:`RoiScoreTask` carries only the baseline's *handles* into
  shared memory plus compact single-sector moves and their windows;
  the worker maps the rasters once per baseline (cached by block name)
  and scores its chunk with :func:`repro.model.roi.score_candidate`,
  the function the serial path runs — so the returned floats are
  bitwise identical to serial scoring regardless of chunking.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine
from ..model.network import Configuration, SectorSetting
from ..obs import get_registry, trace
from ..obs.telemetry import (WorkerTelemetry, drain_worker_telemetry,
                             reset_worker_observability)
from .shm import SharedArrayHandle, attach_array, attach_handle_block

__all__ = ["RoiScoreTask", "WorkerState", "score_moves"]

#: Attached baselines kept per worker (mirrors the store capacity).
_WORKER_CACHE_SIZE = 2


@dataclass
class WorkerState:
    """The per-process evaluation context every score task runs in."""

    engine: AnalysisEngine
    ue_density: np.ndarray
    utility: object          # UtilityFunction with a pure ``per_ue``
    #: Optional :class:`~repro.faults.chaos.ChaosInjector`; when set,
    #: workers offer each chunk to it (which may SIGKILL this process).
    chaos: object = None


@dataclass(frozen=True)
class RoiScoreTask:
    """One chunk of windowed ROI candidates against one baseline.

    ``handles`` map the nine (H, W) baseline rasters (see
    :data:`repro.model.roi._BASELINE_ARRAYS`) — no plane stack; the
    changed rows are recomputed from the fork-inherited path-loss
    database.  ``boxes`` carries each move's ROI window.
    """

    chunk_index: int
    config: Configuration                   # the baseline configuration
    handles: Dict[str, SharedArrayHandle]   # RoiBaseline rasters
    moves: Tuple[Tuple[int, SectorSetting], ...]  # (sector, new setting)
    boxes: Tuple[Tuple[int, int, int, int], ...]  # per-move ROI window


# -- process-global state ----------------------------------------------
#: Set by the parent immediately before forking a scoring pool.
_FORK_STATE: Optional[WorkerState] = None
#: Set by the parent immediately before forking a sweep-capable pool.
_SWEEP_STATE: Optional[tuple] = None
#: The child's bound state (established by :func:`_init_worker`).
_STATE: Optional[WorkerState] = None
#: Attached ROI baselines: total_mw block name -> (baseline, blocks).
_ROI_BASELINES: "OrderedDict[str, tuple]" = OrderedDict()


def _init_worker(payload: Optional[WorkerState] = None) -> None:
    """Pool initializer: bind the worker's evaluation context.

    ``payload`` is ``None`` under ``fork`` (the state is inherited via
    :data:`_FORK_STATE`) and the pickled :class:`WorkerState` under
    ``spawn``.  The fork also inherits the parent's *populated*
    registry and finished spans; reset both so the telemetry each
    chunk ships home is a clean worker-local delta.
    """
    global _STATE
    _STATE = payload if payload is not None else _FORK_STATE
    _ROI_BASELINES.clear()
    reset_worker_observability()


def _attach_views(handles: Dict[str, SharedArrayHandle]
                  ) -> Tuple[Dict[str, np.ndarray], list]:
    """Map every handle's array, sharing attached blocks."""
    blocks = {}
    views = {}
    for name, handle in handles.items():
        block = blocks.get(handle.block)
        if block is None:
            block = blocks[handle.block] = attach_handle_block(handle)
        views[name] = attach_array(handle, block)
    return views, list(blocks.values())


def _attach_roi_baseline(task: RoiScoreTask) -> "_roi.RoiBaseline":
    """Map the task's baseline from shared memory (cached per block)."""
    key = task.handles["total_mw"].block
    cached = _ROI_BASELINES.get(key)
    if cached is not None:
        _ROI_BASELINES.move_to_end(key)
        return cached[0]
    views, blocks = _attach_views(task.handles)
    baseline = _roi.RoiBaseline.from_arrays(
        task.config, _STATE.engine.pathloss.cache_epoch, views)
    _ROI_BASELINES[key] = (baseline, blocks)
    while len(_ROI_BASELINES) > _WORKER_CACHE_SIZE:
        _, (_, old_blocks) = _ROI_BASELINES.popitem(last=False)
        for block in old_blocks:
            block.close()
    return baseline


def score_moves(engine, baseline: "_roi.RoiBaseline", task: RoiScoreTask,
                ue_density: np.ndarray, utility) -> List[float]:
    """Utilities of one chunk's moves, in move order."""
    base = list(task.config.settings)
    utilities = []
    for (sector_id, setting), box in zip(task.moves, task.boxes):
        settings = list(base)
        settings[sector_id] = setting
        utilities.append(_roi.score_candidate(
            engine, baseline, Configuration(tuple(settings)), sector_id,
            box, ue_density, utility))
    return utilities


def _score_roi_chunk(task: RoiScoreTask
                     ) -> Tuple[int, List[float], WorkerTelemetry]:
    """Score one windowed candidate chunk.

    Returns ``(index, utilities, telemetry)``.  The per-candidate loop
    is :func:`score_moves` — the same loop the parent-side quarantine
    rescue runs, so chunk placement cannot perturb a bit — and
    ``telemetry`` is this chunk's :class:`WorkerTelemetry` (the worker
    registry's capture-and-reset delta plus any completed spans),
    which the parent merges pid/worker-labeled.
    """
    t0 = time.perf_counter_ns()
    state = _STATE
    if state.chaos is not None:
        # Chaos injection point: may SIGKILL this worker or stall the
        # chunk past its deadline (the supervision tests' trigger).
        state.chaos.on_chunk(task.chunk_index)
    with trace.span("magus.parallel.score_roi_chunk",
                    chunk=task.chunk_index, candidates=len(task.moves)):
        utilities = score_moves(state.engine, _attach_roi_baseline(task),
                                task, state.ue_density, state.utility)
        _roi.count_windowed(state.engine, task.boxes)
    busy_ns = time.perf_counter_ns() - t0
    registry = get_registry()
    registry.counter("magus.parallel.chunks").inc()
    registry.counter("magus.parallel.worker_busy_ns").inc(busy_ns)
    return task.chunk_index, utilities, drain_worker_telemetry(busy_ns)


def _run_sweep_item(index: int):
    """Run one planner scenario from the fork-inherited sweep state."""
    planner, scenarios, kwargs = _SWEEP_STATE
    return planner.mitigate(scenarios[index], **kwargs)
