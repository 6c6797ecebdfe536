"""Sparse region-of-influence (ROI) candidate scoring.

A sector's gain plane is exactly zero outside its footprint bounding
box once the pack/build-time ``clip_floor_db`` has zeroed negligible
gains at the f64->f32 quantization point (see
:func:`~repro.model.pathloss.clip_gains_mw`).  A single-sector change
can therefore perturb received power only inside the union of the old
and new settings' footprints — the candidate's ROI window — and every
raster outside that window is *bitwise* unchanged.

The subtlety is Formula 3: serving flips inside the window change the
per-sector UE loads, which changes the shared rate at cells *outside*
the window that are served by a straddling sector.  A cached
outside-window utility partial sum alone is therefore wrong.
:func:`score_windows` instead assembles each candidate's full-grid
rate raster from cheap O(H*W) passes (array copies, one bincount, one
division — no transcendentals), then recomputes the per-UE utility
term only at cells whose rate actually changed, reusing the baseline's
cached ``per_ue(rate)*density`` raster everywhere else.

Each candidate's serving is resolved against the window comparator
of its ``(changed, box)``
(:meth:`~repro.model.engine.DeltaIncumbent.runner_up`): where the
changed sector serves, the best of the other rows meeting the window;
elsewhere the incumbent's best.  :class:`RoiBaseline` is a view of the
incumbent, so the old plane window is a slice of its row and the
comparator is computed once per window, memoized with the rest of the
window's baseline side.

It scores a whole candidate group in one stacked pass: Python only
gathers each candidate's window inputs, the window arithmetic runs
once over the concatenated windows, and the full-grid passes run once
over a ``(k, H, W)`` stack (in chunks of at most :data:`STACK_CELLS`
cells).  Every step is elementwise, a per-candidate offset bincount
or a row-wise reduction over one candidate's contiguous raster, so a
score does not depend on what else is in the batch: it is bitwise
identical to :meth:`~repro.model.engine.AnalysisEngine.evaluate_batch`
followed by the per-candidate weighted reduction — at
O(|ROI| + |rate-changed|) transcendental cost instead of O(H*W).
:func:`score_candidate` is the one-candidate call of the same kernel.
Where a footprint is unknown (unclipped dict backend, rotated pattern)
the window is the whole grid and the same kernel is the dense scorer.

The exactness argument (including why windowed totals must not re-sum
a sliced plane stack) is laid out in DESIGN.md, "Sparse ROI
evaluation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry
from .network import Configuration
from .snapshot import NO_SERVICE

__all__ = ["EMPTY_BOX", "Box", "RoiBaseline", "box_area", "box_is_empty",
           "box_union", "count_windowed", "score_candidate",
           "score_windows"]

#: Half-open ``(row0, row1, col0, col1)`` bounding box in grid coords.
Box = Tuple[int, int, int, int]

#: The canonical empty box (an off-air sector's footprint).
EMPTY_BOX: Box = (0, 0, 0, 0)

#: Most cells one ``(k, H, W)`` scoring stack may hold; a larger batch
#: is scored in chunks of ``STACK_CELLS // (H * W)`` candidates (at
#: least one).  About 100 MB of transient stacks at 2**21 cells.
STACK_CELLS = 1 << 21


def box_is_empty(box: Box) -> bool:
    return box[0] >= box[1] or box[2] >= box[3]


def box_area(box: Box) -> int:
    return max(box[1] - box[0], 0) * max(box[3] - box[2], 0)


def box_union(a: Box, b: Box) -> Box:
    """Smallest box covering both (an empty operand is the identity)."""
    if box_is_empty(a):
        return b
    if box_is_empty(b):
        return a
    return (min(a[0], b[0]), max(a[1], b[1]),
            min(a[2], b[2]), max(a[3], b[3]))


@dataclass
class RoiBaseline:
    """A view of one finished incumbent, ready for windowed scoring.

    Everything but ``weighted`` is read from ``incumbent`` (a
    :class:`~repro.model.engine.DeltaIncumbent` that ran ``_finish``):
    its rows, total, serving comparator and finished
    :class:`~repro.model.snapshot.NetworkState`; nothing is copied.
    ``weighted`` is the cached ``utility.per_ue(rate_bps) * ue_density``
    raster the rate-compare trick patches.
    """

    incumbent: object
    weighted: np.ndarray      # (H, W) per_ue(rate) * ue_density
    #: Baseline-only window arrays memoized per (changed, box): the
    #: old plane window, the incumbent total and the serving
    #: comparator pair are identical for every candidate that flips the
    #: same sector within the same ROI (a power ladder), so they are
    #: gathered once per sector rather than once per candidate.
    window_cache: Dict[Tuple[int, Box], Tuple[np.ndarray, ...]] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_incumbent(cls, incumbent, utility,
                       ue_density: np.ndarray) -> Optional["RoiBaseline"]:
        """Build from a finished incumbent, or ``None`` without one.

        An incumbent that never ran ``_finish`` carries no
        :attr:`state` to build from.
        """
        state = getattr(incumbent, "state", None)
        if state is None:
            return None
        return cls(incumbent=incumbent,
                   weighted=utility.per_ue(state.rate_bps) * ue_density)


def count_windowed(engine, boxes) -> None:
    """Account for one windowed candidate per box.

    Every candidate counts as an engine evaluation and a ROI
    evaluation; full-grid windows too, so ``roi_cells / (roi_evaluations
    * H * W)`` stays the true mean window fraction.
    """
    k = len(boxes)
    engine._eval_counter.inc(k)
    registry = get_registry()
    registry.counter("magus.engine.evaluations").inc(k)
    registry.counter("magus.engine.roi_evaluations").inc(k)
    registry.counter("magus.engine.roi_cells").inc(
        sum(box_area(box) for box in boxes))


def score_candidate(engine, baseline: RoiBaseline,
                    config: Configuration, changed: int, box: Box,
                    ue_density: np.ndarray, utility) -> float:
    """Utility of one single-sector candidate via its ROI window: the
    ``k = 1`` call of :func:`score_windows`.

    ``changed`` is the one sector ``config`` flips vs.
    ``baseline.incumbent.config``; ``box`` is its
    ``engine.roi_window`` — the union of that sector's old and new
    footprints (so both plane rows are exactly zero outside it), or
    the whole grid.
    """
    return score_windows(engine, baseline, [config], [(changed, box)],
                         ue_density, utility)[0]


def score_windows(engine, baseline: RoiBaseline,
                  configs: Sequence[Configuration],
                  windows: Sequence[Tuple[int, Box]],
                  ue_density: np.ndarray, utility) -> List[float]:
    """Utility of each single-sector candidate, in one stacked pass.

    ``windows`` pairs each config with its ``(changed, box)`` (see
    :func:`score_candidate`).  Each score is bitwise identical to
    scoring that config alone, and to ``engine.evaluate_batch`` + the
    per-candidate weighted reduction, whatever else is in the batch.
    Candidates are stacked in chunks of at most :data:`STACK_CELLS`
    cells (at least one candidate each), and every one is counted
    (:func:`count_windowed`).
    """
    configs, windows = list(configs), list(windows)
    step = max(1, STACK_CELLS // baseline.weighted.size)
    values: List[float] = []
    for lo in range(0, len(configs), step):
        values += _score_chunk(engine, baseline, configs[lo:lo + step],
                               windows[lo:lo + step], ue_density, utility)
    count_windowed(engine, [box for _, box in windows])
    return values


def _score_chunk(engine, baseline: RoiBaseline,
                 configs: List[Configuration],
                 windows: List[Tuple[int, Box]],
                 ue_density: np.ndarray, utility) -> List[float]:
    """The stacked kernel: Python gathers each candidate's window
    inputs; every array pass after that runs once for the chunk."""
    news, parts, areas = [], [], []
    for config, (changed, box) in zip(configs, windows):
        news.append(engine._sector_plane_mw_window(config, changed,
                                                   box).ravel())
        parts.append(_window_inputs(baseline, changed, box))
        areas.append(box_area(box))
    # Once over the concatenated windows.  Every step is elementwise,
    # so each candidate's cells come out as they would alone.
    new = np.concatenate(news)
    old, total0, comp_val, comp_idx = (
        np.concatenate(column) for column in zip(*parts))
    sector = np.repeat(np.asarray([c for c, _ in windows], dtype=np.int32),
                       areas)
    # The dense batch path's incremental total, restricted to the
    # windows (outside them new - old is exactly 0-0).
    total = total0 + (new - old)
    wins = (new > comp_val) | ((new == comp_val) & (sector < comp_idx))
    best = np.where(wins, new, comp_val)
    raw = np.where(wins, sector, comp_idx)
    rmax = engine.link.max_rate_bps(engine._sinr_raster(total, best))
    rmax = np.where(best >= 10.0 ** (float(engine.min_rp_dbm) / 10.0),
                    rmax, 0.0)
    serving = np.where(rmax > 0.0, raw, NO_SERVICE)

    # Full-grid assembly: Formula 3's load coupling reaches outside
    # the window (a serving flip changes the shared rate of every
    # cell on the affected sectors), so loads and rates are rebuilt
    # over each candidate's whole grid — cheap passes only, no
    # transcendentals.  Each window is patched into its own stack
    # slice by plain slice assignment.
    state = baseline.incumbent.state
    k, cells = len(configs), state.serving.size
    serving_k = np.empty((k,) + state.serving.shape,
                         dtype=state.serving.dtype)
    rmax_k = np.empty(serving_k.shape, dtype=state.max_rate_bps.dtype)
    at = 0
    for j, ((_, (r0, r1, c0, c1)), area) in enumerate(zip(windows, areas)):
        if area < cells:
            serving_k[j] = state.serving
            rmax_k[j] = state.max_rate_bps
        # An explicit shape: an empty window cannot infer a -1 axis.
        shape = (r1 - r0, c1 - c0)
        serving_k[j, r0:r1, c0:c1] = serving[at:at + area].reshape(shape)
        rmax_k[j, r0:r1, c0:c1] = rmax[at:at + area].reshape(shape)
        at += area
    n_ue = engine._shared_load_batch(serving_k, ue_density)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_k = np.where(n_ue > 0, rmax_k / np.maximum(n_ue, 1e-12),
                          rmax_k)

    # Rate-compare trick: per_ue (the transcendental) runs only where
    # the rate value moved.  per_ue is elementwise-pure, so cells with
    # an unchanged rate keep a bit-identical weighted term; each row
    # of the final sum reduces one candidate's contiguous (H*W) float64
    # raster, exactly as the dense batch's row-wise reduction does.
    weighted = np.empty(serving_k.shape)
    weighted[...] = baseline.weighted
    stale = rate_k != state.rate_bps
    if stale.any():
        density = np.broadcast_to(ue_density, stale.shape)
        weighted[stale] = utility.per_ue(rate_k[stale]) * density[stale]
    return [float(v) for v in weighted.reshape(k, cells).sum(axis=1)]


def _window_inputs(baseline: RoiBaseline, changed: int, box: Box):
    """The baseline side of one window, flattened: the changed
    sector's old plane, the incumbent total and the serving
    comparator pair (:meth:`~repro.model.engine.DeltaIncumbent.runner_up`,
    as ``evaluate_batch`` compares).  Outside the window the changed
    sector's plane is zero before and after, so the wins test is a
    no-op there.  Memoized per ``(changed, box)``."""
    key = (changed, box)
    cached = baseline.window_cache.get(key)
    if cached is None:
        incumbent = baseline.incumbent
        r0, r1, c0, c1 = box
        win = (slice(r0, r1), slice(c0, c1))
        comp_val, comp_idx = incumbent.runner_up(changed, box)
        cached = (incumbent.rows[changed][win].ravel(),
                  incumbent.total_mw[win].ravel(),
                  comp_val.ravel(), comp_idx.ravel())
        if len(baseline.window_cache) < 512:
            baseline.window_cache[key] = cached
    return cached
