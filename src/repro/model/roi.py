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
:func:`score_candidate` instead assembles the candidate's full-grid
rate raster from cheap O(H*W) passes (array copies, one bincount, one
division — no transcendentals), then recomputes the per-UE utility
term only at cells whose rate actually changed, reusing the baseline's
cached ``per_ue(rate)*density`` raster everywhere else.  Because
``per_ue`` is elementwise-pure and the final reduction runs over the
same contiguous full-grid layout as the dense batch reference, the
returned utility is bitwise identical to
:meth:`~repro.model.engine.AnalysisEngine.evaluate_batch` followed by
the per-candidate weighted reduction — at O(|ROI| + |rate-changed|)
transcendental cost instead of O(H*W).  Where a footprint is unknown
(unclipped dict backend, rotated pattern) the window is the whole grid
and the same function is the dense scorer.

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
    """One incumbent's derived rasters, ready for windowed scoring.

    ``total_mw``/``raw_serving``/``best_mw`` and the runner-up pair
    come straight from the :class:`~repro.model.engine.DeltaIncumbent`;
    ``serving``/``max_rate_bps``/``rate_bps`` from its finished
    :class:`~repro.model.snapshot.NetworkState`; ``weighted`` is the
    cached ``utility.per_ue(rate_bps) * ue_density`` raster the
    rate-compare trick patches.  Deliberately excludes the plane
    stack: the changed sector's old plane row is recomputed from the
    path-loss database, which is bitwise identical by the
    ``_sector_plane_mw`` contract.
    """

    config: Configuration
    epoch: int
    total_mw: np.ndarray      # (H, W) incumbent total received power
    raw_serving: np.ndarray   # (H, W) int32 pre-mask serving argmax
    best_mw: np.ndarray       # (H, W) winning plane value
    runner_val: np.ndarray    # (H, W) second-best plane value
    runner_idx: np.ndarray    # (H, W) int32 second-best sector
    serving: np.ndarray       # (H, W) post-floor serving (NO_SERVICE)
    max_rate_bps: np.ndarray  # (H, W) single-user rate
    rate_bps: np.ndarray      # (H, W) load-shared rate
    weighted: np.ndarray      # (H, W) per_ue(rate) * ue_density
    #: Baseline-only window arrays memoized per (changed, box): the
    #: old plane window and the serving comparator pair are identical
    #: for every candidate that flips the same sector within the same
    #: ROI (a power ladder), so they are computed once per sector
    #: rather than once per candidate.
    window_cache: Dict[Tuple[int, Box], Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_incumbent(cls, incumbent, utility, ue_density: np.ndarray,
                       boxes=None) -> Optional["RoiBaseline"]:
        """Build from a finished incumbent, or ``None`` without one.

        An incumbent that never ran ``_finish`` carries no
        :attr:`state` to build from.  ``boxes`` are the sector
        footprints the runner-up walk visits (see
        :meth:`~repro.model.engine.DeltaIncumbent.runner_up`).
        """
        state = getattr(incumbent, "state", None)
        if state is None:
            return None
        runner_val, runner_idx = incumbent.runner_up(boxes)
        weighted = utility.per_ue(state.rate_bps) * ue_density
        return cls(config=incumbent.config, epoch=incumbent.epoch,
                   total_mw=incumbent.total_mw,
                   raw_serving=incumbent.raw_serving,
                   best_mw=incumbent.best_mw,
                   runner_val=runner_val, runner_idx=runner_idx,
                   serving=state.serving,
                   max_rate_bps=state.max_rate_bps,
                   rate_bps=state.rate_bps, weighted=weighted)


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
    """Utility of one single-sector candidate via its ROI window.

    Bitwise identical to scoring ``config`` through
    ``engine.evaluate_batch`` + the per-candidate weighted reduction.
    ``changed`` is the one sector ``config`` flips vs.
    ``baseline.config``; ``box`` is its ``engine.roi_window`` — the
    union of that sector's old and new footprints (so both plane rows
    are exactly zero outside it), or the whole grid.
    """
    r0, r1, c0, c1 = box
    win = (slice(r0, r1), slice(c0, c1))
    new_w = engine._sector_plane_mw_window(config, changed, box)
    cached = baseline.window_cache.get((changed, box))
    if cached is None:
        old_w = engine._sector_plane_mw_window(baseline.config,
                                               changed, box)
        s0 = baseline.raw_serving[win]
        # Comparator per grid, exactly as evaluate_batch: the
        # runner-up where the changed sector already serves, the
        # incumbent best elsewhere.  Outside the window the changed
        # sector's plane is zero before and after, so the wins test
        # is a no-op there.
        mask = s0 == changed
        comp_val = np.where(mask, baseline.runner_val[win],
                            baseline.best_mw[win])
        comp_idx = np.where(mask, baseline.runner_idx[win], s0)
        cached = (old_w, comp_val, comp_idx)
        if len(baseline.window_cache) < 512:
            baseline.window_cache[(changed, box)] = cached
    old_w, comp_val, comp_idx = cached
    # The dense batch path's incremental total, restricted to the
    # window (outside it new - old is exactly 0-0).
    total_w = baseline.total_mw[win] + (new_w - old_w)
    wins = (new_w > comp_val) | ((new_w == comp_val)
                                 & (changed < comp_idx))
    best_w = np.where(wins, new_w, comp_val)
    raw_w = np.where(wins, np.int32(changed), comp_idx).astype(np.int32)

    sinr_w = engine._sinr_raster(total_w, best_w)
    rmax_w = engine.link.max_rate_bps(sinr_w)
    rmax_w = np.where(best_w >= 10.0 ** (float(engine.min_rp_dbm) / 10.0),
                      rmax_w, 0.0)
    serving_w = np.where(rmax_w > 0.0, raw_w, NO_SERVICE)

    # Full-grid assembly: Formula 3's load coupling reaches outside
    # the window (a serving flip changes the shared rate of every
    # cell on the affected sectors), so loads and rates are rebuilt
    # over the whole grid — cheap passes only, no transcendentals.
    if serving_w.shape == baseline.serving.shape:   # whole-grid window
        serving_k, rmax_k = serving_w, rmax_w
    else:
        serving_k = baseline.serving.copy()
        serving_k[win] = serving_w
        rmax_k = baseline.max_rate_bps.copy()
        rmax_k[win] = rmax_w
    n_ue = engine._shared_load(serving_k, ue_density)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_k = np.where(n_ue > 0, rmax_k / np.maximum(n_ue, 1e-12),
                          rmax_k)

    # Rate-compare trick: per_ue (the transcendental) runs only where
    # the rate value moved.  per_ue is elementwise-pure, so cells with
    # an unchanged rate keep a bit-identical weighted term; the final
    # sum reduces the same contiguous (H*W) float64 layout as the
    # dense batch's row-wise reduction, hence the same pairwise tree.
    weighted = baseline.weighted.copy()
    stale = rate_k != baseline.rate_bps
    if stale.any():
        weighted[stale] = utility.per_ue(rate_k[stale]) * ue_density[stale]
    return float(weighted.sum())


def score_windows(engine, baseline: RoiBaseline,
                  configs: Sequence[Configuration],
                  windows: Sequence[Tuple[int, Box]],
                  ue_density: np.ndarray, utility) -> List[float]:
    """:func:`score_candidate` for each config, plus the accounting.

    ``windows`` pairs each config with its ``(changed, box)``.
    """
    values = [score_candidate(engine, baseline, config, changed, box,
                              ue_density, utility)
              for config, (changed, box) in zip(configs, windows)]
    count_windowed(engine, [box for _, box in windows])
    return values
