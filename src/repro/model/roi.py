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

Each candidate's window total is the engine's pairwise sector-sum
tree walked from the changed leaf to the root: its new row's window
plus each sibling window on the path
(:meth:`~repro.model.engine.DeltaIncumbent.siblings`), added once per
run of candidates that share the changed sector and the window.  It
is the total a full evaluation of the candidate computes, bit for bit,
so every score equals ``Evaluator.utility_of`` of its candidate.

Each candidate's serving is resolved against a window comparator.
A candidate whose new row dominates the old one
(:func:`~repro.model.network.dominates`: the old setting off-air, or
the same tilt and azimuth at a power factor no lower) keeps every cell
its sector served, so the incumbent's own best/serving window is an
exact comparator and no other row is read.  Any other candidate
compares against
:meth:`~repro.model.engine.DeltaIncumbent.runner_up` of its
``(changed, box)``: where the changed sector serves, the best of the
other rows meeting the window; elsewhere the incumbent's best.
:class:`RoiBaseline` is a view of the incumbent, and each comparator
is computed once per window and memoized with its sibling windows.

It scores a whole candidate group in one stacked pass: Python
resolves each candidate's serving against its window's comparator,
the SINR and rate passes run once over the windows laid end to end,
and the full-grid passes run once over a ``(k, H, W)`` stack (in
chunks of at most :data:`STACK_CELLS` cells), all in the engine's
grow-only :class:`~repro.model.engine.Workspace`.  Every step is
elementwise, a per-candidate bincount or a row-wise reduction over
one candidate's contiguous raster, so a score does not depend on
what else is in the batch — at O(|ROI| + |rate-changed|)
transcendental cost instead of O(H*W).
:func:`score_candidate` is the one-candidate call of the same kernel.
Where a footprint is unknown (unclipped dict backend, rotated pattern)
the window is the whole grid and the same kernel is the dense scorer.

The exactness argument (including why windowed totals must not re-sum
a sliced plane stack) is laid out in DESIGN.md, "Evaluation
strategies" and "Sparse ROI evaluation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry
from .network import Configuration, dominates

__all__ = ["EMPTY_BOX", "Box", "RoiBaseline", "box_area", "box_is_empty",
           "box_union", "count_windowed", "score_candidate",
           "score_windows"]

#: Half-open ``(row0, row1, col0, col1)`` bounding box in grid coords.
Box = Tuple[int, int, int, int]

#: The canonical empty box (an off-air sector's footprint).
EMPTY_BOX: Box = (0, 0, 0, 0)

#: Most cells one ``(k, H, W)`` scoring stack may hold; a larger batch
#: is scored in chunks of ``STACK_CELLS // (H * W)`` candidates (at
#: least one).  The stacks live in the engine's workspace, which holds
#: about 65 bytes per candidate-cell once warm (float64 planes, every
#: window the whole grid: 65.3 B on a 9-sector 60x60 grid, up to 16 B
#: of it the gathered rates and densities of rate-changed cells), so
#: about 68 MB at 2**20 cells.
STACK_CELLS = 1 << 20


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
    its rows, sum-tree planes, serving comparator and finished
    :class:`~repro.model.snapshot.NetworkState`; nothing is copied.
    ``weighted`` is the cached ``utility.per_ue(rate_bps) * ue_density``
    raster the rate-compare trick patches.
    """

    incumbent: object
    weighted: np.ndarray      # (H, W) per_ue(rate) * ue_density
    #: Baseline-only window inputs memoized per (changed, box,
    #: dominating): the sibling windows and the serving comparator
    #: pair are identical for every candidate that flips the same
    #: sector within the same ROI in the same direction (one side of a
    #: power ladder), so they are gathered once per sector rather than
    #: once per candidate.
    window_cache: Dict[Tuple[int, Box, bool], tuple] = field(
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
    scoring that config alone, whatever else is in the batch, and to
    the utility of a full evaluation of it.
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
    """The stacked kernel: Python resolves each candidate's window
    serving against its comparator; every pass after that runs once
    for the chunk.  All of it runs in the engine's workspace: the
    window passes over the windows laid end to end, the full-grid
    passes over a ``(k, H, W)`` stack (see DESIGN.md, "Scoring
    workspace")."""
    work = engine.workspace
    incumbent = baseline.incumbent
    state = incumbent.state
    plane = incumbent.total_mw.dtype
    areas = [box_area(box) for _, box in windows]
    size = sum(areas)
    best = work.take("best", plane, size)
    total = work.take("total", plane, size)
    raw = work.take("raw", state.serving.dtype, size)
    wins = work.take("wins", bool, size)
    tie = work.take("tie", bool, size)
    at = 0
    for (changed, box), run in groupby(zip(configs, windows),
                                       key=itemgetter(1)):
        run = [config for config, _ in run]
        r0, r1, c0, c1 = box
        area = (r1 - r0) * (c1 - c0)
        # An explicit shape: an empty window cannot infer a -1 axis.
        news = best[at:at + len(run) * area].reshape(len(run), r1 - r0,
                                                     c1 - c0)
        for config, new in zip(run, news):
            engine._sector_plane_mw_window(config, changed, box, out=new)
        # The total's window: the sum tree's walk from the changed leaf
        # to the root, each sibling added once for the run.
        path = total[at:at + len(run) * area].reshape(news.shape)
        np.copyto(path, news)
        inputs = [_window_inputs(baseline, config, changed, box)
                  for config in run]
        for sibling in inputs[0][0]:
            np.add(path, sibling, out=path)
        for _, comp_val, comp_idx in inputs:
            cut = slice(at, at + area)
            at += area
            new, w, e = best[cut], wins[cut], tie[cut]
            # wins = (new > comp) | ((new == comp) & (changed < comp_idx))
            np.greater(new, comp_val, out=w)
            np.equal(new, comp_val, out=e)
            np.greater(comp_idx, changed, out=e, where=e)
            w |= e
            np.copyto(raw[cut], comp_idx)
            np.copyto(raw[cut], changed, where=w)
            # ``new`` becomes the best plane in place.
            np.copyto(new, comp_val, where=np.logical_not(w, out=e))
    sinr = engine._sinr_raster(
        engine._interference_mw(total, best, out=total), best, out=total)
    rmax, serving = engine._link_rasters(
        sinr, best, raw, work.take("rmax", np.float64, size), raw)

    # Full-grid assembly: Formula 3's load coupling reaches outside
    # the window (a serving flip changes the shared rate of every
    # cell on the affected sectors), so loads and rates are rebuilt
    # over each candidate's whole grid — cheap passes only, no
    # transcendentals.  When every window is the whole grid the window
    # arrays already are the stacks; otherwise each window is patched
    # into its own slice of a stack of baseline rasters.
    k, cells = len(configs), state.serving.size
    shape = (k,) + state.serving.shape
    if size == k * cells:
        serving_k, rmax_k = serving.reshape(shape), rmax.reshape(shape)
    else:
        serving_k = work.take("serving", serving.dtype, shape)
        rmax_k = work.take("rmax_stack", np.float64, shape)
        at = 0
        for j, ((_, (r0, r1, c0, c1)), area) in enumerate(zip(windows,
                                                              areas)):
            if area < cells:
                serving_k[j] = state.serving
                rmax_k[j] = state.max_rate_bps
            window = (j, slice(r0, r1), slice(c0, c1))
            serving_k[window] = serving[at:at + area].reshape(r1 - r0,
                                                              c1 - c0)
            rmax_k[window] = rmax[at:at + area].reshape(r1 - r0, c1 - c0)
            at += area
    rate_k = engine._shared_load_batch(
        serving_k, ue_density, out=work.take("rate", np.float64, shape))
    engine._shared_rate(rmax_k, rate_k, out=rate_k)

    # Rate-compare trick: per_ue (the transcendental) runs only where
    # the rate value moved.  per_ue is elementwise-pure, so cells with
    # an unchanged rate keep a bit-identical weighted term; each row
    # of the final sum reduces one candidate's contiguous (H*W) float64
    # raster, exactly as the dense batch's row-wise reduction does.
    # The rmax stack is spent, so the weighted terms take its place.
    # Stale rates and densities are gathered by one flat index (modulo
    # the grid for densities), weighted in place and scattered back.
    weighted = rmax_k
    weighted[...] = baseline.weighted
    stale = np.not_equal(rate_k, state.rate_bps,
                         out=work.take("wins", bool, shape))
    flat = np.flatnonzero(stale)
    n = flat.size
    if n:
        rates = np.take(rate_k.reshape(-1), flat,
                        out=work.take("stale_rate", np.float64, n))
        density = np.take(ue_density.reshape(-1), np.remainder(
            flat, cells, out=flat), out=work.take("stale_ue", np.float64, n))
        del flat
        terms = utility.per_ue(rates)
        np.place(weighted, stale, np.multiply(terms, density, out=terms))
    return [float(v) for v in weighted.reshape(k, cells).sum(axis=1)]


def _window_inputs(baseline: RoiBaseline, config: Configuration,
                   changed: int, box: Box):
    """The baseline side of one window: the sibling windows of the sum
    tree's walk from ``changed`` (see
    :meth:`~repro.model.engine.DeltaIncumbent.siblings`) and the
    serving comparator pair, flattened.  Where
    ``config``'s setting of ``changed`` dominates the incumbent's
    (:func:`~repro.model.network.dominates`) the sector keeps every
    cell it served, and the comparator is the incumbent's ``best_mw`` /
    ``raw_serving`` window: the capture test then keeps each such cell
    on ``changed`` whether its new value ties the old one or exceeds
    it.  Any other candidate compares against
    :meth:`~repro.model.engine.DeltaIncumbent.runner_up`, as
    ``evaluate_batch`` compares.  Outside the window the changed
    sector's plane is zero before and after, so the wins test is a
    no-op there.  Memoized per ``(changed, box, dominating)``."""
    incumbent = baseline.incumbent
    dominant = dominates(incumbent.config.settings[changed],
                         config.settings[changed])
    key = (changed, box, dominant)
    cached = baseline.window_cache.get(key)
    if cached is None:
        if dominant:
            win = (slice(box[0], box[1]), slice(box[2], box[3]))
            comp_val = incumbent.best_mw[win]
            comp_idx = incumbent.raw_serving[win]
        else:
            comp_val, comp_idx = incumbent.runner_up(changed, box)
        cached = (incumbent.siblings(changed, box), comp_val.ravel(),
                  comp_idx.ravel())
        if len(baseline.window_cache) < 512:
            baseline.window_cache[key] = cached
    return cached
