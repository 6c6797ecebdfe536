"""Sparse region-of-influence (ROI) candidate scoring.

A sector's gain plane is exactly zero outside its footprint bounding
box once the pack/build-time ``clip_floor_db`` has zeroed negligible
gains at the f64->f32 quantization point (see
:func:`~repro.model.pathloss.clip_gains_mw`).  A single-sector change
can therefore perturb received power only inside the union of the old
and new settings' footprints — the candidate's ROI window — and every
raster outside that window is *bitwise* unchanged.  Where a footprint
is unknown (unclipped dict backend, rotated pattern) the window is the
whole grid.

:func:`score_windows` scores a group of single-sector candidates
against one anchor in the engine's one windowed kernel
(:meth:`~repro.model.engine.AnalysisEngine._window_pass`, which runs
every delta too, in one straight sequence for any number of
candidates), and keeps only its own ends, candidate by candidate:

* **window totals** — the engine's pairwise sector-sum tree walked
  from the changed leaf to the root: the new row's window plus each
  sibling window on the path in turn
  (:meth:`~repro.model.engine.DeltaIncumbent.siblings`).  It is the
  total a full evaluation computes, bit for bit.
* **comparators** — a candidate whose new row dominates the old one
  (:func:`~repro.model.network.dominates`) keeps every cell its sector
  served and compares against the incumbent's own best/serving window;
  any other against :meth:`~repro.model.engine.DeltaIncumbent.runner_up`.
  Both are memoized per window with its siblings on the
  :class:`RoiBaseline`, a view of the incumbent.
* **the utility reduction** — Formula 3 couples the window to the
  whole grid (a serving flip changes the shared rate of every cell on
  the affected sectors), so the kernel returns full-grid rate rasters;
  ``per_ue`` then runs only at cells whose rate moved (gathered by one
  flat index and put back), and the baseline's cached
  ``per_ue(rate) * density`` raster fills the rest.

So every score equals ``Evaluator.utility_of`` of its candidate, and
does not depend on what else is in the batch, at O(|ROI| +
|rate-changed|) transcendental cost instead of O(H*W).
:func:`score_candidate` is the one-candidate call.  The exactness
argument is laid out in DESIGN.md, "Evaluation strategies" and "Sparse
ROI evaluation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import Configuration, dominates

__all__ = ["EMPTY_BOX", "Box", "RoiBaseline", "box_area", "box_is_empty",
           "box_union", "score_candidate", "score_windows"]

#: Half-open ``(row0, row1, col0, col1)`` bounding box in grid coords.
Box = Tuple[int, int, int, int]

#: The canonical empty box (an off-air sector's footprint).
EMPTY_BOX: Box = (0, 0, 0, 0)

#: Most cells one ``(k, H, W)`` scoring stack may hold; a larger batch
#: is scored in chunks of ``STACK_CELLS // (H * W)`` candidates (at
#: least one).  The stacks live in the engine's workspace, which holds
#: about 85 bytes per candidate-cell once warm (float64 planes, every
#: window the whole grid: 85.3 B on a 9-sector 60x60 grid, up to 16 B
#: of it the gathered rates and densities of rate-changed cells), so
#: about 90 MB at 2**20 cells.
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
    :class:`~repro.model.engine.DeltaIncumbent` with its finished
    :class:`~repro.model.snapshot.NetworkState`); nothing is copied.
    ``weighted`` is the cached ``utility.per_ue(rate_bps) * ue_density``
    raster the rate compare patches.
    """

    incumbent: object
    weighted: np.ndarray      # (H, W) per_ue(rate) * ue_density
    #: Window inputs (:func:`_window_inputs`) memoized per ``(changed,
    #: box, dominating)``: every candidate on one side of a sector's
    #: ladder shares them, so they are gathered once per sector.
    window_cache: Dict[Tuple[int, Box, bool], tuple] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_incumbent(cls, incumbent, utility,
                       ue_density: np.ndarray) -> Optional["RoiBaseline"]:
        """Build from a finished incumbent, or ``None`` if it carries
        no :attr:`state` (the dark anchor of a dense evaluation)."""
        state = getattr(incumbent, "state", None)
        if state is None:
            return None
        return cls(incumbent=incumbent,
                   weighted=utility.per_ue(state.rate_bps) * ue_density)


def score_candidate(engine, baseline: RoiBaseline,
                    config: Configuration, changed: int, box: Box,
                    ue_density: np.ndarray, utility) -> float:
    """Utility of one single-sector candidate via its ROI window: the
    ``k = 1`` call of :func:`score_windows`.  ``changed`` is the one
    sector ``config`` flips vs. ``baseline.incumbent.config``, ``box``
    its ``engine.roi_window``."""
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
    the utility of a full evaluation of it.  Candidates go to the
    engine's window pass in chunks of at most :data:`STACK_CELLS`
    cells (at least one candidate each), which counts every one.
    """
    pairs = list(zip(configs, windows))
    work, state = engine.workspace, baseline.incumbent.state
    cells = state.serving.size
    step = max(1, STACK_CELLS // cells)
    values: List[float] = []
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        _, (_, _, weighted, rate) = engine._window_pass(
            baseline.incumbent, *_candidates(engine, baseline, chunk),
            ue_density)
        # Rate compare: per_ue (the transcendental) runs only where the
        # rate moved.  per_ue is elementwise-pure, so cells with an
        # unchanged rate keep a bit-identical weighted term; each row of
        # the final sum reduces one candidate's contiguous (H*W)
        # float64 raster, exactly as the dense batch's row-wise
        # reduction does.  The load stack is spent, so the weighted
        # terms take its place.  Stale rates and densities are gathered
        # by one flat index (wrapped onto the grid for densities) into
        # the workspace, weighted in place and put back; a buffered
        # ``take`` (the default mode) would allocate its output.
        weighted[...] = baseline.weighted
        flat = np.not_equal(rate, state.rate_bps, out=work.take(
            "mask", bool, rate.shape)).reshape(-1).nonzero()[0]
        n = flat.size
        stale = work.take("stale", np.float64, 2 * n)
        terms = utility.per_ue(rate.reshape(-1).take(
            flat, out=stale[:n], mode="clip"))
        np.multiply(terms, ue_density.reshape(-1).take(
            flat, out=stale[n:], mode="wrap"), out=terms)
        weighted.put(flat, terms)
        values += weighted.reshape(len(chunk), cells).sum(axis=1).tolist()
    return values


def _candidates(engine, baseline: RoiBaseline,
                chunk: List[Tuple[Configuration, Tuple[int, Box]]]):
    """The window-pass candidates of one chunk and their totals: each
    new row's window and each window total, laid out end to end in the
    engine's workspace (the totals in the buffer the pass computes the
    interference into, see DESIGN.md, "Scoring workspace").

    A window total is the sum tree's walk from the changed leaf to the
    root: the new row's window plus each sibling window on the path in
    turn, the first add straight out of the new row.  The changed row
    folds over the whole window.
    """
    work = engine.workspace
    plane = baseline.incumbent.total_mw.dtype
    size = sum(box_area(box) for _, (_, box) in chunk)
    news = work.take("new", plane, size)
    totals = work.take("total", plane, size)
    candidates, at = [], 0
    for config, (changed, box) in chunk:
        # An explicit shape: an empty window cannot infer a -1 axis.
        shape = (box[1] - box[0], box[3] - box[2])
        stop = at + shape[0] * shape[1]
        new = engine._sector_plane_mw_window(
            config, changed, box, out=news[at:stop].reshape(shape))
        total = totals[at:stop].reshape(shape)
        at = stop
        siblings, comparator = _window_inputs(baseline, config, changed, box)
        if siblings:
            np.add(new, siblings[0], out=total)
        else:
            np.copyto(total, new)
        for sibling in siblings[1:]:
            np.add(total, sibling, out=total)
        candidates.append((box, comparator, ((changed, box, new),)))
    return candidates, totals


def _window_inputs(baseline: RoiBaseline, config: Configuration,
                   changed: int, box: Box):
    """The baseline side of one window: the sibling windows of the sum
    tree's walk from ``changed`` and the serving comparator pair, the
    incumbent's own window where ``config``'s setting of ``changed``
    dominates the incumbent's (the sector keeps every cell it served),
    :meth:`~repro.model.engine.DeltaIncumbent.runner_up` otherwise."""
    incumbent = baseline.incumbent
    dominant = dominates(incumbent.config.settings[changed],
                         config.settings[changed])
    key = (changed, box, dominant)
    cached = baseline.window_cache.get(key)
    if cached is None:
        cached = (incumbent.siblings(changed, box),
                  incumbent.comparator((), box) if dominant
                  else incumbent.runner_up(changed, box))
        if len(baseline.window_cache) < 512:
            baseline.window_cache[key] = cached
    return cached
