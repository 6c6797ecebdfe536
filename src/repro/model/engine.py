"""The vectorized analysis engine (paper Section 4.1, Formulae 1-4).

Given the path-loss database, a configuration and a UE population, the
engine computes received power, serving assignment, SINR, single-user
rate and load-shared actual rate for every grid — the "Analysis Model"
box of the paper's Figure 6.  This is the inner loop of every search
algorithm, so everything is NumPy-tensorized around one kernel:

* **one kernel** — every evaluation is a delta
  (:meth:`_evaluate_delta_windowed`).  Formula 1 runs one sector at a
  time (:meth:`_sector_row`): the sector's cached linear-domain gain
  row ``10^(L/10)`` (:meth:`PathLossDatabase.gain_matrix_mw`) times
  the scalar ``10^(P/10)``, computed inside its footprint box only;
  no path builds an ``(n_sectors, rows, cols)`` stack.  A dense
  evaluation is a delta from the *dark anchor*, where every sector is
  off-air and every array is zero, to the configuration: every sector
  changes, and the window is the union of their boxes.  The
  total-power plane is the root of a fixed pairwise sum tree over the
  rows (:func:`_sum_tree`), so a one-sector change moves only
  ``ceil(log2 S)`` node planes.
* **delta evaluation** — :meth:`evaluate_delta` answers a
  configuration that differs from a :class:`DeltaIncumbent` in any
  number of sectors.  The incumbent holds copy-on-write per-sector mW
  rows with their footprint boxes and sum-tree node planes, plus
  derived serving/best arrays; a delta replaces the k changed rows
  and their ancestors, shares the rest, and recomputes the serving
  assignment and the transcendental rasters only inside the union of
  the changed sectors' region-of-influence windows
  (:meth:`roi_window`).  The result is
  *bitwise identical* to :meth:`evaluate`, the delta from the dark
  anchor (see DESIGN.md, "Evaluation strategies", for the invariants).
* **region-of-influence windows** — with footprint boxes available
  (``clip_floor_db`` zeroed sub-floor gains at packing, see
  :meth:`PathLossDatabase.footprint`) a sector's window is the union
  of its old and new footprints; where a footprint is unknown
  (unclipped dict backend, rotated pattern) it is the whole grid.
  :func:`repro.model.roi.score_windows` scores single-sector
  candidate groups through the same windows and the same sum tree, in
  one stacked pass, against one serving comparator per window.  A
  candidate whose new row dominates its old one
  (:func:`~repro.model.network.dominates`: a power increase, or an
  off-air sector lit) keeps every cell it
  served, so its comparator is the incumbent's own best/serving
  window; any other candidate compares against
  :meth:`DeltaIncumbent.runner_up`, whose argmax helper also repairs
  a delta's serving at the cells its non-dominating sectors served.
* **the dense batch reference** — :meth:`evaluate_batch` stacks K
  single-sector neighbors along a batch axis and scores them in one
  vectorized pass against the incumbent, its comparator a masked
  stack argmax and its total the incremental ``total + (new - old)``.
  No search path calls it; it is the serving/comparator reference of
  the windowed scorer.

The searches reach these through :class:`~repro.core.evaluation.Evaluator`,
which owns strategy selection and fallback accounting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from operator import is_not
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Counter, get_registry
from .linkrate import LinkAdaptation
from .network import Configuration, SectorSetting, dominates
from .pathloss import PathLossDatabase
from .roi import EMPTY_BOX, Box, box_area, box_is_empty, box_union
from .snapshot import NO_SERVICE, NetworkState

__all__ = ["AnalysisEngine", "BatchResult", "DeltaIncumbent",
           "DEFAULT_NOISE_DBM", "Workspace"]

#: Thermal noise over 10 MHz (-174 dBm/Hz + 70 dB) plus a 7 dB UE noise
#: figure: the paper's "Noise" term in Formula 2.
DEFAULT_NOISE_DBM = -97.0

#: Every sector's setting in the dark anchor: off-air, so any setting
#: dominates it (:func:`~repro.model.network.dominates`).
_DARK = SectorSetting(0.0, 0.0, active=False)


class Workspace:
    """Grow-only scratch buffers for an engine's transient raster passes.

    A buffer is named by its role and holds one dtype; :meth:`take`
    hands out a view of its first cells, reallocating only to grow, so
    a warm scoring call faults in no fresh pages.  The engine owns its
    workspace: a view is valid until the next request for the same
    name, and nothing that leaves the engine (a
    :class:`~repro.model.snapshot.NetworkState` raster, a score, an
    incumbent field) may alias one.  Not thread-safe, and never
    pickled: an unpickled engine starts with an empty workspace.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers = {}

    def take(self, name: str, dtype, shape) -> np.ndarray:
        """A ``shape``-shaped, C-contiguous view of buffer ``name``."""
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        buf = self._buffers.get(name)
        if buf is not None and buf.dtype != dtype:
            raise TypeError(f"workspace buffer {name!r} holds {buf.dtype}, "
                            f"not {np.dtype(dtype)}")
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
            get_registry().gauge("magus.engine.workspace_bytes").set(
                self.nbytes)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held across every buffer."""
        return sum(buf.nbytes for buf in self._buffers.values())


class DeltaIncumbent:
    """The linear-domain state of one evaluated configuration.

    Everything a delta re-evaluation needs: one mW plane per sector
    (``rows``) with that sector's footprint under this configuration
    (``boxes``: a read-only ``(S, 4)`` int array of half-open
    ``(row0, row1, col0, col1)``, an unknown footprint stored as the
    whole grid and an off-air sector as :data:`EMPTY_BOX`), the
    internal planes of the pairwise sector-sum tree (``nodes``, with
    their boxes ``node_boxes``, see :func:`_sum_tree`) whose root is the
    total-power plane, and the (pre-mask) serving argmax with its
    winning values.  Rows and node planes are read-only and
    copy-on-write: a delta child shares every plane it does not change
    with its parent, so no delta copies the plane stack.  ``state`` is
    the finished :class:`NetworkState` this incumbent was evaluated
    into (set by ``_finish``); windowed delta evaluations copy its
    rasters and recompute only the window.  The dark anchor a dense
    evaluation starts from (:meth:`AnalysisEngine._evaluate_dense`) has
    no state, so its child's rasters are all computed fresh.
    """

    __slots__ = ("config", "rows", "boxes", "nodes", "node_boxes",
                 "raw_serving", "best_mw", "epoch", "state")

    def __init__(self, config: Configuration, rows: Sequence[np.ndarray],
                 boxes: np.ndarray, nodes: Sequence[np.ndarray],
                 node_boxes: Sequence[Box], raw_serving: np.ndarray,
                 best_mw: np.ndarray, epoch: int) -> None:
        self.config = config
        self.rows = tuple(rows)
        self.boxes = boxes
        self.nodes = tuple(nodes)
        self.node_boxes = tuple(node_boxes)
        self.raw_serving = raw_serving
        self.best_mw = best_mw
        self.epoch = epoch
        self.state: Optional[NetworkState] = None

    @property
    def total_mw(self) -> np.ndarray:
        """The total-power plane: the root of the sum tree (the one
        row when there is a single sector)."""
        return self.nodes[-1] if self.nodes else self.rows[0]

    def siblings(self, changed: int, box: Box) -> List[np.ndarray]:
        """The ``box`` windows of the sibling planes on the tree path
        from leaf ``changed`` to the root, leaf end first.

        Adding them in turn to a new row's window yields the window of
        the total that changing only ``changed`` to that row gives,
        bit for bit: each ancestor is its two children's elementwise
        sum, and the sibling subtree is unchanged.  A sibling whose box
        misses ``box`` is zero there and left out (adding ``+0.0`` to a
        non-negative value is exact).
        """
        out = []
        for _, sibling in _sum_tree(len(self.rows))[1][changed]:
            plane, sbox = _node(self.rows, self.boxes, self.nodes,
                                self.node_boxes, sibling)
            if not box_is_empty(_intersection(sbox, box)):
                out.append(plane[_slices(box)])
        return out

    def runner_up(self, changed: int, box: Box
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """The serving comparator of a one-sector change inside ``box``.

        Value and sector per window cell: where ``changed`` serves,
        the first-index argmax over the other rows (the best of the
        others); everywhere else :attr:`best_mw` / :attr:`raw_serving`.
        Rows whose box misses the cells ``changed`` serves are zero
        there and are not read.  A cell where every other row is zero
        gets index 0, or 1 when ``changed == 0`` (with one sector there
        is no other row, so that is every cell).  Each cell's result
        depends on that cell alone, not on the window (see DESIGN.md,
        "Window comparator").  Only a change that may lose cells needs
        it: where :func:`~repro.model.network.dominates` holds,
        :attr:`best_mw` / :attr:`raw_serving` are an exact comparator
        on their own.
        """
        win = _slices(box)
        comp_idx = self.raw_serving[win].copy()
        comp_val = self.best_mw[win].copy()
        mask = comp_idx == changed
        if mask.any():
            comp_val[mask], comp_idx[mask] = _argmax_rows(
                self.rows, self.boxes, box, mask, skip=changed)
        return comp_val, comp_idx


@dataclass(frozen=True)
class BatchResult:
    """Vectorized scores of K single-sector candidates.

    All arrays carry a leading batch axis of length K.  ``serving`` and
    ``n_ue`` are exact (identical to the canonical pass); ``sinr_db``
    uses an incrementally updated total-power plane and may differ
    from the canonical value by ~1e-15 relative, and so may the rates
    where an SINR lands on a CQI threshold.  No search uses batch
    results: they are the serving/comparator reference of the
    windowed scorer.
    """

    serving: np.ndarray       # (K, H, W) int, NO_SERVICE where unservable
    sinr_db: np.ndarray       # (K, H, W)
    max_rate_bps: np.ndarray  # (K, H, W)
    n_ue: np.ndarray          # (K, H, W)
    rate_bps: np.ndarray      # (K, H, W)


class AnalysisEngine:
    """Evaluates configurations against a fixed UE population.

    One engine serves one thread at a time: its :attr:`workspace` is
    scratch for the call in progress.  Pool workers each hold their
    own copy.

    Parameters
    ----------
    pathloss:
        The per-sector/tilt gain database over the analysis raster.
    link:
        SINR -> rate mapping (defaults to the paper's 10 MHz LTE).
    noise_dbm:
        Receiver noise floor entering Formula 2.
    min_rp_dbm:
        Grids where even the best sector's received power falls below
        this are treated as unservable regardless of SINR; planning
        tools apply the same RSRP-style floor (and the paper's Figure 4
        black pixels use "receive power below a threshold").
    """

    def __init__(self, pathloss: PathLossDatabase,
                 link: Optional[LinkAdaptation] = None,
                 noise_dbm: float = DEFAULT_NOISE_DBM,
                 min_rp_dbm: float = -120.0) -> None:
        self.pathloss = pathloss
        self.link = link or LinkAdaptation()
        self.noise_dbm = noise_dbm
        self.min_rp_dbm = min_rp_dbm
        self.grid = pathloss.grid
        # Always-on per-engine evaluation counter (ablation benches read
        # it through the ``evaluations`` property); the active metrics
        # registry is additionally updated on every evaluation.
        self._eval_counter = Counter("engine.evaluations")
        #: Scratch for the transient raster passes of ``_finish`` and
        #: the stacked ROI kernel (see :class:`Workspace`).
        self.workspace = Workspace()

    def __getstate__(self) -> dict:
        # Pools ship engines to workers (by spawn where fork is
        # unavailable); the scratch buffers stay behind.
        state = self.__dict__.copy()
        del state["workspace"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.workspace = Workspace()

    @property
    def evaluations(self) -> int:
        """Total model evaluations (full, delta or batched candidates)."""
        return self._eval_counter.value

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self._eval_counter.reset(value)

    # ------------------------------------------------------------------
    # canonical (full) evaluation
    # ------------------------------------------------------------------
    def evaluate(self, config: Configuration,
                 ue_density: np.ndarray) -> NetworkState:
        """Full grid/sector snapshot for ``config`` (Formulae 1-4)."""
        self._eval_counter.inc()
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            return self._evaluate(config, ue_density)

    def _evaluate(self, config: Configuration,
                  ue_density: np.ndarray) -> NetworkState:
        """The uninstrumented evaluation body (overhead baseline)."""
        return self._evaluate_dense(config, ue_density)[0]

    def evaluate_with_incumbent(
            self, config: Configuration, ue_density: np.ndarray
            ) -> Tuple[NetworkState, DeltaIncumbent]:
        """Canonical evaluation that also returns the delta anchor.

        The delta from the dark anchor (:meth:`_evaluate_dense`); the
        :class:`DeltaIncumbent` captures the linear-domain rows it was
        computed from, so later configurations a few sectors away can
        be answered by :meth:`evaluate_delta`.
        """
        self._eval_counter.inc()
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            return self._evaluate_dense(config, ue_density)

    def _evaluate_dense(self, config: Configuration, ue_density: np.ndarray
                        ) -> Tuple[NetworkState, DeltaIncumbent]:
        """``config`` as a delta from the dark anchor (every sector
        off-air; one shared read-only zero plane for every row, tree
        node and best; empty boxes; serving 0; no state): every sector
        changes, and the window is the union of their boxes.  Exact
        with no special case: every new row dominates, so the serving
        repair never runs; the rows fold in ascending order from index
        0, so a row wins a cell only by exceeding the best so far, as a
        stack argmax has it; every tree node is recomputed over its new
        box; and every row is zero outside the window.
        """
        self._validate(config, ue_density)
        n = config.n_sectors
        zero = np.zeros(self.grid.shape, dtype=self.pathloss.plane_dtype)
        zero.flags.writeable = False
        boxes = np.zeros((n, 4), dtype=np.int64)
        boxes.flags.writeable = False
        dark = DeltaIncumbent(
            Configuration._trusted((_DARK,) * n), (zero,) * n, boxes,
            (zero,) * (n - 1), (EMPTY_BOX,) * (n - 1),
            np.zeros(self.grid.shape, dtype=np.int32), zero,
            self.pathloss.cache_epoch)
        return self._evaluate_delta_windowed(dark, config, range(n),
                                             ue_density)[:2]

    # ------------------------------------------------------------------
    # delta evaluation
    # ------------------------------------------------------------------
    def changed_sectors(self, incumbent: DeltaIncumbent,
                        config: Configuration) -> Optional[Tuple[int, ...]]:
        """The sectors ``config`` changes vs. the incumbent, ascending.

        ``None`` when the configurations are identical or differ in
        sector count, or the path-loss caches were invalidated since
        the incumbent was captured (its rows may be stale).
        """
        if (incumbent.epoch != self.pathloss.cache_epoch
                or config.n_sectors != incumbent.config.n_sectors):
            return None
        # Searches derive candidates by copying the incumbent's setting
        # tuple, so an identity scan settles most sectors before ``==``
        # runs on the rest.
        old, new = incumbent.config.settings, config.settings
        return tuple(i for i in compress(range(len(old)),
                                         map(is_not, old, new))
                     if old[i] != new[i]) or None

    def single_sector_change(self, incumbent: DeltaIncumbent,
                             config: Configuration) -> Optional[int]:
        """The one sector ``config`` changes vs. the incumbent: the
        one-sector view of :meth:`changed_sectors` (``None`` unless
        exactly one sector changed)."""
        changed = self.changed_sectors(incumbent, config)
        if changed is None or len(changed) != 1:
            return None
        return changed[0]

    def evaluate_delta(self, incumbent: DeltaIncumbent,
                       config: Configuration, ue_density: np.ndarray
                       ) -> Optional[Tuple[NetworkState, DeltaIncumbent]]:
        """Re-evaluate ``config`` incrementally from ``incumbent``.

        Only the changed sectors' mW rows and their ancestors in the
        sum tree are rebuilt, and only inside the union of their
        :meth:`roi_window` boxes: the serving argmax is repaired
        locally, and every derived raster is bitwise identical to
        :meth:`evaluate`.  Any number of sectors may change.  Returns
        ``None`` when the configurations are identical or the
        incumbent is stale (caller falls back).
        """
        changed = self.changed_sectors(incumbent, config)
        if changed is None:
            return None
        self._eval_counter.inc()
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc()
        registry.counter("magus.engine.delta_evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            self._validate(config, ue_density)
            state, child, box = self._evaluate_delta_windowed(
                incumbent, config, changed, ue_density)
            registry.counter("magus.engine.roi_evaluations").inc()
            registry.counter("magus.engine.roi_cells").inc(box_area(box))
            return state, child

    def _evaluate_delta_windowed(
            self, incumbent: DeltaIncumbent, config: Configuration,
            changed: Sequence[int], ue_density: np.ndarray
            ) -> Tuple[NetworkState, DeltaIncumbent, Box]:
        """The one evaluation kernel: a delta confined to its window.

        The window is the union of the changed sectors' old and new
        boxes (each sector's :meth:`roi_window`), returned with the
        state and the child.  Outside it every changed row is exactly
        zero in both configurations, so every plane is elementwise
        unchanged there: the incumbent's total and serving are reused
        outside the window.

        The total is the root of the pairwise sum tree (:func:`_sum_tree`):
        each internal node is the elementwise sum of its two children.
        Only the ancestors of the changed rows are recomputed, bottom
        up, each over the union of its old and new boxes inside the
        window; outside that union the node is zero before and after.
        An elementwise add does not depend on the slice it runs over,
        so any window of a node equals the full plane's, and a
        candidate's total is the same leaf-to-root walk
        (:meth:`DeltaIncumbent.siblings`).

        Inside the window the serving argmax is repaired from the rows
        that meet it, at the cells of the changed sectors whose new row
        does not dominate the old one (see DESIGN.md, "Evaluation
        strategies").
        """
        rows, boxes = list(incumbent.rows), incumbent.boxes.copy()
        box, new_boxes = EMPTY_BOX, []
        for sector, old in zip(changed, boxes[list(changed)].tolist()):
            rows[sector], new = self._sector_row(config, sector)
            new_boxes.append(new)
            box = box_union(box, box_union(tuple(old), new))
        boxes[list(changed)] = new_boxes
        boxes.flags.writeable = False
        nodes, node_boxes = self._sum_nodes(incumbent, rows, boxes,
                                            changed, box)
        r0, r1, c0, c1 = box
        win = (slice(r0, r1), slice(c0, c1))

        # Cells the old winner still holds: it is the first-index max
        # of the unchanged rows, so folding in each changed row with
        # the first-index tie rule yields the full argmax.  A changed
        # row is zero outside its box, where it can never win.  The tie
        # term fires only where a higher index holds the cell, so it is
        # skipped while ``top`` (no lower than any index in the window)
        # is not above the sector: always, from the dark anchor.
        s0 = incumbent.raw_serving[win]
        raw_w = s0.copy()
        best_w = incumbent.best_mw[win].copy()
        top = int(s0.max(initial=0))
        for sector, (q0, q1, p0, p1) in zip(changed, new_boxes):
            if q0 >= q1 or p0 >= p1:
                continue
            rel = (slice(q0 - r0, q1 - r0), slice(p0 - c0, p1 - c0))
            new = rows[sector][q0:q1, p0:p1]
            best, idx = best_w[rel], raw_w[rel]
            wins = new > best
            if sector < top:
                wins |= (new == best) & (sector < idx)
            top = max(top, sector)
            np.copyto(best, new, where=wins)
            np.copyto(idx, np.int32(sector), where=wins)
        # Cells a changed sector served: the argmax over the rows that
        # meet them (the rest are zero there); an all-zero cell takes
        # index 0, as the full stack's argmax does.  A sector whose new
        # row dominates its old one keeps every cell it served (any
        # row tying its old value there has a higher index), so the
        # fold above already holds the argmax at its cells.
        settings = incumbent.config.settings
        losing = [sector for sector in changed
                  if not dominates(settings[sector],
                                   config.settings[sector])]
        if losing:
            mask = s0 == losing[0]
            for sector in losing[1:]:
                mask |= s0 == sector
            if mask.any():
                best_w[mask], raw_w[mask] = _argmax_rows(rows, boxes, box,
                                                         mask)
        child = DeltaIncumbent(
            config, rows, boxes, nodes, node_boxes,
            _patched(incumbent.raw_serving, win, raw_w),
            _patched(incumbent.best_mw, win, best_w),
            self.pathloss.cache_epoch)
        state = self._finish(child, ue_density, prior=incumbent.state,
                             box=box)
        return state, child, box

    @staticmethod
    def _sum_nodes(incumbent: DeltaIncumbent, rows: Sequence[np.ndarray],
                   boxes: np.ndarray, changed: Sequence[int], window: Box
                   ) -> Tuple[List[np.ndarray], List[Box]]:
        """The sum tree's internal planes and boxes over the new
        ``rows``: the incumbent's, with the ancestors of ``changed``
        recomputed inside ``window`` (see
        :meth:`_evaluate_delta_windowed`)."""
        children, paths = _sum_tree(len(rows))
        nodes, node_boxes = list(incumbent.nodes), list(incumbent.node_boxes)
        # Post-order numbering: a node's descendants come before it.
        for i in sorted({i for s in changed for i, _ in paths[s]}):
            left, lbox = _node(rows, boxes, nodes, node_boxes,
                               children[i][0])
            right, rbox = _node(rows, boxes, nodes, node_boxes,
                                children[i][1])
            old = node_boxes[i]
            node_boxes[i] = new = box_union(lbox, rbox)
            r0, r1, c0, c1 = _intersection(window, box_union(old, new))
            if r0 >= r1 or c0 >= c1:
                continue
            out = (np.zeros(left.shape, left.dtype) if box_is_empty(old)
                   else nodes[i].copy())
            np.add(left[r0:r1, c0:c1], right[r0:r1, c0:c1],
                   out=out[r0:r1, c0:c1])
            out.flags.writeable = False
            nodes[i] = out
        return nodes, node_boxes

    def _sector_row(self, config: Configuration, sector_id: int
                    ) -> Tuple[np.ndarray, Box]:
        """One sector's read-only full-grid row and its box.

        Only the footprint is computed (the whole grid where it is
        unknown); the row is exactly zero elsewhere, and bitwise equal
        to the full-plane product ``gain_matrix_mw * factor`` by the
        :meth:`_sector_plane_mw_window` contract.  The kernel builds
        every row here.
        """
        region = self._setting_box(sector_id, config.settings[sector_id])
        row = np.zeros(self.grid.shape, dtype=self.pathloss.plane_dtype)
        if not box_is_empty(region):
            self._sector_plane_mw_window(config, sector_id, region,
                                         out=row[_slices(region)])
        row.flags.writeable = False
        return row, region

    # ------------------------------------------------------------------
    # region-of-influence windows
    # ------------------------------------------------------------------
    def roi_window(self, incumbent: DeltaIncumbent,
                   config: Configuration, changed: int) -> Box:
        """The changed sector's region of influence.

        The union of the sector's footprint under the incumbent and
        candidate settings — every cell whose received power can move.
        The whole grid when either footprint is unknown (no clip
        floor, rotated pattern).
        """
        return box_union(tuple(incumbent.boxes[changed].tolist()),
                         self._setting_box(changed,
                                           config.settings[changed]))

    def _setting_box(self, sector_id: int, setting) -> Box:
        """One setting's footprint, the whole grid where it is unknown;
        off-air sectors radiate nowhere."""
        if not setting.active:
            return EMPTY_BOX
        footprint = self.pathloss.footprint(sector_id, setting.tilt_deg,
                                            setting.azimuth_offset_deg)
        if footprint is None:
            rows, cols = self.grid.shape
            return (0, rows, 0, cols)
        return footprint

    # ------------------------------------------------------------------
    # batched candidate scoring
    # ------------------------------------------------------------------
    def evaluate_batch(self, incumbent: DeltaIncumbent,
                       configs: Sequence[Configuration],
                       ue_density: np.ndarray) -> Optional[BatchResult]:
        """Score K single-sector candidates in one vectorized pass.

        Every candidate must differ from the incumbent in exactly one
        sector (any knob: power, tilt, azimuth or on/off state);
        returns ``None`` otherwise.  Serving and loads are exact; SINR
        carries the incremental total-power update (see
        :class:`BatchResult`).
        """
        changed: List[int] = []
        for config in configs:
            sector = self.single_sector_change(incumbent, config)
            if sector is None:
                return None
            changed.append(sector)
        if not changed:
            return None
        self._validate(configs[0], ue_density)
        k = len(configs)
        self._eval_counter.inc(k)
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc(k)
        registry.counter("magus.engine.batched_candidates").inc(k)
        with registry.timer("magus.engine.evaluate_batch").time():
            b_idx = np.asarray(changed, dtype=np.int32)
            # Full-plane products, not footprint rows, so that this
            # reference stays independent of the boxes.
            new_rows = np.zeros((k,) + self.grid.shape,
                                dtype=self.pathloss.plane_dtype)
            for out, config, b in zip(new_rows, configs, changed):
                setting = config.settings[b]
                if setting.active:
                    gain_mw = self.pathloss.gain_matrix_mw(
                        b, setting.tilt_deg, setting.azimuth_offset_deg)
                    np.multiply(gain_mw,
                                _plane_factor(config, b, gain_mw.dtype),
                                out=out)
            old_rows = np.stack([incumbent.rows[b] for b in changed])
            total_mw = incumbent.total_mw[None] + (new_rows - old_rows)

            # Comparator per grid: for grids the changed sector already
            # serves, the argmax of the stack with each cell's serving
            # row masked out (-inf with one sector); for the rest, the
            # incumbent best.  Computed here from the dense stack, not
            # by the window comparator, so it stays a reference.
            serving0 = incumbent.raw_serving
            masked = np.stack(incumbent.rows)
            np.put_along_axis(masked, serving0[None].astype(np.intp),
                              -np.inf, axis=0)
            others_idx = masked.argmax(axis=0).astype(np.int32)
            others_val = np.take_along_axis(masked, others_idx[None],
                                            axis=0)[0]
            mask = serving0[None] == b_idx[:, None, None]
            comp_val = np.where(mask, others_val[None],
                                incumbent.best_mw[None])
            comp_idx = np.where(mask, others_idx[None], serving0[None])
            bb = b_idx[:, None, None]
            wins = (new_rows > comp_val) | ((new_rows == comp_val)
                                            & (bb < comp_idx))
            best_mw = np.where(wins, new_rows, comp_val)
            raw_serving = np.where(wins, bb, comp_idx).astype(np.int32)

            interference_mw = self._interference_mw(total_mw, best_mw)
            sinr_db = self._sinr_raster(interference_mw, best_mw,
                                        out=interference_mw)
            rmax, serving = self._link_rasters(sinr_db, best_mw,
                                               raw_serving)
            n_ue = self._shared_load_batch(serving, ue_density)
            return BatchResult(serving=serving, sinr_db=sinr_db,
                               max_rate_bps=rmax, n_ue=n_ue,
                               rate_bps=self._shared_rate(rmax, n_ue))

    # ------------------------------------------------------------------
    # shared internals
    # ------------------------------------------------------------------
    def _validate(self, config: Configuration,
                  ue_density: np.ndarray) -> None:
        if config.n_sectors != self.pathloss.network.n_sectors:
            raise ValueError("configuration does not match network")
        if ue_density.shape != self.grid.shape:
            raise ValueError("UE density raster shape mismatch")
        if not np.all(np.isfinite(ue_density)):
            raise ValueError("UE density must be finite (corrupt raster?)")
        if np.any(ue_density < 0):
            raise ValueError("UE density must be non-negative")

    def _finish(self, incumbent: DeltaIncumbent, ue_density: np.ndarray,
                prior: Optional[NetworkState] = None,
                box: Optional[Box] = None) -> NetworkState:
        """Formulae 2-4 from the prepared linear-domain arrays.

        With a ``prior`` state and a ``box`` smaller than the grid, the
        dB rasters and the single-user rate are recomputed only inside
        the box: they are elementwise in ``total_mw``/``best_mw``,
        which are untouched outside it, so the prior state's values
        are bitwise reusable there.  Otherwise every raster is computed
        fresh.  Loads and shared rates couple globally through
        Formula 3 and are always rebuilt over the whole grid (cheap,
        non-transcendental).  Transient passes run in the
        :attr:`workspace`; every raster of the state is a fresh array.
        """
        rows, cols = self.grid.shape
        if prior is None or box is None or box_area(box) == rows * cols:
            prior, box = None, (0, rows, 0, cols)
        win = _slices(box)
        shape = (box[1] - box[0], box[3] - box[2])

        def raster(dtype):
            # The whole grid computes straight into the state's rasters;
            # a window into fresh window-sized arrays, patched into
            # copies of the prior's rasters below.
            return np.empty(shape, dtype=dtype) if prior is None else None

        plane = incumbent.best_mw.dtype
        best_w = incumbent.best_mw[win]
        sinr_db, rp_best_dbm, interference_dbm = self._radio_rasters(
            incumbent.total_mw[win], best_w, raster(plane), raster(plane),
            raster(plane))
        rmax, serving = self._link_rasters(
            sinr_db, best_w, incumbent.raw_serving[win],
            raster(np.float64), raster(incumbent.raw_serving.dtype))
        if prior is not None:
            sinr_db = _patched(prior.sinr_db, win, sinr_db)
            rp_best_dbm = _patched(prior.rp_best_dbm, win, rp_best_dbm)
            interference_dbm = _patched(prior.interference_dbm, win,
                                        interference_dbm)
            rmax = _patched(prior.max_rate_bps, win, rmax)
            serving = _patched(prior.serving, win, serving)
        n_ue = self._shared_load_batch(serving[None], ue_density)[0]
        state = NetworkState(
            grid=self.grid, config=incumbent.config, serving=serving,
            rp_best_dbm=rp_best_dbm, interference_dbm=interference_dbm,
            sinr_db=sinr_db, max_rate_bps=rmax, n_ue=n_ue,
            rate_bps=self._shared_rate(rmax, n_ue),
            ue_density=np.asarray(ue_density, dtype=float),
            raw_serving=incumbent.raw_serving)
        incumbent.state = state
        return state

    def _radio_rasters(self, total_mw: np.ndarray, best_mw: np.ndarray,
                       sinr_db: Optional[np.ndarray] = None,
                       rp_best_dbm: Optional[np.ndarray] = None,
                       interference_dbm: Optional[np.ndarray] = None):
        """Formula 2 rasters (dB domain) from linear power planes, into
        the given output arrays (fresh ones where omitted)."""
        interference_mw = self._interference_mw(
            total_mw, best_mw, out=self.workspace.take(
                "interference", best_mw.dtype, best_mw.shape))
        return (self._sinr_raster(interference_mw, best_mw, out=sinr_db),
                self._dbm_raster(best_mw, out=rp_best_dbm),
                self._dbm_raster(interference_mw, out=interference_dbm))

    @staticmethod
    def _interference_mw(total_mw: np.ndarray, best_mw: np.ndarray,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
        """Total non-serving received power; ``out`` may be
        ``total_mw`` itself."""
        interference = np.subtract(total_mw, best_mw, out=out)
        return np.maximum(interference, 0.0, out=interference)

    def _sinr_raster(self, interference_mw: np.ndarray, best_mw: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Formula 2's SINR (dB) from the interference and best-server
        planes — the only dB raster candidate scoring needs.  ``out``
        may be ``interference_mw`` itself."""
        noise_mw = _dbm_to_mw_scalar(self.noise_dbm)
        numerator = np.maximum(best_mw, 1e-300, out=self.workspace.take(
            "numerator", best_mw.dtype, best_mw.shape))
        sinr_db = np.add(noise_mw, interference_mw, out=out)
        with np.errstate(divide="ignore"):
            np.divide(numerator, sinr_db, out=sinr_db)
            np.log10(sinr_db, out=sinr_db)
        np.multiply(10.0, sinr_db, out=sinr_db)
        # Grids where no sector radiates at all (everything off-air).
        return self._fill_unless(sinr_db, np.greater, best_mw, 0.0, -np.inf)

    def _dbm_raster(self, mw: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """A linear power plane in dBm, ``-inf`` where it is zero."""
        dbm = np.maximum(mw, 1e-300, out=out)
        with np.errstate(divide="ignore"):
            np.log10(dbm, out=dbm)
        np.multiply(10.0, dbm, out=dbm)
        return self._fill_unless(dbm, np.greater, mw, 0.0, -np.inf)

    def _link_rasters(self, sinr_db: np.ndarray, best_mw: np.ndarray,
                      raw_serving: np.ndarray,
                      rmax: Optional[np.ndarray] = None,
                      serving: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The single-user rate and the serving map: CQI -> rate, the
        RSRP-style floor (compared in the linear domain), and
        ``NO_SERVICE`` wherever the rate is 0.  Into the given outputs
        (fresh ones where omitted); ``serving`` may be ``raw_serving``
        itself."""
        rmax = self.link.max_rate_bps(sinr_db, out=rmax, scratch=(
            self.workspace.take("cqi", np.intp, sinr_db.shape),
            self.workspace.take("mask", bool, sinr_db.shape)))
        self._fill_unless(rmax, np.greater_equal, best_mw,
                          _dbm_to_mw_scalar(self.min_rp_dbm), 0.0)
        if serving is None:
            serving = raw_serving.copy()
        elif serving is not raw_serving:
            np.copyto(serving, raw_serving)
        self._fill_unless(serving, np.greater, rmax, 0.0, NO_SERVICE)
        return rmax, serving

    def _shared_rate(self, rmax: np.ndarray, n_ue: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Formula 4: ``r(g) = rmax(g) / N(g)``, and ``rmax`` where no
        UE shares the sector.  ``out`` may be ``n_ue`` itself."""
        shared = np.greater(n_ue, 0, out=self.workspace.take(
            "mask", bool, n_ue.shape))
        rate = np.maximum(n_ue, 1e-12, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(rmax, rate, out=rate)
        np.copyto(rate, rmax, where=np.logical_not(shared, out=shared))
        return rate

    def _fill_unless(self, out: np.ndarray, test, x: np.ndarray, bound,
                     fill) -> np.ndarray:
        """``out = where(test(x, bound), out, fill)``, in place."""
        mask = test(x, bound, out=self.workspace.take("mask", bool, x.shape))
        np.copyto(out, fill, where=np.logical_not(mask, out=mask))
        return out

    def _sector_plane_mw_window(self, config: Configuration,
                                sector_id: int, box: Box,
                                out: Optional[np.ndarray] = None
                                ) -> np.ndarray:
        """One sector's plane restricted to ``box``, into ``out`` (the
        box's shape) when given.

        Bitwise identical to the full-plane product
        ``gain_matrix_mw(...) * _plane_factor(...)`` inside ``box``: the
        same cached gain row is sliced before the same scalar multiply,
        and an elementwise product commutes with slicing.
        """
        r0, r1, c0, c1 = box
        setting = config.settings[sector_id]
        if not setting.active:
            if out is None:
                return np.zeros((r1 - r0, c1 - c0),
                                dtype=self.pathloss.plane_dtype)
            out.fill(0)
            return out
        gain_mw = self.pathloss.gain_matrix_mw(
            sector_id, setting.tilt_deg, setting.azimuth_offset_deg)
        return np.multiply(gain_mw[r0:r1, c0:c1],
                           _plane_factor(config, sector_id, gain_mw.dtype),
                           out=out)

    # ------------------------------------------------------------------
    def _received_power_dbm(self, config: Configuration,
                            sectors: Optional[Sequence[int]] = None
                            ) -> np.ndarray:
        """Formula 1 per sector: ``RP_b(g) = P_b + L_b(T_b, g)``.

        The dB-domain rows of ``sectors`` (default: all, in order), kept
        for the SINR pre-filter and hand verification; the evaluation
        paths work in the linear domain.  The requested rows of the
        gain tensor (a stack of cached dB rows) take the same
        elementwise add, so a row is bitwise equal whichever rows are
        asked for.
        Off-air sectors radiate nothing: their plane is set to -inf so
        they can neither serve nor interfere.
        """
        gains = self.pathloss.gain_tensor(config.tilts(),
                                           config.azimuth_offsets())
        powers = config.powers()
        inactive = ~config.active_mask()
        if sectors is not None:
            rows = np.asarray(sectors, dtype=np.intp)
            gains, powers, inactive = gains[rows], powers[rows], inactive[rows]
        rp = powers[:, None, None] + gains
        rp[inactive] = -np.inf
        return rp

    def _shared_load_batch(self, serving: np.ndarray,
                           ue_density: np.ndarray,
                           out: Optional[np.ndarray] = None) -> np.ndarray:
        """Formula 3: ``N(g)`` = UEs attached to grid g's serving
        sector, for each raster of a ``(k, H, W)`` serving stack.

        One bincount per raster over the sector ids shifted by one, so
        that unserved cells (``NO_SERVICE`` is -1) land in bin 0, which
        is zeroed after the count: each sector's bin receives that
        raster's weights in flat order, so the loads are bitwise
        identical whatever else is in the stack.  ``out`` (float64, the
        stack's shape) receives them.
        """
        n_sectors = self.pathloss.network.n_sectors
        if out is None:
            out = np.empty(serving.shape)
        weights = np.ravel(ue_density)
        ids = self.workspace.take("ids", np.intp, serving.shape[1:])
        for raster, n_ue in zip(serving, out):
            np.add(raster, 1, out=ids)
            loads = np.bincount(ids.ravel(), weights=weights,
                                minlength=n_sectors + 1)
            loads[0] = 0.0
            loads.take(ids, out=n_ue, mode="clip")
        return out


@functools.lru_cache(maxsize=64)
def _sum_tree(n: int) -> Tuple[Tuple[Tuple[int, int], ...],
                               Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """The pairwise sector-sum tree over ``n`` rows: the canonical
    order of the total-power plane.

    Recursive halving in sector-index order: the node over sectors
    ``[lo, hi)`` is the elementwise sum of the nodes over ``[lo, mid)``
    and ``[mid, hi)``, ``mid = (lo + hi) // 2``; a single sector is its
    row.  Node ids: leaf ``s`` is ``s``, internal node ``i`` is
    ``n + i``, numbered in post-order (every descendant first, the root
    last).  Returns ``(children, paths)``: ``children[i]`` is internal
    node ``i``'s ``(left, right)``, and ``paths[s]`` lists
    ``(ancestor, sibling)`` from leaf ``s`` up to the root, at most
    ``ceil(log2 n)`` pairs.
    """
    children: List[Tuple[int, int]] = []

    def build(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        children.append((build(lo, mid), build(mid, hi)))
        return n + len(children) - 1

    build(0, n)
    up = {}
    for i, (left, right) in enumerate(children):
        up[left], up[right] = (i, right), (i, left)
    paths = []
    for node in range(n):
        path = []
        while node in up:
            path.append(up[node])
            node = n + up[node][0]
        paths.append(tuple(path))
    return tuple(children), tuple(paths)


def _node(rows: Sequence[np.ndarray], boxes: np.ndarray,
          nodes: Sequence[np.ndarray], node_boxes: Sequence[Box],
          node: int) -> Tuple[np.ndarray, Box]:
    """Sum-tree node ``node``'s plane and box: leaf ``s`` is row ``s``,
    internal node ``len(rows) + i`` is ``nodes[i]``."""
    n = len(rows)
    if node < n:
        return rows[node], tuple(boxes[node].tolist())
    return nodes[node - n], node_boxes[node - n]


def _intersection(a: Box, b: Box) -> Box:
    return (max(a[0], b[0]), min(a[1], b[1]),
            max(a[2], b[2]), min(a[3], b[3]))


def _meeting(boxes: np.ndarray, window: Box
             ) -> Tuple[List[int], List[List[int]]]:
    """The sectors whose box meets ``window``, ascending, and their
    boxes clipped to it."""
    w0, w1, v0, v1 = window
    clips = np.minimum(np.maximum(boxes, (w0, w0, v0, v0)),
                       (w1, w1, v1, v1))
    ids = np.flatnonzero((clips[:, 0] < clips[:, 1])
                         & (clips[:, 2] < clips[:, 3]))
    return ids.tolist(), clips[ids].tolist()


def _argmax_rows(rows: Sequence[np.ndarray], boxes: np.ndarray, box: Box,
                 mask: np.ndarray, skip: Optional[int] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """First-index argmax of the row stack with row ``skip`` left out,
    at the cells of window ``box`` where ``mask`` holds (at least one):
    the value and sector per cell.

    Only the rows whose box meets those cells are read; the rest are
    zero there.  A cell where every row read is zero gets the stack
    argmax's index, the first row other than ``skip``.
    """
    mr, mc = np.nonzero(mask)
    mr += box[0]
    mc += box[2]
    ids, _ = _meeting(boxes, (mr.min(), mr.max() + 1,
                              mc.min(), mc.max() + 1))
    ids = [s for s in ids if s != skip]
    cells = mr * rows[0].shape[1] + mc
    sub = np.zeros((max(len(ids), 1), cells.size), dtype=rows[0].dtype)
    for j, s in enumerate(ids):
        # Cells are in range; "clip" just lets take write into ``sub``.
        rows[s].take(cells, out=sub[j], mode="clip")
    arg = sub.argmax(axis=0)
    top = sub[arg, np.arange(cells.size)]
    sector_of = np.asarray(ids or [0], dtype=np.int32)
    return top, np.where(top > 0, sector_of[arg],
                         np.int32(1 if skip == 0 else 0))


def _slices(box: Box) -> Tuple[slice, slice]:
    r0, r1, c0, c1 = box
    return slice(r0, r1), slice(c0, c1)


def _plane_factor(config: Configuration, sector_id: int, dtype):
    """One sector's power factor in the plane dtype.

    The setting's own cached :meth:`SectorSetting.power_factor`, not
    a scalar ``**``, cast to the plane dtype *before* the multiply:
    under the packed float32 backend every path must perform the same
    f32*f32 elementwise product (NEP 50 would otherwise promote it to
    float64 and break full/delta parity).  For the float64 dict path
    the cast is a no-op.
    """
    return dtype.type(config.settings[sector_id].power_factor())


def _patched(base: np.ndarray, win, part: np.ndarray) -> np.ndarray:
    """A copy of ``base`` with ``part`` written into window ``win``."""
    out = base.copy()
    out[win] = part
    return out


def _dbm_to_mw_scalar(dbm: float) -> float:
    return float(10.0 ** (float(dbm) / 10.0))
