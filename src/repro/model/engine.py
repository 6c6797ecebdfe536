"""The vectorized analysis engine (paper Section 4.1, Formulae 1-4).

Given the path-loss database, a configuration and a UE population, the
engine computes received power, serving assignment, SINR, single-user
rate and load-shared actual rate for every grid — the "Analysis Model"
box of the paper's Figure 6.  This is the inner loop of every search
algorithm, and one windowed kernel runs it, :meth:`~AnalysisEngine._window_pass`:

* **candidates near an anchor** — a :class:`DeltaIncumbent` holds one
  configuration's copy-on-write mW rows (Formula 1, one sector at a
  time inside its footprint box: :meth:`~AnalysisEngine._sector_row`),
  the planes of a fixed pairwise sum tree whose root is the total
  power (:func:`_sum_tree`), the serving argmax and its state.  A
  candidate's window is the union of its changed sectors' old and new
  footprints (:meth:`~AnalysisEngine.roi_window`; the grid where one
  is unknown); outside it every raster is the anchor's, bit for bit.
* **one serving routine** — per window, the anchor's comparator
  (:meth:`DeltaIncumbent.comparator`: its own best/serving, except at
  the cells a sector that may lose them served, where the best of the
  other rows) with each changed row folded in by the first-index tie
  rule (:func:`_capture`).
* **one tail** — one straight sequence for any number of candidates,
  under one ``np.errstate``: interference, SINR, CQI→rate, the RSRP
  floor (a multiply by its test) and the serving map over the windows
  laid end to end, then Formula 3's loads and Formula 4's shared rates
  over a ``(k, H, W)`` stack of each window patched into the anchor's
  rasters, all in the engine's :class:`Workspace`.

Callers keep their own ends.  :meth:`~AnalysisEngine.evaluate_delta`
builds the child anchor's rows and tree nodes, passes the new root's
window as the total and copies a :class:`NetworkState` out; a dense
evaluation is the delta from the *dark anchor* (every sector off-air).
:func:`repro.model.roi.score_windows` passes sibling-walk totals and
reduces utilities.  Every raster and score is *bitwise identical* to
:meth:`~AnalysisEngine.evaluate` (DESIGN.md, "Evaluation strategies").
:meth:`~AnalysisEngine.evaluate_batch`, a dense stacked pass with a
masked-argmax comparator, is the parity suites' reference; no search
calls it.  Searches reach the engine through
:class:`~repro.core.evaluation.Evaluator`.
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
from .roi import EMPTY_BOX, Box, box_is_empty, box_union
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
        """A ``shape``-shaped (an int: flat) C-contiguous view of
        buffer ``name``."""
        flat = isinstance(shape, int)
        size = shape if flat else math.prod(shape)
        buf = self._buffers.get(name)
        if buf is not None and buf.dtype != dtype:
            raise TypeError(f"workspace buffer {name!r} holds {buf.dtype}, "
                            f"not {np.dtype(dtype)}")
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
            get_registry().gauge("magus.engine.workspace_bytes").set(
                self.nbytes)
        return buf[:size] if flat else buf[:size].reshape(shape)

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
    the finished :class:`NetworkState`, whose rasters windowed
    evaluations patch; the dark anchor of a dense evaluation
    (:meth:`AnalysisEngine._evaluate_dense`) has none.
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
        n, (r0, r1, c0, c1) = len(self.rows), box
        out = []
        for _, node in _sum_tree(n)[1][changed]:
            if node < n:
                plane, (q0, q1, p0, p1) = (self.rows[node],
                                           self.boxes[node].tolist())
            else:
                plane, (q0, q1, p0, p1) = (self.nodes[node - n],
                                           self.node_boxes[node - n])
            if max(q0, r0) < min(q1, r1) and max(p0, c0) < min(p1, c1):
                out.append(plane[r0:r1, c0:c1])
        return out

    def comparator(self, losing: Sequence[int], box: Box
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The serving comparator of a change inside ``box``, which the
        changed rows fold into (:func:`_capture`): :attr:`best_mw` /
        :attr:`raw_serving`, except where a ``losing`` sector served.
        There it is the first-index argmax over the other rows (rows
        whose box misses those cells are zero there and not read), and
        the first index not in ``losing`` where they are all zero, so a
        losing row must fold over the whole window.  A changed row that
        dominates its old one (:func:`~repro.model.network.dominates`)
        keeps every cell it served: it need not lose, and folds over its
        own box.  Each cell's result depends on that cell alone (see
        DESIGN.md, "Window comparator"); with nothing losing it is views
        of the incumbent's arrays.
        """
        win = _slices(box)
        comp_val, comp_idx = self.best_mw[win], self.raw_serving[win]
        if losing:
            mask = comp_idx == losing[0]
            for sector in losing[1:]:
                mask |= comp_idx == sector
            if mask.any():
                comp_val, comp_idx = comp_val.copy(), comp_idx.copy()
                comp_val[mask], comp_idx[mask] = _argmax_rows(
                    self.rows, self.boxes, box, mask, skip=losing)
        return comp_val, comp_idx

    def runner_up(self, changed: int, box: Box
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """The comparator of a one-sector change that may lose cells:
        where ``changed`` serves, the best of the other rows; index 0,
        or 1 when ``changed == 0``, where they are all zero."""
        return self.comparator((changed,), box)


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
        self._grid_shape = self.grid.shape
        # Always-on per-engine evaluation counter (ablation benches read
        # it through the ``evaluations`` property); the active metrics
        # registry is additionally updated on every evaluation.
        self._eval_counter = Counter("engine.evaluations")
        #: Scratch for the window pass (:meth:`_window_pass`, see
        #: :class:`Workspace`).
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
        with get_registry().timer("magus.engine.evaluate").time():
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
        with get_registry().timer("magus.engine.evaluate").time():
            return self._evaluate_dense(config, ue_density)

    def _evaluate_dense(self, config: Configuration, ue_density: np.ndarray
                        ) -> Tuple[NetworkState, DeltaIncumbent]:
        """``config`` as a delta from the dark anchor (every sector
        off-air; one shared read-only zero plane for every row, tree
        node and best; empty boxes; serving 0; no state): every sector
        changes.  Exact with no special case: every new row dominates,
        so the comparator reads no row; the rows fold in ascending order
        from index 0, so a row wins a cell only by exceeding the best so
        far, as a stack argmax has it; every tree node is recomputed
        over its new box; and with no state to patch, the window pass
        runs over the whole grid.
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
                                             ue_density)

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
        :meth:`roi_window` boxes: the serving argmax is resolved
        locally, and every derived raster is bitwise identical to
        :meth:`evaluate`.  Any number of sectors may change.  Returns
        ``None`` when the configurations are identical or the
        incumbent is stale (caller falls back).
        """
        changed = self.changed_sectors(incumbent, config)
        if changed is None:
            return None
        registry = get_registry()
        registry.counter("magus.engine.delta_evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            self._validate(config, ue_density)
            return self._evaluate_delta_windowed(incumbent, config,
                                                 changed, ue_density)

    def _evaluate_delta_windowed(
            self, incumbent: DeltaIncumbent, config: Configuration,
            changed: Sequence[int], ue_density: np.ndarray
            ) -> Tuple[NetworkState, DeltaIncumbent]:
        """A delta confined to its window: the child's rows, boxes and
        sum-tree nodes (:meth:`_sum_nodes`), one :meth:`_window_pass`,
        and the state.

        The window is the union of the changed sectors' old and new
        boxes (each sector's :meth:`roi_window`).  Outside it every
        changed row is exactly zero in both configurations, so the
        incumbent's total, serving and rasters hold there bit for bit;
        the dark anchor has none to reuse, so its window is the grid.
        A sector whose new row does not dominate its old one is losing:
        the comparator reads the other rows where it served, and its
        row folds over the whole window; any other folds over its new
        box (see DESIGN.md, "Window comparator").
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
        prior = incumbent.state
        if prior is None:
            box = (0, ue_density.shape[0], 0, ue_density.shape[1])
        win = _slices(box)
        settings = incumbent.config.settings
        losing = tuple(sector for sector in changed
                       if not dominates(settings[sector],
                                        config.settings[sector]))
        folds = [box if sector in losing else new
                 for sector, new in zip(changed, new_boxes)]
        total = (nodes[-1] if nodes else rows[0])[win]
        (best, raw, sinr), (serving, rmax, load, rate) = self._window_pass(
            incumbent, [(box, incumbent.comparator(losing, box),
                         [(sector, fold, rows[sector][_slices(fold)])
                          for sector, fold in zip(changed, folds)])],
            total, ue_density)
        shape = total.shape
        best, raw, sinr = (best.reshape(shape), raw.reshape(shape),
                           sinr.reshape(shape))
        child = DeltaIncumbent(
            config, rows, boxes, nodes, node_boxes,
            _patched(incumbent.raw_serving, win, raw),
            _patched(incumbent.best_mw, win, best),
            self.pathloss.cache_epoch)

        def copied(part: np.ndarray, name: str) -> np.ndarray:
            # A window raster out of the workspace, into the prior's.
            return (part.copy() if prior is None
                    else _patched(getattr(prior, name), win, part))

        work = self.workspace
        with np.errstate(divide="ignore"):      # float32 log10(0)
            rp_best_dbm = copied(self._dbm_raster(
                best, out=work.take("dbm", best.dtype, shape)),
                "rp_best_dbm")
            interference_dbm = copied(self._dbm_raster(
                self._interference_mw(total, best, out=work.take(
                    "interference", best.dtype, shape)),
                out=work.take("dbm", best.dtype, shape)), "interference_dbm")
        child.state = NetworkState(
            grid=self.grid, config=config, serving=serving[0].copy(),
            rp_best_dbm=rp_best_dbm, interference_dbm=interference_dbm,
            sinr_db=copied(sinr, "sinr_db"), max_rate_bps=rmax[0].copy(),
            n_ue=load[0].copy(), rate_bps=rate[0].copy(),
            ue_density=np.asarray(ue_density, dtype=float),
            raw_serving=child.raw_serving)
        return child.state, child

    def _window_pass(self, incumbent: DeltaIncumbent, candidates,
                     totals: np.ndarray, ue_density: np.ndarray):
        """The one windowed kernel: serving and Formulae 2-4 for each
        candidate configuration near ``incumbent``, inside its window.

        A candidate is ``(box, comparator, folds)``: its window, its
        serving comparator there (:meth:`DeltaIncumbent.comparator`) and
        its changed rows as ascending ``(sector, region, row)``, ``row``
        the new row over ``region``, a box inside the window.
        ``totals`` holds their total-power windows end to end (it may be
        the workspace's ``total`` buffer), or one window's plane.  One
        sequence for any number of candidates, under one ``np.errstate``:
        serving folds the rows into the comparator (:func:`_capture`);
        interference, SINR, CQI->rate, the floor and the serving map run
        once over the windows end to end; loads and shared rates (Formula
        3 couples each window to the whole grid) over a ``(k, H, W)``
        stack of the windows patched into the incumbent's rasters, so an
        incumbent without a state takes whole-grid windows.  No step
        mixes candidates.  Returns ``(best, raw,
        sinr)``, the window rasters end to end, and the ``(serving,
        rmax, load, rate)`` stacks, views of the :attr:`workspace`.
        Counts one engine evaluation per candidate, a windowed one
        against a finished incumbent (a delta or a scored candidate).
        """
        work, state = self.workspace, incumbent.state
        k, size, plane = len(candidates), totals.size, totals.dtype
        shape = (k,) + ue_density.shape
        cells = ue_density.size
        best = work.take("best", plane, size)
        raw = work.take("raw", np.int32, size)
        # One bool scratch for every stage: the folds' wins and ties,
        # the fills and floors, then the shared-rate test of the stack.
        mask = work.take("mask", bool, max(2 * size, k * cells))
        scratch = (mask[:size], mask[size:2 * size])
        with np.errstate(divide="ignore"):      # float32 log10(0)
            at = 0
            for box, comparator, folds in candidates:
                window = (box[1] - box[0], box[3] - box[2])
                stop = at + window[0] * window[1]
                _capture(best[at:stop].reshape(window),
                         raw[at:stop].reshape(window), comparator, box,
                         folds, scratch)
                at = stop
            interference = self._interference_mw(
                totals, best.reshape(totals.shape),
                out=work.take("total", plane, totals.shape)).reshape(-1)
            sinr = self._sinr_raster(interference, best, out=interference,
                                     mask=scratch[0])
            rmax, serving = self._link_rasters(
                sinr, best, raw, work.take("rmax", np.float64, size),
                work.take("serving", np.int32, size), mask=scratch[0])
            if size == k * cells:       # every window the whole grid
                serving_k, rmax_k = serving.reshape(shape), rmax.reshape(shape)
            else:
                serving_k = work.take("serving_stack", np.int32, shape)
                rmax_k = work.take("rmax_stack", np.float64, shape)
                at = 0
                for (box, _, _), s_j, r_j in zip(candidates, serving_k,
                                                 rmax_k):
                    r0, r1, c0, c1 = box
                    window = (r1 - r0, c1 - c0)
                    stop = at + window[0] * window[1]
                    if stop - at < cells:
                        np.copyto(s_j, state.serving)
                        np.copyto(r_j, state.max_rate_bps)
                    s_j[r0:r1, c0:c1] = serving[at:stop].reshape(window)
                    r_j[r0:r1, c0:c1] = rmax[at:stop].reshape(window)
                    at = stop
            load_k = self._shared_load_batch(
                serving_k, ue_density,
                out=work.take("load", np.float64, shape))
            rate_k = self._shared_rate(
                rmax_k, load_k, out=work.take("rate", np.float64, shape),
                mask=mask[:k * cells].reshape(shape))

        self._eval_counter.inc(k)
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc(k)
        if state is not None:
            registry.counter("magus.engine.roi_evaluations").inc(k)
            registry.counter("magus.engine.roi_cells").inc(size)
        return (best, raw, sinr), (serving_k, rmax_k, load_k, rate_k)

    @staticmethod
    def _sum_nodes(incumbent: DeltaIncumbent, rows: Sequence[np.ndarray],
                   boxes: np.ndarray, changed: Sequence[int], window: Box
                   ) -> Tuple[List[np.ndarray], List[Box]]:
        """The sum tree's internal planes and boxes over the new
        ``rows``: the incumbent's, with the ancestors of ``changed``
        recomputed bottom up, each over the union of its old and new
        boxes inside ``window`` (outside it the node is zero before
        and after).  An elementwise add does not depend on the slice it
        runs over, so any window of a node equals the full plane's, and
        a candidate's total is the same leaf-to-root walk
        (:meth:`DeltaIncumbent.siblings`)."""
        children, paths = _sum_tree(len(rows))
        n = len(rows)
        nodes, node_boxes = list(incumbent.nodes), list(incumbent.node_boxes)
        # Post-order numbering: a node's descendants come before it.
        # Leaf ``s`` is row ``s``, internal node ``n + j`` is nodes[j].
        for i in sorted({i for s in changed for i, _ in paths[s]}):
            left, right = children[i]
            left, lbox = ((rows[left], tuple(boxes[left].tolist()))
                          if left < n
                          else (nodes[left - n], node_boxes[left - n]))
            right, rbox = ((rows[right], tuple(boxes[right].tolist()))
                           if right < n
                           else (nodes[right - n], node_boxes[right - n]))
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
        row = np.zeros(self._grid_shape, dtype=self.pathloss.plane_dtype)
        r0, r1, c0, c1 = region
        if r0 < r1 and c0 < c1:
            self._sector_plane_mw_window(config, sector_id, region,
                                         out=row[r0:r1, c0:c1])
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
            rows, cols = self._grid_shape
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
        changed = [self.single_sector_change(incumbent, config)
                   for config in configs]
        if not changed or None in changed:
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
            grid = (0, self.grid.shape[0], 0, self.grid.shape[1])
            new_rows = np.empty((k,) + self.grid.shape,
                                dtype=self.pathloss.plane_dtype)
            for out, config, b in zip(new_rows, configs, changed):
                self._sector_plane_mw_window(config, b, grid, out=out)
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
            with np.errstate(divide="ignore"):
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

    @staticmethod
    def _interference_mw(total_mw: np.ndarray, best_mw: np.ndarray,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
        """Total non-serving received power; ``out`` may be
        ``total_mw`` itself."""
        interference = np.subtract(total_mw, best_mw, out=out)
        return np.maximum(interference, 0.0, out=interference)

    def _sinr_raster(self, interference_mw: np.ndarray, best_mw: np.ndarray,
                     out: Optional[np.ndarray] = None,
                     mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Formula 2's SINR (dB) from the interference and best-server
        planes — the only dB raster candidate scoring needs.  ``out``
        may be ``interference_mw``; ``mask`` is bool scratch.  A zero
        float32 best is not clamped (1e-300 rounds to 0) and divides to
        0 before the log: the caller holds the ``np.errstate``."""
        numerator = np.maximum(best_mw, 1e-300, out=self.workspace.take(
            "numerator", best_mw.dtype, best_mw.shape))
        sinr_db = np.add(_dbm_to_mw_scalar(self.noise_dbm), interference_mw,
                         out=out)
        return _db(np.divide(numerator, sinr_db, out=sinr_db), best_mw, mask)

    def _dbm_raster(self, mw: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """A linear power plane in dBm, ``-inf`` where it is zero (the
        caller holds the ``np.errstate``, see :meth:`_sinr_raster`)."""
        return _db(np.maximum(mw, 1e-300, out=out), mw,
                   self.workspace.take("mask", bool, mw.shape))

    def _link_rasters(self, sinr_db: np.ndarray, best_mw: np.ndarray,
                      raw_serving: np.ndarray,
                      rmax: Optional[np.ndarray] = None,
                      serving: Optional[np.ndarray] = None,
                      mask: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The single-user rate and the serving map: CQI -> rate, the
        RSRP-style floor (compared in the linear domain), and
        ``NO_SERVICE`` wherever the rate is 0.  Into the given outputs
        (fresh ones where omitted); ``mask`` is bool scratch.

        Table rates are finite and ``>= 0``, so the floor is a multiply
        by its test (a NaN best fails it, like a best under the floor)
        and "the rate is 0" is "not above 0"."""
        rmax = self.link.max_rate_bps(sinr_db, out=rmax, scratch=(
            self.workspace.take("cqi", np.intp, sinr_db.shape), mask))
        np.multiply(rmax, np.greater_equal(
            best_mw, _dbm_to_mw_scalar(self.min_rp_dbm), out=mask), out=rmax)
        if serving is None:
            serving = raw_serving.copy()
        else:
            np.copyto(serving, raw_serving)
        np.copyto(serving, NO_SERVICE, where=np.equal(rmax, 0.0, out=mask))
        return rmax, serving

    def _shared_rate(self, rmax: np.ndarray, n_ue: np.ndarray,
                     out: Optional[np.ndarray] = None,
                     mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Formula 4: ``r(g) = rmax(g) / N(g)``, and ``rmax`` where no
        UE shares the sector.  Loads are finite and ``>= 0``, so the
        divisor is at least 1e-12 and nothing warns."""
        rate = np.maximum(n_ue, 1e-12, out=out)
        np.divide(rmax, rate, out=rate)
        np.copyto(rate, rmax, where=np.equal(n_ue, 0.0, out=mask))
        return rate

    def _sector_plane_mw_window(self, config: Configuration,
                                sector_id: int, box: Box,
                                out: np.ndarray) -> np.ndarray:
        """One sector's plane restricted to ``box``, into ``out`` (the
        box's shape).

        Bitwise identical to the full-plane product
        ``gain_matrix_mw(...) * _plane_factor(...)`` inside ``box``: the
        same cached gain row is sliced before the same scalar multiply,
        and an elementwise product commutes with slicing.
        """
        r0, r1, c0, c1 = box
        setting = config.settings[sector_id]
        if not setting.active:
            out.fill(0)
            return out
        gain_mw = self.pathloss.gain_matrix_mw(
            sector_id, setting.tilt_deg, setting.azimuth_offset_deg)
        return np.multiply(gain_mw[r0:r1, c0:c1],
                           _plane_factor(config, sector_id, gain_mw.dtype),
                           out=out)

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
        bins = self.pathloss.network.n_sectors + 1
        if out is None:
            out = np.empty(serving.shape)
        weights = ue_density.reshape(-1)
        ids = self.workspace.take("ids", np.intp, weights.size)
        for raster, n_ue in zip(serving, out):
            np.add(raster.reshape(-1), 1, out=ids)
            loads = np.bincount(ids, weights=weights, minlength=bins)
            loads[0] = 0.0
            loads.take(ids, out=n_ue.reshape(-1), mode="clip")
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


def _intersection(a: Box, b: Box) -> Box:
    return (max(a[0], b[0]), min(a[1], b[1]),
            max(a[2], b[2]), min(a[3], b[3]))


def _argmax_rows(rows: Sequence[np.ndarray], boxes: np.ndarray, box: Box,
                 mask: np.ndarray, skip: Sequence[int] = ()
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """First-index argmax of the row stack with the rows in ``skip``
    left out, at the cells of window ``box`` where ``mask`` holds (at
    least one): the value and sector per cell.

    Only the rows whose box meets those cells are read; the rest are
    zero there.  A cell where every row read is zero gets the stack
    argmax's index, the first row not in ``skip``.
    """
    mr, mc = np.nonzero(mask)
    mr += box[0]
    mc += box[2]
    # Clip every box to the cells' bounding box in one pass (nonzero
    # lists cells in row-major order, so the rows come sorted).
    w0, w1, v0, v1 = mr[0], mr[-1] + 1, mc.min(), mc.max() + 1
    clips = np.minimum(np.maximum(boxes, (w0, w0, v0, v0)),
                       (w1, w1, v1, v1))
    ids = [s for s in np.flatnonzero((clips[:, 0] < clips[:, 1])
                                     & (clips[:, 2] < clips[:, 3])).tolist()
           if s not in skip]
    cells = mr * rows[0].shape[1] + mc
    sub = np.zeros((max(len(ids), 1), cells.size), dtype=rows[0].dtype)
    for j, s in enumerate(ids):
        # Cells are in range; "clip" just lets take write into ``sub``.
        rows[s].take(cells, out=sub[j], mode="clip")
    arg = sub.argmax(axis=0)
    top = sub.max(axis=0)      # the value at each first argmax
    sector_of = np.asarray(ids or [0], dtype=np.int32)
    zero = next(s for s in range(len(skip) + 1) if s not in skip)
    return top, np.where(top > 0, sector_of[arg], np.int32(zero))


def _capture(best: np.ndarray, idx: np.ndarray, comparator, box: Box,
             folds, scratch: Tuple[np.ndarray, np.ndarray]) -> None:
    """The serving fold: ``best``/``idx`` (window ``box``) become the
    comparator pair with each changed row folded in.

    Each ``(sector, region, row)`` of ``folds``, in ascending sector
    order, takes the cells of ``region`` where ``row > best | (row ==
    best & sector < idx)``: the first-index tie rule of a stack argmax.
    The tie term fires only where a higher index holds the cell, so it
    is skipped while ``top`` (no lower than any index in the window) is
    not above the sector: always, from the dark anchor.  ``scratch`` is
    two flat boolean buffers of at least the window's size.
    """
    np.copyto(best, comparator[0])
    np.copyto(idx, comparator[1])
    r0, c0 = box[0], box[2]
    top = int(idx.max(initial=0))
    for sector, region, row in folds:
        q0, q1, p0, p1 = region
        if q0 >= q1 or p0 >= p1:
            continue
        b, i = (best, idx) if region == box else (
            best[q0 - r0:q1 - r0, p0 - c0:p1 - c0],
            idx[q0 - r0:q1 - r0, p0 - c0:p1 - c0])
        size = row.size
        wins = np.greater(row, b, out=scratch[0][:size].reshape(row.shape))
        if sector < top:
            tie = np.equal(row, b, out=scratch[1][:size].reshape(row.shape))
            np.greater(i, sector, out=tie, where=tie)
            wins |= tie
        else:
            top = sector
        np.copyto(b, row, where=wins)
        np.copyto(i, sector, where=wins)


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
    """A copy of ``base`` with ``part`` written into window ``win``
    (a copy of ``part`` alone where the window is the whole grid)."""
    if part.shape == base.shape:
        return part.copy()
    out = base.copy()
    out[win] = part
    return out


def _db(ratio: np.ndarray, power: np.ndarray,
        mask: Optional[np.ndarray] = None) -> np.ndarray:
    """``10 log10(ratio)`` in place, ``-inf`` wherever ``power`` is not
    above 0: grids where no sector radiates at all."""
    np.log10(ratio, out=ratio)
    np.multiply(10.0, ratio, out=ratio)
    mask = np.greater(power, 0.0, out=mask)
    np.copyto(ratio, -np.inf, where=np.logical_not(mask, out=mask))
    return ratio


def _dbm_to_mw_scalar(dbm: float) -> float:
    return float(10.0 ** (float(dbm) / 10.0))
