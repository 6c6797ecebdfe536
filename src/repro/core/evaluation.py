"""The Evaluation component (paper Figure 6).

:class:`Evaluator` binds the analysis engine, the fixed UE raster and a
utility function, and answers "how good is configuration C?" — the
feedback that "guides the selection of configurations iteratively until
Magus converges to a satisfactory configuration".

Configurations are immutable and hashable, so results are memoized in
one ``f(C)`` memo, an LRU bound by ``cache_size``: search algorithms
freely re-ask about configurations they have seen (e.g. the incumbent
at every iteration) without re-running the model.  A memo hit counts
``magus.evaluator.cache_hits``; a miss is one *distinct* model
evaluation, windowed or canonical — the cost metric of the
search-heuristic ablation.  The memo answers for one path-loss model:
when ``PathLossDatabase.cache_epoch`` moves (an in-place raster edit,
such as a fault injection), the memo, the delta anchors and their ROI
baselines are all dropped before the next lookup or scoring call.

The memo keeps every value, but not every state.  A state a caller
asked for through :meth:`~Evaluator.state_of` (or
:meth:`~Evaluator.rescore`) is *pinned*: held for as long as its entry
lives.  Every other entry holds its value alone, whether it came from
:meth:`~Evaluator.utility_of`, which only needs the float, or from a
windowed score (below); the two-entry delta ring holds the states of
its anchors and answers a configuration one of them holds.  When
``state_of`` meets an entry without a state that no ring anchor holds,
it rebuilds it: the configuration is anchored into the ring like a
fresh evaluation, but the memo already counted its one model
evaluation, so neither the distinct-evaluation counter nor any cost
meter moves; ``magus.evaluator.state_rebuilds`` counts it.  Under
``strategy="full"`` no ring holds a state, so the memo pins every one.

A ring may start from an adopted anchor (:meth:`~Evaluator.adopt`): a
study area keeps the anchor of the dense evaluation of ``C_before``
that :func:`~repro.synthetic.market.build_area` runs anyway, and
:meth:`~repro.core.magus.Magus.from_area` hands it over, so a ticket
starts from it instead of a dense evaluation of its own.  Its first
lookup of ``C_before`` is still a memo miss and counts its one distinct
evaluation, so plans, utilities and cost meters read as on a cold
ring; only the engine sees one dense evaluation fewer.

Three evaluation strategy names are accepted (``strategy=`` knob):

``"delta"`` (default)
    Cache-missing configurations are answered incrementally from the
    recently evaluated incumbent they differ from in the fewest sectors
    (:meth:`AnalysisEngine.evaluate_delta` — bitwise identical to the
    full pass).  A full evaluation runs only when no incumbent is
    usable, as on a cold ring (``magus.engine.delta_fallbacks`` counts
    these).

``"full"``
    Every cache miss runs the complete Formula 1-4 pass — the ablation
    baseline, also reachable via the CLI's ``--no-delta``.

``"parallel"``
    An alias of ``"delta"``: parallelism lives one level up, at whole
    mitigations (:meth:`UpgradePlanner.sweep_scenarios`).

:meth:`score_candidates` scores single-sector candidates through their
region-of-influence windows (the whole grid where a footprint is
unknown), each group sharing an incumbent in one pass of the engine's
windowed kernel, through :func:`repro.model.roi.score_windows`, against
a :class:`~repro.model.roi.RoiBaseline`, a view of that incumbent.  A
delta runs the same kernel.  A windowed score walks the same pairwise
sector-sum tree as a full evaluation, so it equals
:meth:`~Evaluator.utility_of` bit for bit whatever its anchor, and it
goes into the ``f(C)`` memo under its candidate: searches take a
winner's score as its utility, and a later ``utility_of`` is a hit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine, DeltaIncumbent
from ..model.network import Configuration
from ..model.snapshot import NetworkState
from ..obs import Counter, CostMeter, get_registry
from .utility import UtilityFunction, get_utility

__all__ = ["Evaluator", "EVALUATION_STRATEGIES"]

EVALUATION_STRATEGIES = ("full", "delta", "parallel")

#: A memo entry: the pinned state (``None`` when unpinned) and f(C).
_Entry = Tuple[Optional[NetworkState], float]


class Evaluator:
    """Memoizing ``f(C)`` oracle over a fixed engine + UE population."""

    def __init__(self, engine: AnalysisEngine, ue_density: np.ndarray,
                 utility: UtilityFunction | str = "performance",
                 cache_size: int = 512,
                 strategy: str = "delta") -> None:
        if ue_density.shape != engine.grid.shape:
            raise ValueError("UE raster does not match engine grid")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if strategy not in EVALUATION_STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; "
                f"expected one of {EVALUATION_STRATEGIES}")
        self.engine = engine
        self.ue_density = np.asarray(ue_density, dtype=float)
        self.utility = (get_utility(utility)
                        if isinstance(utility, str) else utility)
        self.strategy = strategy
        # config -> (pinned state or None, f(C)); see the module
        # docstring for which states are pinned.
        self._cache: "OrderedDict[Configuration, _Entry]" = OrderedDict()
        self._cache_size = cache_size
        # The path-loss cache epoch every memoized answer was read at.
        self._epoch = engine.pathloss.cache_epoch
        # Most-recent delta anchors, parent-first: enough to cover the
        # search pattern of one incumbent probed by many one-sector
        # trials, and chains of moves (tilt ladders, gradual steps).
        self._incumbents: List[DeltaIncumbent] = []
        # ROI baselines of the ring anchors, keyed by their configs —
        # the weighted per-UE raster in each is the expensive part
        # worth keeping across score_candidates calls.
        self._roi_baselines: \
            "OrderedDict[Configuration, _roi.RoiBaseline]" = OrderedDict()
        # Always-on distinct-evaluation counter; searches meter their
        # spent cost against it via :meth:`cost_meter`.
        self._eval_counter = Counter("evaluator.model_evaluations")

    @property
    def model_evaluations(self) -> int:
        """Distinct (cache-missing) model evaluations performed."""
        return self._eval_counter.value

    def cost_meter(self) -> CostMeter:
        """A zero-point meter over the model-evaluation counter: its
        ``spent()`` is the distinct evaluations the enclosed work took,
        a plan's search cost (``MitigationResult.evaluations``)."""
        return self._eval_counter.meter()

    # ------------------------------------------------------------------
    def state_of(self, config: Configuration) -> NetworkState:
        """The full snapshot for ``config`` (memoized and pinned)."""
        return self._lookup(config, pin=True)[0]

    def utility_of(self, config: Configuration) -> float:
        """``f(C)`` under the bound utility (memoized)."""
        return self._lookup(config)[1]

    def rescore(self, config: Configuration,
                utility: UtilityFunction | str) -> float:
        """``f(C)`` under a *different* utility, reusing the snapshot.

        This is how Table 2's cross-recovery cells are computed: the
        plan is found under one utility and re-scored under another.
        """
        other = get_utility(utility) if isinstance(utility, str) else utility
        return other.evaluate(self.state_of(config))

    def with_utility(self, utility: UtilityFunction | str) -> "Evaluator":
        """A sibling evaluator sharing the engine and UE raster."""
        return Evaluator(self.engine, self.ue_density, utility,
                         cache_size=self._cache_size,
                         strategy=self.strategy)

    def adopt(self, incumbent: DeltaIncumbent) -> bool:
        """Put a finished anchor, such as a study area's ``C_before``,
        into the ring (see the module docstring); moves no counter.
        Refused (``False``) under ``strategy="full"``, from another
        cache epoch, or over another UE raster object."""
        self._check_epoch()
        if (self.strategy == "full" or incumbent.epoch != self._epoch
                or incumbent.state.ue_density is not self.ue_density):
            return False
        self._remember(None, incumbent)
        return True

    # ------------------------------------------------------------------
    def score_candidates(self, configs: Sequence[Configuration],
                         parent: Optional[Configuration] = None
                         ) -> List[float]:
        """``f(C)`` for each candidate, windowed where possible.

        Memo hits are answered from the ``f(C)`` memo.  Candidates one
        sector from a ring anchor are scored through their
        region-of-influence windows against its
        :class:`~repro.model.roi.RoiBaseline`; the rest (and everything
        under ``strategy="full"`` or a custom ``UtilityFunction.evaluate``
        override) go through the canonical memoized path.  Every score
        equals :meth:`utility_of` of its candidate bit for bit, whichever
        anchor it was scored against, and is memoized under its
        candidate; each miss counts one model evaluation.

        ``parent`` is a configuration the candidates are one sector
        from, typically where the caller's line search or ladder
        started.  When no ring anchor holds it, it is anchored here, or
        every candidate would pay its own canonical evaluation: through
        the ``f(C)`` memo if it is not memoized (counted once), else
        re-anchored (``magus.evaluator.reanchors``).
        """
        self._check_epoch()
        configs = list(configs)
        scores: List[Optional[float]] = [None] * len(configs)
        registry = get_registry()
        remaining: List[int] = []
        for i, config in enumerate(configs):
            hit = self._cache.get(config)
            if hit is not None:
                self._cache.move_to_end(config)
                registry.counter("magus.evaluator.cache_hits").inc()
                scores[i] = hit[1]
            else:
                remaining.append(i)
        if remaining and self._batchable():
            if parent is not None and not any(
                    inc.config == parent for inc in self._incumbents):
                if parent in self._cache:
                    registry.counter("magus.evaluator.reanchors").inc()
                    self._anchor(parent)
                else:
                    self._lookup(parent)
            for incumbent in list(self._incumbents):
                group: List[int] = []
                changed: List[int] = []
                for i in remaining:
                    sector = self.engine.single_sector_change(
                        incumbent, configs[i])
                    if sector is not None:
                        group.append(i)
                        changed.append(sector)
                if not group:
                    continue
                values = self._score_windowed(
                    incumbent, [configs[i] for i in group], changed)
                for i, value in zip(group, values):
                    scores[i] = value
                    self._store(configs[i], None, value)
                self._count(len(group))
                remaining = [i for i in remaining if scores[i] is None]
                if not remaining:
                    break
        for i in remaining:
            scores[i] = self.utility_of(configs[i])
        return [float(s) for s in scores]

    def _batchable(self) -> bool:
        # A custom ``evaluate`` override may inspect the whole state;
        # the windowed scorer only reduces per-UE rate terms.
        return (self.strategy in ("delta", "parallel")
                and type(self.utility).evaluate is UtilityFunction.evaluate)

    def _score_windowed(self, incumbent: DeltaIncumbent,
                        configs: Sequence[Configuration],
                        changed: Sequence[int]) -> List[float]:
        """Score single-sector ``configs`` (``changed``: the sector each
        flips) through their ROI windows against the baseline of ring
        anchor ``incumbent``, kept until ``_remember`` drops it."""
        baseline = (self._roi_baselines.pop(incumbent.config, None)
                    or _roi.RoiBaseline.from_incumbent(
                        incumbent, self.utility, self.ue_density))
        self._roi_baselines[incumbent.config] = baseline
        windows = [(sector, self.engine.roi_window(incumbent, config,
                                                   sector))
                   for config, sector in zip(configs, changed)]
        return _roi.score_windows(self.engine, baseline, configs, windows,
                                  self.ue_density, self.utility)

    # ------------------------------------------------------------------
    def _check_epoch(self) -> None:
        """Drop every memoized answer once the path-loss caches moved
        to a new epoch: they were read from the old rasters."""
        epoch = self.engine.pathloss.cache_epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._cache.clear()
            self._incumbents = []
            self._roi_baselines.clear()

    def _count(self, n: int) -> None:
        """Count ``n`` distinct model evaluations (meters and registry)."""
        self._eval_counter.inc(n)
        get_registry().counter("magus.evaluator.model_evaluations").inc(n)

    def _store(self, config: Configuration,
               state: Optional[NetworkState], value: float) -> None:
        """Memoize ``config`` (when the memo has room at all), evicting
        the least recently used entries past ``cache_size``."""
        if self._cache_size > 0:
            self._cache[config] = (state, value)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def _lookup(self, config: Configuration, pin: bool = False
                ) -> Tuple[Optional[NetworkState], float]:
        """``config``'s memo entry ``(state, f(C))``, the state ``None``
        on a hit without ``pin``; with ``pin`` the entry keeps one."""
        self._check_epoch()
        hit = self._cache.get(config)
        if hit is not None:
            self._cache.move_to_end(config)
            get_registry().counter("magus.evaluator.cache_hits").inc()
            state, value = hit
            if not pin:
                return None, value
            if state is None:
                state = self._anchor(config, rebuild=True).state
                self._cache[config] = (state, value)
            return state, value
        if self.strategy == "full":
            state = self.engine.evaluate(config, self.ue_density)
        else:                     # "delta" and "parallel" share the path
            state = self._anchor(config).state
        value = self.utility.evaluate(state)
        self._count(1)
        self._store(config, state if pin or self.strategy == "full"
                    else None, value)
        return state, value

    def _anchor(self, config: Configuration,
                rebuild: bool = False) -> DeltaIncumbent:
        """Evaluate ``config`` into the delta-anchor ring.

        A ring anchor holding ``config`` answers as it is, the ring
        order kept; else a delta from the first ring incumbent with the
        fewest changed sectors, or a full evaluation when none is usable
        (``magus.engine.delta_fallbacks``).  A one-sector child is
        remembered with its parent, any other result where a full
        evaluation's would go, so the ring does not depend on how a
        state was computed.  The memo and the distinct-evaluation
        counter are the caller's; ``rebuild`` (a memoized ``config``
        whose entry holds no state) counts a re-evaluation in
        ``magus.evaluator.state_rebuilds``.
        """
        parent, fewest = None, None
        for incumbent in self._incumbents:
            if incumbent.config == config:
                return incumbent
            changed = self.engine.changed_sectors(incumbent, config)
            if changed is not None and (fewest is None
                                        or len(changed) < len(fewest)):
                parent, fewest = incumbent, changed
        if rebuild:
            get_registry().counter("magus.evaluator.state_rebuilds").inc()
        if parent is not None:
            child = self.engine.evaluate_delta(parent, config,
                                               self.ue_density)[1]
        else:
            get_registry().counter("magus.engine.delta_fallbacks").inc()
            child = self.engine.evaluate_with_incumbent(
                config, self.ue_density)[1]
        self._remember(parent if fewest is not None and len(fewest) == 1
                       else None, child)
        return child

    def _remember(self, parent: Optional[DeltaIncumbent],
                  child: DeltaIncumbent) -> None:
        """Keep (parent, child) as the delta anchors, parent first.

        Parent-first matters: a search probes one incumbent with many
        one-sector trials, so the shared parent must survive each
        trial's arrival; keeping the child too makes one-sector *chains*
        (tilt ladders, gradual compensation runs) incremental as well.
        """
        ring = [child] if parent is None else [parent, child]
        configs = {inc.config for inc in ring}
        ring.extend(inc for inc in self._incumbents
                    if inc.config not in configs)
        self._incumbents = ring[:2]
        # A baseline is only read through a ring anchor, and it pins
        # its incumbent's rows and sum-tree planes.
        anchors = {inc.config for inc in self._incumbents}
        for key in [key for key in self._roi_baselines
                    if key not in anchors]:
            del self._roi_baselines[key]
