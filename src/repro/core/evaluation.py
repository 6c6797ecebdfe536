"""The Evaluation component (paper Figure 6).

:class:`Evaluator` binds the analysis engine, the fixed UE raster and a
utility function, and answers "how good is configuration C?" — the
feedback that "guides the selection of configurations iteratively until
Magus converges to a satisfactory configuration".

Configurations are immutable and hashable, so results are memoized:
search algorithms freely re-ask about configurations they have seen
(e.g. the incumbent at every iteration) without re-running the model.
The evaluator also counts *distinct* model evaluations, which is the
cost metric of the search-heuristic ablation.

Three evaluation strategy names are accepted (``strategy=`` knob):

``"delta"`` (default)
    Cache-missing configurations are answered incrementally when they
    differ from a recently evaluated incumbent in a single sector
    (:meth:`AnalysisEngine.evaluate_delta` — bitwise identical to the
    full pass), falling back to a full evaluation otherwise
    (``magus.engine.delta_fallbacks`` counts the misses).

``"full"``
    Every cache miss runs the complete Formula 1-4 pass — the ablation
    baseline, also reachable via the CLI's ``--no-delta``.

``"parallel"``
    An alias of ``"delta"``, kept so that callers which pair it with
    ``Magus(workers=N)`` keep working.  Parallelism lives one level up,
    at the grain of whole mitigations
    (:meth:`UpgradePlanner.sweep_scenarios`); an evaluator always
    scores in-process.

:meth:`score_candidates` scores single-sector candidates through their
region-of-influence windows (:func:`repro.model.roi.score_candidate`,
the whole grid where a footprint is unknown); these scores are never
cached, so accepted candidates are always confirmed canonically.
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
        self._cache: "OrderedDict[Configuration, Tuple[NetworkState, float]]" = \
            OrderedDict()
        self._cache_size = cache_size
        # Most-recent delta anchors, parent-first: enough to cover the
        # search pattern of one incumbent probed by many one-sector
        # trials, and chains of one-sector moves (gradual compensation).
        self._incumbents: List[DeltaIncumbent] = []
        # Cached ROI baselines, keyed like the anchors they derive
        # from — the weighted per-UE raster in each is the expensive
        # part worth keeping across score_candidates calls.
        self._roi_baselines: "OrderedDict[tuple, _roi.RoiBaseline]" = \
            OrderedDict()
        # Always-on distinct-evaluation counter; searches meter their
        # spent cost against it via :meth:`cost_meter`.
        self._eval_counter = Counter("evaluator.model_evaluations")

    @property
    def model_evaluations(self) -> int:
        """Distinct (cache-missing) model evaluations performed."""
        return self._eval_counter.value

    @model_evaluations.setter
    def model_evaluations(self, value: int) -> None:
        self._eval_counter.reset(value)

    def cost_meter(self) -> CostMeter:
        """A zero-point meter over the model-evaluation counter.

        ``meter = evaluator.cost_meter(); ...; meter.spent()`` reads how
        many distinct evaluations the enclosed work consumed — the
        search algorithms' cost metric — without the before/after
        counter-diff idiom.
        """
        return self._eval_counter.meter()

    # ------------------------------------------------------------------
    def state_of(self, config: Configuration) -> NetworkState:
        """The full snapshot for ``config`` (memoized)."""
        return self._lookup(config)[0]

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

    # ------------------------------------------------------------------
    def score_candidates(self, configs: Sequence[Configuration],
                         parent: Optional[Configuration] = None
                         ) -> List[float]:
        """``f(C)`` for each candidate, windowed where possible.

        Candidates that differ from a recent incumbent in exactly one
        sector are scored through their region-of-influence windows
        against that incumbent's :class:`~repro.model.roi.RoiBaseline`;
        the rest (and everything under ``strategy="full"`` or a custom
        ``UtilityFunction.evaluate`` override) go through the canonical
        memoized path.  Windowed scores equal the dense batch reference
        (:meth:`AnalysisEngine.evaluate_batch`) bit for bit; they are
        ranking-grade — bitwise equal to the canonical value except
        when an SINR lands exactly on a CQI threshold — and are **not**
        cached, so callers must confirm the winning candidate via
        :meth:`utility_of` before accepting.

        ``parent`` is the configuration the candidates were derived
        from.  When no delta anchor holds it (a memo-cache hit whose
        anchor was evicted), it is anchored once here — otherwise
        every candidate, two sectors from any anchor, would pay its
        own full evaluation.  ``magus.evaluator.reanchors`` counts
        these.
        """
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
            epoch = self.engine.pathloss.cache_epoch
            if parent is not None and not any(
                    inc.config == parent and inc.epoch == epoch
                    for inc in self._incumbents):
                registry.counter("magus.evaluator.reanchors").inc()
                self._anchor(parent)
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
                self._eval_counter.inc(len(group))
                registry.counter(
                    "magus.evaluator.model_evaluations").inc(len(group))
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
        """Score single-sector ``configs`` through their ROI windows.

        ``changed`` names the sector each config flips vs.
        ``incumbent``.
        """
        baseline = self._roi_baseline(incumbent)
        windows = [(sector, self.engine.roi_window(incumbent, config,
                                                   sector))
                   for config, sector in zip(configs, changed)]
        return _roi.score_windows(self.engine, baseline, configs, windows,
                                  self.ue_density, self.utility)

    def _roi_baseline(self,
                      incumbent: DeltaIncumbent) -> _roi.RoiBaseline:
        # Ring incumbents all ran ``_finish``, so the baseline exists.
        key = (incumbent.config, incumbent.epoch)
        hit = self._roi_baselines.get(key)
        if hit is not None:
            self._roi_baselines.move_to_end(key)
            return hit
        baseline = _roi.RoiBaseline.from_incumbent(
            incumbent, self.utility, self.ue_density,
            self.engine.sector_boxes(incumbent.config))
        self._roi_baselines[key] = baseline
        # Mirror the two-anchor incumbent ring.
        while len(self._roi_baselines) > 2:
            self._roi_baselines.popitem(last=False)
        return baseline

    # ------------------------------------------------------------------
    def _lookup(self, config: Configuration) -> Tuple[NetworkState, float]:
        hit = self._cache.get(config)
        if hit is not None:
            self._cache.move_to_end(config)
            get_registry().counter("magus.evaluator.cache_hits").inc()
            return hit
        if self.strategy == "full":
            state = self.engine.evaluate(config, self.ue_density)
        else:                     # "delta" and "parallel" share the path
            state = self._evaluate_delta(config)
        value = self.utility.evaluate(state)
        self._eval_counter.inc()
        get_registry().counter("magus.evaluator.model_evaluations").inc()
        entry = (state, value)
        if self._cache_size > 0:
            self._cache[config] = entry
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return entry

    def _evaluate_delta(self, config: Configuration) -> NetworkState:
        """Incremental evaluation against a recent incumbent."""
        return self._anchor(config).state

    def _anchor(self, config: Configuration) -> DeltaIncumbent:
        """Evaluate ``config`` into the delta-anchor ring.

        Incremental when a recent incumbent is a single-sector parent
        of ``config``; otherwise a full evaluation
        (``magus.engine.delta_fallbacks``).  Leaves the memo cache and
        the distinct-evaluation counter to the caller.
        """
        for incumbent in list(self._incumbents):
            result = self.engine.evaluate_delta(incumbent, config,
                                                self.ue_density)
            if result is not None:
                child = result[1]
                self._remember(incumbent, child)
                return child
        get_registry().counter("magus.engine.delta_fallbacks").inc()
        _, incumbent = self.engine.evaluate_with_incumbent(
            config, self.ue_density)
        self._remember(None, incumbent)
        return incumbent

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

    # ------------------------------------------------------------------
    def received_power_tensor(self, config: Configuration,
                              sectors: Optional[Sequence[int]] = None
                              ) -> np.ndarray:
        """Per-sector RP planes for ``config`` (candidate pre-filtering).

        Exposed for Algorithm 1's cheap "can sector b possibly improve
        an affected grid?" test, which needs each candidate sector's
        received power, not just the serving one.  ``sectors`` selects
        rows (default: every sector, in order).
        """
        return self.engine._received_power_dbm(config, sectors)
