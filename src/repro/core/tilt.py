"""Greedy antenna tilt tuning (paper Section 5, "Antenna Tilt Tuning").

The paper's logistically simpler tilt strategy: "we incrementally
uptilt the first neighboring sector until we reach a point where the
utility becomes worse, then we uptilt the second sector, and so on."
Neighbors are visited nearest-first (the order
``CellularNetwork.neighbors_of`` returns).

Whether the per-tilt path-loss matrices are faithful or use the
shared-change-matrix approximation is a property of the
:class:`~repro.model.pathloss.PathLossDatabase` the evaluator was built
on, so the same search code drives both (the tilt-model ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..model.network import CellularNetwork, Configuration
from ..obs import get_logger, get_registry, trace
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter, SearchStep, TuningResult

__all__ = ["TiltSearchSettings", "tune_tilt"]

_EPS = 1e-9
_LOG = get_logger("core.tilt")


@dataclass(frozen=True)
class TiltSearchSettings:
    """Bounds of the greedy uptilt pass."""

    max_steps_per_sector: int = 16     # full sweep of the tilt catalogue
    neighbor_radius_m: float = 5_000.0
    max_neighbors: Optional[int] = 16
    allow_downtilt: bool = False       # paper only uptilts neighbors


def tune_tilt(evaluator: Evaluator, network: CellularNetwork,
              start_config: Configuration,
              target_sectors: Sequence[int],
              settings: TiltSearchSettings | None = None) -> TuningResult:
    """Greedy per-sector uptilt from ``start_config``.

    For each neighbor in nearest-first order, keep uptilting one
    catalogue step while the global utility improves; the first
    worsening step is reverted and the search moves to the next
    neighbor.  ``allow_downtilt=True`` additionally tries downtilt
    steps when uptilt stops helping (an extension knob; off by default
    to match the paper).
    """
    settings = settings or TiltSearchSettings()
    neighbors = network.neighbors_of(
        target_sectors, radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    config = start_config
    f_current = evaluator.utility_of(config)
    initial_utility = f_current
    steps: List[SearchStep] = []

    with trace.span("magus.tilt_pass", neighbors=len(neighbors)):
        for b in neighbors:
            if not config.is_active(b):
                continue
            config, f_current = _sweep_sector(
                evaluator, network, config, f_current, b, steps,
                direction="up", settings=settings)
            if settings.allow_downtilt:
                config, f_current = _sweep_sector(
                    evaluator, network, config, f_current, b, steps,
                    direction="down", settings=settings)

    get_registry().gauge("magus.search.tilt.final_utility").set(f_current)
    return TuningResult(initial_config=start_config, final_config=config,
                        initial_utility=initial_utility,
                        final_utility=f_current, steps=steps,
                        termination="converged")


def _sweep_sector(evaluator: Evaluator, network: CellularNetwork,
                  config: Configuration, f_current: float, sector_id: int,
                  steps: List[SearchStep], direction: str,
                  settings: TiltSearchSettings):
    """Tilt ``sector_id`` step by step while utility improves.

    The whole catalogue ladder is scored in one batched pass (every
    rung differs from the sweep's starting configuration in this one
    sector only), then walked greedily; each accepted rung is confirmed
    through the canonical memoized path before it is committed, so the
    recorded utilities are exact.
    """
    registry = get_registry()
    tilt_range = network.sector(sector_id).tilt_range
    ladder = []
    tilt = config.tilt_deg(sector_id)
    for _ in range(settings.max_steps_per_sector):
        new_tilt = (tilt_range.uptilted(tilt) if direction == "up"
                    else tilt_range.downtilted(tilt))
        if new_tilt == tilt:               # catalogue edge reached
            break
        ladder.append(new_tilt)
        tilt = new_tilt
    if not ladder:
        return config, f_current
    trials = [config.with_tilt(sector_id, t) for t in ladder]
    scores = evaluator.score_candidates(trials, parent=config)
    for new_tilt, trial, score in zip(ladder, trials, scores):
        if score <= f_current + _EPS:      # worse (or flat): revert, stop
            break
        f_trial = evaluator.utility_of(trial)
        if f_trial <= f_current + _EPS:    # batch screen disagreed: stop
            break
        steps.append(SearchStep(
            change=ConfigChange(sector_id=sector_id,
                                parameter=Parameter.TILT,
                                old_value=config.tilt_deg(sector_id),
                                new_value=new_tilt),
            utility=f_trial, candidates_evaluated=1))
        registry.counter("magus.search.tilt.accepted_steps").inc()
        _LOG.info("tilt sector=%d knob=tilt delta_utility=%+.6g evals=1 "
                  "tilt_deg=%.1f", sector_id, f_trial - f_current, new_tilt)
        config = trial
        f_current = f_trial
    return config, f_current
