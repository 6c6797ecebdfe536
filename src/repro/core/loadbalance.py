"""Load balancing via the same model and search (paper future work).

Section 8: Magus's machinery can also serve "for load-balancing and
reducing congestion".  Nothing structural changes — the analysis model
already knows each sector's load, and the tuning moves are the same —
only the trigger differs: instead of a sector going off-air, a sector
is *congested*, and the goal is to shed some of its load onto
neighbors without wrecking global utility.

:func:`rebalance` shrinks the hot sector's footprint (power steps
down, never off) while Algorithm-1-style moves on the neighbors keep
the overall utility from degrading more than an operator-set budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..model.network import CellularNetwork, Configuration
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter, SearchStep, TuningResult

__all__ = ["LoadBalanceSettings", "LoadBalanceResult", "rebalance",
           "sector_load_report"]

_EPS = 1e-9


@dataclass(frozen=True)
class LoadBalanceSettings:
    """Offload target and guardrails."""

    target_load_fraction: float = 0.75   # shed load until <= this x initial
    step_db: float = 1.0                 # hot-sector power decrement
    max_steps: int = 20
    utility_budget_fraction: float = 0.02  # tolerated global-utility loss
    neighbor_radius_m: float = 5_000.0
    max_neighbors: Optional[int] = 12


@dataclass
class LoadBalanceResult:
    """Outcome of one rebalancing run."""

    hot_sector: int
    initial_load: float
    final_load: float
    initial_utility: float
    final_utility: float
    tuning: TuningResult

    @property
    def load_reduction(self) -> float:
        """Fraction of the hot sector's load shed."""
        if self.initial_load <= 0:
            return 0.0
        return 1.0 - self.final_load / self.initial_load

    @property
    def utility_cost(self) -> float:
        """Relative global-utility change (negative = improved)."""
        if self.initial_utility == 0:
            return 0.0
        return (self.initial_utility - self.final_utility) \
            / abs(self.initial_utility)


def sector_load_report(evaluator: Evaluator,
                       config: Configuration) -> Dict[int, float]:
    """Served-UE totals per active sector (congestion triage input)."""
    return evaluator.state_of(config).sector_loads()


def rebalance(evaluator: Evaluator, network: CellularNetwork,
              config: Configuration, hot_sector: int,
              settings: LoadBalanceSettings | None = None
              ) -> LoadBalanceResult:
    """Shed load from ``hot_sector`` within a global-utility budget.

    Each step lowers the hot sector's power by ``step_db`` (handing its
    edge grids to neighbors), then — if global utility slipped below
    the budget — tries single neighbor power/tilt compensations.  The
    run stops at the load target, the power floor, or when the budget
    cannot be held (the offending step is rolled back).
    """
    settings = settings or LoadBalanceSettings()
    if not config.is_active(hot_sector):
        raise ValueError(f"sector {hot_sector} is off-air")
    state = evaluator.state_of(config)
    initial_load = state.served_ue_count(hot_sector)
    initial_utility = evaluator.utility_of(config)
    floor_utility = initial_utility - abs(initial_utility) \
        * settings.utility_budget_fraction
    target_load = initial_load * settings.target_load_fraction
    neighbors = network.neighbors_of(
        [hot_sector], radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    min_power = network.sector(hot_sector).min_power_dbm

    steps: List[SearchStep] = []
    current = config
    termination = "max-steps"
    for _ in range(settings.max_steps):
        load = evaluator.state_of(current).served_ue_count(hot_sector)
        if load <= target_load:
            termination = "target-reached"
            break
        old_power = current.power_dbm(hot_sector)
        new_power = max(old_power - settings.step_db, min_power)
        if new_power >= old_power - _EPS:
            termination = "power-floor"
            break
        trial = current.with_power(hot_sector, new_power)
        trial = _compensate(evaluator, network, trial, neighbors,
                            floor_utility)
        if evaluator.utility_of(trial) < floor_utility - _EPS:
            termination = "budget-exhausted"
            break
        steps.append(SearchStep(
            change=ConfigChange(hot_sector, Parameter.POWER,
                                old_power, new_power),
            utility=evaluator.utility_of(trial)))
        current = trial

    final_state = evaluator.state_of(current)
    return LoadBalanceResult(
        hot_sector=hot_sector,
        initial_load=initial_load,
        final_load=final_state.served_ue_count(hot_sector),
        initial_utility=initial_utility,
        final_utility=evaluator.utility_of(current),
        tuning=TuningResult(initial_config=config, final_config=current,
                            initial_utility=initial_utility,
                            final_utility=evaluator.utility_of(current),
                            steps=steps, termination=termination))


def _compensate(evaluator: Evaluator, network: CellularNetwork,
                config: Configuration, neighbors: Sequence[int],
                floor_utility: float) -> Configuration:
    """Single neighbor moves until the utility budget holds (or none help)."""
    guard = 0
    while evaluator.utility_of(config) < floor_utility - _EPS and guard < 24:
        guard += 1
        best = None
        best_f = evaluator.utility_of(config)
        for b in neighbors:
            if not config.is_active(b):
                continue
            sector = network.sector(b)
            power_trial = config.with_power_delta(
                b, 1.0, max_power_dbm=sector.max_power_dbm)
            candidates = [power_trial]
            up = sector.tilt_range.uptilted(config.tilt_deg(b))
            if up != config.tilt_deg(b):
                candidates.append(config.with_tilt(b, up))
            for trial in candidates:
                if trial == config:
                    continue
                f = evaluator.utility_of(trial)
                if f > best_f + _EPS:
                    best, best_f = trial, f
        if best is None:
            break
        config = best
    return config
