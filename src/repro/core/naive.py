"""The naive sequential power baseline (paper Section 6, Figure 13).

"We compare it to a naive approach similar to the one we use for
tilt-tuning: it increases transmission power by 1 dB for the first
neighbor at each step until utility worsens, then does the same for the
second neighbor and so on."  Figure 13's improvement-ratio CDF divides
Magus's recovery by this baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..model.network import CellularNetwork, Configuration
from ..obs import get_logger, get_registry
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter, SearchStep, TuningResult

__all__ = ["NaiveSettings", "tune_naive"]

_EPS = 1e-9
_LOG = get_logger("core.naive")


@dataclass(frozen=True)
class NaiveSettings:
    """Step size and neighbor-set bounds of the naive sweep."""

    unit_db: float = 1.0
    neighbor_radius_m: float = 5_000.0
    max_neighbors: Optional[int] = 16
    max_steps_per_sector: int = 30


def tune_naive(evaluator: Evaluator, network: CellularNetwork,
               start_config: Configuration,
               target_sectors: Sequence[int],
               settings: NaiveSettings | None = None) -> TuningResult:
    """One pass of per-neighbor power ramping, nearest neighbor first."""
    settings = settings or NaiveSettings()
    neighbors = network.neighbors_of(
        target_sectors, radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    config = start_config
    f_current = evaluator.utility_of(config)
    initial_utility = f_current
    steps: List[SearchStep] = []

    with get_registry().span("magus.naive_pass", neighbors=len(neighbors)):
        for b in neighbors:
            if not config.is_active(b):
                continue
            max_power = network.sector(b).max_power_dbm
            for _ in range(settings.max_steps_per_sector):
                old_power = config.power_dbm(b)
                trial = config.with_power_delta(b, settings.unit_db,
                                                max_power_dbm=max_power)
                if trial.power_dbm(b) <= old_power + _EPS:   # at the cap
                    break
                f_trial = evaluator.utility_of(trial)
                if f_trial <= f_current + _EPS:   # worse: revert, next
                    break
                steps.append(SearchStep(
                    change=ConfigChange(sector_id=b,
                                        parameter=Parameter.POWER,
                                        old_value=old_power,
                                        new_value=trial.power_dbm(b)),
                    utility=f_trial))
                _LOG.info("naive sector=%d knob=power delta_utility=%+.6g",
                          b, f_trial - f_current)
                config = trial
                f_current = f_trial

    return TuningResult(initial_config=start_config, final_config=config,
                        initial_utility=initial_utility,
                        final_utility=f_current, steps=steps,
                        termination="converged")
