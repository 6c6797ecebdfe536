"""Reactive feedback-based tuning (the SON-style comparator).

The solution-space foil of Sections 2 and 6: after the sector goes
off-air, a feedback controller "iteratively tunes configurations,
relying, at each iteration, on measured performance after the previous
iteration", one single-unit change on one neighbor per step.

Two step counts are reported, matching the paper's Figure 12 analysis:

* **idealized** — the controller magically picks the best single move
  each iteration (the paper grants this by using the model as oracle);
  one measurement round per applied move.
* **realistic** — each iteration must *measure* every candidate move
  before picking (there is no model to rank them), so the measurement
  cost per applied move is the candidate count.  This is how the
  paper's "27 steps idealized / 310 steps realistic" gap arises.

Each measurement round costs minutes of KPI collection
(``measurement_minutes``), which converts step counts into the
"could recover performance only after two hours" wall-clock estimate.

``reactive_feedback`` also accepts a warm start — the paper's future
work of "using Magus's computed configuration as a starting point for
feedback control".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..model.network import CellularNetwork, Configuration
from ..obs import get_logger, get_registry
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter

__all__ = ["FeedbackSettings", "FeedbackResult", "reactive_feedback"]

_EPS = 1e-9
_LOG = get_logger("core.feedback")


@dataclass(frozen=True)
class FeedbackSettings:
    """Candidate move set and measurement cost of the controller."""

    power_unit_db: float = 1.0
    include_tilt: bool = True
    neighbor_radius_m: float = 5_000.0
    max_neighbors: Optional[int] = 16
    max_steps: int = 400
    measurement_minutes: float = 5.0


@dataclass
class FeedbackResult:
    """Trace and cost accounting of one feedback run."""

    final_config: Configuration
    utility_trace: List[float]        # utility after each applied move
    idealized_steps: int
    realistic_steps: int              # candidate measurements consumed
    changes: List[ConfigChange]
    measurement_minutes: float

    @property
    def final_utility(self) -> float:
        return self.utility_trace[-1]

    @property
    def idealized_hours(self) -> float:
        """Wall-clock of the oracle-guided controller."""
        return self.idealized_steps * self.measurement_minutes / 60.0

    @property
    def realistic_hours(self) -> float:
        """Wall-clock when every candidate must be measured."""
        return self.realistic_steps * self.measurement_minutes / 60.0


def reactive_feedback(evaluator: Evaluator, network: CellularNetwork,
                      start_config: Configuration,
                      target_sectors: Sequence[int],
                      settings: FeedbackSettings | None = None,
                      injector=None) -> FeedbackResult:
    """Hill-climb single-unit moves until no move improves utility.

    ``injector`` (a :class:`~repro.faults.FaultInjector`) perturbs
    every *measured* utility with its measurement-noise spec — the
    controller then ranks and accepts moves on dirty readings, exactly
    the failure mode that makes real SON tuning slow and wobbly.  The
    reported trace contains the noisy measurements (that is all a
    feedback controller ever sees).
    """
    settings = settings or FeedbackSettings()
    measure = (injector.measure if injector is not None
               else lambda value: value)
    neighbors = network.neighbors_of(
        target_sectors, radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    config = start_config
    f_current = measure(evaluator.utility_of(config))
    utility_trace = [f_current]
    changes: List[ConfigChange] = []
    idealized = 0
    realistic = 0

    registry = get_registry()
    with registry.span("magus.feedback_pass", neighbors=len(neighbors)):
        for iteration in range(settings.max_steps):
            candidates = _candidate_moves(network, config, neighbors,
                                          settings)
            if not candidates:
                break
            realistic += len(candidates)  # every candidate gets measured
            registry.counter("magus.feedback.realistic_steps").inc(
                len(candidates))
            best: Optional[Tuple[float, Configuration, ConfigChange]] = None
            for trial_cfg, change in candidates:
                f_trial = measure(evaluator.utility_of(trial_cfg))
                if best is None or f_trial > best[0]:
                    best = (f_trial, trial_cfg, change)
            assert best is not None
            if best[0] <= f_current + _EPS:   # local optimum reached
                break
            idealized += 1
            registry.counter("magus.feedback.idealized_steps").inc()
            _LOG.info("feedback iteration=%d sector=%d knob=%s "
                      "delta_utility=%+.6g", iteration + 1,
                      best[2].sector_id, best[2].parameter.value,
                      best[0] - f_current)
            f_current, config = best[0], best[1]
            changes.append(best[2])
            utility_trace.append(f_current)

    return FeedbackResult(final_config=config, utility_trace=utility_trace,
                          idealized_steps=idealized,
                          realistic_steps=realistic, changes=changes,
                          measurement_minutes=settings.measurement_minutes)


def _candidate_moves(network: CellularNetwork, config: Configuration,
                     neighbors: Sequence[int], settings: FeedbackSettings
                     ) -> List[Tuple[Configuration, ConfigChange]]:
    """All single-unit moves available from ``config``."""
    moves: List[Tuple[Configuration, ConfigChange]] = []
    for b in neighbors:
        if not config.is_active(b):
            continue
        sector = network.sector(b)
        old_power = config.power_dbm(b)
        trial = config.with_power_delta(b, settings.power_unit_db,
                                        max_power_dbm=sector.max_power_dbm)
        if trial.power_dbm(b) > old_power + _EPS:
            moves.append((trial, ConfigChange(
                sector_id=b, parameter=Parameter.POWER,
                old_value=old_power, new_value=trial.power_dbm(b))))
        if settings.include_tilt:
            old_tilt = config.tilt_deg(b)
            new_tilt = sector.tilt_range.uptilted(old_tilt)
            if new_tilt != old_tilt:
                moves.append((config.with_tilt(b, new_tilt), ConfigChange(
                    sector_id=b, parameter=Parameter.TILT,
                    old_value=old_tilt, new_value=new_tilt)))
    return moves
