"""Offline network planning: make ``C_before`` locally optimal.

The paper's premise ``f(C_before) > f(C_after) >= f(C_upgrade)`` holds
because operators' radio planners have already tuned powers and tilts
— "network planners attempt to maximize coverage and minimize
interference by setting base station configuration parameters"
(Section 1), and "network capacity planners go to great lengths to
place base stations to ensure adequate coverage" (Section 6).

Synthetic deployments start from area-type defaults, which leaves free
utility on the table and would let post-outage tuning *exceed* the
pre-outage utility (recovery ratios above 1 — meaningless under
Formula 7).  :func:`optimize_planned_configuration` closes that gap
with coordinate ascent over per-sector transmit powers (optionally
tilts): after it converges, no single-knob move improves the utility,
which is exactly the fixed point a planning tool leaves the network
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..model.network import CellularNetwork, Configuration
from .evaluation import Evaluator

__all__ = ["PlanningSettings", "optimize_planned_configuration"]

_EPS = 1e-9


@dataclass(frozen=True)
class PlanningSettings:
    """Coordinate-ascent knobs for the offline planning pass."""

    unit_db: float = 1.0
    include_tilt: bool = True     # operators plan tilts too
    max_passes: int = 8
    max_steps_per_sector: int = 40   # line-search cap within one pass


def optimize_planned_configuration(evaluator: Evaluator,
                                   network: CellularNetwork,
                                   config: Configuration,
                                   settings: Optional[PlanningSettings] = None
                                   ) -> Configuration:
    """Coordinate ascent to a single-move local optimum of ``f``.

    Each pass sweeps every sector, trying power up/down by ``unit_db``
    (and, if enabled, one tilt step either way), keeping the best
    improving move.  Stops when a full pass makes no progress or after
    ``max_passes``.

    Each step's trials are scored in one batched pass (windowed on
    clipped packs, whole-grid windows otherwise) against the
    configuration the sector's line search started from: every trial
    differs from it in that sector alone.  Scores are exact, so the
    winner's score is its utility, and only the configuration a line
    search ends at is anchored, by the next line search's first step.
    """
    settings = settings or PlanningSettings()
    f_current = evaluator.utility_of(config)
    for _ in range(settings.max_passes):
        improved = False
        for sector_id in range(config.n_sectors):
            if not config.is_active(sector_id):
                continue
            # Line search: keep taking this sector's best improving
            # move — powers often need to travel many dB, and one step
            # per pass would take dozens of passes to converge.
            start = config
            for _step in range(settings.max_steps_per_sector):
                trials = _moves(network, config, sector_id, settings)
                scores = evaluator.score_candidates(trials, parent=start)
                best_trial = None
                for trial, f_trial in zip(trials, scores):
                    if f_trial > f_current + _EPS:
                        f_current = f_trial
                        best_trial = trial
                if best_trial is None:
                    break
                config = best_trial
                improved = True
        if not improved:
            break
    return config


def _moves(network: CellularNetwork, config: Configuration,
           sector_id: int, settings: PlanningSettings) -> List[Configuration]:
    """Single-knob candidate moves for one sector."""
    sector = network.sector(sector_id)
    out: List[Configuration] = []
    power = config.power_dbm(sector_id)
    up = min(power + settings.unit_db, sector.max_power_dbm)
    down = max(power - settings.unit_db, sector.min_power_dbm)
    if up > power + _EPS:
        out.append(config.with_power(sector_id, up))
    if down < power - _EPS:
        out.append(config.with_power(sector_id, down))
    if settings.include_tilt:
        tilt = config.tilt_deg(sector_id)
        for new_tilt in sector.tilt_range.neighbors(tilt):
            out.append(config.with_tilt(sector_id, new_tilt))
    return out
