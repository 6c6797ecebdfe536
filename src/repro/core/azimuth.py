"""Greedy azimuth tuning (extension; cf. paper Section 7).

The cell-outage-compensation literature the paper builds on tunes
"the transmission power, antenna tilt and antenna azimuth angle"; the
paper itself restricts Magus to power and tilt.  This extension adds
the third knob: rotating a neighbor's horizontal pattern toward the
dead sector's footprint trades the neighbor's flank coverage for
signal where it is needed.

Mechanically the search mirrors the greedy tilt pass: neighbors are
visited nearest-first and each is swept in ``step_deg`` rotations
(either direction) while the global utility improves.  Mechanical
azimuth changes are slow and coarse in the field, so the sweep is
bounded by ``max_offset_deg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..model.network import CellularNetwork, Configuration
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter, SearchStep, TuningResult

__all__ = ["AzimuthSearchSettings", "tune_azimuth"]

_EPS = 1e-9


@dataclass(frozen=True)
class AzimuthSearchSettings:
    """Bounds of the greedy azimuth pass."""

    step_deg: float = 10.0
    max_offset_deg: float = 60.0        # mechanical/operational limit
    neighbor_radius_m: float = 5_000.0
    max_neighbors: Optional[int] = 16


def tune_azimuth(evaluator: Evaluator, network: CellularNetwork,
                 start_config: Configuration,
                 target_sectors: Sequence[int],
                 settings: AzimuthSearchSettings | None = None
                 ) -> TuningResult:
    """Greedy per-sector azimuth rotation from ``start_config``."""
    settings = settings or AzimuthSearchSettings()
    if settings.step_deg <= 0:
        raise ValueError("step_deg must be positive")
    neighbors = network.neighbors_of(
        target_sectors, radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    config = start_config
    f_current = evaluator.utility_of(config)
    initial_utility = f_current
    steps: List[SearchStep] = []

    for b in neighbors:
        if not config.is_active(b):
            continue
        # Pick the better rotation direction with one probe each, then
        # keep stepping that way while utility improves.
        direction = _better_direction(evaluator, config, b,
                                      settings, f_current)
        if direction == 0.0:
            continue
        while True:
            current_offset = config.azimuth_offset_deg(b)
            new_offset = current_offset + direction * settings.step_deg
            if abs(new_offset) > settings.max_offset_deg + _EPS:
                break
            trial = config.with_azimuth_offset(b, new_offset)
            f_trial = evaluator.utility_of(trial)
            if f_trial <= f_current + _EPS:
                break
            steps.append(SearchStep(
                change=ConfigChange(sector_id=b,
                                    parameter=Parameter.AZIMUTH,
                                    old_value=current_offset,
                                    new_value=new_offset),
                utility=f_trial))
            config = trial
            f_current = f_trial

    return TuningResult(initial_config=start_config, final_config=config,
                        initial_utility=initial_utility,
                        final_utility=f_current, steps=steps,
                        termination="converged")


def _better_direction(evaluator: Evaluator, config: Configuration,
                      sector_id: int, settings: AzimuthSearchSettings,
                      f_current: float) -> float:
    """+1/-1 for the improving rotation sense, 0 if neither helps."""
    best_direction = 0.0
    best_f = f_current
    offset = config.azimuth_offset_deg(sector_id)
    for direction in (1.0, -1.0):
        new_offset = offset + direction * settings.step_deg
        if abs(new_offset) > settings.max_offset_deg + _EPS:
            continue
        trial = config.with_azimuth_offset(sector_id, new_offset)
        f_trial = evaluator.utility_of(trial)
        if f_trial > best_f + _EPS:
            best_f = f_trial
            best_direction = direction
    return best_direction
