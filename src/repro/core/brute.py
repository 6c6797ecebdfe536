"""Exhaustive configuration search for small instances.

The paper dismisses brute force for production scenarios ("10 sectors
... 10 units of power change: our search space is 10 billion") but it
is the gold standard on tiny instances — we use it to validate the
heuristics in tests and to mirror the testbed methodology of Section 3,
which literally "enumerate[s] different power levels for the remaining
active neighbor eNodeBs".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..model.network import CellularNetwork, Configuration
from .evaluation import Evaluator
from .plan import TuningResult

__all__ = ["BruteForceSettings", "tune_brute_force"]

#: Refuse absurd enumerations outright rather than hang.
_MAX_COMBINATIONS = 2_000_000


@dataclass(frozen=True)
class BruteForceSettings:
    """Discretization of the enumerated power axis."""

    unit_db: float = 1.0
    max_delta_db: float = 5.0      # powers swept in [0, max_delta] above start
    allow_decrease: bool = False   # also sweep below the starting power


def tune_brute_force(evaluator: Evaluator, network: CellularNetwork,
                     start_config: Configuration,
                     tunable_sectors: Sequence[int],
                     settings: BruteForceSettings | None = None
                     ) -> TuningResult:
    """Try every combination of power deltas on ``tunable_sectors``.

    Raises :class:`ValueError` when the grid would exceed the safety
    cap — brute force is for validation, not production.
    """
    settings = settings or BruteForceSettings()
    if not tunable_sectors:
        raise ValueError("need at least one tunable sector")
    axes = [_axis(network, start_config, b, settings)
            for b in tunable_sectors]
    total = 1
    for axis in axes:
        total *= len(axis)
    if total > _MAX_COMBINATIONS:
        raise ValueError(
            f"brute force would enumerate {total} configurations "
            f"(cap {_MAX_COMBINATIONS}); use the heuristic search")

    f_initial = evaluator.utility_of(start_config)
    best_config = start_config
    best_utility = f_initial
    # Enumerate by the innermost axis: all configurations sharing a
    # prefix differ from the group's base in the last sector's power
    # only, so each group is one batched scoring pass.  Group winners
    # are confirmed canonically, keeping the reported optimum exact.
    last_sector = tunable_sectors[-1]
    last_axis = axes[-1]
    for prefix in itertools.product(*axes[:-1]):
        base = start_config
        for sector_id, power in zip(tunable_sectors[:-1], prefix):
            base = base.with_power(sector_id, power)
        base = base.with_power(last_sector, last_axis[0])
        group = [base] + [base.with_power(last_sector, p)
                          for p in last_axis[1:]]
        scores = [evaluator.utility_of(group[0])]
        scores.extend(evaluator.score_candidates(group[1:],
                                                 parent=group[0]))
        winner = int(np.argmax(scores))
        f = evaluator.utility_of(group[winner])
        if f > best_utility:
            best_utility = f
            best_config = group[winner]

    return TuningResult(initial_config=start_config, final_config=best_config,
                        initial_utility=f_initial, final_utility=best_utility,
                        steps=[], termination=f"enumerated-{total}")


def _axis(network: CellularNetwork, config: Configuration, sector_id: int,
          settings: BruteForceSettings) -> List[float]:
    """The discrete power values swept for one sector."""
    sector = network.sector(sector_id)
    start = config.power_dbm(sector_id)
    lo = sector.min_power_dbm if settings.allow_decrease else start
    hi = min(start + settings.max_delta_db, sector.max_power_dbm)
    # Anchor the grid at the starting power so enabling allow_decrease
    # strictly extends (never shifts) the enumerated space.
    values = [round(start, 6)]
    p = start + settings.unit_db
    while p <= hi + 1e-9:
        values.append(round(p, 6))
        p += settings.unit_db
    p = start - settings.unit_db
    while p >= lo - 1e-9:
        values.append(round(p, 6))
        p -= settings.unit_db
    return sorted(values)
