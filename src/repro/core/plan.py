"""Value types describing tuning decisions and their outcomes.

These are the artifacts the search algorithms hand back: individual
parameter changes, the step-by-step trace of a search, and the final
mitigation result with the paper's ``C_before / C_upgrade / C_after``
triple, the recovery ratio of Formula 7 and the plan's search cost.
The cost is one number per plan, counted by the evaluator's cost
meter; a step records what it changed, not what it cost.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..model.network import Configuration

__all__ = ["Parameter", "ConfigChange", "SearchStep", "TuningResult",
           "MitigationResult", "recovery_ratio"]


class Parameter(enum.Enum):
    """Which knob a change turns."""

    POWER = "power"
    TILT = "tilt"
    AZIMUTH = "azimuth"


@dataclass(frozen=True)
class ConfigChange:
    """One applied parameter change on one sector."""

    sector_id: int
    parameter: Parameter
    old_value: float
    new_value: float

    @property
    def delta(self) -> float:
        return self.new_value - self.old_value

    def describe(self) -> str:
        unit = "dBm" if self.parameter is Parameter.POWER else "deg"
        if self.parameter is Parameter.AZIMUTH:
            unit = "deg offset"
        return (f"sector {self.sector_id}: {self.parameter.value} "
                f"{self.old_value:.1f} -> {self.new_value:.1f} {unit}")


@dataclass(frozen=True)
class SearchStep:
    """One accepted iteration of a search algorithm."""

    change: ConfigChange
    utility: float               # f after applying the change


@dataclass
class TuningResult:
    """Outcome of one search run from ``C_upgrade`` toward ``C_after``."""

    initial_config: Configuration
    final_config: Configuration
    initial_utility: float
    final_utility: float
    steps: List[SearchStep] = field(default_factory=list)
    termination: str = "converged"

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def utility_gain(self) -> float:
        return self.final_utility - self.initial_utility

    def utility_trace(self) -> List[float]:
        """Utility after each accepted step, starting at the initial."""
        return [self.initial_utility] + [s.utility for s in self.steps]

    def changes(self) -> List[ConfigChange]:
        return [s.change for s in self.steps]


def recovery_ratio(f_before: float, f_upgrade: float, f_after: float) -> float:
    """The paper's Formula 7.

    ``(f(C_after) - f(C_upgrade)) / (f(C_before) - f(C_upgrade))`` — the
    fraction of upgrade-induced degradation recovered by tuning.  1
    means full recovery, 0 no improvement; negative values are possible
    when a tuning optimized for one utility is scored under another
    (paper Table 2 shows -29.3%).

    If the upgrade causes no degradation at all the ratio is defined as
    1.0 (there was nothing to recover and nothing was lost).  Finite
    inputs always yield a finite ratio: when either difference
    overflows, the quotient is re-derived at half scale (where finite
    inputs cannot overflow), and a result that is still infinite (a
    huge numerator over a vanishing degradation) is clamped to the
    largest representable float with the quotient's sign.
    """
    degradation = f_before - f_upgrade
    if degradation <= 0:
        return 1.0
    ratio = (f_after - f_upgrade) / degradation
    if not math.isfinite(ratio):
        ratio = ((f_after / 2.0 - f_upgrade / 2.0)
                 / (f_before / 2.0 - f_upgrade / 2.0))
        if math.isinf(ratio):
            ratio = math.copysign(sys.float_info.max, ratio)
    return ratio


@dataclass
class MitigationResult:
    """Full per-scenario outcome: the paper's three configurations.

    ``f_*`` values are under the optimization utility; recovery under a
    *different* utility (Table 2) is obtained via
    :meth:`cross_recovery`.  ``evaluations`` is the plan's search cost
    (the paper's Fig. 12 x-axis): the distinct model evaluations the
    evaluator's cost meter counted over the whole plan, the two
    baseline evaluations of ``C_before`` and ``C_upgrade`` included.
    """

    target_sectors: Tuple[int, ...]
    c_before: Configuration
    c_upgrade: Configuration
    c_after: Configuration
    f_before: float
    f_upgrade: float
    f_after: float
    tuning: TuningResult
    evaluations: int
    utility_name: str = "performance"

    @property
    def recovery(self) -> float:
        """Recovery ratio under the optimization utility."""
        return recovery_ratio(self.f_before, self.f_upgrade, self.f_after)

    def cross_recovery(self, f_before: float, f_upgrade: float,
                       f_after: float) -> float:
        """Recovery of this plan re-scored under another utility's f values."""
        return recovery_ratio(f_before, f_upgrade, f_after)

    def describe(self) -> List[str]:
        lines = [
            f"targets: {list(self.target_sectors)}",
            f"f(C_before)={self.f_before:.2f}  "
            f"f(C_upgrade)={self.f_upgrade:.2f}  "
            f"f(C_after)={self.f_after:.2f}",
            f"recovery ratio: {self.recovery * 100.0:.1f}%  "
            f"({self.tuning.n_steps} steps, "
            f"{self.evaluations} evaluations, "
            f"{self.tuning.termination})",
        ]
        lines += ["  " + c.describe() for c in self.tuning.changes()]
        return lines
