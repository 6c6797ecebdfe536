"""Section-3 experiment driver: the Figure-2 upgrade timelines.

For a testbed scenario this driver follows the paper's methodology:

1. find the best normal-conditions configuration ``C_before`` by
   enumerating attenuation levels;
2. take the target eNodeB offline and measure ``f(C_upgrade)`` (no
   tuning);
3. enumerate the remaining cells' levels for ``C_after``;
4. emit utility-vs-time traces for the three strategies drawn in
   Figure 2 — *no tuning* (stays at ``f(C_upgrade)``), *reactive*
   (drops, then climbs step by step), and *proactive* (pre-tuned, goes
   straight to ``f(C_after)`` at the upgrade instant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..obs import get_logger, get_registry
from .testbed import LTETestbed, UpgradeTimeline

__all__ = ["Fig2Result", "run_upgrade_experiment"]

_EPS = 1e-9
_LOG = get_logger("testbed.experiment")


@dataclass
class Fig2Result:
    """Everything one testbed upgrade experiment produced."""

    c_before: Dict[int, int]
    c_after: Dict[int, int]
    f_before: float
    f_upgrade: float
    f_after: float
    timeline: UpgradeTimeline
    reactive_steps: int

    @property
    def recovery(self) -> float:
        """Formula 7 on the testbed utilities."""
        degradation = self.f_before - self.f_upgrade
        if degradation <= 0:
            return 1.0
        return (self.f_after - self.f_upgrade) / degradation


def run_upgrade_experiment(bed: LTETestbed, target_enb: int,
                           pre_ticks: int = 3, post_ticks: int = 3,
                           level_step: int = 5) -> Fig2Result:
    """The full before/during/after sweep for one scenario."""
    all_enbs = list(bed.enodebs)
    neighbors = [e for e in all_enbs if e != target_enb]

    # (1) best normal-conditions configuration.
    with get_registry().span("magus.testbed.optimize_before"):
        c_before = bed.optimize_attenuations(all_enbs,
                                             level_step=level_step)
        f_before = bed.utility()

    # (2) the un-mitigated upgrade.
    with get_registry().span("magus.testbed.upgrade_eval"):
        bed.take_offline(target_enb)
        f_upgrade = bed.utility()

    # (3) best mitigation configuration.
    with get_registry().span("magus.testbed.optimize_after"):
        c_after = bed.optimize_attenuations(neighbors,
                                            level_step=level_step)
        f_after = bed.utility()

    # (4) reactive climb: single-cell attenuation decreases, measured.
    with get_registry().span("magus.testbed.reactive_climb"):
        reactive_trace = _reactive_climb(bed, c_before, neighbors,
                                         target_enb, level_step)
    _LOG.info("testbed target=%d f_before=%.3f f_upgrade=%.3f "
              "f_after=%.3f reactive_steps=%d", target_enb, f_before,
              f_upgrade, f_after, max(len(reactive_trace) - 1, 0))

    timeline = _build_timeline(f_before, f_upgrade, f_after,
                               reactive_trace, pre_ticks, post_ticks)

    # Leave the bed in the mitigated state (C_after, target offline).
    _apply(bed, c_after, offline=[target_enb])
    return Fig2Result(c_before=c_before, c_after=c_after,
                      f_before=f_before, f_upgrade=f_upgrade,
                      f_after=f_after, timeline=timeline,
                      reactive_steps=max(len(reactive_trace) - 1, 0))


# ----------------------------------------------------------------------
def _reactive_climb(bed: LTETestbed, c_before: Dict[int, int],
                    neighbors: List[int], target_enb: int,
                    level_step: int) -> List[float]:
    """Greedy measured recovery after the outage (one move per tick)."""
    _apply(bed, c_before, offline=[target_enb])
    trace = [bed.utility()]
    for _ in range(12):                      # a handful of ticks suffices
        best_move: Tuple[float, int, int] | None = None
        current = bed.configuration()
        for enb_id in neighbors:
            spec = bed.enodebs[enb_id].attenuator
            new_level = max(current[enb_id] - level_step, spec.min_level)
            if new_level == current[enb_id]:
                continue
            bed.set_attenuation(enb_id, new_level)
            u = bed.utility()
            bed.set_attenuation(enb_id, current[enb_id])
            if best_move is None or u > best_move[0]:
                best_move = (u, enb_id, new_level)
        if best_move is None or best_move[0] <= trace[-1] + _EPS:
            break
        bed.set_attenuation(best_move[1], best_move[2])
        trace.append(best_move[0])
    return trace


def _build_timeline(f_before: float, f_upgrade: float, f_after: float,
                    reactive_trace: List[float],
                    pre_ticks: int, post_ticks: int) -> UpgradeTimeline:
    timeline = UpgradeTimeline()
    for t in range(-pre_ticks, post_ticks + 1):
        timeline.times.append(t)
        if t < 0:
            timeline.no_tuning.append(f_before)
            timeline.reactive.append(f_before)
            timeline.proactive.append(f_before)
            continue
        timeline.no_tuning.append(f_upgrade)
        timeline.proactive.append(f_after)
        idx = min(t, len(reactive_trace) - 1)
        timeline.reactive.append(reactive_trace[idx])
    return timeline


def _apply(bed: LTETestbed, config: Dict[int, int],
           offline: List[int]) -> None:
    for enb_id in bed.enodebs:
        if enb_id in offline:
            bed.enodebs[enb_id].take_offline()
        else:
            bed.enodebs[enb_id].bring_online()
    bed.apply_configuration(config)
