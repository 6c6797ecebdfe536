"""Joint tilt + power tuning (paper Section 5, "Joint Tuning").

"Tilt and power tuning produce different coverage results, so combining
the two can potentially provide better results.  In our evaluations, we
explore the benefit of first employing tilt-tuning, followed by
power-tuning."  Table 1 shows this joint pass beating either knob
alone, roughly doubling power-tuning's recovery.

The composition is literal: the tilt pass's final configuration seeds
Algorithm 1.  The combined :class:`~repro.core.plan.TuningResult`
concatenates both traces so step counts stay comparable with the
single-knob runs.  A plan's search cost is what the evaluator's cost
meter counted over the whole pass, the losing branch included.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..model.network import CellularNetwork, Configuration
from ..model.snapshot import NetworkState
from ..obs import get_logger, get_registry
from .evaluation import Evaluator
from .plan import TuningResult
from .search import PowerSearchSettings, tune_power
from .tilt import TiltSearchSettings, tune_tilt

__all__ = ["tune_joint"]

_LOG = get_logger("core.joint")


def tune_joint(evaluator: Evaluator, network: CellularNetwork,
               start_config: Configuration,
               baseline_state: NetworkState,
               target_sectors: Sequence[int],
               power_settings: Optional[PowerSearchSettings] = None,
               tilt_settings: Optional[TiltSearchSettings] = None
               ) -> TuningResult:
    """Tilt-tuning first, then power-tuning from the tilted config.

    Greedy tilt moves can occasionally steer the subsequent power
    search into a worse basin than power-tuning alone would reach;
    since candidate plans are free to compare under a model-based
    approach, the joint pass also evaluates the pure power plan and
    returns whichever scores higher.  This makes "joint >= each knob
    alone" structural rather than empirical.  When the tilt pass
    accepts no step, the combined pass *is* the pure power plan.

    Both inner passes score their candidate sets through the
    evaluator's batched delta path (see ``Evaluator.score_candidates``),
    so the joint pass inherits the incremental-evaluation speedup; the
    span tags record which strategy served the run.
    """
    with get_registry().span("magus.joint_pass", strategy=evaluator.strategy):
        tilt_result = tune_tilt(evaluator, network, start_config,
                                target_sectors, settings=tilt_settings)
        power_result = tune_power(evaluator, network,
                                  tilt_result.final_config,
                                  baseline_state, target_sectors,
                                  settings=power_settings)
        combined = TuningResult(
            initial_config=start_config,
            final_config=power_result.final_config,
            initial_utility=tilt_result.initial_utility,
            final_utility=power_result.final_utility,
            steps=tilt_result.steps + power_result.steps,
            termination=power_result.termination)

        power_only = (tune_power(evaluator, network, start_config,
                                 baseline_state, target_sectors,
                                 settings=power_settings)
                      if tilt_result.steps else power_result)
    _LOG.info("joint tilt+power=%.6g power-only=%.6g winner=%s",
              combined.final_utility, power_only.final_utility,
              "tilt+power" if power_only.final_utility
              <= combined.final_utility else "power-only")
    if power_only.final_utility <= combined.final_utility:
        return combined
    return TuningResult(
        initial_config=start_config,
        final_config=power_only.final_config,
        initial_utility=power_only.initial_utility,
        final_utility=power_only.final_utility,
        steps=power_only.steps,
        termination=power_only.termination + " (power-only won)")
