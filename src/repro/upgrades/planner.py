"""End-to-end mitigation around a scheduled upgrade window.

Glues the pieces into the operational story of the paper's
introduction: a ticket says sectors go down at time T; Magus plans
``C_after`` ahead of T, runs the gradual migration before T, holds
``C_after`` during the work, then restores ``C_before`` when the
sectors return.  :class:`UpgradeOutcome` collects every artifact the
evaluation sections report on.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.gradual import GradualResult, GradualSettings
from ..core.magus import Magus
from ..core.plan import MitigationResult
from ..core.search import PowerSearchSettings
from ..core.tilt import TiltSearchSettings
from ..core.utility import UtilityFunction
from ..handover.migration import MigrationStats, reduction_factor
from ..obs import get_flight_recorder, get_logger, get_registry, trace
from ..synthetic.market import StudyArea
from .scenario import UpgradeScenario, select_targets

__all__ = ["UpgradeOutcome", "UpgradePlanner"]

_LOG = get_logger("upgrades.planner")


@dataclass
class UpgradeOutcome:
    """Everything one mitigated upgrade produced."""

    area_name: str
    scenario: UpgradeScenario
    tuning: str
    plan: MitigationResult
    gradual: Optional[GradualResult]
    direct_stats: Optional[MigrationStats]

    @property
    def recovery(self) -> float:
        return self.plan.recovery

    @property
    def handover_reduction(self) -> float:
        """Peak simultaneous-handover reduction of gradual vs direct."""
        if self.gradual is None or self.direct_stats is None:
            raise ValueError("gradual schedule was not requested")
        return reduction_factor(self.direct_stats, self.gradual.stats())

    def describe(self) -> list:
        lines = [f"{self.area_name} scenario ({self.scenario.value}) "
                 f"tuning={self.tuning}"]
        lines += self.plan.describe()
        if self.gradual is not None and self.direct_stats is not None:
            stats = self.gradual.stats()
            lines.append(
                f"gradual: peak {stats.peak_simultaneous_ues:.0f} UEs vs "
                f"direct {self.direct_stats.peak_simultaneous_ues:.0f} "
                f"(x{self.handover_reduction:.1f} reduction, "
                f"{stats.seamless_fraction * 100.0:.1f}% seamless)")
        return lines


class UpgradePlanner:
    """Runs the full Magus pipeline for one study area.

    Extra keyword arguments (``evaluation_strategy``, ``workers``,
    ``chunk_deadline_s``, ``chaos``) go to :class:`Magus`.
    """

    def __init__(self, area: StudyArea,
                 utility: UtilityFunction | str = "performance",
                 power_settings: Optional[PowerSearchSettings] = None,
                 tilt_settings: Optional[TiltSearchSettings] = None,
                 **magus_kwargs) -> None:
        self.area = area
        self.magus = Magus.from_area(area, utility=utility,
                                     power_settings=power_settings,
                                     tilt_settings=tilt_settings,
                                     **magus_kwargs)

    def mitigate(self, scenario: UpgradeScenario, tuning: str = "joint",
                 with_gradual: bool = False,
                 gradual_settings: Optional[GradualSettings] = None,
                 target_sectors: Optional[Sequence[int]] = None
                 ) -> UpgradeOutcome:
        """Plan (and optionally schedule) one scenario's mitigation.

        ``target_sectors`` overrides the geometric scenario selection —
        useful when driving the planner from real ticket data.
        """
        targets = (tuple(target_sectors) if target_sectors is not None
                   else select_targets(self.area, scenario))
        with trace.span("magus.upgrade_outcome", area=self.area.name,
                        scenario=scenario.value, tuning=tuning):
            plan = self.magus.plan_mitigation(targets, tuning=tuning)
            gradual = None
            direct = None
            if with_gradual:
                gradual = self.magus.gradual_schedule(plan,
                                                      gradual_settings)
                direct = self.magus.direct_migration_stats(plan)
        _LOG.info("outcome area=%s scenario=%s tuning=%s recovery=%.4f",
                  self.area.name, scenario.value, tuning, plan.recovery)
        return UpgradeOutcome(area_name=self.area.name, scenario=scenario,
                              tuning=tuning, plan=plan,
                              gradual=gradual, direct_stats=direct)

    # ------------------------------------------------------------------
    def sweep_scenarios(self, scenarios: Sequence[UpgradeScenario],
                        workers: Optional[int] = None,
                        **mitigate_kwargs) -> List[UpgradeOutcome]:
        """Mitigate several independent scenarios, one per worker.

        Each scenario is a full :meth:`mitigate` run on a cold
        evaluator (see :meth:`_mitigate_cold`), so the sweep forks a
        pool that inherits this planner (engine and rasters included)
        copy-on-write and returns outcomes in the order the scenarios
        were given — identical to the serial loop.  ``workers``
        defaults to the Magus's ``workers`` (one per core when unset);
        its ``chunk_deadline_s`` and ``chaos`` configure the pool.

        Falls back to that serial loop whenever the pool cannot help:
        ``workers=1``, fewer than two scenarios, no ``fork`` start
        method, a daemonic caller, or a worker failure.
        """
        from ..parallel import EvaluationService, resolve_workers
        from ..parallel import worker as _worker
        scenarios = list(scenarios)
        kwargs = dict(mitigate_kwargs)
        total = len(scenarios)
        t0 = time.monotonic()
        progress = _SweepProgress(total, t0)
        magus = self.magus
        n_workers = min(resolve_workers(
            workers if workers is not None else magus.workers),
            max(total, 1))
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        if total >= 2 and n_workers >= 2 and can_fork:
            # The sweep payload must exist before the fork so children
            # inherit it; it never travels through pickle.
            _worker._SWEEP_STATE = (self, tuple(scenarios), kwargs)
            try:
                evaluator = magus.evaluator
                with EvaluationService(
                        evaluator.engine, evaluator.ue_density,
                        evaluator.utility, n_workers,
                        chunk_deadline_s=magus.chunk_deadline_s,
                        chaos=magus.chaos) as service:
                    # _SWEEP_STATE is set in this (parent) process too,
                    # so quarantined scenarios re-run right here instead
                    # of forcing the whole sweep back to the serial
                    # loop — completed scenarios are never recomputed.
                    results = service.run_tasks(
                        _worker._run_sweep_item, range(total),
                        progress=progress,
                        serial_fn=_worker._run_sweep_item)
                if results is not None:
                    return results
                _LOG.warning("parallel sweep failed; rerunning the "
                             "%d scenarios serially", total)
            finally:
                _worker._SWEEP_STATE = None
        outcomes = []
        for scenario in scenarios:
            outcomes.append(self._mitigate_cold(scenario, **kwargs))
            progress(len(outcomes))
        return outcomes

    def _mitigate_cold(self, scenario: UpgradeScenario,
                       **kwargs) -> UpgradeOutcome:
        """:meth:`mitigate` on a fresh evaluator, restored afterwards.

        A warm memo cache changes evaluation counts (and which scores
        are canonical rather than windowed), so a sweep item must not
        see what earlier items left in its process: otherwise its
        outcome would depend on how the pool happened to schedule it.
        """
        evaluator = self.magus.evaluator
        self.magus.evaluator = evaluator.with_utility(evaluator.utility)
        try:
            return self.mitigate(scenario, **kwargs)
        finally:
            self.magus.evaluator = evaluator


class _SweepProgress:
    """Publishes live sweep-throughput gauges after each mitigation.

    Called with the completed-scenario count from either the pool's
    ordered result loop or the serial fallback loop;
    ``magus.sweep.{scenarios_done,mitigations_per_hour,eta_s}`` let an
    operator (or the future mitigation-as-a-service daemon) watch a
    long sweep converge instead of staring at a silent process.
    """

    def __init__(self, total: int, t0: float) -> None:
        self.total = total
        self.t0 = t0

    def __call__(self, done: int) -> None:
        elapsed = max(time.monotonic() - self.t0, 1e-9)
        per_hour = done * 3600.0 / elapsed
        eta_s = (self.total - done) * elapsed / done if done else 0.0
        registry = get_registry()
        registry.gauge("magus.sweep.scenarios_done").set(done)
        registry.gauge("magus.sweep.mitigations_per_hour").set(per_hour)
        registry.gauge("magus.sweep.eta_s").set(eta_s)
        get_flight_recorder().record(
            "sweep_progress", done=done, total=self.total,
            mitigations_per_hour=per_hour, eta_s=eta_s)
