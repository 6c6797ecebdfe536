"""The resilient rollout executor (gradual tuning that survives faults).

:func:`~repro.core.gradual.gradual_migration` *plans* a step schedule
whose utility never dips below ``f(C_after)`` — the Section-5/6
gradual-tuning guarantee.  :class:`ResilientExecutor` *applies* that
schedule against a network whose pushes can fail, whose measurements
are noisy and whose sectors can crash mid-rollout:

* each step's push is retried under a :class:`RetryPolicy`
  (configurable attempts, exponential backoff, per-step time budget);
* after a push lands, the step's **realized** utility (with any
  crashed sectors off-air) is validated against the schedule's floor
  minus a tolerance — a step that would break the paper's guarantee is
  never committed;
* on exhaustion the executor falls back to the last-known-good
  configuration and reports an aborted :class:`RolloutResult` instead
  of leaving the network in a half-applied state;
* every committed step is checkpointed (schema ``magus.checkpoint/1``)
  so a killed run resumes from the last accepted step and finishes
  with a byte-identical final configuration.

Fault, retry and degradation counts land in ``magus.resilience.*``
metrics; with no injector and no checkpoint path the executor adds no
registry keys (NullRegistry pattern) and behaves as a plain loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from ..core.evaluation import Evaluator
from ..core.gradual import GradualResult
from ..model.network import CellularNetwork, Configuration
from ..obs import get_logger, get_registry
from .checkpoint import RolloutCheckpoint, schedule_run_id
from .errors import ConfigPushError
from .injector import FaultInjector

__all__ = ["RetryPolicy", "RolloutResult", "ResilientExecutor"]

_LOG = get_logger("faults.executor")

#: ``apply_fn(config, step)`` pushes a configuration to the network.
ApplyFn = Callable[[Configuration, int], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout envelope for one rollout step."""

    max_attempts: int = 4
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    max_delay_s: float = 2.0
    step_timeout_s: float = 30.0     # give up on a step past this budget

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based failed attempts)."""
        return min(self.base_delay_s * self.backoff_factor ** attempt,
                   self.max_delay_s)


@dataclass
class RolloutResult:
    """What one resilient rollout actually did to the network."""

    status: str                      # "completed" | "aborted"
    reason: str = "ok"               # "push-exhausted" | "floor-violated"
                                     # | "invalid-config" when aborted
    configs: List[Configuration] = field(default_factory=list)
    utilities: List[float] = field(default_factory=list)
    floor_utility: float = float("-inf")
    steps_applied: int = 0
    retries: int = 0
    degradation_events: int = 0
    fell_back: bool = False
    resumed_from_step: int = 0
    run_id: str = ""

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def final_config(self) -> Configuration:
        """The configuration left on air (last-known-good on abort)."""
        return self.configs[-1]

    @property
    def min_utility(self) -> float:
        return min(self.utilities)

    def describe(self) -> List[str]:
        lines = [f"rollout {self.status} ({self.reason}): "
                 f"{self.steps_applied} steps applied, "
                 f"{self.retries} retries"]
        if self.resumed_from_step:
            lines.append(f"  resumed from step {self.resumed_from_step}")
        if self.utilities:
            lines.append(f"  utility {self.utilities[0]:.4g} -> "
                         f"{self.utilities[-1]:.4g} "
                         f"(floor {self.floor_utility:.4g}, "
                         f"min {self.min_utility:.4g})")
        if self.fell_back:
            lines.append("  fell back to last-known-good configuration")
        return lines


class ResilientExecutor:
    """Applies a gradual schedule with retries, floor checks and resume."""

    def __init__(self, evaluator: Evaluator,
                 network: Optional[CellularNetwork] = None,
                 policy: Optional[RetryPolicy] = None,
                 injector: Optional[FaultInjector] = None,
                 apply_fn: Optional[ApplyFn] = None,
                 checkpoint_path: Optional[str] = None,
                 floor_tolerance: float = 1e-6,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.evaluator = evaluator
        self.network = network
        self.policy = policy or RetryPolicy()
        self.injector = injector
        self.apply_fn = apply_fn
        self.checkpoint_path = checkpoint_path
        self.floor_tolerance = floor_tolerance
        self._sleep = sleep
        self._clock = clock

    # ------------------------------------------------------------------
    def execute(self, schedule: Union[GradualResult,
                                      Sequence[Configuration]],
                floor_utility: Optional[float] = None) -> RolloutResult:
        """Run the schedule start to finish (resuming if checkpointed).

        ``schedule`` is a :class:`GradualResult` (its ``configs`` and
        ``floor_utility`` are used) or a bare configuration sequence
        whose first element is the configuration already on air.
        """
        if isinstance(schedule, GradualResult):
            configs = list(schedule.configs)
            if floor_utility is None:
                floor_utility = schedule.floor_utility
        else:
            configs = list(schedule)
            if floor_utility is None:
                raise ValueError("floor_utility is required for a bare "
                                 "configuration sequence")
        if not configs:
            raise ValueError("schedule has no configurations")

        registry = get_registry()
        run_id = schedule_run_id(configs, floor_utility)
        result = RolloutResult(status="completed",
                               floor_utility=floor_utility, run_id=run_id)
        start_step = self._resume(configs, floor_utility, run_id, result)
        if not result.configs:   # fresh run: step 0 is already on air
            realized = self._realized(configs[0], 0, result)
            result.configs.append(realized)
            result.utilities.append(self.evaluator.utility_of(realized))

        registry.record("rollout_start", run_id=run_id,
                        steps=len(configs) - 1,
                        resumed_from=start_step,
                        floor_utility=floor_utility)
        with registry.span("magus.resilient_rollout", steps=len(configs) - 1,
                           resumed_from=start_step):
            for step in range(start_step + 1, len(configs)):
                ok = self._apply_step(configs[step], step, result, registry)
                if not ok:
                    self._fall_back(result, registry)
                    return result
        if self.checkpoint_path is not None:
            # The rollout is done; a stale checkpoint must not hijack
            # the next run of a different schedule.
            self._write_checkpoint(result, complete=True)
        registry.record("rollout_complete", run_id=run_id,
                        steps_applied=result.steps_applied,
                        retries=result.retries)
        return result

    # ------------------------------------------------------------------
    def _resume(self, configs: Sequence[Configuration], floor: float,
                run_id: str, result: RolloutResult) -> int:
        ckpt = RolloutCheckpoint.load_if_exists(self.checkpoint_path)
        if ckpt is None:
            return 0
        if ckpt.run_id != run_id:
            _LOG.warning("checkpoint %s belongs to run %s, not %s; "
                         "starting fresh", self.checkpoint_path,
                         ckpt.run_id, run_id)
            return 0
        if ckpt.step >= len(configs):
            raise ValueError(f"checkpoint {self.checkpoint_path!r}: key "
                             f"'step' is {ckpt.step}, beyond the schedule "
                             f"({len(configs)} configs)")
        result.resumed_from_step = ckpt.step
        result.retries = ckpt.retries
        result.utilities = list(ckpt.utilities)
        # Re-derive the committed prefix from the (deterministic)
        # schedule so the in-memory trajectory matches an uninterrupted
        # run; the checkpointed last_good pins the realized state.
        result.configs = [self._realized(configs[i], i, None)
                          for i in range(ckpt.step + 1)]
        if result.configs[-1] != ckpt.last_good:
            raise ValueError(
                "checkpointed last-known-good configuration does not "
                "match the recomputed schedule; refusing to resume")
        get_registry().counter("magus.resilience.resumes").inc()
        _LOG.info("resuming rollout run=%s from step=%d", run_id, ckpt.step)
        return ckpt.step

    def _realized(self, config: Configuration, step: int,
                  result: Optional[RolloutResult]) -> Configuration:
        """The configuration as the network actually realizes it.

        Crashed sectors are off-air whatever the push said; the crash
        schedule is declarative, so replays (and resumes) agree.
        """
        if self.injector is None:
            return config
        crashed = self.injector.crashed_sectors(step)
        live_crashed = [s for s in crashed if config.is_active(s)]
        if not live_crashed:
            return config
        if result is not None:
            registry = get_registry()
            registry.counter("magus.resilience.sector_crashes").inc(
                len(live_crashed))
            registry.record(
                "fault_injected", fault="sector_crash", step=step,
                sectors=sorted(live_crashed))
            _LOG.warning("sector crash step=%d sectors=%s", step,
                         sorted(live_crashed))
        return config.with_offline(live_crashed)

    # ------------------------------------------------------------------
    def _apply_step(self, target: Configuration, step: int,
                    result: RolloutResult, registry) -> bool:
        if self.network is not None:
            try:
                target.validate_against(self.network)
            except ValueError as exc:
                _LOG.error("invalid configuration at step=%d: %s", step, exc)
                result.reason = "invalid-config"
                return False

        deadline = self._clock() + self.policy.step_timeout_s
        floor = result.floor_utility - self.floor_tolerance
        for attempt in range(self.policy.max_attempts):
            if attempt > 0:
                backoff = self.policy.delay_for(attempt - 1)
                registry.counter("magus.resilience.retries").inc()
                result.retries += 1
                registry.record(
                    "rollout_retry", step=step, attempt=attempt,
                    backoff_s=backoff)
                _LOG.info("retry step=%d attempt=%d backoff=%.3fs",
                          step, attempt, backoff)
                if backoff > 0.0:
                    self._sleep(backoff)
                if self._clock() > deadline:
                    _LOG.warning("step=%d timed out after %d attempts",
                                 step, attempt)
                    break
            if not self._push_once(target, step, attempt):
                continue
            realized = self._realized(target, step, result)
            utility = self.evaluator.utility_of(realized)
            if utility < floor:
                registry.counter(
                    "magus.resilience.degradation_events").inc()
                result.degradation_events += 1
                registry.record(
                    "floor_violation", step=step, utility=utility,
                    floor=result.floor_utility)
                _LOG.warning(
                    "floor violation step=%d utility=%.6g floor=%.6g; "
                    "step not committed", step, utility,
                    result.floor_utility)
                result.reason = "floor-violated"
                continue
            result.configs.append(realized)
            result.utilities.append(utility)
            result.steps_applied += 1
            registry.counter("magus.resilience.steps_applied").inc()
            registry.record(
                "rollout_step", step=step, attempt=attempt,
                utility=utility)
            if self.checkpoint_path is not None:
                self._write_checkpoint(result, step=step)
            return True
        if result.reason == "ok":
            result.reason = "push-exhausted"
        return False

    def _push_once(self, target: Configuration, step: int,
                   attempt: int) -> bool:
        try:
            if self.injector is not None:
                outcome = self.injector.push_outcome(step=step,
                                                     attempt=attempt)
                if outcome.fail:
                    raise ConfigPushError(
                        f"injected push failure at step {step} "
                        f"(attempt {attempt})")
                if outcome.delay_s > 0.0:
                    self._sleep(outcome.delay_s)
            if self.apply_fn is not None:
                self.apply_fn(target, step)
            return True
        except ConfigPushError as exc:
            registry = get_registry()
            registry.counter("magus.resilience.push_failures").inc()
            registry.record(
                "fault_injected", fault="push_failure", step=step,
                attempt=attempt, error=str(exc))
            _LOG.info("push failed step=%d attempt=%d: %s",
                      step, attempt, exc)
            return False

    # ------------------------------------------------------------------
    def _fall_back(self, result: RolloutResult, registry) -> None:
        result.status = "aborted"
        result.fell_back = True
        registry.counter("magus.resilience.fallbacks").inc()
        registry.record("rollout_fallback", run_id=result.run_id,
                        reason=result.reason,
                        steps_applied=result.steps_applied,
                        retries=result.retries)
        last_good = result.configs[-1]
        _LOG.error("rollout aborted reason=%s steps_applied=%d "
                   "retries=%d; reverting to last-known-good",
                   result.reason, result.steps_applied, result.retries)
        if self.apply_fn is not None:
            try:
                self.apply_fn(last_good, -1)
            except ConfigPushError:
                # Best effort: the network keeps whatever state it has;
                # the operator gets the structured abort either way.
                _LOG.error("fallback push failed; network state unknown")
        if self.checkpoint_path is not None:
            self._write_checkpoint(result)
        # An abort is exactly when the operator needs the event ring:
        # dump it now (exactly-once — the CLI's exit flush is a no-op
        # unless more events landed after this point).
        registry.flush()

    def _write_checkpoint(self, result: RolloutResult,
                          step: Optional[int] = None,
                          complete: bool = False) -> None:
        ckpt = RolloutCheckpoint(
            run_id=result.run_id,
            step=(step if step is not None
                  else result.resumed_from_step + result.steps_applied),
            last_good=result.configs[-1],
            utilities=list(result.utilities),
            floor_utility=result.floor_utility,
            retries=result.retries,
            meta={"status": "complete" if complete else result.status})
        ckpt.save(self.checkpoint_path)
        get_registry().record(
            "checkpoint_write", path=self.checkpoint_path, step=ckpt.step,
            complete=complete)
