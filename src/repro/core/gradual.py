"""Gradual proactive tuning (paper Section 6, "Benefits of Gradual Tuning").

Jumping from ``C_before`` to ``C_after`` in one shot makes every
affected UE hand over simultaneously, straining the signaling plane.
Magus instead "decreases the transmission power of the target sector in
small steps well before the planned upgrade time", nudging a few UEs to
neighbors per step — and, because it knows ``f(C_after)`` a priori, it
guarantees the utility **never dips below that floor**: whenever a
power-down step would break the floor, it first applies the next
compensation move toward ``C_after`` (a neighbor power increment or
uptilt).  The process ends when no UEs remain on the target (all
remaining handovers were seamless) or when compensation is exhausted
(jump directly to ``C_after``).

The direct one-shot comparator ("Proactive" in Figure 11) is simulated
by :func:`simulate_direct` for the reduction-factor statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..handover.attachment import attachment_diff
from ..handover.events import HandoverBatch, classify_batch
from ..handover.migration import (MigrationStats, reduction_factor,
                                  summarize_batches)
from ..model.network import CellularNetwork, Configuration
from ..obs import get_logger, get_registry, trace
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter

__all__ = ["GradualSettings", "GradualResult", "gradual_migration",
           "simulate_direct", "decompose_changes"]

_EPS = 1e-9
_LOG = get_logger("core.gradual")


@dataclass(frozen=True)
class GradualSettings:
    """Step sizes of the pre-upgrade ramp-down."""

    target_step_db: float = 3.0      # per-step power cut on the target
    compensation_unit_db: float = 1.0
    max_steps: int = 100


@dataclass
class GradualResult:
    """The full gradual schedule and its handover accounting."""

    configs: List[Configuration]     # committed configs, C_before first
    utilities: List[float]           # f after each committed config
    batches: List[HandoverBatch]     # one per transition
    compensation_steps: List[int]    # step indices where Magus compensated
    floor_utility: float             # f(C_after), the guaranteed floor
    jumped: bool                     # had to jump straight to C_after

    @property
    def final_config(self) -> Configuration:
        return self.configs[-1]

    @property
    def n_steps(self) -> int:
        return len(self.configs) - 1

    @property
    def min_utility(self) -> float:
        """The schedule's worst utility (paper: never below the floor)."""
        return min(self.utilities)

    def stats(self) -> MigrationStats:
        return summarize_batches(self.batches)

    def reduction_vs(self, direct: MigrationStats) -> float:
        return reduction_factor(direct, self.stats())


def gradual_migration(evaluator: Evaluator, network: CellularNetwork,
                      c_before: Configuration, c_after: Configuration,
                      target_sectors: Sequence[int],
                      settings: GradualSettings | None = None
                      ) -> GradualResult:
    """Build and simulate the gradual schedule ``C_before -> C_after``.

    ``c_after`` must have the target sectors off-air (it is the tuned
    post-upgrade configuration the planner produced); the compensation
    move list is derived from the neighbor-setting diff between
    ``c_before`` and ``c_after``.
    """
    settings = settings or GradualSettings()
    targets = list(target_sectors)
    _check_targets(c_after, targets)
    registry = get_registry()
    floor = evaluator.utility_of(c_after)
    registry.gauge("magus.gradual.floor_utility").set(floor)
    pending = decompose_changes(c_before, c_after, targets,
                                unit_db=settings.compensation_unit_db,
                                network=network)

    configs = [c_before]
    utilities = [evaluator.utility_of(c_before)]
    batches: List[HandoverBatch] = []
    compensation_steps: List[int] = []
    jumped = False
    config = c_before

    with trace.span("magus.gradual_migration", targets=len(targets),
                    pending_moves=len(pending)):
        for step in range(settings.max_steps):
            if _no_target_ues(evaluator, config, targets) or \
                    _targets_at_floor_power(network, config, targets):
                break
            trial = _step_down_targets(network, config, targets,
                                       settings.target_step_db)
            compensated = False
            meter = evaluator.cost_meter()
            while evaluator.utility_of(trial) < floor - _EPS and pending:
                trial = _compensate(evaluator, network, trial, pending,
                                    floor)
                compensated = True
            if evaluator.utility_of(trial) < floor - _EPS:
                jumped = True   # cannot hold the floor: jump to C_after
                break
            if compensated:
                compensation_steps.append(len(configs))
                registry.counter("magus.gradual.compensations").inc()
            registry.counter("magus.gradual.steps").inc()
            _commit(evaluator, configs, utilities, batches, trial)
            _LOG.info("gradual step=%d knob=power delta_utility=%+.6g "
                      "evals=%d compensated=%s", step + 1,
                      utilities[-1] - utilities[-2], meter.spent(),
                      compensated)
            config = trial

        # The upgrade instant: apply any remaining compensation and take
        # the targets off-air in one final transition.
        final = c_after
        if final != config:
            _commit(evaluator, configs, utilities, batches, final)

    if jumped:
        _LOG.warning("gradual schedule could not hold the floor; "
                     "jumped directly to C_after")
    return GradualResult(configs=configs, utilities=utilities,
                         batches=batches,
                         compensation_steps=compensation_steps,
                         floor_utility=floor, jumped=jumped)


def simulate_direct(evaluator: Evaluator, c_before: Configuration,
                    c_after: Configuration) -> MigrationStats:
    """The one-shot comparator: every handover fires at upgrade time."""
    before_state = evaluator.state_of(c_before)
    after_state = evaluator.state_of(c_after)
    diff = attachment_diff(before_state, after_state)
    batch = classify_batch(0, diff, c_after)
    return summarize_batches([batch])


# ----------------------------------------------------------------------
def decompose_changes(c_before: Configuration, c_after: Configuration,
                      target_sectors: Sequence[int], unit_db: float,
                      network: CellularNetwork) -> List[ConfigChange]:
    """Unit-sized compensation moves from ``C_before`` to ``C_after``.

    Neighbor power increases are split into ``unit_db`` increments and
    tilt changes into catalogue steps, ordered nearest-to-target first
    so early compensation goes where it helps most.
    """
    targets = set(target_sectors)
    order = network.neighbors_of(list(targets),
                                 radius_m=float("inf"))
    moves: List[ConfigChange] = []
    for sector_id in order:
        if sector_id in targets:
            continue
        before_s = c_before.settings[sector_id]
        after_s = c_after.settings[sector_id]
        moves.extend(_power_increments(sector_id, before_s.power_dbm,
                                       after_s.power_dbm, unit_db))
        moves.extend(_tilt_increments(network, sector_id,
                                      before_s.tilt_deg, after_s.tilt_deg))
        if abs(after_s.azimuth_offset_deg
               - before_s.azimuth_offset_deg) > _EPS:
            moves.append(ConfigChange(sector_id, Parameter.AZIMUTH,
                                      before_s.azimuth_offset_deg,
                                      after_s.azimuth_offset_deg))
    return moves


def _power_increments(sector_id: int, p_from: float, p_to: float,
                      unit_db: float) -> List[ConfigChange]:
    moves = []
    p = p_from
    while p < p_to - _EPS:
        nxt = min(p + unit_db, p_to)
        moves.append(ConfigChange(sector_id, Parameter.POWER, p, nxt))
        p = nxt
    if p_to < p_from - _EPS:    # rare: C_after lowers a neighbor
        moves.append(ConfigChange(sector_id, Parameter.POWER,
                                  p_from, p_to))
    return moves


def _tilt_increments(network: CellularNetwork, sector_id: int,
                     t_from: float, t_to: float) -> List[ConfigChange]:
    moves = []
    tilt_range = network.sector(sector_id).tilt_range
    t = t_from
    guard = 0
    while abs(t - t_to) > _EPS and guard < 64:
        nxt = (tilt_range.uptilted(t) if t_to < t
               else tilt_range.downtilted(t))
        if nxt == t:
            break
        moves.append(ConfigChange(sector_id, Parameter.TILT, t, nxt))
        t = nxt
        guard += 1
    return moves


# ----------------------------------------------------------------------
def _check_targets(c_after: Configuration, targets: Sequence[int]) -> None:
    still_on = [t for t in targets if c_after.is_active(t)]
    if still_on:
        raise ValueError(
            f"C_after must have target sectors off-air; {still_on} are on")


def _no_target_ues(evaluator: Evaluator, config: Configuration,
                   targets: Sequence[int]) -> bool:
    state = evaluator.state_of(config)
    return all(state.served_ue_count(t) <= 0 for t in targets)


def _targets_at_floor_power(network: CellularNetwork, config: Configuration,
                            targets: Sequence[int]) -> bool:
    return all(config.power_dbm(t)
               <= network.sector(t).min_power_dbm + _EPS
               for t in targets)


def _step_down_targets(network: CellularNetwork, config: Configuration,
                       targets: Sequence[int], step_db: float) -> Configuration:
    out = config
    for t in targets:
        floor_power = network.sector(t).min_power_dbm
        new_power = max(out.power_dbm(t) - step_db, floor_power)
        out = out.with_power(t, new_power)
    return out


def _compensate(evaluator: Evaluator, network: CellularNetwork,
                trial: Configuration, pending: List[ConfigChange],
                floor: float) -> Configuration:
    """Apply the shortest floor-restoring prefix of the next move run.

    Compensation moves arrive in same-sector runs (unit power steps,
    then tilt steps, per neighbor), so every cumulative prefix of a run
    differs from ``trial`` in one sector — one batched scoring pass
    finds how deep into the run the utility floor is restored, instead
    of one canonical evaluation per move.  The caller's loop re-checks
    the chosen configuration canonically, so a (theoretical) batch
    misjudgment only costs another iteration, never a floor violation.
    """
    run_sector = pending[0].sector_id
    run_len = 1
    while (run_len < len(pending)
           and pending[run_len].sector_id == run_sector):
        run_len += 1
    prefixes: List[Configuration] = []
    config = trial
    for change in pending[:run_len]:
        config = _apply_change(config, change, network)
        prefixes.append(config)
    scores = evaluator.score_candidates(prefixes, parent=trial)
    chosen = next((j for j, s in enumerate(scores)
                   if s >= floor - _EPS), run_len - 1)
    del pending[:chosen + 1]
    return prefixes[chosen]


def _apply_change(config: Configuration, change: ConfigChange,
                  network: CellularNetwork) -> Configuration:
    if change.parameter is Parameter.POWER:
        max_p = network.sector(change.sector_id).max_power_dbm
        return config.with_power(change.sector_id,
                                 min(change.new_value, max_p))
    if change.parameter is Parameter.AZIMUTH:
        return config.with_azimuth_offset(change.sector_id,
                                          change.new_value)
    return config.with_tilt(change.sector_id, change.new_value)


def _commit(evaluator: Evaluator, configs: List[Configuration],
            utilities: List[float], batches: List[HandoverBatch],
            new_config: Configuration) -> None:
    prev_state = evaluator.state_of(configs[-1])
    new_state = evaluator.state_of(new_config)
    diff = attachment_diff(prev_state, new_state)
    batches.append(classify_batch(len(configs), diff, new_config))
    configs.append(new_config)
    utilities.append(evaluator.utility_of(new_config))
