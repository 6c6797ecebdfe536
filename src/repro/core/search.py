"""Algorithm 1: Magus's heuristic power-tuning search (paper Section 5).

Brute force over neighbor power settings is hopeless ("10 sectors, 5
units each: more than 9 million configurations"), so Magus searches
stepwise from the planned configuration, each iteration considering
only sectors that can improve at least one *affected grid* and applying
the single change with the best global utility.

The implementation adds one engineering refinement with an ablation
knob: the paper's line-4 test (``r_{C (+) P_b(T)}(g) > r_C(g)``)
requires a model evaluation per candidate anyway, but an equivalent
*pre-filter* needs none — a sector's power increase can only raise an
affected grid's SINR if it already serves that grid or would capture
it, which the incumbent state and the candidate's cached dB gain row
tell at the affected grids alone.  ``prefilter`` selects:

* ``"sinr"`` (default) — the cheap capture test, then score survivors;
* ``"rate"``  — the paper-literal test: evaluate every neighbor, keep
  those improving an affected grid's rate;
* ``"none"``  — no filter: evaluate every neighbor, pick best utility
  (pure greedy; the ablation baseline).

Under ``"sinr"`` and ``"none"`` the survivors are scored in one
windowed pass; a score is exact, so the winner's score is its utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Literal, Optional, Sequence, Tuple

import numpy as np

from ..model.network import CellularNetwork, Configuration
from ..model.pathloss import PathLossDatabase
from ..model.snapshot import NetworkState
from ..obs import get_logger, get_registry
from .evaluation import Evaluator
from .plan import ConfigChange, Parameter, SearchStep, TuningResult

__all__ = ["PowerSearchSettings", "tune_power"]

_EPS = 1e-9
_LOG = get_logger("core.search")


@dataclass(frozen=True)
class PowerSearchSettings:
    """Knobs of Algorithm 1.

    ``unit_db`` is the paper's tuning unit ("one unit is to increase
    the transmission power by 1 dB"); when no unit-sized change helps,
    the unit is incremented up to ``max_unit_db``.  ``neighbor_radius_m``
    and ``max_neighbors`` bound the involved-sector set ``B``.
    """

    unit_db: float = 1.0
    max_unit_db: float = 6.0
    max_iterations: int = 200
    prefilter: Literal["sinr", "rate", "none"] = "sinr"
    neighbor_radius_m: float = 5_000.0
    max_neighbors: Optional[int] = 16


def tune_power(evaluator: Evaluator, network: CellularNetwork,
               start_config: Configuration,
               baseline_state: NetworkState,
               target_sectors: Sequence[int],
               settings: PowerSearchSettings | None = None) -> TuningResult:
    """Run Algorithm 1 from ``start_config``.

    Parameters
    ----------
    evaluator:
        The bound ``f(C)`` oracle (Evaluation component).
    start_config:
        Usually ``C_upgrade`` (targets off-air); the gradual scheduler
        also calls this with targets still on.
    baseline_state:
        The ``C_before`` snapshot defining the affected-grid set ``G``.
    target_sectors:
        The sectors being upgraded; their neighbors form ``B``.
    """
    settings = settings or PowerSearchSettings()
    neighbors = network.neighbors_of(
        target_sectors, radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    registry = get_registry()
    config = start_config
    f_current = evaluator.utility_of(config)
    initial_utility = f_current
    steps: List[SearchStep] = []
    unit = settings.unit_db
    termination = "max-iterations"

    with registry.span("magus.power_pass", prefilter=settings.prefilter,
                       neighbors=len(neighbors)):
        for iteration in range(settings.max_iterations):
            state = evaluator.state_of(config)
            affected = state.degraded_grids(baseline_state)
            if not affected.any():
                termination = "recovered"
                break
            candidates = _eligible(network, config, neighbors, unit)
            if not candidates:
                termination = "power-exhausted"
                break
            registry.counter("magus.search.power.iterations").inc()
            registry.counter("magus.search.power.candidates").inc(
                len(candidates))

            best = _best_candidate(evaluator, network, config, state,
                                   affected, candidates, unit,
                                   settings.prefilter, f_current)

            if best is not None and best[1] > f_current + _EPS:
                sector_id, f_new, new_config = best[0], best[1], best[2]
                steps.append(SearchStep(
                    change=ConfigChange(
                        sector_id=sector_id, parameter=Parameter.POWER,
                        old_value=config.power_dbm(sector_id),
                        new_value=new_config.power_dbm(sector_id)),
                    utility=f_new))
                registry.counter("magus.search.power.accepted_steps").inc()
                _LOG.info(
                    "power iteration=%d sector=%d knob=power "
                    "delta_utility=%+.6g unit_db=%.1f",
                    iteration + 1, sector_id, f_new - f_current, unit)
                config = new_config
                f_current = f_new
                unit = settings.unit_db       # reset after progress
            else:
                _LOG.debug("power iteration=%d no-improvement unit_db=%.1f",
                           iteration + 1, unit)
                unit += settings.unit_db      # paper: "increment T if needed"
                if unit > settings.max_unit_db:
                    termination = "no-improvement"
                    break

    registry.gauge("magus.search.power.final_utility").set(f_current)
    return TuningResult(initial_config=start_config, final_config=config,
                        initial_utility=initial_utility,
                        final_utility=f_current, steps=steps,
                        termination=termination)


# ----------------------------------------------------------------------
def _eligible(network: CellularNetwork, config: Configuration,
              neighbors: Iterable[int], unit: float) -> List[int]:
    """Neighbors that are on-air and still have power headroom."""
    out = []
    for b in neighbors:
        if not config.is_active(b):
            continue
        headroom = network.sector(b).max_power_dbm - config.power_dbm(b)
        if headroom >= min(unit, 1.0) - _EPS:
            out.append(b)
    return out


def _best_candidate(evaluator: Evaluator, network: CellularNetwork,
                    config: Configuration, state: NetworkState,
                    affected: np.ndarray, candidates: List[int],
                    unit: float, prefilter: str, f_current: float
                    ) -> Optional[Tuple[int, float, Configuration]]:
    """``argmax_{b in beta} f(C (+) P_b(T))``, or None if beta is empty
    or (scored filters) the winner does not beat ``f_current``."""
    if prefilter == "sinr" and candidates:
        candidates = _may_help(evaluator.engine.pathloss, config, state,
                               affected, candidates, unit)
    if prefilter == "rate":
        # The paper-literal filter needs each candidate's full state
        # anyway, so score through the memoized canonical path.
        best: Optional[Tuple[int, float, Configuration]] = None
        for b in candidates:
            trial = config.with_power_delta(
                b, unit, max_power_dbm=network.sector(b).max_power_dbm)
            if trial is config or trial == config:
                continue
            trial_state = evaluator.state_of(trial)
            improves = np.any(trial_state.rate_bps[affected]
                              > state.rate_bps[affected] + _EPS)
            if not improves:
                continue
            f_trial = evaluator.utility_of(trial)
            if best is None or f_trial > best[1]:
                best = (b, f_trial, trial)
        return best

    trials: List[Tuple[int, Configuration]] = []
    for b in candidates:
        trial = config.with_power_delta(
            b, unit, max_power_dbm=network.sector(b).max_power_dbm)
        if trial is config or trial == config:
            continue
        trials.append((b, trial))
    if not trials:
        return None
    # One vectorized pass over all neighbors.
    scores = evaluator.score_candidates([t for _, t in trials],
                                        parent=config)
    winner = int(np.argmax(scores))
    if scores[winner] <= f_current + _EPS:
        return None
    b, trial = trials[winner]
    return b, scores[winner], trial


def _may_help(db: PathLossDatabase, config: Configuration,
              state: NetworkState, affected: np.ndarray,
              candidates: List[int], unit: float) -> List[int]:
    """The candidates whose +``unit`` dB can raise an affected grid:
    those serving one (their SINR rises) or able to capture one, where
    ``P_b + L_b(T_b, g) + unit`` would beat the best server's RP.  Only
    the affected cells are read; an off-air sector captures nothing."""
    cells = np.flatnonzero(affected)
    serving = state.serving.ravel()[cells]
    rp_best = state.rp_best_dbm.ravel()[cells]
    kept = []
    for b in candidates:
        if (serving == b).any():
            kept.append(b)
        elif config.is_active(b):
            row = db.gain_row_db(b, config.tilt_deg(b),
                                 config.azimuth_offset_deg(b))
            if (config.power_dbm(b) + row.ravel()[cells] + unit
                    > rp_best).any():
                kept.append(b)
    return kept
