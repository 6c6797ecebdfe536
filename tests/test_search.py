"""Unit tests for Algorithm 1 (heuristic power tuning)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import joint
from repro.core.evaluation import Evaluator
from repro.core.joint import tune_joint
from repro.core.plan import Parameter
from repro.core.search import PowerSearchSettings, _may_help, tune_power
from repro.core.tilt import TiltSearchSettings
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.pathloss import PathLossDatabase

from conftest import assert_step_utilities_exact, received_power_dbm


@pytest.fixture
def outage(toy_evaluator, toy_network):
    c_before = toy_network.planned_configuration()
    baseline = toy_evaluator.state_of(c_before)
    c_upgrade = c_before.with_offline([1])
    return c_before, c_upgrade, baseline


class TestAlgorithm1:
    def test_improves_utility(self, toy_evaluator, toy_network, outage):
        _, c_upgrade, baseline = outage
        result = tune_power(toy_evaluator, toy_network, c_upgrade,
                            baseline, [1])
        assert result.final_utility >= result.initial_utility
        assert result.initial_utility == pytest.approx(
            toy_evaluator.utility_of(c_upgrade))

    def test_only_tunes_neighbor_power(self, toy_evaluator, toy_network,
                                       outage):
        _, c_upgrade, baseline = outage
        result = tune_power(toy_evaluator, toy_network, c_upgrade,
                            baseline, [1])
        for change in result.changes():
            assert change.parameter is Parameter.POWER
            assert change.sector_id != 1           # never the target
            assert change.new_value > change.old_value

    def test_respects_power_caps(self, toy_evaluator, toy_network, outage):
        _, c_upgrade, baseline = outage
        result = tune_power(toy_evaluator, toy_network, c_upgrade,
                            baseline, [1],
                            PowerSearchSettings(max_unit_db=20.0,
                                                max_iterations=50))
        for sid in range(toy_network.n_sectors):
            assert result.final_config.power_dbm(sid) <= \
                toy_network.sector(sid).max_power_dbm + 1e-9

    def test_utility_trace_monotone(self, toy_evaluator, toy_network,
                                    outage):
        _, c_upgrade, baseline = outage
        result = tune_power(toy_evaluator, toy_network, c_upgrade,
                            baseline, [1])
        trace = result.utility_trace()
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_max_iterations_respected(self, toy_evaluator, toy_network,
                                      outage):
        _, c_upgrade, baseline = outage
        result = tune_power(toy_evaluator, toy_network, c_upgrade,
                            baseline, [1],
                            PowerSearchSettings(max_iterations=1))
        assert result.n_steps <= 1

    def test_no_degradation_terminates_recovered(self, toy_evaluator,
                                                 toy_network):
        """If the start state already matches the baseline, G is empty."""
        c = toy_network.planned_configuration()
        baseline = toy_evaluator.state_of(c)
        result = tune_power(toy_evaluator, toy_network, c, baseline, [1])
        assert result.termination == "recovered"
        assert result.n_steps == 0

    def test_target_already_offline_is_never_candidate(
            self, toy_evaluator, toy_network, outage):
        _, c_upgrade, baseline = outage
        result = tune_power(toy_evaluator, toy_network, c_upgrade,
                            baseline, [1])
        assert not result.final_config.is_active(1)


class TestPrefilterAblation:
    @pytest.mark.parametrize("prefilter", ["sinr", "rate", "none"])
    def test_all_modes_improve(self, toy_engine, toy_density, toy_network,
                               prefilter):
        ev = Evaluator(toy_engine, toy_density)
        c_before = toy_network.planned_configuration()
        baseline = ev.state_of(c_before)
        c_upgrade = c_before.with_offline([1])
        result = tune_power(ev, toy_network, c_upgrade, baseline, [1],
                            PowerSearchSettings(prefilter=prefilter))
        assert result.final_utility >= result.initial_utility

    def test_sinr_prefilter_spends_no_more_evaluations(
            self, toy_engine, toy_density, toy_network):
        results = {}
        for prefilter in ("sinr", "none"):
            ev = Evaluator(toy_engine, toy_density)
            c_before = toy_network.planned_configuration()
            baseline = ev.state_of(c_before)
            meter = ev.cost_meter()
            result = tune_power(ev, toy_network,
                                c_before.with_offline([1]), baseline, [1],
                                PowerSearchSettings(prefilter=prefilter))
            results[prefilter] = (meter.spent(), result.final_utility)
        # Same steps cost at most as many model calls with the filter.
        assert results["sinr"][0] <= results["none"][0]


# ----------------------------------------------------------------------
# The capture pre-filter reads candidate dB rows at the affected grids
# ----------------------------------------------------------------------
def _full_grid_can_help(rp, state, affected, sector_id, unit):
    """The full-grid reference: ``rp`` is the candidate's whole RP plane
    (``-inf`` off-air), tested at every grid and masked afterwards."""
    if ((state.serving == sector_id) & affected).any():
        return True
    return bool(((rp + unit > state.rp_best_dbm) & affected).any())


def _reference_prefilter(engine, config, state, affected, candidates, unit):
    rows = received_power_dbm(engine.pathloss, config, candidates)
    return [b for b, rp in zip(candidates, rows)
            if _full_grid_can_help(rp, state, affected, b, unit)]


@pytest.fixture
def rough_evaluator(rough_world):
    grid, env, network = rough_world
    db = PathLossDatabase.from_environment(network, env, seed=5)
    engine = AnalysisEngine(db, link=LinkAdaptation())
    density = uniform_per_sector_density(
        engine.evaluate(network.planned_configuration(),
                        np.zeros(grid.shape)), 90.0)
    return network, Evaluator(engine, density)


def _rough_configs(network):
    """Planned, off-air sectors, rotated patterns, off-catalogue tilts
    and raised powers: every input the pre-filter reads varies."""
    planned = network.planned_configuration()
    return [
        planned,
        planned.with_offline([4, 7]),
        planned.with_azimuth_offset(2, 25.0).with_azimuth_offset(9, -40.0),
        planned.with_tilt(0, 2.5).with_tilt(5, 7.25).with_offline([3]),
        planned.with_power(1, 45.5).with_power(10, 38.0),
    ]


class TestCapturePrefilter:
    def test_matches_full_grid_reference(self, rough_evaluator):
        network, ev = rough_evaluator
        db = ev.engine.pathloss
        rng = np.random.default_rng(28)
        everyone = list(range(network.n_sectors))
        baseline = ev.state_of(network.planned_configuration())
        kept_any = dropped_any = False
        for config in _rough_configs(network):
            state = ev.state_of(config)
            masks = [np.zeros(state.serving.shape, bool),
                     np.ones(state.serving.shape, bool),
                     state.degraded_grids(baseline),
                     rng.random(state.serving.shape) < 0.05,
                     rng.random(state.serving.shape) < 0.3]
            for affected in masks:
                for unit in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
                    got = _may_help(db, config, state, affected,
                                    everyone, unit)
                    want = _reference_prefilter(ev.engine, config, state,
                                                affected, everyone, unit)
                    assert got == want
                    kept_any |= bool(got)
                    dropped_any |= len(got) < len(everyone)
        # Both outcomes occur, so the comparison is not vacuous.
        assert kept_any and dropped_any

    def _hand_state(self, ev, config, sector, unit, rp_best_offset):
        """Grid 0 served by another sector, with the best RP set to
        ``sector``'s boosted RP there plus ``rp_best_offset``."""
        db = ev.engine.pathloss
        row = db.gain_row_db(sector, config.tilt_deg(sector))
        boosted = config.power_dbm(sector) + row.ravel()[0] + unit
        shape = row.shape
        serving = np.full(shape, (sector + 1) % config.n_sectors)
        rp_best = np.full(shape, np.inf)
        rp_best.ravel()[0] = boosted + rp_best_offset
        affected = np.zeros(shape, bool)
        affected.ravel()[0] = True
        return SimpleNamespace(serving=serving, rp_best_dbm=rp_best), \
            affected

    @pytest.mark.parametrize("unit", [1.0, 3.0, 6.0])
    def test_tie_does_not_capture(self, rough_evaluator, unit):
        """A boosted RP that only equals the best server's captures
        nothing: the test is strict, as Algorithm 1's ``>``."""
        network, ev = rough_evaluator
        config = network.planned_configuration()
        db = ev.engine.pathloss
        for offset, kept in ((0.0, []), (1e-9, []), (-1e-9, [2])):
            state, affected = self._hand_state(ev, config, 2, unit, offset)
            assert _may_help(db, config, state, affected, [2], unit) == kept
            assert _reference_prefilter(ev.engine, config, state, affected,
                                        [2], unit) == kept

    def test_serving_sector_kept_without_capture(self, rough_evaluator):
        """A candidate serving an affected grid is kept even where its
        boost could capture nothing."""
        network, ev = rough_evaluator
        config = network.planned_configuration()
        state, affected = self._hand_state(ev, config, 2, 1.0, 1e3)
        state.serving.ravel()[0] = 2
        assert _may_help(ev.engine.pathloss, config, state, affected,
                         [2], 1.0) == [2]
        assert _reference_prefilter(ev.engine, config, state, affected,
                                    [2], 1.0) == [2]

    def test_off_air_candidate_never_captures(self, rough_evaluator):
        network, ev = rough_evaluator
        config = network.planned_configuration().with_offline([2])
        state, affected = self._hand_state(
            ev, network.planned_configuration(), 2, 1.0, -1e3)
        assert _may_help(ev.engine.pathloss, config, state, affected,
                         [2], 1.0) == []
        assert _reference_prefilter(ev.engine, config, state, affected,
                                    [2], 1.0) == []

    def test_search_builds_no_db_stack(self, rough_evaluator,
                                       monkeypatch):
        network, ev = rough_evaluator
        db = ev.engine.pathloss

        def refuse(*args, **kwargs):
            raise AssertionError("an (S, H, W) dB stack was built")

        monkeypatch.setattr(PathLossDatabase, "gain_tensor", refuse)
        c_before = network.planned_configuration()
        tune_power(ev, network, c_before.with_offline([4, 5]),
                   ev.state_of(c_before), [4, 5])
        assert db._row_db.cache_info().currsize > 0


# ----------------------------------------------------------------------
# Exact step utilities: winners are taken at their scores
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestStepUtilitiesExact:
    @pytest.mark.parametrize("prefilter", ["sinr", "rate", "none"])
    def test_power_steps_equal_full_utility(self, toy_engine, toy_density,
                                            toy_network, monkeypatch,
                                            prefilter):
        """Every recorded step utility equals a full evaluation of the
        step's configuration; the scored filters ask ``utility_of``
        only for the start."""
        c_before = toy_network.planned_configuration()
        ev = Evaluator(toy_engine, toy_density)
        baseline = ev.state_of(c_before)
        calls = _count_calls(monkeypatch, ev, "utility_of")
        result = tune_power(ev, toy_network, c_before.with_offline([1]),
                            baseline, [1],
                            PowerSearchSettings(prefilter=prefilter))
        assert result.n_steps > 0
        assert_step_utilities_exact(result, toy_engine, toy_density)
        if prefilter != "rate":
            assert len(calls) == 1

    def test_joint_steps_equal_full_utility(self, toy_engine, toy_density,
                                            toy_network):
        c_before = toy_network.planned_configuration()
        ev = Evaluator(toy_engine, toy_density)
        result = tune_joint(ev, toy_network, c_before.with_offline([1]),
                            ev.state_of(c_before), [1])
        assert result.n_steps > 0
        assert_step_utilities_exact(result, toy_engine, toy_density)


class TestJointPowerOnlyPass:
    def _joint(self, toy_engine, toy_density, toy_network, monkeypatch,
               tilt_settings):
        ev = Evaluator(toy_engine, toy_density)
        c_before = toy_network.planned_configuration()
        baseline = ev.state_of(c_before)
        calls = _count_calls(monkeypatch, joint, "tune_power")
        result = tune_joint(ev, toy_network, c_before.with_offline([1]),
                            baseline, [1], tilt_settings=tilt_settings)
        return result, calls

    def test_single_power_pass_when_tilt_accepts_nothing(
            self, toy_engine, toy_density, toy_network, monkeypatch):
        result, calls = self._joint(
            toy_engine, toy_density, toy_network, monkeypatch,
            TiltSearchSettings(max_steps_per_sector=0))
        assert len(calls) == 1
        assert not any(s.change.parameter is Parameter.TILT
                       for s in result.steps)
        # The plan is the pure power plan, as when it was searched twice.
        ev = Evaluator(toy_engine, toy_density)
        c_before = toy_network.planned_configuration()
        power_only = tune_power(ev, toy_network,
                                c_before.with_offline([1]),
                                ev.state_of(c_before), [1])
        assert result.final_config == power_only.final_config
        assert result.final_utility == power_only.final_utility
        assert result.steps == power_only.steps
        assert result.termination == power_only.termination

    def test_both_power_passes_after_a_tilt_step(
            self, toy_engine, toy_density, toy_network, monkeypatch):
        result, calls = self._joint(toy_engine, toy_density, toy_network,
                                    monkeypatch, None)
        assert any(s.change.parameter is Parameter.TILT
                   for s in result.steps)
        assert len(calls) == 2
