"""Unit tests for gradual migration and the direct comparator."""

import pytest

from repro.core.gradual import (GradualSettings, decompose_changes,
                                gradual_migration, simulate_direct)
from repro.core.joint import tune_joint
from repro.core.plan import Parameter


@pytest.fixture
def planned(toy_evaluator, toy_network):
    """A C_before / C_after pair from a real joint-tuning run."""
    c_before = toy_network.planned_configuration()
    baseline = toy_evaluator.state_of(c_before)
    c_upgrade = c_before.with_offline([1])
    result = tune_joint(toy_evaluator, toy_network, c_upgrade,
                        baseline, [1])
    return c_before, result.final_config


class TestGradualMigration:
    def test_floor_invariant(self, toy_evaluator, toy_network, planned):
        """The headline guarantee: utility never below f(C_after)."""
        c_before, c_after = planned
        result = gradual_migration(toy_evaluator, toy_network,
                                   c_before, c_after, [1])
        assert result.min_utility >= result.floor_utility - 1e-9

    def test_ends_at_c_after(self, toy_evaluator, toy_network, planned):
        c_before, c_after = planned
        result = gradual_migration(toy_evaluator, toy_network,
                                   c_before, c_after, [1])
        assert result.final_config == c_after
        assert not result.final_config.is_active(1)

    def test_batches_align_with_steps(self, toy_evaluator, toy_network,
                                      planned):
        c_before, c_after = planned
        result = gradual_migration(toy_evaluator, toy_network,
                                   c_before, c_after, [1])
        assert len(result.batches) == len(result.configs) - 1
        assert len(result.utilities) == len(result.configs)

    def test_peak_not_worse_than_direct(self, toy_evaluator, toy_network,
                                        planned):
        c_before, c_after = planned
        gradual = gradual_migration(toy_evaluator, toy_network,
                                    c_before, c_after, [1])
        direct = simulate_direct(toy_evaluator, c_before, c_after)
        assert gradual.stats().peak_simultaneous_ues <= \
            direct.peak_simultaneous_ues + 1e-9

    def test_seamless_fraction_at_least_direct(self, toy_evaluator,
                                               toy_network, planned):
        c_before, c_after = planned
        gradual = gradual_migration(toy_evaluator, toy_network,
                                    c_before, c_after, [1])
        direct = simulate_direct(toy_evaluator, c_before, c_after)
        assert gradual.stats().seamless_fraction >= \
            direct.seamless_fraction - 1e-9

    def test_target_power_ramps_down(self, toy_evaluator, toy_network,
                                     planned):
        c_before, c_after = planned
        result = gradual_migration(
            toy_evaluator, toy_network, c_before, c_after, [1],
            GradualSettings(target_step_db=2.0))
        powers = [c.power_dbm(1) for c in result.configs
                  if c.is_active(1)]
        assert all(b <= a for a, b in zip(powers, powers[1:]))

    def test_rejects_online_targets(self, toy_evaluator, toy_network,
                                    planned):
        c_before, _ = planned
        with pytest.raises(ValueError, match="off-air"):
            gradual_migration(toy_evaluator, toy_network, c_before,
                              c_before, [1])


class TestCompensationReadsMemo:
    """A compensation's chosen prefix was scored exactly, so the loop's
    floor check reads it from the memo: no engine evaluation runs
    between ``_compensate`` returning and that check's answer."""

    def test_no_engine_evaluation_before_floor_check(
            self, monkeypatch, toy_evaluator, toy_network, planned):
        from repro.core import gradual
        c_before, c_after = planned
        engine = toy_evaluator.engine
        events = []
        for name in ("evaluate_delta", "evaluate_with_incumbent"):
            original = getattr(engine, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                events.append(("engine", _name))
                return _original(*args, **kwargs)
            monkeypatch.setattr(engine, name, spy)
        compensate = gradual._compensate

        def spy_compensate(*args, **kwargs):
            chosen = compensate(*args, **kwargs)
            events.append(("compensated", chosen))
            return chosen
        monkeypatch.setattr(gradual, "_compensate", spy_compensate)
        utility_of = toy_evaluator.utility_of

        def spy_utility(config):
            value = utility_of(config)
            events.append(("utility_of", config))
            return value
        monkeypatch.setattr(toy_evaluator, "utility_of", spy_utility)

        result = gradual_migration(toy_evaluator, toy_network, c_before,
                                   c_after, [1])
        returns = [i for i, (kind, _) in enumerate(events)
                   if kind == "compensated"]
        assert returns and result.compensation_steps
        for i in returns:
            assert events[i + 1] == ("utility_of", events[i][1])


class TestDecomposeChanges:
    def test_unit_granularity(self, toy_network, planned):
        c_before, c_after = planned
        moves = decompose_changes(c_before, c_after, [1], unit_db=1.0,
                                  network=toy_network)
        for m in moves:
            if m.parameter is Parameter.POWER:
                assert abs(m.delta) <= 1.0 + 1e-9
            assert m.sector_id != 1

    def test_moves_compose_to_c_after(self, toy_network, planned):
        """Replaying all moves on C_before reaches C_after's neighbor
        settings exactly."""
        c_before, c_after = planned
        moves = decompose_changes(c_before, c_after, [1], unit_db=1.0,
                                  network=toy_network)
        config = c_before
        for m in moves:
            if m.parameter is Parameter.POWER:
                config = config.with_power(m.sector_id, m.new_value)
            else:
                config = config.with_tilt(m.sector_id, m.new_value)
        for sid in range(toy_network.n_sectors):
            if sid == 1:
                continue
            assert config.power_dbm(sid) == pytest.approx(
                c_after.power_dbm(sid))
            assert config.tilt_deg(sid) == pytest.approx(
                c_after.tilt_deg(sid))

    def test_no_changes_no_moves(self, toy_network):
        c = toy_network.planned_configuration()
        moves = decompose_changes(c, c.with_offline([1]), [1],
                                  unit_db=1.0, network=toy_network)
        assert moves == []
