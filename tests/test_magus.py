"""Unit tests for the Magus facade."""

import pytest

from repro.core.brute import BruteForceSettings
from repro.core.evaluation import Evaluator
from repro.core.magus import Magus, TUNING_STRATEGIES
from repro.core.search import tune_power
from repro.core.tilt import tune_tilt
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture
def magus(toy_network, toy_engine, toy_density):
    return Magus(toy_network, toy_engine, toy_density)


class TestPlanMitigation:
    @pytest.mark.parametrize("tuning", TUNING_STRATEGIES)
    def test_all_strategies_run(self, magus, tuning):
        plan = magus.plan_mitigation([1], tuning=tuning)
        assert plan.f_before > plan.f_upgrade         # outage hurts
        assert plan.f_after >= plan.f_upgrade         # tuning never hurts
        assert plan.recovery >= 0.0

    def test_ordering_joint_dominates(self, magus):
        tilt = magus.plan_mitigation([1], tuning="tilt")
        joint = magus.plan_mitigation([1], tuning="joint")
        assert joint.f_after >= tilt.f_after - 1e-9

    def test_target_off_in_outputs(self, magus):
        plan = magus.plan_mitigation([1], tuning="power")
        assert not plan.c_upgrade.is_active(1)
        assert not plan.c_after.is_active(1)
        assert plan.c_before.is_active(1)

    def test_multi_target(self, magus):
        plan = magus.plan_mitigation([0, 1], tuning="power")
        assert plan.target_sectors == (0, 1)
        assert not plan.c_after.is_active(0)
        assert not plan.c_after.is_active(1)

    def test_empty_targets_rejected(self, magus):
        with pytest.raises(ValueError):
            magus.plan_mitigation([])

    def test_already_offline_target_rejected(self, magus, toy_network):
        dark = toy_network.planned_configuration().with_offline([1])
        with pytest.raises(ValueError, match="off-air"):
            magus.plan_mitigation([1], c_before=dark)

    def test_unknown_strategy_rejected(self, magus):
        with pytest.raises(ValueError, match="unknown tuning"):
            magus.plan_mitigation([1], tuning="quantum")

    def test_utility_name_recorded(self, toy_network, toy_engine,
                                   toy_density):
        m = Magus(toy_network, toy_engine, toy_density, utility="coverage")
        plan = m.plan_mitigation([1], tuning="power")
        assert plan.utility_name == "coverage"


class TestBruteForcePlan:
    def test_brute_dominates_heuristic(self, magus):
        heuristic = magus.plan_mitigation([1], tuning="power")
        brute = magus.brute_force_plan(
            [1], BruteForceSettings(unit_db=1.0, max_delta_db=3.0))
        assert brute.f_after >= \
            min(heuristic.f_after, brute.f_upgrade) - 1e-9

    def test_empty_targets_rejected(self, magus):
        with pytest.raises(ValueError, match="at least one target"):
            magus.brute_force_plan([])

    def test_already_offline_target_rejected(self, toy_network, toy_engine,
                                             toy_density):
        dark = toy_network.planned_configuration().with_offline([1])
        magus = Magus(toy_network, toy_engine, toy_density,
                      default_config=dark)
        with pytest.raises(ValueError, match="off-air"):
            magus.brute_force_plan([1])


class TestSearchCost:
    """A plan's ``evaluations`` is its one search-cost number: the
    distinct model evaluations the evaluator's cost meter counted over
    the whole plan, the two baseline evaluations included."""

    @pytest.mark.parametrize("tuning", TUNING_STRATEGIES + ("brute",))
    def test_plan_reports_metered_evaluations(self, magus, tuning):
        with use_registry(MetricsRegistry()) as registry:
            meter = magus.evaluator.cost_meter()
            if tuning == "brute":
                plan = magus.brute_force_plan(
                    [1], BruteForceSettings(max_delta_db=3.0))
            else:
                plan = magus.plan_mitigation([1], tuning=tuning)
            spent = meter.spent()
        counted = registry.counter("magus.plan.model_evaluations").value
        assert plan.evaluations == spent == counted > 2

    def test_joint_counts_both_branches(self, toy_network, toy_engine,
                                        toy_density):
        """Tilt accepts steps for target 1, so joint runs tilt then
        power, and the pure power plan besides: its cost exceeds a
        fresh power plan's and the tilt-then-power branch's alone,
        whichever branch wins."""
        joint = Magus(toy_network, toy_engine,
                      toy_density).plan_mitigation([1], tuning="joint")
        power = Magus(toy_network, toy_engine,
                      toy_density).plan_mitigation([1], tuning="power")
        ev = Evaluator(toy_engine, toy_density)
        meter = ev.cost_meter()
        c_before = toy_network.planned_configuration()
        baseline = ev.state_of(c_before)
        c_upgrade = c_before.with_offline([1])
        ev.utility_of(c_upgrade)
        tilted = tune_tilt(ev, toy_network, c_upgrade, [1])
        tune_power(ev, toy_network, tilted.final_config, baseline, [1])
        assert tilted.n_steps > 0
        assert joint.evaluations > max(power.evaluations, meter.spent())


class TestGradualAndFeedback:
    def test_gradual_schedule_roundtrip(self, magus):
        plan = magus.plan_mitigation([1], tuning="joint")
        gradual = magus.gradual_schedule(plan)
        assert gradual.final_config == plan.c_after
        assert gradual.floor_utility == pytest.approx(plan.f_after)

    def test_gradual_schedule_reports_its_evaluations(
            self, toy_network, toy_engine, toy_density):
        """The schedule reports the evaluations one meter counts over
        the whole call; compensating steps make it spend some."""
        magus = Magus(toy_network, toy_engine, toy_density)
        plan = magus.plan_mitigation([1], tuning="joint")
        meter = magus.evaluator.cost_meter()
        gradual = magus.gradual_schedule(plan)
        assert gradual.compensation_steps
        assert gradual.evaluations == meter.spent() > 0

    def test_direct_stats(self, magus):
        plan = magus.plan_mitigation([1], tuning="joint")
        direct = magus.direct_migration_stats(plan)
        assert direct.n_steps == 1
        assert direct.peak_simultaneous_ues >= 0

    def test_feedback_warm_start(self, magus):
        plan = magus.plan_mitigation([1], tuning="power")
        cold = magus.reactive_feedback_run([1])
        warm = magus.reactive_feedback_run([1], warm_start=plan.c_after)
        assert warm.idealized_steps <= cold.idealized_steps
