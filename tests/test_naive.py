"""Unit tests for the naive sequential power baseline."""

import pytest

from repro.core.naive import NaiveSettings, tune_naive
from repro.core.plan import Parameter


@pytest.fixture
def c_upgrade(toy_network):
    return toy_network.planned_configuration().with_offline([1])


class TestNaive:
    def test_improves_or_holds(self, toy_evaluator, toy_network, c_upgrade):
        result = tune_naive(toy_evaluator, toy_network, c_upgrade, [1])
        assert result.final_utility >= result.initial_utility

    def test_visits_neighbors_in_order(self, toy_evaluator, toy_network,
                                       c_upgrade):
        """The sweep never returns to an earlier neighbor."""
        result = tune_naive(toy_evaluator, toy_network, c_upgrade, [1])
        order = toy_network.neighbors_of([1], radius_m=5_000.0)
        last_rank = -1
        for change in result.changes():
            rank = order.index(change.sector_id)
            assert rank >= last_rank
            last_rank = rank

    def test_only_power_increases(self, toy_evaluator, toy_network,
                                  c_upgrade):
        result = tune_naive(toy_evaluator, toy_network, c_upgrade, [1])
        for change in result.changes():
            assert change.parameter is Parameter.POWER
            assert change.delta == pytest.approx(1.0)

    def test_step_cap(self, toy_evaluator, toy_network, c_upgrade):
        result = tune_naive(toy_evaluator, toy_network, c_upgrade, [1],
                            NaiveSettings(max_steps_per_sector=1))
        per_sector = {}
        for ch in result.changes():
            per_sector[ch.sector_id] = per_sector.get(ch.sector_id, 0) + 1
        assert all(v <= 1 for v in per_sector.values())

    def test_one_eval_per_step_plus_rejections(self, toy_evaluator,
                                               toy_network, c_upgrade):
        """The start, then one evaluation per accepted step and at
        most one rejected trial per neighbor."""
        neighbors = toy_network.neighbors_of(
            [1], radius_m=NaiveSettings().neighbor_radius_m,
            max_neighbors=NaiveSettings().max_neighbors)
        meter = toy_evaluator.cost_meter()
        result = tune_naive(toy_evaluator, toy_network, c_upgrade, [1])
        assert (result.n_steps + 1 <= meter.spent()
                <= result.n_steps + 1 + len(neighbors))
