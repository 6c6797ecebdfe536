"""Tests for the azimuth-tuning extension."""

import numpy as np
import pytest

from repro.core.azimuth import AzimuthSearchSettings, tune_azimuth
from repro.core.magus import Magus, TUNING_STRATEGIES
from repro.core.plan import Parameter


@pytest.fixture
def outage(toy_network):
    return toy_network.planned_configuration().with_offline([1])


class TestAzimuthPhysics:
    def test_offset_rotates_pattern(self, toy_pathloss, toy_network):
        """Rotating sector 0 (facing west at (-1000, 0)) toward the
        dead center sector raises gain toward the center."""
        sector = toy_network.sector(0)
        grid = toy_pathloss.grid
        base = toy_pathloss.gain_matrix(0, sector.planned_tilt_deg)
        rotated = toy_pathloss.gain_matrix(0, sector.planned_tilt_deg,
                                           azimuth_offset_deg=90.0)
        toward_center = grid.cell_of(-200.0, 0.0)   # east of sector 0
        away = grid.cell_of(-1_400.0, 0.0)          # its old boresight
        assert rotated[toward_center] > base[toward_center]
        assert rotated[away] < base[away]

    def test_zero_offset_is_identity(self, toy_pathloss, toy_network):
        tilt = toy_network.sector(0).planned_tilt_deg
        a = toy_pathloss.gain_matrix(0, tilt)
        b = toy_pathloss.gain_matrix(0, tilt, azimuth_offset_deg=0.0)
        assert np.array_equal(a, b)

    def test_tensor_cache_keyed_on_offsets(self, toy_pathloss,
                                           toy_network):
        tilts = toy_network.planned_configuration().tilts()
        plain = toy_pathloss.gain_tensor(tilts)
        rotated = toy_pathloss.gain_tensor(
            tilts, np.asarray([30.0, 0.0, 0.0]))
        assert not np.array_equal(plain[0], rotated[0])
        assert np.array_equal(plain[1], rotated[1])
        # The stacks read the row LRU, keyed on the offset too.
        row = toy_pathloss.gain_row_db(0, tilts[0], 30.0)
        assert row is not toy_pathloss.gain_row_db(0, tilts[0])
        assert row is toy_pathloss.gain_row_db(0, tilts[0], 30.0)
        assert np.array_equal(rotated[0], row)


class TestAzimuthSearch:
    def test_improves_or_holds(self, toy_evaluator, toy_network, outage):
        result = tune_azimuth(toy_evaluator, toy_network, outage, [1])
        assert result.final_utility >= result.initial_utility

    def test_changes_are_azimuth_on_neighbors(self, toy_evaluator,
                                              toy_network, outage):
        result = tune_azimuth(toy_evaluator, toy_network, outage, [1])
        for change in result.changes():
            assert change.parameter is Parameter.AZIMUTH
            assert change.sector_id != 1

    def test_offsets_bounded(self, toy_evaluator, toy_network, outage):
        settings = AzimuthSearchSettings(step_deg=15.0,
                                         max_offset_deg=45.0)
        result = tune_azimuth(toy_evaluator, toy_network, outage, [1],
                              settings)
        for sid in range(toy_network.n_sectors):
            assert abs(result.final_config.azimuth_offset_deg(sid)) \
                <= 45.0 + 1e-9

    def test_each_step_improves(self, toy_evaluator, toy_network,
                                outage):
        result = tune_azimuth(toy_evaluator, toy_network, outage, [1])
        trace = result.utility_trace()
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_bad_step_rejected(self, toy_evaluator, toy_network, outage):
        with pytest.raises(ValueError):
            tune_azimuth(toy_evaluator, toy_network, outage, [1],
                         AzimuthSearchSettings(step_deg=0.0))


class TestMagusIntegration:
    def test_strategy_registered(self):
        assert "azimuth" in TUNING_STRATEGIES

    def test_azimuth_plan_and_gradual(self, toy_network, toy_engine,
                                      toy_density):
        magus = Magus(toy_network, toy_engine, toy_density)
        plan = magus.plan_mitigation([1], tuning="azimuth")
        assert plan.f_after >= plan.f_upgrade
        # Azimuth changes flow through the gradual scheduler too.
        gradual = magus.gradual_schedule(plan)
        assert gradual.final_config == plan.c_after
        assert gradual.min_utility >= gradual.floor_utility - 1e-9
