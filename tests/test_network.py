"""Unit tests for sectors, sites and the Configuration value type."""

import numpy as np
import pytest

from repro.model.antenna import TiltRange
from repro.model.network import CellularNetwork, Configuration, Sector

from conftest import make_sectors


class TestSector:
    def test_power_bounds_enforced(self):
        with pytest.raises(ValueError):
            Sector(sector_id=0, site_id=0, x=0, y=0, azimuth_deg=0,
                   power_dbm=50.0, max_power_dbm=46.0)

    def test_distance(self):
        a, b = make_sectors([(0.0, 0.0), (300.0, 400.0)])
        assert a.distance_to(b) == 500.0

    def test_planned_tilt_from_range(self):
        s = make_sectors([(0.0, 0.0)])[0]
        assert s.planned_tilt_deg == s.tilt_range.normal_deg


class TestCellularNetwork:
    def test_requires_ordered_ids(self):
        sectors = make_sectors([(0.0, 0.0), (100.0, 0.0)])
        bad = [sectors[1], sectors[0]]
        with pytest.raises(ValueError):
            CellularNetwork(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CellularNetwork([])

    def test_site_grouping(self):
        sectors = make_sectors([(0.0, 0.0)] * 3, azimuths=[0, 120, 240],
                               site_per_sector=False)
        net = CellularNetwork(sectors)
        assert len(net.sites) == 1
        assert net.co_sited(1) == [0, 1, 2]

    def test_neighbors_sorted_by_distance(self):
        net = CellularNetwork(make_sectors(
            [(0.0, 0.0), (500.0, 0.0), (2_000.0, 0.0), (9_000.0, 0.0)]))
        nbrs = net.neighbors_of([0], radius_m=5_000.0)
        assert nbrs == [1, 2]
        assert net.neighbors_of([0], radius_m=5_000.0, max_neighbors=1) == [1]

    def test_neighbors_excludes_targets(self):
        net = CellularNetwork(make_sectors(
            [(0.0, 0.0), (500.0, 0.0), (700.0, 0.0)]))
        nbrs = net.neighbors_of([0, 1], radius_m=5_000.0)
        assert 0 not in nbrs and 1 not in nbrs
        assert nbrs == [2]

    def test_neighbors_requires_target(self):
        net = CellularNetwork(make_sectors([(0.0, 0.0)]))
        with pytest.raises(ValueError):
            net.neighbors_of([])

    def test_interferer_count(self):
        net = CellularNetwork(make_sectors(
            [(0.0, 0.0), (1_000.0, 0.0), (20_000.0, 0.0)]))
        assert net.interferer_count(0, radius_m=10_000.0) == 1


class TestConfiguration:
    @pytest.fixture
    def config(self):
        net = CellularNetwork(make_sectors(
            [(0.0, 0.0), (1_000.0, 0.0), (2_000.0, 0.0)]))
        return net.planned_configuration()

    def test_planned_values(self, config):
        assert config.n_sectors == 3
        assert np.all(config.powers() == 43.0)
        assert np.all(config.active_mask())

    def test_with_power_immutable(self, config):
        new = config.with_power(1, 45.0)
        assert new.power_dbm(1) == 45.0
        assert config.power_dbm(1) == 43.0          # original untouched
        assert new is not config

    def test_with_power_delta_clamps(self, config):
        new = config.with_power_delta(0, 10.0, max_power_dbm=46.0)
        assert new.power_dbm(0) == 46.0

    def test_with_offline_online_roundtrip(self, config):
        down = config.with_offline([1])
        assert not down.is_active(1)
        assert down.active_sector_ids() == [0, 2]
        restored = down.with_online([1])
        assert restored == config

    def test_with_tilt(self, config):
        new = config.with_tilt(2, 2.0)
        assert new.tilt_deg(2) == 2.0
        assert config.tilt_deg(2) == 4.0

    def test_diff(self, config):
        new = config.with_power(0, 44.0).with_tilt(1, 3.0)
        d = config.diff(new)
        assert set(d) == {0, 1}

    def test_diff_mismatched_sizes(self, config):
        other = Configuration(config.settings[:2])
        with pytest.raises(ValueError):
            config.diff(other)

    def test_unknown_sector_raises(self, config):
        with pytest.raises(IndexError):
            config.with_power(99, 40.0)

    def test_hashable_for_memoization(self, config):
        cache = {config: 1}
        same = config.with_power(0, 44.0).with_power(0, 43.0)
        assert cache[same] == 1

    def test_cached_hash_consistent_with_eq(self, config):
        same = config.with_power(0, 44.0).with_power(0, 43.0)
        other = config.with_power(0, 44.0)
        assert hash(config) == hash(config) == hash(same)
        assert hash(config) == hash((config.settings,))
        assert config == same and config != other
        # The cache is not a field: it stays out of eq and repr.
        assert "_hash" not in repr(config)
        assert config == Configuration(config.settings)

    def test_cached_hash_survives_pickling(self, config):
        import pickle
        hash(config)                        # populate the cache
        copy = pickle.loads(pickle.dumps(config))
        assert "_hash" not in copy.__dict__  # re-hashed by the receiver
        assert copy == config and hash(copy) == hash(config)
        assert {config: 1}[copy] == 1


class TestConfigurationValidation:
    @pytest.fixture
    def network(self):
        return CellularNetwork(make_sectors(
            [(0.0, 0.0), (1_000.0, 0.0), (2_000.0, 0.0)]))

    @pytest.fixture
    def config(self, network):
        return network.planned_configuration()

    def test_nan_power_rejected_at_construction(self, config):
        with pytest.raises(ValueError, match=r"sectors \[1\]"):
            config.with_power(1, float("nan"))

    def test_inf_tilt_rejected_at_construction(self, config):
        with pytest.raises(ValueError, match="non-finite"):
            config.with_tilt(2, float("-inf"))

    def test_nan_azimuth_rejected_at_construction(self, config):
        with pytest.raises(ValueError, match="non-finite"):
            config.with_azimuth_offset(0, float("nan"))

    def test_validate_against_accepts_planned(self, network, config):
        config.validate_against(network)       # must not raise

    def test_validate_against_rejects_high_power(self, network, config):
        bad = config._replaced(1, power_dbm=60.0)
        with pytest.raises(ValueError, match="sector 1: power"):
            bad.validate_against(network)

    def test_validate_against_rejects_bad_tilt(self, network, config):
        bad = config._replaced(2, tilt_deg=45.0)
        with pytest.raises(ValueError, match="sector 2: tilt"):
            bad.validate_against(network)

    def test_validate_against_lists_every_offender(self, network, config):
        bad = config._replaced(0, power_dbm=60.0) \
                    ._replaced(2, tilt_deg=-30.0)
        with pytest.raises(ValueError) as err:
            bad.validate_against(network)
        assert "sector 0" in str(err.value)
        assert "sector 2" in str(err.value)

    def test_validate_against_wrong_sector_count(self, network, config):
        partial = Configuration(config.settings[:2])
        with pytest.raises(ValueError, match="covers 2 sectors"):
            partial.validate_against(network)
