"""Unit tests for sectors, sites and the Configuration value type."""

import numpy as np
import pytest

from repro.model.antenna import TiltRange
from repro.model.network import (CellularNetwork, Configuration, Sector,
                                  SectorSetting, _power_factor,
                                  _power_factors, dominates)

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
        assert hash(config) == hash(tuple(hash(s) for s in config.settings))
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


class TestDominates:
    """``dominates(old, new)``: the new row is >= the old one at every
    cell, decided from the two settings alone."""

    BASE = SectorSetting(power_dbm=43.0, tilt_deg=4.0)

    @staticmethod
    def _rows(setting, gain):
        """The engine's row: the gain times the factor cast to the
        plane dtype first."""
        return gain * gain.dtype.type(setting.power_factor())

    def test_power_up_dominates_power_down_does_not(self):
        up = SectorSetting(power_dbm=44.0, tilt_deg=4.0)
        assert dominates(self.BASE, up)
        assert not dominates(up, self.BASE)
        assert dominates(self.BASE, self.BASE)

    def test_factor_equal_after_the_dtype_cast(self):
        """float64 factors that round to one float32 factor: the row
        does not move in float32, and the float64 comparison decides
        (up dominates, down conservatively does not)."""
        nudged = SectorSetting(power_dbm=43.0 + 1e-9, tilt_deg=4.0)
        f_old, f_new = self.BASE.power_factor(), nudged.power_factor()
        assert f_new > f_old
        assert np.float32(f_new) == np.float32(f_old)
        assert dominates(self.BASE, nudged)
        assert not dominates(nudged, self.BASE)
        rng = np.random.default_rng(0)
        for dtype in (np.float32, np.float64):
            gain = rng.uniform(0.0, 1e-6, 4096).astype(dtype)
            gain[::7] = 0.0
            assert (self._rows(nudged, gain)
                    >= self._rows(self.BASE, gain)).all()

    def test_rounding_keeps_dominating_rows_ordered(self):
        """Whenever the predicate holds, the rounded product of any
        non-negative gain keeps the order, in both plane dtypes."""
        rng = np.random.default_rng(1)
        powers = np.concatenate([[43.0], 43.0 + rng.uniform(-1e-6, 1e-6, 50),
                                 rng.uniform(20.0, 46.0, 50)])
        settings = [SectorSetting(power_dbm=float(p), tilt_deg=4.0)
                    for p in powers]
        for dtype in (np.float32, np.float64):
            gain = (10.0 ** rng.uniform(-15, -3, 2048)).astype(dtype)
            for old in settings[:10]:
                for new in settings:
                    if dominates(old, new):
                        assert (self._rows(new, gain)
                                >= self._rows(old, gain)).all()

    def test_old_setting_off_air(self):
        dark = SectorSetting(power_dbm=43.0, tilt_deg=4.0, active=False)
        for new in (self.BASE,
                    SectorSetting(power_dbm=20.0, tilt_deg=9.0),
                    SectorSetting(power_dbm=30.0, tilt_deg=4.0,
                                  azimuth_offset_deg=10.0)):
            assert dominates(dark, new)
        assert not dominates(self.BASE, dark)

    def test_tilt_change(self):
        tilted = SectorSetting(power_dbm=46.0, tilt_deg=5.0)
        assert not dominates(self.BASE, tilted)
        assert not dominates(tilted, self.BASE)

    def test_azimuth_change(self):
        turned = SectorSetting(power_dbm=46.0, tilt_deg=4.0,
                               azimuth_offset_deg=5.0)
        assert not dominates(self.BASE, turned)
        assert not dominates(turned, self.BASE)


class TestPowerFactor:
    """``SectorSetting.power_factor`` is memoized per ``(power,
    active)`` across settings and still equals the element a
    whole-network ``_power_factors`` vector holds."""

    def _vector(self, powers, active):
        return _power_factors(np.asarray(powers, dtype=np.float64),
                              np.asarray(active))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("active", [True, False])
    def test_memo_equals_vector_element(self, dtype, active):
        powers = np.concatenate([
            np.arange(-20.0, 60.0, 0.05),
            43.0 + np.linspace(-1e-6, 1e-6, 41)]).astype(dtype)
        want = self._vector(powers, [active] * len(powers))
        for rep in range(2):             # cold, then from the memo
            got = [SectorSetting(power_dbm=p, tilt_deg=4.0,
                                 active=active).power_factor()
                   for p in powers]
            assert [float(g).hex() for g in got] == \
                [float(w).hex() for w in want]
        if not active:
            assert set(map(float, got)) == {0.0}

    def test_memo_is_bounded_and_shared(self):
        _power_factor.cache_clear()
        first = SectorSetting(power_dbm=41.5, tilt_deg=4.0)
        again = SectorSetting(power_dbm=np.float32(41.5), tilt_deg=9.0)
        assert first.power_factor() == again.power_factor()
        info = _power_factor.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None

    def test_replaced_setting_equals_dataclass_replace(self):
        from dataclasses import replace
        base = Configuration((SectorSetting(43.0, 4.0, True, 2.0),
                              SectorSetting(40.0, 6.0, False, -3.0)))
        for sector, changes in [(0, {"power_dbm": 44.0}),
                                (1, {"tilt_deg": 8.0}),
                                (1, {"azimuth_offset_deg": 0.0}),
                                (0, {"power_dbm": 0.0})]:
            got = base._replaced(sector, **changes).settings[sector]
            assert got == replace(base.settings[sector], **changes)


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
