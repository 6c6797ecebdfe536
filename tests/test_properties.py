"""Property-based tests (hypothesis) on core data structures and
invariants: link adaptation monotonicity, configuration algebra,
recovery-ratio bounds, SINR physics, attenuator semantics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import empirical_cdf, improvement_ratio
from repro.core.plan import recovery_ratio
from repro.model.antenna import AntennaPattern, TiltRange
from repro.model.geometry import GridSpec, Region
from repro.model.linkrate import LinkAdaptation
from repro.model.network import CellularNetwork, Configuration, SectorSetting
from repro.testbed.channel import AttenuatorSpec

from conftest import make_sectors

finite = st.floats(allow_nan=False, allow_infinity=False)


def _factors(config: Configuration) -> np.ndarray:
    """Every sector's :meth:`SectorSetting.power_factor`, in order."""
    return np.asarray([s.power_factor() for s in config.settings])


class TestLinkAdaptationProperties:
    @given(st.floats(min_value=-40.0, max_value=60.0),
           st.floats(min_value=-40.0, max_value=60.0))
    def test_rate_monotone(self, a, b):
        link = LinkAdaptation()
        lo, hi = min(a, b), max(a, b)
        assert link.max_rate_bps(lo) <= link.max_rate_bps(hi)

    @given(st.floats(min_value=-40.0, max_value=60.0))
    def test_cqi_in_range(self, sinr):
        cqi = int(LinkAdaptation().cqi_for_sinr(sinr))
        assert 0 <= cqi <= 15

    @given(st.floats(min_value=1.4, max_value=20.0))
    def test_rate_scales_with_bandwidth(self, mhz):
        wide = LinkAdaptation(bandwidth_mhz=mhz)
        narrow = LinkAdaptation(bandwidth_mhz=1.4)
        assert wide.max_rate_bps(20.0) >= narrow.max_rate_bps(20.0)


class TestRecoveryRatioProperties:
    @given(finite, finite, finite)
    def test_ratio_is_finite_when_degraded(self, f_b, f_u, f_a):
        if f_b - f_u > 1e-9:
            r = recovery_ratio(f_b, f_u, f_a)
            assert math.isfinite(r)

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    def test_full_recovery_is_one(self, f_b, f_u):
        if f_b > f_u + 1e-6:
            assert recovery_ratio(f_b, f_u, f_b) == pytest.approx(1.0)

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_f_after(self, f_b, f_u, t):
        if f_b > f_u + 1e-6:
            mid = f_u + t * (f_b - f_u)
            assert recovery_ratio(f_b, f_u, mid) <= \
                recovery_ratio(f_b, f_u, f_b) + 1e-9


class TestConfigurationAlgebra:
    @st.composite
    def config_and_sector(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        positions = [(float(i) * 500.0, 0.0) for i in range(n)]
        net = CellularNetwork(make_sectors(positions))
        sid = draw(st.integers(min_value=0, max_value=n - 1))
        return net.planned_configuration(), sid

    @given(config_and_sector(),
           st.floats(min_value=10.0, max_value=46.0))
    def test_with_power_roundtrip(self, cs, power):
        config, sid = cs
        original = config.power_dbm(sid)
        there = config.with_power(sid, power)
        back = there.with_power(sid, original)
        assert back == config

    @given(config_and_sector())
    def test_offline_online_inverse(self, cs):
        config, sid = cs
        assert config.with_offline([sid]).with_online([sid]) == config

    @given(config_and_sector(),
           st.floats(min_value=-5.0, max_value=20.0))
    def test_power_delta_never_exceeds_cap(self, cs, delta):
        config, sid = cs
        capped = config.with_power_delta(sid, delta, max_power_dbm=46.0)
        assert capped.power_dbm(sid) <= 46.0 + 1e-9

    @given(config_and_sector())
    def test_diff_reflexive_empty(self, cs):
        config, _ = cs
        assert config.diff(config) == {}

    _steps = st.lists(st.tuples(
        st.sampled_from(["power", "tilt", "offline", "online"]),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=-10.0, max_value=50.0)), max_size=8)

    @staticmethod
    def _derive(config, steps, warm=False):
        """Apply ``steps``; ``warm`` fills each step's caches first, so
        a parent's cached hash and factors must not leak into a child."""
        for kind, sector, value in steps:
            if warm:
                hash(config), _factors(config)
            sid = sector % config.n_sectors
            if kind == "power":
                config = config.with_power(sid, value)
            elif kind == "tilt":
                config = config.with_tilt(sid, value)
            elif kind == "offline":
                config = config.with_offline([sid])
            else:
                config = config.with_online([sid])
        return config

    @given(config_and_sector(), _steps)
    def test_derived_equals_fresh(self, cs, steps):
        config, _ = cs
        derived = self._derive(config, steps, warm=True)
        fresh = Configuration(tuple(
            SectorSetting(s.power_dbm, s.tilt_deg, s.active,
                          s.azimuth_offset_deg)
            for s in derived.settings))
        assert derived == fresh
        assert (hash(derived) == hash(fresh)
                == hash(tuple(map(hash, fresh.settings))))
        assert _factors(derived).tobytes() == _factors(fresh).tobytes()

    @given(config_and_sector(), _steps)
    def test_pickle_carries_no_derived_cache(self, cs, steps):
        derived = self._derive(cs[0], steps)
        hash(derived), _factors(derived)
        copy = pickle.loads(pickle.dumps(derived))
        assert "_hash" not in copy.__dict__
        assert "_hashes" not in copy.__dict__
        assert all("_hash" not in s.__dict__ for s in copy.settings)
        assert all("_power_factor" not in s.__dict__
                   for s in copy.settings)
        assert copy == derived and hash(copy) == hash(derived)
        assert _factors(copy).tobytes() == _factors(derived).tobytes()
        # A child of the copy derives its hashes from the copy's.
        child = copy.with_tilt(0, 2.0)
        assert hash(child) == hash(derived.with_tilt(0, 2.0))

    @given(st.lists(st.tuples(st.floats(min_value=-30.0, max_value=60.0),
                              st.sampled_from([float, np.float64,
                                               np.float32]),
                              st.booleans()),
                    min_size=1, max_size=8))
    def test_power_factors_equal_vector_expression(self, rows):
        settings = tuple(SectorSetting(kind(p), 4.0, active)
                         for p, kind, active in rows)
        factors = _factors(Configuration(settings))
        powers = np.asarray([s.power_dbm for s in settings],
                            dtype=np.float64)
        active = np.asarray([s.active for s in settings])
        expected = np.where(active, np.power(10.0, powers / 10.0), 0.0)
        assert all(type(s.power_factor()) is np.float64 for s in settings)
        assert factors.tobytes() == expected.tobytes()

    @given(config_and_sector(), st.floats(min_value=10.0, max_value=46.0))
    def test_derived_factors_compute_only_the_changed_setting(self, cs,
                                                              power):
        config, sid = cs
        _factors(config)
        child = config.with_power(sid, power)
        assert all(c is p for i, (c, p) in
                   enumerate(zip(child.settings, config.settings))
                   if i != sid)
        assert "_power_factor" not in child.settings[sid].__dict__
        _factors(child)
        assert "_power_factor" in child.settings[sid].__dict__

    @given(st.floats(min_value=-30.0, max_value=60.0), st.booleans())
    def test_pickled_setting_carries_no_power_factor(self, power, active):
        setting = SectorSetting(power, 4.0, active)
        factor = setting.power_factor()
        copy = pickle.loads(pickle.dumps(setting))
        assert "_power_factor" not in copy.__dict__
        assert copy == setting
        assert copy.power_factor().tobytes() == factor.tobytes()

    @given(config_and_sector(), _steps)
    def test_non_finite_change_names_sector(self, cs, steps):
        config, sid = cs
        derived = self._derive(config, steps)
        with pytest.raises(ValueError, match=rf"sectors \[{sid}\]"):
            derived.with_power(sid, math.nan)
        with pytest.raises(ValueError, match=rf"sectors \[{sid}\]"):
            derived.with_tilt(sid, math.inf)


class TestGeometryProperties:
    @given(st.floats(min_value=200.0, max_value=50_000.0),
           st.floats(min_value=50.0, max_value=1_000.0))
    def test_grid_covers_region(self, side, cell):
        grid = GridSpec(Region.square(side), cell_size=cell)
        assert grid.n_rows * grid.cell_size >= grid.region.height - 1e-6
        assert grid.n_cols * grid.cell_size >= grid.region.width - 1e-6

    @given(st.floats(min_value=-900.0, max_value=899.0),
           st.floats(min_value=-900.0, max_value=899.0))
    def test_cell_of_always_valid(self, x, y):
        grid = GridSpec(Region.square(1_800.0), cell_size=130.0)
        row, col = grid.cell_of(x, y)
        assert 0 <= row < grid.n_rows
        assert 0 <= col < grid.n_cols


class TestAntennaProperties:
    @given(st.floats(min_value=-360.0, max_value=360.0),
           st.floats(min_value=-90.0, max_value=90.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_gain_bounded(self, phi, theta, tilt):
        ant = AntennaPattern()
        g = float(ant.gain_db(phi, theta, tilt))
        assert ant.gain_dbi - ant.front_back_db <= g <= ant.gain_dbi

    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_tilt_clamp_idempotent(self, tilt):
        tr = TiltRange(normal_deg=4.0, min_deg=0.0, max_deg=8.0,
                       step_deg=0.5)
        snapped = tr.clamp(tilt)
        assert tr.clamp(snapped) == snapped
        assert tr.min_deg <= snapped <= tr.max_deg


class TestAttenuatorProperties:
    @given(st.integers(min_value=1, max_value=30))
    def test_power_monotone_in_level(self, level):
        spec = AttenuatorSpec()
        if level < 30:
            assert spec.power_dbm(level) > spec.power_dbm(level + 1)
        assert spec.power_dbm(level) <= spec.max_power_dbm


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0),
                    min_size=1, max_size=50))
    def test_cdf_properties(self, values):
        xs, ps = empirical_cdf(values)
        assert len(xs) == len(values)
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ps) > 0)
        assert ps[-1] == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.001, max_value=10.0))
    def test_improvement_ratio_sign(self, magus, naive):
        r = improvement_ratio(magus, naive)
        assert r >= 0.0
        assert math.isfinite(r)
