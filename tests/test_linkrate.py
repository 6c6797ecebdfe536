"""Unit tests for the LTE link-adaptation tables and rate mapping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.model.linkrate import (CQI_SINR_THRESHOLDS_DB, CQI_TABLE,
                                  LinkAdaptation, PAPER_SINR_MIN_DB,
                                  _cqi_bins)


class TestCqiTable:
    def test_fifteen_entries(self):
        assert len(CQI_TABLE) == 15
        assert len(CQI_SINR_THRESHOLDS_DB) == 15

    def test_known_rows_of_ts36213(self):
        """Spot-check rows against TS 36.213 Table 7.2.3-1."""
        assert CQI_TABLE[0].modulation == "QPSK"
        assert CQI_TABLE[0].efficiency == pytest.approx(0.1523)
        assert CQI_TABLE[6].modulation == "16QAM"
        assert CQI_TABLE[6].code_rate_x1024 == 378
        assert CQI_TABLE[14].modulation == "64QAM"
        assert CQI_TABLE[14].efficiency == pytest.approx(5.5547)

    def test_efficiency_monotone(self):
        effs = [e.efficiency for e in CQI_TABLE]
        assert all(b > a for a, b in zip(effs, effs[1:]))

    def test_thresholds_monotone(self):
        t = CQI_SINR_THRESHOLDS_DB
        assert all(b > a for a, b in zip(t, t[1:]))


class TestLinkAdaptation:
    def test_prb_count_10mhz(self):
        assert LinkAdaptation(bandwidth_mhz=10.0).n_prb == 50
        assert LinkAdaptation(bandwidth_mhz=20.0).n_prb == 100

    def test_cqi_for_sinr_boundaries(self):
        link = LinkAdaptation()
        assert link.cqi_for_sinr(-10.0) == 0
        assert link.cqi_for_sinr(CQI_SINR_THRESHOLDS_DB[0]) == 1
        assert link.cqi_for_sinr(100.0) == 15

    def test_cqi_vectorized(self):
        link = LinkAdaptation()
        cqi = link.cqi_for_sinr(np.asarray([-10.0, 0.0, 12.0, 30.0]))
        assert list(cqi) == [0, 3, 10, 15]

    def test_peak_rate_scale(self):
        """10 MHz 64QAM peak should land in the tens of Mb/s."""
        link = LinkAdaptation(bandwidth_mhz=10.0)
        assert 25e6 < link.peak_rate_bps < 50e6

    def test_rate_monotone_in_sinr(self):
        link = LinkAdaptation()
        sinrs = np.linspace(-10.0, 30.0, 100)
        rates = link.max_rate_bps(sinrs)
        assert np.all(np.diff(rates) >= 0)

    def test_out_of_service_cutoff(self):
        link = LinkAdaptation(sinr_min_db=PAPER_SINR_MIN_DB)
        assert link.max_rate_bps(PAPER_SINR_MIN_DB - 0.1) == 0.0
        assert link.max_rate_bps(PAPER_SINR_MIN_DB + 0.1) > 0.0

    def test_high_custom_threshold(self):
        """The paper deliberately uses a high SINR_min for Figure 4."""
        strict = LinkAdaptation(sinr_min_db=10.0)
        assert strict.max_rate_bps(5.0) == 0.0
        assert strict.max_rate_bps(12.0) > 0.0
        # But CQI itself is unaffected (it's a service policy cutoff).
        assert strict.cqi_for_sinr(5.0) > 0

    def test_rate_for_cqi_matches_table(self):
        link = LinkAdaptation(bandwidth_mhz=10.0)
        for entry in CQI_TABLE:
            expected = (entry.efficiency
                        * link.resource_elements_per_tti / 1e-3)
            assert link.rate_for_cqi(entry.cqi) == pytest.approx(expected)

    def test_rate_for_cqi_zero_and_bounds(self):
        link = LinkAdaptation()
        assert link.rate_for_cqi(0) == 0.0
        with pytest.raises(ValueError):
            link.rate_for_cqi(16)
        with pytest.raises(ValueError):
            link.rate_for_cqi(-1)

    def test_spectral_efficiency(self):
        link = LinkAdaptation()
        assert link.spectral_efficiency(-20.0) == 0.0
        assert link.spectral_efficiency(100.0) == pytest.approx(5.5547)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            LinkAdaptation(bandwidth_mhz=0.0)

    def test_describe_rows(self):
        rows = LinkAdaptation().describe()
        assert len(rows) == 15
        assert "QPSK" in rows[0]
        assert "64QAM" in rows[-1]


# ----------------------------------------------------------------------
# The binned CQI lookup against the binary search it replaced
# ----------------------------------------------------------------------
_THRESHOLDS = np.asarray(CQI_SINR_THRESHOLDS_DB)
_EFFS = np.asarray([e.efficiency for e in CQI_TABLE])


def _reference_cqi(sinr_db):
    sinr = np.asarray(sinr_db, dtype=float)
    return np.searchsorted(_THRESHOLDS, sinr, side="right")


def _reference_rate(link, sinr_db):
    sinr = np.asarray(sinr_db, dtype=float)
    cqi = _reference_cqi(sinr)
    eff = np.where(cqi > 0, _EFFS[np.maximum(cqi - 1, 0)], 0.0)
    rate = eff * link.resource_elements_per_tti / 1e-3
    return np.where(sinr >= link.sinr_min_db, rate, 0.0)


def _reference_efficiency(sinr_db):
    cqi = _reference_cqi(np.asarray(sinr_db, dtype=float))
    return np.where(cqi > 0, _EFFS[np.maximum(cqi - 1, 0)], 0.0)


def _straddle(points, ulps=64):
    """Each point and its +-1..``ulps``-ulp float64 neighbours."""
    out = []
    for p in points:
        up = down = np.float64(p)
        out.append(up)
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.asarray(out)


def _straddle32(points, ulps=8):
    """Each point rounded to float32 and its +-1..``ulps``-ulp float32
    neighbours."""
    out = []
    for p in points:
        up = down = np.float32(p)
        out.append(up)
        for _ in range(ulps):
            up = np.nextafter(up, np.float32(np.inf))
            down = np.nextafter(down, np.float32(-np.inf))
            out += [up, down]
    return np.asarray(out, dtype=np.float32)


def _assert_same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: ``sinr_min_db``: the paper value, one sharing a 1-dB bin with the
#: 10.3 dB threshold, one exactly on a threshold, one below every bin.
_SINR_MINS = (PAPER_SINR_MIN_DB, 10.0, CQI_SINR_THRESHOLDS_DB[10], -50.0)
_LINKS = [LinkAdaptation(bandwidth_mhz=mhz, sinr_min_db=m)
          for mhz in (1.4, 10.0, 20.0) for m in _SINR_MINS]
_EDGES = (list(CQI_SINR_THRESHOLDS_DB) + list(_SINR_MINS)
          + list(range(-8, 25)))


#: A cutoff whose float32 rounding lies below it: the float32 value
#: nearest 11.7 dB is out of service, and only a float64 compare says so.
_ROUNDS_DOWN = LinkAdaptation(sinr_min_db=11.7)
assert (float(np.float32(_ROUNDS_DOWN.sinr_min_db))
        < _ROUNDS_DOWN.sinr_min_db)


class TestBinnedLookupExactness:
    @pytest.mark.parametrize("link", _LINKS,
                             ids=lambda li: f"{li.bandwidth_mhz}MHz-"
                                            f"min{li.sinr_min_db}")
    def test_straddle_set_bitwise(self, link):
        sinr = np.concatenate([_straddle(_EDGES), [np.inf, -np.inf]])
        for values in (sinr, sinr.astype(np.float32),
                       sinr.reshape(2, -1)):
            _assert_same(link.max_rate_bps(values),
                         _reference_rate(link, values))
            # Into an output buffer that also takes the float passes.
            out = np.full(values.shape, np.nan)
            assert link.max_rate_bps(values, out=out) is out
            _assert_same(out, _reference_rate(link, values))
            _assert_same(link.cqi_for_sinr(values), _reference_cqi(values))
            _assert_same(link.spectral_efficiency(values),
                         _reference_efficiency(values))

    @pytest.mark.parametrize("link", _LINKS[:4])
    def test_scalars_and_zero_d_bitwise(self, link):
        for t in _straddle(_EDGES, ulps=2).tolist() + [np.inf, -np.inf]:
            for value in (t, np.float64(t), np.asarray(t),
                          np.float32(t), np.asarray(t, dtype=np.float32)):
                _assert_same(link.max_rate_bps(value),
                             _reference_rate(link, value))
                _assert_same(link.cqi_for_sinr(value),
                             _reference_cqi(value))
                _assert_same(link.spectral_efficiency(value),
                             _reference_efficiency(value))

    @given(st.floats(min_value=-60.0, max_value=80.0),
           st.sampled_from(_LINKS))
    def test_hypothesis_floats_bitwise(self, sinr, link):
        for value in (sinr, np.asarray([sinr, -sinr]),
                      np.asarray([sinr], dtype=np.float32)):
            _assert_same(link.max_rate_bps(value),
                         _reference_rate(link, value))
            _assert_same(link.cqi_for_sinr(value), _reference_cqi(value))
            _assert_same(link.spectral_efficiency(value),
                         _reference_efficiency(value))

    @pytest.mark.parametrize("link", _LINKS[:4])
    def test_scratch_call_allocates_no_raster(self, link):
        """Given ``out`` and an ``(intp, bool)`` scratch pair, a warm
        call allocates at most about 1 B per cell (the allocating call
        takes an 8-B index and two masks) and returns the same bits."""
        import tracemalloc
        sinr = np.concatenate([_straddle(_EDGES), [np.inf, -np.inf,
                                                   np.nan]])
        scratch = (np.empty(sinr.shape, np.intp), np.empty(sinr.shape, bool))
        out = np.full(sinr.shape, np.nan)
        assert link.max_rate_bps(sinr, out=out, scratch=scratch) is out
        _assert_same(out, link.max_rate_bps(sinr))

        big = np.tile(sinr, 64)
        scratch = (np.empty(big.shape, np.intp), np.empty(big.shape, bool))
        out = np.empty(big.shape)
        link.max_rate_bps(big, out=out, scratch=scratch)       # warm
        tracemalloc.start()
        try:
            link.max_rate_bps(big, out=out, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= big.size
        _assert_same(out, np.tile(link.max_rate_bps(sinr), 64))

    @pytest.mark.parametrize("link", _LINKS + [_ROUNDS_DOWN],
                             ids=lambda li: f"{li.bandwidth_mhz}MHz-"
                                            f"min{li.sinr_min_db}")
    def test_float32_equals_float64_cast(self, link):
        """float32 input is compared in float64, never rounded to a
        float32 threshold: the rates equal those of the same values
        cast to float64, at the float32 neighbours of every CQI
        threshold and of ``sinr_min_db``, with and without buffers."""
        sinr = np.concatenate([_straddle32(_EDGES + [link.sinr_min_db]),
                               np.float32([np.inf, -np.inf, np.nan])])
        assert sinr.dtype == np.float32
        wide = sinr.astype(np.float64)
        want = link.max_rate_bps(wide)
        _assert_same(want, _reference_rate(link, wide))
        _assert_same(link.max_rate_bps(sinr), want)
        out = np.full(sinr.shape, np.nan)
        scratch = (np.empty(sinr.shape, np.intp),
                   np.empty(sinr.shape, bool))
        assert link.max_rate_bps(sinr, out=out, scratch=scratch) is out
        _assert_same(out, want)

    @pytest.mark.parametrize("link", _LINKS[:4])
    def test_float32_scratch_call_copies_nothing(self, link):
        """A warm float32 call given ``out`` and ``scratch`` makes no
        float64 copy of its input: under 1 B per cell (the float64
        compares cast through fixed-size ufunc buffers, about 65 kB
        whatever the size, hence a raster of 226k cells)."""
        import tracemalloc
        sinr = np.tile(_straddle32(_EDGES), 256)
        scratch = (np.empty(sinr.shape, np.intp), np.empty(sinr.shape, bool))
        out = np.empty(sinr.shape)
        link.max_rate_bps(sinr, out=out, scratch=scratch)       # warm
        tracemalloc.start()
        try:
            link.max_rate_bps(sinr, out=out, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sinr.size
        _assert_same(out, link.max_rate_bps(sinr.astype(np.float64)))

    def test_nan_maps_to_cqi_zero(self):
        link = LinkAdaptation()
        assert link.cqi_for_sinr(np.nan) == 0
        assert link.spectral_efficiency(np.nan) == 0.0
        assert link.max_rate_bps(np.nan) == 0.0
        sinr = np.asarray([np.nan, 30.0, np.nan], dtype=np.float32)
        assert link.cqi_for_sinr(sinr).tolist() == [0, 15, 0]
        assert link.spectral_efficiency(sinr)[[0, 2]].tolist() == [0.0, 0.0]
        _assert_same(link.max_rate_bps(sinr), _reference_rate(link, sinr))

    def test_bins_reject_two_thresholds_in_one_bin(self):
        with pytest.raises(ValueError, match=r"1\.4 and 1\.9 dB share"):
            _cqi_bins((-3.0, 1.4, 1.9, 5.0))
