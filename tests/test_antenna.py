"""Unit tests for the 3GPP antenna patterns and the tilt catalogue."""

import numpy as np
import pytest

from repro.model.antenna import AntennaPattern, TiltRange, PAPER_TILT_SETTINGS


class TestHorizontalPattern:
    def test_boresight_no_attenuation(self):
        ant = AntennaPattern()
        assert ant.horizontal_attenuation(0.0) == 0.0

    def test_3db_at_half_beamwidth(self):
        ant = AntennaPattern(horiz_beamwidth=70.0)
        assert ant.horizontal_attenuation(35.0) == pytest.approx(3.0)

    def test_back_lobe_clamped(self):
        ant = AntennaPattern(front_back_db=25.0)
        assert ant.horizontal_attenuation(180.0) == 25.0

    def test_symmetry_and_wrapping(self):
        ant = AntennaPattern()
        assert ant.horizontal_attenuation(40.0) == \
            pytest.approx(ant.horizontal_attenuation(-40.0))
        # 350 degrees is the same direction as -10 degrees.
        assert ant.horizontal_attenuation(350.0) == \
            pytest.approx(ant.horizontal_attenuation(-10.0))

    def test_monotone_within_main_lobe(self):
        ant = AntennaPattern()
        phis = np.linspace(0.0, 90.0, 20)
        att = ant.horizontal_attenuation(phis)
        assert np.all(np.diff(att) >= 0)


class TestVerticalPattern:
    def test_attenuation_zero_on_tilt_axis(self):
        ant = AntennaPattern()
        assert ant.vertical_attenuation(6.0, tilt_deg=6.0) == 0.0

    def test_3db_at_half_beamwidth(self):
        ant = AntennaPattern(vert_beamwidth=10.0)
        assert ant.vertical_attenuation(5.0, tilt_deg=0.0) == pytest.approx(3.0)

    def test_sla_floor(self):
        ant = AntennaPattern(sla_db=20.0)
        assert ant.vertical_attenuation(90.0, tilt_deg=0.0) == 20.0

    def test_uptilt_helps_far_grids(self):
        """Uptilting (reducing downtilt) raises gain at low depression
        angles (far grids) and lowers it near the mast — the paper's
        'reaches further at the cost of sacrificing nearby areas'."""
        ant = AntennaPattern()
        far_theta, near_theta = 0.5, 10.0
        delta_far = ant.tilt_delta_db(far_theta, tilt_from=6.0, tilt_to=2.0)
        delta_near = ant.tilt_delta_db(near_theta, tilt_from=6.0, tilt_to=2.0)
        assert delta_far > 0
        assert delta_near < 0


class TestCombinedGain:
    def test_boresight_gain(self):
        ant = AntennaPattern(gain_dbi=15.0)
        assert ant.gain_db(0.0, 6.0, tilt_deg=6.0) == pytest.approx(15.0)

    def test_combined_clamp(self):
        ant = AntennaPattern(gain_dbi=15.0, front_back_db=25.0)
        # Deep in the back lobe AND off the vertical axis: total
        # attenuation still clamps at front_back_db.
        assert ant.gain_db(180.0, 60.0) == pytest.approx(15.0 - 25.0)

    def test_vectorized_shapes(self):
        ant = AntennaPattern()
        phi = np.zeros((4, 5))
        theta = np.full((4, 5), 3.0)
        assert ant.gain_db(phi, theta, tilt_deg=3.0).shape == (4, 5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AntennaPattern(horiz_beamwidth=0.0)
        with pytest.raises(ValueError):
            AntennaPattern(sla_db=-1.0)


class TestTiltRange:
    def test_paper_catalogue_size(self):
        """16 settings besides the normal case, as in the Atoll data."""
        tr = TiltRange(normal_deg=4.0, min_deg=0.0, max_deg=8.0,
                       step_deg=0.5)
        assert tr.n_settings == 17
        assert PAPER_TILT_SETTINGS == 16

    def test_settings_ascending_and_bounded(self):
        tr = TiltRange(normal_deg=4.0, min_deg=0.0, max_deg=8.0,
                       step_deg=0.5)
        s = tr.settings
        assert s[0] == 0.0 and s[-1] == 8.0
        assert all(b > a for a, b in zip(s, s[1:]))

    def test_clamp_snaps_to_grid(self):
        tr = TiltRange(normal_deg=4.0, step_deg=0.5)
        assert tr.clamp(3.26) == 3.5
        assert tr.clamp(-5.0) == 0.0
        assert tr.clamp(99.0) == 8.0

    @pytest.mark.parametrize("tilt_range", [
        TiltRange(),
        TiltRange(normal_deg=2.0, min_deg=-1.5, max_deg=9.3, step_deg=0.7)])
    def test_clamp_matches_first_argmin(self, tilt_range):
        """The bisected clamp equals the nearest-setting formula with
        ``argmin``'s first-minimum rule on a dense sweep: every
        setting, every midpoint (which snaps down) and out-of-range
        values."""
        settings = tilt_range.settings
        midpoints = [(a + b) / 2 for a, b in zip(settings, settings[1:])]
        sweep = (list(np.linspace(settings[0] - 3.0, settings[-1] + 3.0,
                                  2001))
                 + list(settings) + midpoints + [-1e6, 1e6])
        for tilt in sweep:
            want = settings[int(np.argmin([abs(s - tilt)
                                           for s in settings]))]
            assert tilt_range.clamp(tilt) == want, tilt
        ties = [(a, m) for a, b, m in zip(settings, settings[1:], midpoints)
                if m - a == b - m]
        assert [tilt_range.clamp(m) for _, m in ties] == [a for a, _ in ties]
        assert ties or tilt_range != TiltRange()
        assert tilt_range.settings is settings

    def test_uptilt_downtilt_directions(self):
        tr = TiltRange(normal_deg=4.0, step_deg=0.5)
        assert tr.uptilted(4.0) == 3.5
        assert tr.downtilted(4.0) == 4.5
        assert tr.uptilted(0.0) == 0.0       # saturates
        assert tr.downtilted(8.0) == 8.0

    def test_multi_step(self):
        tr = TiltRange(normal_deg=4.0, step_deg=0.5)
        assert tr.uptilted(4.0, steps=3) == 2.5
        assert tr.uptilted(4.0, steps=100) == 0.0

    def test_neighbors_at_edges(self):
        tr = TiltRange(normal_deg=4.0, min_deg=0.0, max_deg=8.0,
                       step_deg=0.5)
        assert tr.neighbors(0.0) == [0.5]
        assert tr.neighbors(8.0) == [7.5]
        assert set(tr.neighbors(4.0)) == {3.5, 4.5}

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            TiltRange(normal_deg=10.0, min_deg=0.0, max_deg=8.0)
        with pytest.raises(ValueError):
            TiltRange(step_deg=0.0)
