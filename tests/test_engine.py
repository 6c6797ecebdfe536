"""Unit tests for the analysis engine (Formulae 1-4)."""

import numpy as np
import pytest

from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.snapshot import NO_SERVICE


class TestEvaluate(object):
    def test_snapshot_shapes(self, toy_engine, toy_network, toy_density):
        state = toy_engine.evaluate(toy_network.planned_configuration(),
                                    toy_density)
        shape = toy_engine.grid.shape
        for arr in (state.serving, state.rp_best_dbm, state.sinr_db,
                    state.max_rate_bps, state.n_ue, state.rate_bps):
            assert arr.shape == shape

    def test_serving_is_nearest_on_flat_terrain(self, toy_engine,
                                                toy_network, toy_density):
        """With equal powers and omnidirectional-ish symmetry, a grid
        right next to a sector must be served by it."""
        state = toy_engine.evaluate(toy_network.planned_configuration(),
                                    toy_density)
        grid = toy_engine.grid
        for sector in toy_network.sectors:
            row, col = grid.cell_of(sector.x, sector.y + 300.0)
            assert state.serving[row, col] == sector.sector_id

    def test_offline_sector_neither_serves_nor_interferes(
            self, toy_engine, toy_network, toy_density):
        c_before = toy_network.planned_configuration()
        c_down = c_before.with_offline([1])
        down = toy_engine.evaluate(c_down, toy_density)
        assert not np.any(down.serving == 1)
        # Grids served by sector 0 see less interference once 1 is dark.
        before = toy_engine.evaluate(c_before, toy_density)
        mask = (before.serving == 0) & (down.serving == 0)
        assert np.all(down.sinr_db[mask] >= before.sinr_db[mask] - 1e-9)

    def test_received_power_dbm_shape(self, toy_engine, toy_network):
        config = toy_network.planned_configuration()
        rp = toy_engine._received_power_dbm(config)
        assert rp.shape == (toy_network.n_sectors,) + toy_engine.grid.shape

    def test_formula2_sinr_by_hand(self, toy_engine, toy_network,
                                   toy_density):
        """Recompute one grid's SINR from the RP planes directly."""
        config = toy_network.planned_configuration()
        state = toy_engine.evaluate(config, toy_density)
        rp = toy_engine._received_power_dbm(config)
        row, col = 3, 7
        mw = 10.0 ** (rp[:, row, col] / 10.0)
        best = mw.max()
        noise = 10.0 ** (toy_engine.noise_dbm / 10.0)
        expected = 10.0 * np.log10(best / (noise + mw.sum() - best))
        assert state.sinr_db[row, col] == pytest.approx(expected)

    def test_formula3_load_accounting(self, toy_engine, toy_network,
                                      toy_density):
        state = toy_engine.evaluate(toy_network.planned_configuration(),
                                    toy_density)
        for sid in range(toy_network.n_sectors):
            mask = state.serving == sid
            if not mask.any():
                continue
            expected = toy_density[mask].sum()
            assert np.allclose(state.n_ue[mask], expected)

    def test_formula4_rate_sharing(self, toy_engine, toy_network,
                                   toy_density):
        state = toy_engine.evaluate(toy_network.planned_configuration(),
                                    toy_density)
        served = (state.serving >= 0) & (state.n_ue > 0)
        assert np.allclose(state.rate_bps[served],
                           state.max_rate_bps[served]
                           / state.n_ue[served])

    def test_raising_power_raises_own_sinr(self, toy_engine, toy_network,
                                           toy_density):
        config = toy_network.planned_configuration()
        boosted = config.with_power_delta(0, 3.0, max_power_dbm=46.0)
        a = toy_engine.evaluate(config, toy_density)
        b = toy_engine.evaluate(boosted, toy_density)
        own = (a.serving == 0) & (b.serving == 0)
        other = (a.serving == 2) & (b.serving == 2)
        assert np.all(b.sinr_db[own] >= a.sinr_db[own] - 1e-9)
        # ... and hurts at least some grids of other sectors.
        assert np.any(b.sinr_db[other] < a.sinr_db[other])

    def test_min_rp_floor(self, toy_pathloss, toy_network, toy_density):
        strict = AnalysisEngine(toy_pathloss, min_rp_dbm=0.0)  # impossible
        state = strict.evaluate(toy_network.planned_configuration(),
                                toy_density)
        assert np.all(state.max_rate_bps == 0.0)
        assert np.all(state.serving == NO_SERVICE)

    def test_all_sectors_down(self, toy_engine, toy_network, toy_density):
        config = toy_network.planned_configuration().with_offline([0, 1, 2])
        state = toy_engine.evaluate(config, toy_density)
        assert np.all(state.serving == NO_SERVICE)
        assert np.all(np.isneginf(state.sinr_db))
        assert np.all(state.rate_bps == 0.0)

    def test_validation_errors(self, toy_engine, toy_network):
        good = toy_network.planned_configuration()
        with pytest.raises(ValueError):
            toy_engine.evaluate(good, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            toy_engine.evaluate(good,
                                -np.ones(toy_engine.grid.shape))

    def test_evaluation_counter(self, toy_engine, toy_network, toy_density):
        before = toy_engine.evaluations
        toy_engine.evaluate(toy_network.planned_configuration(), toy_density)
        assert toy_engine.evaluations == before + 1
