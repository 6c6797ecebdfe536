"""Unit tests for the analysis engine (Formulae 1-4)."""

import warnings

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.pathloss import PathLossDatabase
from repro.model.plossdb import pack_database
from repro.model.propagation import Environment
from repro.model.snapshot import NO_SERVICE

from conftest import received_power_dbm


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

    def test_formula2_sinr_by_hand(self, toy_engine, toy_network,
                                   toy_density):
        """Recompute one grid's SINR from the RP planes directly."""
        config = toy_network.planned_configuration()
        state = toy_engine.evaluate(config, toy_density)
        rp = received_power_dbm(toy_engine.pathloss, config)
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


# ----------------------------------------------------------------------
# Numerics of the window pass: one errstate, exact floors
# ----------------------------------------------------------------------
def _packed_clipped_engine(toy_grid, toy_network, floor=-100.0):
    """A float32 packed engine clipped hard enough that some cells get
    no power from any sector (their best is exactly 0, whose SINR
    divides to 0 before the log)."""
    db = PathLossDatabase.from_environment(
        toy_network, Environment.flat(toy_grid), shadowing_sigma_db=0.0,
        seed=0, clip_floor_db=floor)
    db.attach_packed(pack_database(db))
    return AnalysisEngine(db, link=LinkAdaptation())


class TestWindowPassErrstate:
    """The window pass holds one ``np.errstate`` for its body: nothing
    warns, and the caller's error state survives a pass that raises."""

    def _world(self, toy_grid, toy_network):
        engine = _packed_clipped_engine(toy_grid, toy_network)
        assert engine.pathloss.plane_dtype == np.float32
        base = toy_network.planned_configuration().with_offline([1])
        density = np.full(engine.grid.shape, 0.5)
        return engine, base, density

    def test_off_air_and_unserved_cells_raise_no_warning(
            self, toy_grid, toy_network):
        engine, base, density = self._world(toy_grid, toy_network)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, incumbent = engine.evaluate_with_incumbent(base, density)
            assert np.isneginf(state.sinr_db).any()
            assert (state.serving == NO_SERVICE).any()
            evaluator = Evaluator(engine, density, "performance")
            evaluator.utility_of(base)
            candidates = [base.with_power(0, base.power_dbm(0) - 3.0),
                          base.with_tilt(2, base.tilt_deg(2) + 2.0),
                          base.with_power(1, base.power_dbm(1))]
            scores = evaluator.score_candidates(candidates, parent=base)
            delta = engine.evaluate_delta(incumbent, candidates[0], density)
        assert delta is not None
        full = Evaluator(engine, density, "performance", strategy="full")
        assert scores == [full.utility_of(c) for c in candidates]

    def test_error_state_survives_a_raising_pass(
            self, monkeypatch, toy_grid, toy_network):
        engine, base, density = self._world(toy_grid, toy_network)
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        evaluator = Evaluator(engine, density, "performance")
        evaluator.utility_of(base)
        candidate = base.with_power(0, base.power_dbm(0) - 3.0)

        def broken(self, *args, **kwargs):
            raise RuntimeError("link table unavailable")

        monkeypatch.setattr(LinkAdaptation, "max_rate_bps", broken)
        saved = np.seterr(divide="raise", invalid="warn")
        try:
            before = np.geterr()
            for run in (lambda: engine.evaluate(base, density),
                        lambda: engine.evaluate_delta(incumbent, candidate,
                                                      density),
                        lambda: evaluator.score_candidates([candidate],
                                                           parent=base)):
                with pytest.raises(RuntimeError, match="unavailable"):
                    run()
                assert np.geterr() == before
        finally:
            np.seterr(**saved)


class TestLinkFloors:
    """The RSRP floor is a multiply by its test and ``NO_SERVICE`` goes
    where the rate is 0: the same bits as filling by the old rule,
    ``where(best >= floor, rmax, 0)`` then ``where(rmax > 0, raw,
    NO_SERVICE)``, at the floor, one ulp under it, NaN and 0."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_floors_match_the_fill_rule(self, toy_engine, dtype):
        floor = dtype(10.0 ** (toy_engine.min_rp_dbm / 10.0))
        below = np.nextafter(floor, dtype(0))
        best = np.array([floor, below, np.nan, 0.0, 10 * floor, 1e-3,
                         floor, below], dtype=dtype)
        sinr = np.array([30.0, 30.0, 30.0, -np.inf, 5.0, -20.0, np.nan,
                         12.0], dtype=dtype)
        raw = np.arange(best.size, dtype=np.int32)
        rmax, serving = toy_engine._link_rasters(sinr, best, raw)

        want = toy_engine.link.max_rate_bps(sinr)
        want = np.where(np.greater_equal(
            best, 10.0 ** (toy_engine.min_rp_dbm / 10.0)), want, 0.0)
        assert rmax.tobytes() == want.tobytes()
        assert serving.tobytes() == np.where(
            np.greater(want, 0.0), raw, NO_SERVICE).astype(np.int32).tobytes()
        assert rmax[0] > 0 and rmax[1] == rmax[2] == rmax[3] == 0.0
