"""Unit tests for the per-sector, per-tilt path-loss database."""

import pickle
import weakref

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, PathLossFaults
from repro.model.fields import correlated_gaussian_field
from repro.model.geometry import GridSpec, Region
from repro.model.network import CellularNetwork
from repro.model.engine import AnalysisEngine
from repro.model.pathloss import (DEFAULT_PROFILE_CACHE_SIZE,
                                  DEFAULT_SHADOWING_CORR_M,
                                  DEFAULT_TENSOR_CACHE_SIZE, PathLossDatabase,
                                  sector_rasters)
from repro.model.propagation import (Environment, PropagationModel,
                                     SPMParameters, Transmitter)

from conftest import make_sectors


@pytest.fixture
def world():
    grid = GridSpec(Region.square(3_000.0), cell_size=200.0)
    env = Environment.flat(grid)
    net = CellularNetwork(make_sectors(
        [(-800.0, 0.0), (800.0, 0.0)], azimuths=[90.0, 270.0]))
    return grid, env, net


class TestConstruction:
    def test_shapes_and_sign(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        for i in range(net.n_sectors):
            m = db.gain_matrix(i, net.sector(i).planned_tilt_deg)
            assert m.shape == grid.shape
            assert np.all(m < 0)

    def test_per_sector_shadowing_differs(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=6.0, seed=3)
        nodb = PathLossDatabase.from_environment(net, env,
                                                 shadowing_sigma_db=0.0,
                                                 seed=3)
        d0 = db.gain_matrix(0, 4.0) - nodb.gain_matrix(0, 4.0)
        d1 = db.gain_matrix(1, 4.0) - nodb.gain_matrix(1, 4.0)
        # Both sectors are shadowed, but independently.
        assert d0.std() > 1.0 and d1.std() > 1.0
        assert not np.allclose(d0, d1)

    def test_seed_reproducibility(self, world):
        grid, env, net = world
        a = PathLossDatabase.from_environment(net, env, seed=9)
        b = PathLossDatabase.from_environment(net, env, seed=9)
        assert np.array_equal(a.gain_matrix(0, 4.0), b.gain_matrix(0, 4.0))

    def test_bad_tilt_model_rejected(self, world):
        grid, env, net = world
        with pytest.raises(ValueError):
            PathLossDatabase.from_environment(net, env,
                                              tilt_model="nonsense")


class TestTiltModels:
    def test_uptilt_gains_far_loses_near(self, world):
        """Figure 7(c): an uptilt shifts energy toward distant grids."""
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        sector = net.sector(0)     # at (-800, 0) facing east
        planned = db.gain_matrix(0, sector.planned_tilt_deg)
        uptilted = db.gain_matrix(0, 0.0)
        far = grid.cell_of(1_400.0, 0.0)       # 2.2 km out, boresight
        near = grid.cell_of(-700.0, 0.0)       # 100 m from the mast
        assert uptilted[far] > planned[far]
        assert uptilted[near] <= planned[near] + 1e-9

    def test_shared_delta_approximates_exact(self, world):
        """The paper's shared change-matrix is a *coarse* approximation:
        it must agree in sign and rough size along the boresight."""
        grid, env, net = world
        exact = PathLossDatabase.from_environment(
            net, env, shadowing_sigma_db=0.0, tilt_model="exact")
        approx = PathLossDatabase.from_environment(
            net, env, shadowing_sigma_db=0.0, tilt_model="shared-delta")
        e = exact.gain_matrix(0, 1.0) - exact.gain_matrix(0, 4.0)
        a = approx.gain_matrix(0, 1.0) - approx.gain_matrix(0, 4.0)
        far = grid.cell_of(1_400.0, 0.0)
        assert np.sign(e[far]) == np.sign(a[far])
        assert abs(e[far] - a[far]) < 3.0

    def test_gain_tensor_matches_matrices(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        tilts = np.asarray([2.0, 6.0])
        tensor = db.gain_tensor(tilts)
        assert tensor.shape == (2,) + grid.shape
        assert np.array_equal(tensor[0], db.gain_matrix(0, 2.0))
        assert np.array_equal(tensor[1], db.gain_matrix(1, 6.0))

    def test_gain_tensor_cache_hit(self, world):
        """The stack is built afresh from the row LRU's cached rows."""
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env)
        tilts = np.asarray([4.0, 4.0])
        first = db.gain_tensor(tilts)
        rows = [db.gain_row_db(s, 4.0) for s in range(2)]
        second = db.gain_tensor(tilts.copy())
        assert second is not first and not second.flags.writeable
        assert np.array_equal(first, second)
        assert db._row_db.cache_info().currsize == 2
        assert all(db.gain_row_db(s, 4.0) is rows[s] for s in range(2))

    def test_tensor_wrong_length_rejected(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env)
        with pytest.raises(ValueError):
            db.gain_tensor(np.asarray([4.0]))

    def test_distance_matrix(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env)
        d = db.distance_matrix(0)
        assert d.shape == grid.shape
        row, col = grid.cell_of(-800.0, 0.0)
        assert d[row, col] < 200.0


class TestLRUCaches:
    """Regression: the row cache must evict one entry, not wipe."""

    def test_lru_evicts_oldest_only(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        bound = db._row_db.cache_parameters()["maxsize"]
        assert bound == DEFAULT_TENSOR_CACHE_SIZE * net.n_sectors
        rows = [db.gain_row_db(0, i * 0.5) for i in range(bound + 1)]
        # Newest entries survive; re-requesting the most recent is a hit.
        assert db.gain_row_db(0, bound * 0.5) is rows[-1]
        # Second-newest also survived the single eviction (the old bug
        # cleared the whole cache when it overflowed).
        assert db.gain_row_db(0, (bound - 1) * 0.5) is rows[-2]
        info = db._row_db.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, bound + 1,
                                                           bound)
        assert db.gain_row_db(0, 0.0) is not rows[0]     # evicted

    def test_bounds(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env)
        S = net.n_sectors
        assert {name: getattr(db, name).cache_parameters()["maxsize"]
                for name in PathLossDatabase._CACHES} == {
            "_row_mw": DEFAULT_TENSOR_CACHE_SIZE * S,
            "_row_db": DEFAULT_TENSOR_CACHE_SIZE * S,
            "shared_profile": DEFAULT_PROFILE_CACHE_SIZE,
            "_footprint_box": DEFAULT_PROFILE_CACHE_SIZE * S}

    def test_dropped_database_is_freed_without_gc(self, world):
        """The caches hold no reference to their database, so dropping
        the last one frees it (and its rasters) at once."""
        import gc
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               clip_floor_db=-120.0)
        db.gain_matrix_mw(0, 4.0)
        db.gain_row_db(1, 4.0)
        db.footprint(0, 4.0)
        ref = weakref.ref(db)
        gc.disable()
        try:
            del db
            assert ref() is None
        finally:
            gc.enable()


class TestPickling:
    """A pickled database arrives with empty caches of its own."""

    @staticmethod
    def _assert_fresh_and_equal(db, clone, queries):
        for name in PathLossDatabase._CACHES:
            assert getattr(clone, name).cache_info().currsize == 0, name
            assert getattr(clone, name) is not getattr(db, name)
        for sector, tilt in queries:
            for method in ("gain_matrix_mw", "gain_row_db"):
                row = getattr(clone, method)(sector, tilt)
                want = getattr(db, method)(sector, tilt)
                assert row is not want
                assert row.dtype == want.dtype
                assert row.tobytes() == want.tobytes()

    def test_database_round_trip(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4,
                                               tilt_model="shared-delta",
                                               clip_floor_db=-120.0)
        queries = [(0, 4.0), (1, 2.5)]
        for sector, tilt in queries:
            db.gain_matrix_mw(sector, tilt)
            db.gain_row_db(sector, tilt)
            db.footprint(sector, tilt)
        assert all(getattr(db, name).cache_info().currsize > 0
                   for name in PathLossDatabase._CACHES)
        clone = pickle.loads(pickle.dumps(db))
        self._assert_fresh_and_equal(db, clone, queries)
        assert [clone.footprint(s, t) for s, t in queries] == \
            [db.footprint(s, t) for s, t in queries]
        # The clone's caches are its own: clearing them leaves db's.
        clone.invalidate_caches()
        assert db._row_mw.cache_info().currsize == len(queries)

    def test_engine_round_trip(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4)
        engine = AnalysisEngine(db)
        queries = [(0, 4.0), (1, 6.0)]
        for sector, tilt in queries:
            db.gain_matrix_mw(sector, tilt)
            db.gain_row_db(sector, tilt)
        clone = pickle.loads(pickle.dumps(engine))
        self._assert_fresh_and_equal(db, clone.pathloss, queries)


class TestMilliwattPlanes:
    def test_gain_matrix_mw_matches_db(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        mw = db.gain_matrix_mw(0, 4.0)
        expected = np.power(10.0, db.gain_matrix(0, 4.0) / 10.0)
        assert np.array_equal(mw, expected)
        assert not mw.flags.writeable

    def test_gain_tensor_mw_stacks_rows(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        tilts = np.asarray([2.0, 6.0])
        tensor = db.gain_tensor_mw(tilts)
        assert tensor.shape == (2,) + grid.shape
        assert np.array_equal(tensor[0], db.gain_matrix_mw(0, 2.0))
        assert np.array_equal(tensor[1], db.gain_matrix_mw(1, 6.0))

    def test_invalidate_bumps_epoch_and_clears(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env,
                                               shadowing_sigma_db=0.0)
        first = db.gain_matrix_mw(1, 4.0)
        assert db.gain_matrix_mw(1, 4.0) is first    # a live row cache
        epoch = db.cache_epoch
        db.invalidate_caches()
        assert db.cache_epoch == epoch + 1
        assert all(getattr(db, name).cache_info().currsize == 0
                   for name in PathLossDatabase._CACHES)
        second = db.gain_matrix_mw(1, 4.0)
        assert second is not first          # caches were dropped
        assert np.array_equal(second, first)


class TestDbRows:
    """``gain_row_db``: the capture pre-filter's cached dB rows."""

    QUERIES = ((0, 4.0, 0.0), (1, 2.5, 0.0), (0, 7.0, 30.0),
               (1, 4.0, -45.0))

    def test_bitwise_equal_to_gain_matrix_and_tensor(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4)
        for sector, tilt, offset in self.QUERIES:
            row = db.gain_row_db(sector, tilt, offset)
            assert row.dtype == np.float64 and row.shape == grid.shape
            assert np.array_equal(row, db.gain_matrix(sector, tilt, offset))
            tilts = np.full(net.n_sectors, tilt)
            offsets = np.full(net.n_sectors, offset)
            assert np.array_equal(row,
                                  db.gain_tensor(tilts, offsets)[sector])

    def test_read_only_and_cached(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4)
        row = db.gain_row_db(1, 3.0, 10.0)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0, 0] = 0.0
        assert db.gain_row_db(1, 3.0, 10.0) is row
        assert db.gain_row_db(1, 3.0) is not row

    def test_filled_only_by_its_accessor(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4)
        tilts = np.full(net.n_sectors, 4.0)
        db.gain_tensor_mw(tilts)
        db.gain_matrix_mw(0, 2.0)
        assert db._row_db.cache_info().currsize == 0
        db.gain_row_db(0, 2.0)
        assert db._row_db.cache_info().currsize == 1
        db.gain_tensor(tilts)       # a stack of gain_row_db rows
        assert db._row_db.cache_info().currsize == 1 + net.n_sectors
        assert (db._row_db.cache_parameters()
                == db._row_mw.cache_parameters())

    def test_invalidate_caches_clears_rows(self, world):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4)
        first = db.gain_row_db(0, 4.0)
        db.invalidate_caches()
        assert db._row_db.cache_info().currsize == 0
        second = db.gain_row_db(0, 4.0)
        assert second is not first
        assert np.array_equal(second, first)

    @pytest.mark.parametrize("mode", ["nan", "inf"])
    def test_injected_corruption_raises(self, world, mode):
        grid, env, net = world
        db = PathLossDatabase.from_environment(net, env, seed=4)
        for sector in range(net.n_sectors):
            db.gain_row_db(sector, 4.0)    # cached before the damage
        plan = FaultPlan(seed=5, pathloss=PathLossFaults(
            n_sectors=1, cell_fraction=0.02, mode=mode))
        bad, = FaultInjector(plan).corrupt_pathloss(db)
        with pytest.raises(ValueError, match="corrupted after construction"):
            db.gain_row_db(bad, 4.0)
        # nothing corrupt was kept
        assert db._row_db.cache_info().currsize == 0


# ----------------------------------------------------------------------
# Per-site build: a from-scratch reference that shares nothing
# ----------------------------------------------------------------------
SIGMA_DB = 6.0
SEED = 7
_FIELDS = ("horiz_att_db", "theta_deg", "loss_db", "distance_m",
           "bearing_deg")


def _reference_terrain_at(env, x, y):
    grid = env.grid
    if grid.region.contains(x, y):
        row, col = grid.cell_of(x, y)
        return float(env.terrain_m[row, col])
    return 0.0


def _reference_diffraction(sector, env, ue_height_m=1.5):
    """Knife-edge diffraction over 11 interior profile samples, built
    from the grid's own geometry helpers for this sector alone."""
    grid = env.grid
    gx, gy = grid.cell_centers()
    tx_z = _reference_terrain_at(env, sector.x, sector.y) + sector.height_m
    rx_z = env.terrain_m + ue_height_m
    dist = np.maximum(grid.distances_from(sector.x, sector.y), 1.0)
    wavelength = 299.792458 / Transmitter(0.0, 0.0).frequency_mhz
    max_v = np.full(grid.shape, -np.inf)
    n = 12
    for i in range(1, n):
        t = i / n
        px = sector.x + (gx - sector.x) * t
        py = sector.y + (gy - sector.y) * t
        rows = np.clip(((py - grid.region.y0) // grid.cell_size)
                       .astype(int), 0, grid.n_rows - 1)
        cols = np.clip(((px - grid.region.x0) // grid.cell_size)
                       .astype(int), 0, grid.n_cols - 1)
        clearance = env.terrain_m[rows, cols] - (tx_z + (rx_z - tx_z) * t)
        d1 = dist * t
        d2 = dist * (1.0 - t)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = clearance * np.sqrt(
                2.0 * dist / (wavelength * np.maximum(d1 * d2, 1.0)))
        max_v = np.maximum(max_v, v)
    loss = np.zeros(grid.shape)
    mask = max_v > -0.78
    v = max_v[mask]
    loss[mask] = 6.9 + 20.0 * np.log10(
        np.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1)
    return loss


def _reference_raster(sector, env, ue_height_m=1.5):
    """One sector's five rasters with every term computed afresh, in
    the order the per-sector builder always summed them."""
    grid = env.grid
    spm = SPMParameters()
    dist = grid.distances_from(sector.x, sector.y)
    bearings = grid.bearings_from(sector.x, sector.y)
    horiz = sector.antenna.horizontal_attenuation(
        bearings - sector.azimuth_deg)
    tx_ground = _reference_terrain_at(env, sector.x, sector.y)
    dz = (tx_ground + sector.height_m) - (env.terrain_m + ue_height_m)
    theta = np.degrees(np.arctan2(dz, np.maximum(dist, 1.0)))
    h_eff = np.maximum(tx_ground + sector.height_m - env.terrain_m, 1.0)
    loss = spm.basic_loss_db(dist, h_eff, ue_height_m)
    loss = loss + env.clutter_loss_db()
    loss = loss + _reference_diffraction(sector, env, ue_height_m)
    if env.shadowing_db is not None:
        loss = loss + env.shadowing_db
    rng = np.random.default_rng(
        np.random.SeedSequence([SEED, sector.sector_id]))
    loss = loss + correlated_gaussian_field(
        grid.shape, DEFAULT_SHADOWING_CORR_M / grid.cell_size, SIGMA_DB,
        rng)
    return {"horiz_att_db": horiz, "theta_deg": theta, "loss_db": loss,
            "distance_m": dist, "bearing_deg": bearings}


def _rough_db(rough_world, sigma_db=SIGMA_DB):
    grid, env, net = rough_world
    return PathLossDatabase.from_environment(
        net, env, shadowing_sigma_db=sigma_db, seed=SEED)


class TestPerSiteBuild:
    def test_world_exercises_every_term(self, rough_world):
        grid, env, net = rough_world
        assert len(np.unique(env.clutter)) >= 4
        assert any(_reference_diffraction(s, env).max() > 0.0
                   for s in net.sectors)

    def test_rasters_match_per_sector_reference(self, rough_world):
        grid, env, net = rough_world
        db = _rough_db(rough_world)
        for sector in net.sectors:
            expected = _reference_raster(sector, env)
            raster = db._rasters[sector.sector_id]
            for name in _FIELDS:
                assert getattr(raster, name).tobytes() == \
                    expected[name].tobytes(), (sector.sector_id, name)

    def test_site_terms_shared_only_by_matching_masts(self, rough_world):
        db = _rough_db(rough_world)
        r = db._rasters
        for a, b in ((0, 1), (1, 2), (3, 4), (6, 7), (9, 11)):
            assert r[a].theta_deg is r[b].theta_deg
            assert r[a].loss_db is not r[b].loss_db
        # Same site id, different mast height: nothing is shared.
        assert r[8].theta_deg is not r[7].theta_deg
        assert not np.array_equal(r[8].theta_deg, r[7].theta_deg)
        assert r[5].distance_m is not r[6].distance_m

    def test_shared_site_arrays_are_read_only(self, rough_world):
        db = _rough_db(rough_world)
        for name in ("distance_m", "bearing_deg", "theta_deg"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(db._rasters[0], name)[0, 0] = 0.0
        # Per-sector terms stay the sector's own to edit.
        db._rasters[0].loss_db[0, 0] += 1.0
        assert db._rasters[0].loss_db[0, 0] != db._rasters[1].loss_db[0, 0]

    def test_builder_holds_one_site_at_a_time(self, rough_world):
        grid, env, net = rough_world
        refs = []
        for sector, raster in sector_rasters(net, env, seed=SEED):
            refs.append(weakref.ref(raster.distance_m))
            del raster
            assert len({id(r()) for r in refs if r() is not None}) == 1

    @pytest.mark.parametrize("mode", ["nan", "stale-tilt"])
    def test_fault_spares_co_sited_siblings(self, rough_world, mode):
        grid, env, net = rough_world
        db = _rough_db(rough_world)
        before = [db.gain_matrix(s, 4.0) for s in range(net.n_sectors)]
        plan = FaultPlan(seed=3, pathloss=PathLossFaults(
            n_sectors=1, cell_fraction=0.05, mode=mode))
        (victim,) = FaultInjector(plan).corrupt_pathloss(db)
        siblings = [s for s in range(net.n_sectors) if s != victim
                    and db._rasters[s].distance_m
                    is db._rasters[victim].distance_m]
        assert siblings
        for s in range(net.n_sectors):
            after = db.gain_matrix(s, 4.0)
            if s == victim:
                assert after.tobytes() != before[s].tobytes()
            else:
                assert after.tobytes() == before[s].tobytes(), s

    def test_path_gain_matches_unshadowed_database(self, rough_world):
        """Without per-sector shadowing the database and the
        propagation model compose the same terms, bit for bit."""
        grid, env, net = rough_world
        db = _rough_db(rough_world, sigma_db=0.0)
        model = PropagationModel(env)
        for sector in net.sectors:
            tx = Transmitter(x=sector.x, y=sector.y,
                             height_m=sector.height_m,
                             azimuth_deg=sector.azimuth_deg,
                             antenna=sector.antenna)
            assert model.path_gain_db(tx, 3.0).tobytes() == \
                db.gain_matrix(sector.sector_id, 3.0).tobytes()
