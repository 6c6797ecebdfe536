"""Unit tests for the SPM propagation model, clutter and diffraction."""

import numpy as np
import pytest

from repro.model.geometry import GridSpec, Region
from repro.model.propagation import (CLUTTER_LOSS_DB, ClutterClass,
                                     Environment, PropagationModel,
                                     SPMParameters, Transmitter)


@pytest.fixture
def grid():
    return GridSpec(Region.square(4_000.0), cell_size=200.0)


@pytest.fixture
def flat_env(grid):
    return Environment.flat(grid)


class TestSPMParameters:
    def test_loss_increases_with_distance(self):
        spm = SPMParameters()
        d = np.asarray([100.0, 1_000.0, 10_000.0])
        loss = spm.basic_loss_db(d, h_eff_m=30.0)
        assert np.all(np.diff(loss) > 0)

    def test_slope_is_k2_per_decade_at_fixed_height(self):
        spm = SPMParameters()
        l1 = spm.basic_loss_db(np.asarray([1_000.0]), 30.0)[0]
        l2 = spm.basic_loss_db(np.asarray([10_000.0]), 30.0)[0]
        expected = spm.k2 + spm.k5 * np.log10(30.0)
        assert l2 - l1 == pytest.approx(expected)

    def test_taller_mast_reduces_loss(self):
        spm = SPMParameters()
        low = spm.basic_loss_db(np.asarray([2_000.0]), 15.0)[0]
        high = spm.basic_loss_db(np.asarray([2_000.0]), 60.0)[0]
        assert high < low

    def test_distance_clamp(self):
        spm = SPMParameters(min_distance_m=25.0)
        near = spm.basic_loss_db(np.asarray([1.0]), 30.0)[0]
        at_clamp = spm.basic_loss_db(np.asarray([25.0]), 30.0)[0]
        assert near == at_clamp


class TestEnvironment:
    def test_flat_constructor(self, grid):
        env = Environment.flat(grid, ClutterClass.SUBURBAN)
        assert env.terrain_m.shape == grid.shape
        assert np.all(env.clutter == int(ClutterClass.SUBURBAN))

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            Environment(grid=grid, terrain_m=np.zeros((2, 2)),
                        clutter=np.zeros(grid.shape, dtype=np.int8))
        with pytest.raises(ValueError):
            Environment(grid=grid, terrain_m=np.zeros(grid.shape),
                        clutter=np.zeros(grid.shape, dtype=np.int8),
                        shadowing_db=np.zeros((3, 3)))

    def test_clutter_loss_lookup(self, grid):
        env = Environment.flat(grid, ClutterClass.URBAN)
        loss = env.clutter_loss_db()
        assert np.all(loss == CLUTTER_LOSS_DB[ClutterClass.URBAN])

    def test_all_clutter_classes_have_losses(self):
        for cls_ in ClutterClass:
            assert cls_ in CLUTTER_LOSS_DB


class TestPathGain:
    def test_gain_negative_and_decaying(self, flat_env):
        model = PropagationModel(flat_env)
        tx = Transmitter(x=0.0, y=0.0, azimuth_deg=0.0)
        gain = model.path_gain_db(tx)
        assert gain.shape == flat_env.grid.shape
        assert np.all(gain < 0)
        # Boresight far cell is weaker than boresight near cell.
        grid = flat_env.grid
        near = gain[grid.cell_of(0.0, 300.0)]
        far = gain[grid.cell_of(0.0, 1_900.0)]
        assert far < near

    def test_paper_magnitude_range(self):
        """Path gains should span the paper's -20..-200 dB ballpark."""
        grid = GridSpec(Region.square(40_000.0), cell_size=500.0)
        env = Environment.flat(grid)
        model = PropagationModel(env)
        gain = model.path_gain_db(Transmitter(x=0.0, y=0.0))
        assert gain.max() > -95.0          # strong near the mast
        assert gain.min() < -140.0         # weak at the fringe

    def test_directionality(self, flat_env):
        model = PropagationModel(flat_env)
        tx = Transmitter(x=0.0, y=0.0, azimuth_deg=0.0)  # facing north
        gain = model.path_gain_db(tx)
        grid = flat_env.grid
        front = gain[grid.cell_of(0.0, 1_500.0)]
        back = gain[grid.cell_of(0.0, -1_500.0)]
        assert front - back == pytest.approx(
            tx.antenna.front_back_db, abs=1.0)

    def test_clutter_adds_loss(self, grid):
        open_env = Environment.flat(grid, ClutterClass.OPEN)
        urban_env = Environment.flat(grid, ClutterClass.DENSE_URBAN)
        tx = Transmitter(x=0.0, y=0.0)
        g_open = PropagationModel(open_env).path_gain_db(tx)
        g_urban = PropagationModel(urban_env).path_gain_db(tx)
        expected = CLUTTER_LOSS_DB[ClutterClass.DENSE_URBAN]
        assert np.allclose(g_open - g_urban, expected)

    def test_terrain_blocking_costs_signal(self, grid):
        """A ridge between TX and the far side adds diffraction loss."""
        flat = Environment.flat(grid)
        terrain = np.zeros(grid.shape)
        # A tall east-west ridge north of the transmitter.
        ridge_row = grid.cell_of(0.0, 800.0)[0]
        terrain[ridge_row, :] = 120.0
        ridged = Environment(grid=grid, terrain_m=terrain,
                             clutter=flat.clutter.copy())
        tx = Transmitter(x=0.0, y=0.0)
        g_flat = PropagationModel(flat).path_gain_db(tx)
        g_ridge = PropagationModel(ridged).path_gain_db(tx)
        behind = grid.cell_of(0.0, 1_700.0)
        assert g_ridge[behind] < g_flat[behind] - 3.0

    def test_shadowing_field_applies(self, grid):
        shadow = np.full(grid.shape, 7.0)
        env = Environment(grid=grid, terrain_m=np.zeros(grid.shape),
                          clutter=np.zeros(grid.shape, dtype=np.int8),
                          shadowing_db=shadow)
        flat = Environment.flat(grid)
        tx = Transmitter(x=0.0, y=0.0)
        g_shadowed = PropagationModel(env).path_gain_db(tx)
        g_flat = PropagationModel(flat).path_gain_db(tx)
        assert np.allclose(g_flat - g_shadowed, 7.0)

    def test_profile_terrain_is_nearest_cell_per_point(self, grid):
        """Sampling terrain on a row of x and a column of y gives every
        grid point's nearest-cell height, clamped into the grid."""
        rng = np.random.default_rng(4)
        terrain = rng.uniform(0.0, 80.0, grid.shape)
        flat = Environment.flat(grid)
        model = PropagationModel(Environment(
            grid=grid, terrain_m=terrain, clutter=flat.clutter.copy()))
        gx, gy = grid.cell_centers()
        px = 350.0 + (gx[0] - 350.0) * 1.4
        py = -90.0 + (gy[:, 0] + 90.0) * 1.4
        got = model._sample_terrain(px, py)
        assert got.shape == grid.shape
        for i, y in enumerate(py):
            for j, x in enumerate(px):
                row = min(max(int((y - grid.region.y0) // grid.cell_size), 0),
                          grid.n_rows - 1)
                col = min(max(int((x - grid.region.x0) // grid.cell_size), 0),
                          grid.n_cols - 1)
                assert got[i, j] == terrain[row, col]

    def test_deterministic(self, flat_env):
        model = PropagationModel(flat_env)
        tx = Transmitter(x=100.0, y=-200.0, azimuth_deg=120.0)
        a = model.path_gain_db(tx, tilt_deg=4.0)
        b = model.path_gain_db(tx, tilt_deg=4.0)
        assert np.array_equal(a, b)
