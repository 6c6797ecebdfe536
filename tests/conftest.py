"""Shared fixtures: small, fast, fully deterministic test worlds.

Two tiers are provided:

* a hand-built *toy world* (flat terrain, a handful of sectors on a
  coarse grid) for unit tests that need full control over geometry;
* one session-scoped *small study area* built through the real
  synthetic pipeline for integration-level tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.plan import Parameter
from repro.model.antenna import AntennaPattern, TiltRange
from repro.model.engine import AnalysisEngine
from repro.model.fields import correlated_gaussian_field
from repro.model.geometry import GridSpec, Region
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import CellularNetwork, Sector
from repro.model.pathloss import PathLossDatabase
from repro.model.propagation import Environment
from repro.synthetic.market import AreaDimensions, StudyArea, build_area
from repro.synthetic.placement import AreaType


def make_sectors(positions: Sequence[tuple],
                 azimuths: Sequence[float] | None = None,
                 power_dbm: float = 43.0,
                 max_power_dbm: float = 46.0,
                 site_per_sector: bool = True) -> List[Sector]:
    """Hand-placed sectors with ids 0..n-1 (one site each by default)."""
    azimuths = azimuths or [0.0] * len(positions)
    sectors = []
    for i, ((x, y), az) in enumerate(zip(positions, azimuths)):
        sectors.append(Sector(
            sector_id=i, site_id=i if site_per_sector else 0,
            x=x, y=y, azimuth_deg=az,
            power_dbm=power_dbm, max_power_dbm=max_power_dbm,
            min_power_dbm=10.0,
            antenna=AntennaPattern(),
            tilt_range=TiltRange(normal_deg=4.0, min_deg=0.0,
                                 max_deg=8.0, step_deg=1.0)))
    return sectors


def received_power_dbm(pathloss: PathLossDatabase, config,
                       sectors: Optional[Sequence[int]] = None
                       ) -> np.ndarray:
    """Formula 1 per sector, ``RP_b(g) = P_b + L_b(T_b, g)`` in dB, for
    the rows ``sectors`` (default: all, in order); off-air rows radiate
    nothing and read -inf.  The hand-verification reference: the
    engine works in the linear domain."""
    rows = np.arange(config.n_sectors) if sectors is None else np.asarray(
        sectors, dtype=np.intp)
    gains = pathloss.gain_tensor(config.tilts(), config.azimuth_offsets())
    rp = config.powers()[rows, None, None] + gains[rows]
    rp[~config.active_mask()[rows]] = -np.inf
    return rp


def assert_step_utilities_exact(result, engine: AnalysisEngine,
                                ue_density: np.ndarray,
                                utility: str = "performance") -> None:
    """Every recorded utility of a :class:`TuningResult` — each step's
    and the final one — equals a fresh ``strategy="full"`` evaluator's
    ``utility_of`` of that configuration, bit for bit."""
    reference = Evaluator(engine, ue_density, utility, strategy="full")
    config = result.initial_config
    assert repr(result.initial_utility) == repr(reference.utility_of(config))
    for step in result.steps:
        change = step.change
        if change.parameter is Parameter.POWER:
            config = config.with_power(change.sector_id, change.new_value)
        elif change.parameter is Parameter.TILT:
            config = config.with_tilt(change.sector_id, change.new_value)
        else:
            config = config.with_azimuth_offset(change.sector_id,
                                                change.new_value)
        assert repr(step.utility) == repr(reference.utility_of(config))
    assert config == result.final_config
    assert repr(result.final_utility) == repr(
        reference.utility_of(result.final_config))


@pytest.fixture
def toy_grid() -> GridSpec:
    """A 3 km x 3 km region at 200 m cells (15x15 grid)."""
    return GridSpec(Region.square(3_000.0), cell_size=200.0)


@pytest.fixture
def toy_network() -> CellularNetwork:
    """Three single-sector sites in a row, facing outward.

    The outward azimuths and moderate power make this a *sanely
    planned* deployment: taking the middle sector down genuinely hurts
    (``f(C_before) > f(C_upgrade)``), which several algorithm tests
    rely on.
    """
    return CellularNetwork(make_sectors(
        [(-1_000.0, 0.0), (0.0, 0.0), (1_000.0, 0.0)],
        azimuths=[270.0, 0.0, 90.0],
        power_dbm=35.0, max_power_dbm=41.0))


@pytest.fixture
def toy_pathloss(toy_grid, toy_network) -> PathLossDatabase:
    """Flat-terrain, shadowing-free path-loss database (deterministic)."""
    env = Environment.flat(toy_grid)
    return PathLossDatabase.from_environment(
        toy_network, env, shadowing_sigma_db=0.0, seed=0)


#: The rough world's masts: ``(x, y, per-sector mast heights)``.  The
#: third site's sectors differ in height, so only its first two share
#: site terms; the fourth stands outside the grid (terrain reads 0).
ROUGH_SITES = ((-700.0, -400.0, (30.0, 30.0, 30.0)),
               (600.0, 300.0, (45.0, 45.0, 45.0)),
               (0.0, 900.0, (30.0, 30.0, 25.0)),
               (1_700.0, -1_000.0, (35.0, 35.0, 35.0)))


@pytest.fixture
def rough_world():
    """Hilly terrain, mixed clutter and environment shadowing under
    tri-sector sites: every path-loss term is nonzero somewhere, so a
    build that shares the wrong term between sectors shows up."""
    grid = GridSpec(Region.square(3_000.0), cell_size=150.0)
    rng = np.random.default_rng(2015)
    terrain = 60.0 + correlated_gaussian_field(grid.shape, 3.0, 40.0, rng)
    terrain[8, :] += 120.0  # an east-west ridge
    env = Environment(
        grid=grid, terrain_m=terrain,
        clutter=rng.integers(0, 6, grid.shape).astype(np.int8),
        shadowing_db=correlated_gaussian_field(grid.shape, 2.0, 4.0, rng))
    sectors = []
    for site_id, (x, y, heights) in enumerate(ROUGH_SITES):
        for k, height in enumerate(heights):
            sectors.append(Sector(
                sector_id=len(sectors), site_id=site_id, x=x, y=y,
                azimuth_deg=30.0 + 120.0 * k + 10.0 * site_id,
                height_m=height, power_dbm=43.0, max_power_dbm=46.0,
                min_power_dbm=10.0, antenna=AntennaPattern(),
                tilt_range=TiltRange(normal_deg=4.0, min_deg=0.0,
                                     max_deg=8.0, step_deg=1.0)))
    return grid, env, CellularNetwork(sectors)


@pytest.fixture
def toy_engine(toy_pathloss) -> AnalysisEngine:
    return AnalysisEngine(toy_pathloss, link=LinkAdaptation())


@pytest.fixture
def toy_density(toy_engine, toy_network) -> np.ndarray:
    """Uniform-per-sector density anchored to the planned config."""
    baseline = toy_engine.evaluate(
        toy_network.planned_configuration(),
        np.zeros(toy_engine.grid.shape))
    return uniform_per_sector_density(baseline, 90.0)


@pytest.fixture
def toy_evaluator(toy_engine, toy_density) -> Evaluator:
    return Evaluator(toy_engine, toy_density, "performance")


#: Dimensions that keep the full synthetic pipeline under a second.
SMALL_DIMS = AreaDimensions(tuning_side_m=1_600.0, margin_m=800.0,
                            cell_size_m=200.0)


@pytest.fixture(scope="session")
def small_area() -> StudyArea:
    """One real (but small) suburban study area, shared by the session."""
    return build_area(AreaType.SUBURBAN, seed=42, dims=SMALL_DIMS)
