"""Evaluation-ready study areas and markets (paper Section 6 setup).

The paper evaluates Magus on "a few 10 km x 10 km areas" per market
across "3 major US cellular markets", with the tuning area embedded in
a larger analysis region "to avoid boundary effects", and with three
area types whose sector densities differ by an order of magnitude.

:class:`StudyArea` bundles everything one experiment needs — network,
environment, path-loss database, analysis engine, the fixed UE raster
and the delta anchor of ``C_before``.  :func:`build_area` constructs
one; :func:`build_market` yields the paper's rural/suburban/urban trio
for one market seed.

Default extents are scaled down from the paper's 10 km/30 km so the
full 27-scenario sweep runs on a laptop; every extent is a parameter
(see DESIGN.md, "Grid scale").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from ..core.evaluation import Evaluator
from ..core.planning import PlanningSettings, optimize_planned_configuration
from ..model.engine import AnalysisEngine, DeltaIncumbent
from ..model.geometry import GridSpec, Region
from ..model.linkrate import LinkAdaptation
from ..model.load import uniform_per_sector_density
from ..model.network import CellularNetwork, Configuration
from ..model.pathloss import (DEFAULT_CLIP_FLOOR_DB, PathLossDatabase,
                              TiltModelName)
from ..model.plossdb import (_network_to_json, load_packed, read_header,
                             stream_database)
from ..model.propagation import Environment
from ..model.snapshot import NetworkState
from .placement import AreaType, build_network
from .terrain import TerrainParameters, generate_environment
from .users import sector_ue_counts

__all__ = ["AreaDimensions", "StudyArea", "Market",
           "build_area", "build_market", "MARKET_NAMES",
           "pack_area_database", "build_packed_market"]

#: The paper anonymizes its three markets; we name ours after seeds.
MARKET_NAMES = ("market-A", "market-B", "market-C")


@dataclass(frozen=True)
class AreaDimensions:
    """Tuning-area side, boundary margin and raster cell size (meters)."""

    tuning_side_m: float
    margin_m: float
    cell_size_m: float = 100.0

    @classmethod
    def for_area(cls, area: AreaType) -> "AreaDimensions":
        """Laptop-scale defaults that preserve the density regimes.

        Rural regions must be large enough to hold several 4 km-ISD
        sites; urban regions can be small and still hold >100 sectors.
        """
        if area is AreaType.RURAL:
            return cls(tuning_side_m=9_000.0, margin_m=4_000.0)
        if area is AreaType.SUBURBAN:
            return cls(tuning_side_m=3_000.0, margin_m=2_000.0)
        return cls(tuning_side_m=1_600.0, margin_m=1_200.0)


def _terrain_for_area(area: AreaType) -> TerrainParameters:
    """Clutter layout matching the area type's land use."""
    if area is AreaType.RURAL:
        return TerrainParameters(relief_m=120.0, urban_core_radius_m=150.0,
                                 suburban_radius_m=600.0,
                                 forest_fraction=0.35, water_fraction=0.04)
    if area is AreaType.SUBURBAN:
        return TerrainParameters(relief_m=60.0, urban_core_radius_m=800.0,
                                 suburban_radius_m=6_000.0,
                                 forest_fraction=0.20, water_fraction=0.02)
    return TerrainParameters(relief_m=30.0, urban_core_radius_m=2_500.0,
                             suburban_radius_m=8_000.0,
                             forest_fraction=0.08, water_fraction=0.02)


@dataclass
class StudyArea:
    """One evaluation area: topology, physics, engine and ``C_before``.

    ``anchor`` is the delta anchor of the planned configuration over
    ``ue_density``, finished and read-only: :attr:`baseline` is its
    state, and every :meth:`~repro.core.magus.Magus.from_area` hands it
    to its evaluator, so no ticket evaluates ``C_before`` densely again.
    """

    name: str
    area_type: AreaType
    seed: int
    tuning_region: Region
    analysis_region: Region
    grid: GridSpec
    environment: Environment
    network: CellularNetwork
    pathloss: PathLossDatabase
    engine: AnalysisEngine
    ue_density: np.ndarray
    sector_ues: Mapping[int, float]
    planned_config: Configuration    # after the offline planning pass
    anchor: DeltaIncumbent           # C_before's delta anchor

    @property
    def baseline(self) -> NetworkState:
        """The ``C_before`` snapshot: the anchor's state."""
        return self.anchor.state

    @property
    def c_before(self) -> Configuration:
        """The operator-planned (pre-optimized) configuration."""
        return self.planned_config

    def interferer_stats(self, radius_m: float = 10_000.0) -> float:
        """Mean interferer count — the paper's density statistic."""
        counts = [self.network.interferer_count(s.sector_id, radius_m)
                  for s in self.network.sectors]
        return float(np.mean(counts))

    def evaluate(self, config) -> NetworkState:
        """Snapshot ``config`` against this area's fixed UE raster."""
        return self.engine.evaluate(config, self.ue_density)


def build_area(area_type: AreaType, seed: int = 0,
               dims: Optional[AreaDimensions] = None,
               link: Optional[LinkAdaptation] = None,
               tilt_model: TiltModelName = "exact",
               planning: Optional[PlanningSettings] = None,
               name: Optional[str] = None,
               evaluation_strategy: str = "delta",
               plossdb: Optional[str] = None) -> StudyArea:
    """Construct a reproducible :class:`StudyArea`.

    The pipeline mirrors how the paper's data feeds compose: place
    sites over the *analysis* region (so tuning-area sectors have real
    out-of-area interferers), synthesize terrain/clutter, derive the
    per-sector path-loss matrices, anchor the uniform-per-sector UE
    raster to the serving map, and finally run the offline *planning*
    pass so ``C_before`` is locally optimal the way operator-planned
    networks are (pass ``planning=PlanningSettings(max_passes=0)`` to
    skip it).  The last step, the dense evaluation of ``C_before``, is
    kept as the area's read-only :attr:`StudyArea.anchor`.

    ``plossdb`` names a ``magus.plossdb`` file to load instead of
    computing rasters (built first — streamed, one sector at a time —
    if it does not exist yet); it switches the evaluation pipeline to
    float32 planes.
    """
    dims = dims or AreaDimensions.for_area(area_type)
    tuning_region = Region.square(dims.tuning_side_m)
    analysis_region = tuning_region.expanded(dims.margin_m)
    grid = GridSpec(analysis_region, cell_size=dims.cell_size_m)

    environment = generate_environment(grid, _terrain_for_area(area_type),
                                       seed=seed)
    network = build_network(analysis_region, area_type, seed=seed)
    if plossdb is not None:
        pathloss = _load_or_pack(plossdb, network, environment, seed,
                                 tilt_model)
    else:
        pathloss = PathLossDatabase.from_environment(
            network, environment, seed=seed, tilt_model=tilt_model)
    engine = AnalysisEngine(pathloss, link=link)

    # Two-pass density: footprints first, then per-sector totals spread
    # uniformly (paper Section 4.2).
    c_default = network.planned_configuration()
    shape_state = engine.evaluate(c_default, np.zeros(grid.shape))
    per_sector = sector_ue_counts(network, area_type, seed=seed)
    density = uniform_per_sector_density(shape_state, per_sector)

    # Offline planning: reach the planners' single-move local optimum,
    # then re-anchor the density to the planned footprints.
    planned = optimize_planned_configuration(
        Evaluator(engine, density, "performance",
                  strategy=evaluation_strategy),
        network, c_default, planning)
    if planned != c_default:
        density = uniform_per_sector_density(
            engine.evaluate(planned, density), per_sector)
    anchor = engine.evaluate_with_incumbent(planned, density)[1]
    _freeze(anchor)

    return StudyArea(
        name=name or f"{area_type.value}-{seed}",
        area_type=area_type, seed=seed,
        tuning_region=tuning_region, analysis_region=analysis_region,
        grid=grid, environment=environment, network=network,
        pathloss=pathloss, engine=engine, ue_density=density,
        sector_ues=per_sector, planned_config=planned, anchor=anchor)


def _freeze(anchor: DeltaIncumbent) -> None:
    """Make the rasters of a shared anchor read-only (its rows and tree
    nodes already are): every evaluator that adopts it reads them."""
    state = anchor.state
    for raster in (anchor.best_mw, state.serving, state.rp_best_dbm,
                   state.interference_dbm, state.sinr_db,
                   state.max_rate_bps, state.n_ue, state.rate_bps,
                   state.raw_serving):
        raster.flags.writeable = False


def _load_or_pack(path: str, network: CellularNetwork,
                  environment: Environment, seed: int,
                  tilt_model: TiltModelName) -> PathLossDatabase:
    """Memory-map ``path`` if it exists (verifying it matches this
    area's network/grid identity and ``tilt_model``), else stream-build
    it first.

    The file's clip floor is authoritative: :func:`build_area` takes no
    floor, so an area loaded from a file evaluates at whatever floor
    the file was packed with (``clip_floor_db`` in its header).
    """
    if not os.path.exists(path):
        stream_database(path, network, environment, seed=seed,
                        tilt_model=tilt_model)
    header = read_header(path)
    if header["tilt_model"] != tilt_model:
        raise ValueError(
            f"{path}: 'tilt_model' is {header['tilt_model']!r}, but this "
            f"area asks for {tilt_model!r}; re-pack it with "
            f"--tilt-model {tilt_model}")
    expected = _network_to_json(network)
    if header["network"] != expected:
        raise ValueError(
            f"{path} was packed for a different network "
            f"({header['n_sectors']} sectors) than this area "
            f"({network.n_sectors} sectors, or differing sector "
            f"parameters); re-run `repro-magus pack` with the same "
            f"area type and seed")
    db = load_packed(path)
    if db.grid.shape != environment.grid.shape:
        raise ValueError(
            f"{path} grid {db.grid.shape} does not match this area's "
            f"analysis grid {environment.grid.shape}; re-pack with the "
            f"same dimensions")
    return db


def pack_area_database(path: str, area_type: AreaType, seed: int = 0,
                       dims: Optional[AreaDimensions] = None,
                       tilt_model: TiltModelName = "exact",
                       progress: Optional[Callable[[int, int], None]] = None,
                       clip_floor_db: Optional[float] =
                       DEFAULT_CLIP_FLOOR_DB) -> Dict:
    """Stream a standard study area's path-loss database to disk.

    Constructs exactly the environment/network :func:`build_area` would
    (same regions, same seeds), but never holds more than one site's
    rasters in RAM — so areas far beyond laptop scale can be packed and
    later loaded with ``build_area(..., plossdb=path)``.  Returns the
    plossdb header.
    """
    dims = dims or AreaDimensions.for_area(area_type)
    tuning_region = Region.square(dims.tuning_side_m)
    analysis_region = tuning_region.expanded(dims.margin_m)
    grid = GridSpec(analysis_region, cell_size=dims.cell_size_m)
    environment = generate_environment(grid, _terrain_for_area(area_type),
                                       seed=seed)
    network = build_network(analysis_region, area_type, seed=seed)
    return stream_database(path, network, environment, seed=seed,
                           tilt_model=tilt_model, progress=progress,
                           clip_floor_db=clip_floor_db)


def build_packed_market(path: str, seed: int = 0,
                        area_type: AreaType = AreaType.URBAN,
                        grid_cells: int = 600,
                        cell_size_m: float = 16.0,
                        tilt_values: Optional[list] = None,
                        tilt_model: TiltModelName = "exact",
                        progress: Optional[Callable[[int, int], None]] = None,
                        clip_floor_db: Optional[float] =
                        DEFAULT_CLIP_FLOOR_DB) -> Dict:
    """Stream a paper-scale square market to disk.

    The default geometry is the paper's evaluation scale: a 600x600
    raster (16 m cells over a ~9.6 km square) which at the urban 550 m
    inter-site distance places 1000+ sectors.  Nothing larger than one
    sector's planes is ever resident, so the ~23 GB logical tensor
    builds on a laptop.  Returns the plossdb header.
    """
    side = grid_cells * cell_size_m
    region = Region.square(side)
    grid = GridSpec(region, cell_size=cell_size_m)
    environment = generate_environment(grid, _terrain_for_area(area_type),
                                       seed=seed)
    network = build_network(region, area_type, seed=seed)
    return stream_database(path, network, environment, seed=seed,
                           tilt_model=tilt_model, tilt_values=tilt_values,
                           progress=progress, clip_floor_db=clip_floor_db)


@dataclass
class Market:
    """One metropolitan market: a rural, a suburban and an urban area."""

    name: str
    areas: Dict[AreaType, StudyArea]

    def area(self, area_type: AreaType) -> StudyArea:
        return self.areas[area_type]


def build_market(market_index: int,
                 dims_overrides: Optional[Mapping[AreaType, AreaDimensions]] = None,
                 tilt_model: TiltModelName = "exact") -> Market:
    """The paper's per-market trio of study areas.

    ``market_index`` selects one of :data:`MARKET_NAMES`; all areas of
    a market share its seed lineage but differ per area type, so the
    27-scenario sweep (3 markets x 3 areas x 3 upgrade scenarios) is
    fully reproducible.
    """
    if not 0 <= market_index < len(MARKET_NAMES):
        raise ValueError(f"market_index must be in [0, {len(MARKET_NAMES)})")
    name = MARKET_NAMES[market_index]
    areas: Dict[AreaType, StudyArea] = {}
    for offset, area_type in enumerate(AreaType):
        seed = 1000 * (market_index + 1) + offset
        dims = (dims_overrides or {}).get(area_type)
        areas[area_type] = build_area(
            area_type, seed=seed, dims=dims, tilt_model=tilt_model,
            name=f"{name}/{area_type.value}")
    return Market(name=name, areas=areas)
