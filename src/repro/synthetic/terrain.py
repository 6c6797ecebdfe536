"""Synthetic terrain and clutter rasters (the planning-tool substrate).

The paper's path-loss matrices embed "terrain, buildings, foliage, etc"
(Section 4.2).  Lacking the carrier's GIS layers, we synthesize them:

* **terrain** — a power-law (fractal) height field, the standard model
  for natural relief; rural areas get more vertical range than urban.
* **clutter** — land-use classes laid out as a city: a dense-urban
  core, an urban ring, suburban sprawl, then open/forest, plus water
  bodies carved along terrain minima.

Both are deterministic in the master seed (see
:mod:`repro.synthetic.rng`), so a "market" is fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..model.fields import gaussian_filter, power_law_field
from ..model.geometry import GridSpec
from ..model.propagation import ClutterClass, Environment
from .rng import stream

__all__ = ["TerrainParameters", "generate_terrain", "generate_clutter",
           "generate_environment"]


@dataclass(frozen=True)
class TerrainParameters:
    """Knobs of the synthetic geography.

    ``urban_core_radius_m`` / ``suburban_radius_m`` delimit the rings of
    the clutter layout around ``city_center`` (defaults to the raster
    center).  ``relief_m`` scales the fractal height field.
    """

    relief_m: float = 80.0
    spectral_beta: float = 3.2
    urban_core_radius_m: float = 1_500.0
    suburban_radius_m: float = 5_000.0
    forest_fraction: float = 0.25
    water_fraction: float = 0.03
    city_center: Tuple[float, float] | None = None


def generate_terrain(grid: GridSpec, params: TerrainParameters,
                     seed: int) -> np.ndarray:
    """Fractal elevation raster (meters), non-negative."""
    rng = stream(seed, "terrain")
    base = power_law_field(grid.shape, params.spectral_beta, rng)
    span = base.max() - base.min()
    if span == 0:
        return np.zeros(grid.shape)
    return (base - base.min()) / span * params.relief_m


def generate_clutter(grid: GridSpec, terrain_m: np.ndarray,
                     params: TerrainParameters, seed: int) -> np.ndarray:
    """Integer :class:`ClutterClass` raster with a city-ring layout."""
    if terrain_m.shape != grid.shape:
        raise ValueError("terrain shape mismatch")
    rng = stream(seed, "clutter")
    gx, gy = grid.cell_centers()
    cx, cy = params.city_center or grid.region.center
    dist = np.hypot(gx - cx, gy - cy)

    clutter = np.full(grid.shape, int(ClutterClass.OPEN), dtype=np.int8)

    # Forest patches over open land, biased to higher ground.
    roughness = power_law_field(grid.shape, 2.5, rng)
    forest_score = roughness + (terrain_m - terrain_m.mean()) / \
        max(terrain_m.std(), 1e-9)
    threshold = np.quantile(forest_score, 1.0 - params.forest_fraction)
    clutter[forest_score >= threshold] = int(ClutterClass.FOREST)

    # City rings override natural cover.
    clutter[dist <= params.suburban_radius_m] = int(ClutterClass.SUBURBAN)
    urban_r = params.urban_core_radius_m
    clutter[dist <= 2.0 * urban_r] = int(ClutterClass.URBAN)
    clutter[dist <= urban_r] = int(ClutterClass.DENSE_URBAN)

    # Water along terrain minima (rivers/lakes), sparing the core.
    if params.water_fraction > 0:
        smooth = gaussian_filter(terrain_m, 2.0)
        cut = np.quantile(smooth, params.water_fraction)
        water = (smooth <= cut) & (dist > urban_r)
        clutter[water] = int(ClutterClass.WATER)
    return clutter


def generate_environment(grid: GridSpec,
                         params: TerrainParameters | None = None,
                         seed: int = 0) -> Environment:
    """Terrain + clutter bundle ready for the propagation model."""
    params = params or TerrainParameters()
    terrain = generate_terrain(grid, params, seed)
    clutter = generate_clutter(grid, terrain, params, seed)
    return Environment(grid=grid, terrain_m=terrain, clutter=clutter)
