"""Synthetic user-density fields (the carrier's UE-distribution data).

The paper's model consumes per-sector attached-UE totals (spread
uniformly over each footprint) and names finer-grained density as an
easy extension.  We provide both inputs:

* :func:`sector_ue_counts` — per-sector totals drawn around an
  area-type mean with log-normal spread (operational loads are heavy
  tailed), for the paper-faithful uniform model;
* :func:`population_field` — a clutter-weighted, hotspot-seasoned
  per-grid population raster for the fine-grained extension.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..model.fields import gaussian_filter
from ..model.geometry import GridSpec
from ..model.network import CellularNetwork
from ..model.propagation import ClutterClass
from .placement import AreaType
from .rng import stream

__all__ = ["sector_ue_counts", "population_field",
           "MEAN_UES_PER_SECTOR"]

#: Busy-hour attached-UE means per area type.  Urban sectors are small
#: but individually loaded; rural sectors are huge but sparse.
MEAN_UES_PER_SECTOR: Dict[AreaType, float] = {
    AreaType.RURAL: 120.0,
    AreaType.SUBURBAN: 220.0,
    AreaType.URBAN: 320.0,
}

#: Relative population weight of each clutter class (people per grid,
#: before normalization).
_CLUTTER_POPULATION_WEIGHT = {
    ClutterClass.OPEN: 0.05,
    ClutterClass.WATER: 0.0,
    ClutterClass.FOREST: 0.02,
    ClutterClass.SUBURBAN: 1.0,
    ClutterClass.URBAN: 3.0,
    ClutterClass.DENSE_URBAN: 8.0,
}


def sector_ue_counts(network: CellularNetwork, area: AreaType,
                     seed: int = 0, spread_sigma: float = 0.35) -> Dict[int, float]:
    """Per-sector attached-UE totals (log-normal around the area mean).

    These play the role of the carrier's "traffic ... at the same time
    the previous day or the previous week" history that the
    model-based approach leans on.
    """
    rng = stream(seed, "ue-counts")
    mean = MEAN_UES_PER_SECTOR[area]
    draws = rng.lognormal(mean=0.0, sigma=spread_sigma,
                          size=network.n_sectors)
    return {s.sector_id: float(mean * d)
            for s, d in zip(network.sectors, draws)}


def population_field(grid: GridSpec, clutter: np.ndarray,
                     seed: int = 0, n_hotspots: int = 6,
                     hotspot_weight: float = 0.3) -> np.ndarray:
    """A per-grid relative population raster.

    Base density follows land use (people live where buildings are);
    Gaussian hotspots model malls / stadiums / airports — the venues
    the paper's introduction singles out as having "no specific
    preferred time for scheduling the upgrade".  The output is a
    relative weight field (non-negative, not normalized); pass it to
    :func:`repro.model.load.density_from_field` with a UE total.
    """
    if clutter.shape != grid.shape:
        raise ValueError("clutter raster shape mismatch")
    rng = stream(seed, "population")
    base = np.zeros(grid.shape)
    for cls_, weight in _CLUTTER_POPULATION_WEIGHT.items():
        base[clutter == int(cls_)] = weight
    base = gaussian_filter(base, 1.0)

    hotspots = np.zeros(grid.shape)
    rows, cols = grid.shape
    for _ in range(n_hotspots):
        r = rng.integers(0, rows)
        c = rng.integers(0, cols)
        peak = np.zeros(grid.shape)
        peak[r, c] = 1.0
        sigma_cells = rng.uniform(2.0, 6.0)
        hotspots += gaussian_filter(peak, sigma_cells)
    if hotspots.max() > 0:
        hotspots *= (base.max() / hotspots.max())
    field = (1.0 - hotspot_weight) * base + hotspot_weight * hotspots
    return np.maximum(field, 0.0)
