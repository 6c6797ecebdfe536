"""Terrain-aware radio propagation (the Atoll stand-in physics).

The paper's path-loss data comes from the Atoll planning tool, whose
*Standard Propagation Model* (SPM) is a tuned Hata-style formula whose
per-grid prediction is then "modified with empirical constants to
capture terrain, foliage, and clutter effects for each grid"
(Section 4.2).  We implement the same pipeline:

1. an SPM distance/frequency/antenna-height term,
2. a per-grid clutter correction (one constant per clutter class),
3. single knife-edge diffraction over the terrain profile,
4. spatially correlated log-normal shadowing (the irregularity that
   makes real matrices impossible to express "by simple equations",
   cf. the paper's Figure 3), and
5. the directional antenna gain of :mod:`repro.model.antenna`.

The output convention matches the paper's Formula 1, where path loss is
*added* to the transmit power: ``RP = P + L`` with ``L`` negative
(e.g. -20 dB near the mast down to -200 dB at the region edge).  All
functions here therefore return **negative** "path gain" values in dB.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .antenna import AntennaPattern
from .geometry import GridSpec

__all__ = [
    "ClutterClass",
    "CLUTTER_LOSS_DB",
    "SPMParameters",
    "Environment",
    "Transmitter",
    "SiteTerms",
    "PropagationModel",
]


class ClutterClass(enum.IntEnum):
    """Land-use classes with distinct propagation corrections.

    Values are raster codes: clutter maps are integer arrays of these.
    """

    OPEN = 0
    WATER = 1
    FOREST = 2
    SUBURBAN = 3
    URBAN = 4
    DENSE_URBAN = 5


#: Per-class excess loss (dB) applied at the receiver grid, in the
#: spirit of Atoll's per-clutter K-corrections.  Open land is the
#: reference; water is slightly *better* than open (smooth reflection).
CLUTTER_LOSS_DB = {
    ClutterClass.OPEN: 0.0,
    ClutterClass.WATER: -2.0,
    ClutterClass.FOREST: 8.0,
    ClutterClass.SUBURBAN: 6.0,
    ClutterClass.URBAN: 14.0,
    ClutterClass.DENSE_URBAN: 20.0,
}


@dataclass(frozen=True)
class SPMParameters:
    """Constants of the Standard Propagation Model.

    ``PL(d) = k1 + k2 log10(d) + k3 log10(h_eff) + k5 log10(d) log10(h_eff)
    + k6 h_ue + clutter + diffraction``

    with ``d`` in meters and heights in meters.  Defaults are calibrated
    for an LTE macro layer around 2.6 GHz (paper band 7) and yield path
    gains spanning roughly -60 dB near the mast to -200 dB tens of km
    out — the range visible in the paper's Figure 3.
    """

    k1: float = 23.5          # intercept (dB) — absorbs frequency term at 2.6 GHz
    k2: float = 36.7          # distance slope (dB/decade)
    k3: float = -5.0          # effective TX height gain (dB/decade of h_eff)
    k5: float = -3.1          # distance x height cross term
    k6: float = -0.1          # per-meter UE height correction
    min_distance_m: float = 25.0   # clamp to avoid the log singularity

    def basic_loss_db(self, distance_m: np.ndarray,
                      h_eff_m: np.ndarray | float,
                      h_ue_m: float = 1.5) -> np.ndarray:
        """Positive SPM loss (dB) before clutter/diffraction/antenna."""
        d = np.maximum(np.asarray(distance_m, dtype=float), self.min_distance_m)
        h = np.maximum(np.asarray(h_eff_m, dtype=float), 1.0)
        log_d = np.log10(d)
        log_h = np.log10(h)
        return (self.k1 + self.k2 * log_d + self.k3 * log_h
                + self.k5 * log_d * log_h + self.k6 * h_ue_m)


@dataclass
class Environment:
    """Terrain and land use over an analysis grid.

    Attributes
    ----------
    grid:
        The raster frame everything is sampled on.
    terrain_m:
        Ground elevation (m) per cell, shape ``grid.shape``.
    clutter:
        Integer :class:`ClutterClass` codes per cell, same shape.
    shadowing_db:
        Optional zero-mean correlated shadowing field (dB) per cell;
        positive values mean *extra* loss.  Separate fields per sector
        are drawn by the path-loss database builder; this one is a
        shared large-scale component.
    """

    grid: GridSpec
    terrain_m: np.ndarray
    clutter: np.ndarray
    shadowing_db: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        shape = self.grid.shape
        if self.terrain_m.shape != shape:
            raise ValueError(
                f"terrain shape {self.terrain_m.shape} != grid {shape}")
        if self.clutter.shape != shape:
            raise ValueError(
                f"clutter shape {self.clutter.shape} != grid {shape}")
        if self.shadowing_db is not None and self.shadowing_db.shape != shape:
            raise ValueError("shadowing field shape mismatch")

    @classmethod
    def flat(cls, grid: GridSpec,
             clutter_class: ClutterClass = ClutterClass.OPEN) -> "Environment":
        """A flat, single-clutter environment (useful for tests)."""
        shape = grid.shape
        return cls(grid=grid,
                   terrain_m=np.zeros(shape),
                   clutter=np.full(shape, int(clutter_class), dtype=np.int8))

    def clutter_loss_db(self) -> np.ndarray:
        """Per-cell clutter correction (dB of extra loss)."""
        out = np.zeros(self.grid.shape)
        for cls_, loss in CLUTTER_LOSS_DB.items():
            out[self.clutter == int(cls_)] = loss
        return out


@dataclass(frozen=True)
class Transmitter:
    """A radiating sector: position, mast, azimuth and radio basics."""

    x: float
    y: float
    height_m: float = 30.0
    azimuth_deg: float = 0.0
    antenna: AntennaPattern = field(default_factory=AntennaPattern)
    frequency_mhz: float = 2635.0  # paper band-7 downlink center


@dataclass(frozen=True)
class SiteTerms:
    """The read-only rasters every sector on one mast shares: they
    depend on the mast's position and height, never on azimuth, tilt or
    per-sector shadowing."""

    distance_m: np.ndarray       # to each grid center
    bearing_deg: np.ndarray      # compass bearing to each grid center
    theta_deg: np.ndarray        # depression angle toward each grid
    loss_db: np.ndarray          # SPM + clutter + diffraction (+ env shadowing)


class PropagationModel:
    """Computes per-grid path *gain* matrices for one transmitter.

    The result of :meth:`path_gain_db` is the matrix ``L_b(T_b, g)`` of
    the paper's Formula 1 — negative dB values to be added to the
    transmit power.  Terms that depend only on the environment (cell
    centres, receiver heights, the clutter raster) are computed once
    per model; :meth:`site_terms` adds the per-mast ones.
    """

    #: Points sampled along each TX-grid profile for diffraction.
    _PROFILE_SAMPLES = 12

    def __init__(self, environment: Environment,
                 spm: SPMParameters | None = None,
                 ue_height_m: float = 1.5) -> None:
        self.environment = environment
        self.spm = spm or SPMParameters()
        self.ue_height_m = ue_height_m
        self._grid = environment.grid
        self._gx, self._gy = self._grid.cell_centers()
        self._rx_z = environment.terrain_m + ue_height_m
        self._clutter_db = environment.clutter_loss_db()

    # ------------------------------------------------------------------
    def path_gain_db(self, tx: Transmitter, tilt_deg: float = 0.0,
                     include_diffraction: bool = True) -> np.ndarray:
        """Path gain (negative dB) from ``tx`` to every grid cell.

        ``tilt_deg`` is the electrical downtilt applied to the antenna's
        vertical pattern.  Shadowing from the environment (if present)
        is included; it is deterministic per environment so repeated
        calls agree.
        """
        site = self.site_terms(tx, include_diffraction)
        gain = tx.antenna.gain_db(site.bearing_deg - tx.azimuth_deg,
                                  site.theta_deg, tilt_deg)
        # Path gain = antenna gain minus propagation loss; always negative
        # far from the mast, matching the paper's -20..-200 dB range.
        return gain - site.loss_db

    def site_terms(self, tx: Transmitter,
                   include_diffraction: bool = True) -> SiteTerms:
        """Geometry and non-antenna loss from ``tx``'s mast to every cell.

        Reads only ``tx``'s position, height and frequency.  The loss is
        summed in a fixed order — SPM, clutter, diffraction, then the
        environment's shadowing — so every caller gets the same bits.
        """
        env = self.environment
        dx = self._gx - tx.x
        dy = self._gy - tx.y
        dist = np.hypot(dx, dy)
        bearing = np.degrees(np.arctan2(dx, dy)) % 360.0
        tx_z = self._terrain_at(tx.x, tx.y) + tx.height_m
        dist_1 = np.maximum(dist, 1.0)
        # Depression angle from the antenna toward each grid's UE height.
        theta = np.degrees(np.arctan2(tx_z - self._rx_z, dist_1))
        # Effective antenna height over each grid (terrain-aware).
        h_eff = np.maximum(tx_z - env.terrain_m, 1.0)
        loss = self.spm.basic_loss_db(dist, h_eff, self.ue_height_m)
        loss += self._clutter_db
        if include_diffraction:
            loss += self._diffraction_loss_db(tx, tx_z, dx, dy, dist_1)
        if env.shadowing_db is not None:
            loss += env.shadowing_db
        for array in (dist, bearing, theta, loss):
            array.setflags(write=False)
        return SiteTerms(distance_m=dist, bearing_deg=bearing,
                         theta_deg=theta, loss_db=loss)

    def _terrain_at(self, x: float, y: float) -> float:
        grid = self._grid
        if grid.region.contains(x, y):
            row, col = grid.cell_of(x, y)
            return float(self.environment.terrain_m[row, col])
        return 0.0

    # ------------------------------------------------------------------
    def _diffraction_loss_db(self, tx: Transmitter, tx_z: float,
                             dx: np.ndarray, dy: np.ndarray,
                             dist: np.ndarray) -> np.ndarray:
        """Single knife-edge diffraction loss over the terrain profile.

        For each grid (offset ``dx``/``dy`` from the mast, ``dist`` away
        clamped at 1 m), the line of sight from the antenna at absolute
        height ``tx_z`` is sampled at a fixed number of interior points;
        the dominant obstruction's Fresnel parameter ``v`` yields the
        classic knife-edge loss approximation (ITU-R P.526):
        ``J(v) = 6.9 + 20 log10(sqrt((v-0.1)^2 + 1) + v - 0.1)`` for
        ``v > -0.78``, else 0.
        """
        wavelength = 299.792458 / tx.frequency_mhz  # meters
        max_v = np.full(dist.shape, -np.inf)
        n = self._PROFILE_SAMPLES
        # Grid offsets vary by column (dx) and by row (dy) alone, so each
        # sample's terrain cells are an outer product of rows and columns.
        col_dx, row_dy = dx[0], dy[:, 0]
        rise = self._rx_z - tx_z
        two_dist = 2.0 * dist
        for i in range(1, n):
            t = i / n
            ground = self._sample_terrain(tx.x + col_dx * t, tx.y + row_dy * t)
            los_z = tx_z + rise * t
            clearance = ground - los_z  # positive when terrain blocks LOS
            d1 = dist * t
            d2 = dist * (1.0 - t)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = clearance * np.sqrt(
                    two_dist / (wavelength * np.maximum(d1 * d2, 1.0)))
            max_v = np.maximum(max_v, v)

        loss = np.zeros(dist.shape)
        mask = max_v > -0.78
        v = max_v[mask]
        loss[mask] = 6.9 + 20.0 * np.log10(
            np.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1)
        return loss

    def _sample_terrain(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Nearest-cell terrain height at every point ``(px[j], py[i])``:
        a ``(len(py), len(px))`` raster from column and row coordinates."""
        grid = self._grid
        region = grid.region
        rows = np.clip(((py - region.y0) // grid.cell_size).astype(int),
                       0, grid.n_rows - 1)
        cols = np.clip(((px - region.x0) // grid.cell_size).astype(int),
                       0, grid.n_cols - 1)
        return self.environment.terrain_m[np.ix_(rows, cols)]
