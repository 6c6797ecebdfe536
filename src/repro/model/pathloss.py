"""The per-sector, per-tilt path-loss database (Atoll stand-in).

The paper's model is driven by "one path-loss matrix (containing
600 x 600 path loss values, in dB) per antenna tilt configuration" per
sector (Section 4.2).  :class:`PathLossDatabase` is that artifact: it
answers ``L_b(T_b, g)`` for every sector ``b``, tilt ``T_b`` and grid
``g`` over a shared analysis raster, and supports the two tilt models
the paper discusses:

``exact``
    One faithful matrix per (sector, tilt): the vertical antenna
    pattern is re-evaluated against the sector's own elevation-angle
    raster (the paper's "conceptually, we can compute path loss models
    for each sector for all possible tilt settings").

``shared-delta``
    The paper's computational shortcut: "the change to a path-loss
    matrix caused by a specific uptilt or downtilt is the same across
    all sectors", realized as a radial change profile sampled by
    distance from each sector.

Per-sector correlated shadowing makes the matrices irregular the way
operational Atoll rasters are (paper Figure 3), while remaining
deterministic for a given seed so the whole evaluation is reproducible.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Iterator, Literal, Optional,
                    Sequence, Tuple)

import numpy as np

from .fields import correlated_gaussian_field
from .geometry import GridSpec
from .network import CellularNetwork, Sector
from .propagation import Environment, PropagationModel, SPMParameters, Transmitter

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .plossdb import PackedGainStore

__all__ = ["PathLossDatabase", "TiltModelName",
           "sector_rasters", "sector_gain_db", "exact_gain_db",
           "shared_tilt_profile", "profile_at",
           "DEFAULT_CLIP_FLOOR_DB", "clip_gains_mw", "plane_footprint"]

TiltModelName = Literal["exact", "shared-delta"]

#: Default shadowing statistics (urban macro, Gudmundson).
DEFAULT_SHADOWING_SIGMA_DB = 6.0
DEFAULT_SHADOWING_CORR_M = 150.0

#: Linear-domain gains below this (dB) are zeroed at the quantization
#: point so per-sector footprints are exactly sparse.  −150 dB gain at
#: the hottest catalogue power (46 dBm) is −104 dBm received — 7 dB
#: under the thermal noise floor, so even interference-free the SINR
#: sits below the bottom CQI threshold (−6.7 dB) and the cell was
#: unservable by that sector anyway; as an interferer it is noise-
#: dominated, the regime the PPP coverage analysis (PAPERS.md) shows
#: contributes negligibly.  That holds at this default, not at higher
#: floors: at −115 dB a 41 dBm urban sector's clipped gains arrive near
#: −74 dBm, 23 dB above the noise floor, and on a 117-sector urban
#: market mean recovery read 0.2376 against 0.1515 unclipped, with all
#: 16 plans worse once re-scored without the clip.  ``None`` opts out
#: (no clipping, dense footprints).
DEFAULT_CLIP_FLOOR_DB = -150.0


def clip_gains_mw(planes: np.ndarray,
                  clip_floor_db: Optional[float]) -> np.ndarray:
    """Zero every gain below the clip floor, in place.

    Applied immediately after the f64→mW quantization (the float32
    cast for packed planes, the ``astype(plane_dtype)`` of the dict
    fallback) and nowhere else, so every evaluation path sees the same
    clipped values and cells outside a footprint carry *exactly* 0.0.
    The comparison is strict (``<``): a gain exactly at the floor
    survives.
    """
    if clip_floor_db is not None:
        planes[planes < 10.0 ** (float(clip_floor_db) / 10.0)] = 0.0
    return planes


def plane_footprint(plane: np.ndarray) -> tuple:
    """Tight bounding box of a plane's nonzero cells.

    Half-open ``(row0, row1, col0, col1)``; an all-zero plane yields
    the empty box ``(0, 0, 0, 0)``.
    """
    rows = np.flatnonzero(plane.any(axis=1))
    if rows.size == 0:
        return (0, 0, 0, 0)
    cols = np.flatnonzero(plane.any(axis=0))
    return (int(rows[0]), int(rows[-1]) + 1,
            int(cols[0]), int(cols[-1]) + 1)

#: Bound per sector for the row caches.  Tilt search alternates
#: between a handful of assignments (incumbent plus the tilt ladder of
#: one sector), so a small bound with true LRU eviction keeps every
#: live assignment resident.
DEFAULT_TENSOR_CACHE_SIZE = 8

#: Byte bound for each row cache, which holds the fewer of ``8·S`` rows
#: and this many bytes of them: at paper scale (1020 sectors, 600×600
#: float32 rows of 1.44 MB) 186 rows, not 8160 (11.7 GB).
ROW_CACHE_BYTES = 256 * 1024 * 1024

#: Bound for the shared-delta radial-profile cache: one profile per
#: distinct target tilt.  Real tilt catalogues carry ~17 settings, so
#: 64 keeps every plausible ladder resident while still bounding a
#: pathological caller that sweeps continuous tilts.
DEFAULT_PROFILE_CACHE_SIZE = 64


@dataclass
class _SectorRaster:
    """Cached per-sector geometry needed to re-evaluate tilts quickly."""

    horiz_att_db: np.ndarray     # horizontal pattern attenuation (>= 0)
    theta_deg: np.ndarray        # depression angle toward each grid
    loss_db: np.ndarray          # SPM + clutter + diffraction + shadowing (>= 0)
    distance_m: np.ndarray       # to each grid center
    bearing_deg: np.ndarray      # compass bearing to each grid center


class PathLossDatabase:
    """Path gain ``L_b(T_b, g)`` for all sectors over one raster.

    Build with :meth:`from_environment`; query with :meth:`gain_matrix`
    (one sector) or :meth:`gain_tensor` (all sectors).  The engine
    reads one sector's linear-domain row at a time
    (:meth:`gain_matrix_mw`, cached per sector, tilt and azimuth
    offset); with a packed store attached an on-ladder row is read
    from the store, once per cache miss.

    Four ``functools.lru_cache`` wrappers, private to each database,
    memoize what is derived from the rasters: the mW and dB rows
    (``8·S`` entries each for ``S`` sectors, at most
    :data:`ROW_CACHE_BYTES` of them), the shared-delta profiles (64)
    and the clipped footprints (``64·S``).  Eviction drops the
    least recently used entry; concurrent misses on one key may both
    compute it, never corrupt it.  A pickled database arrives with the
    caches empty, and fork-inherited copies are their owner's alone.

    Values follow the paper's sign convention: **negative dB**, added to
    the transmit power to obtain received power (Formula 1).
    """

    #: The cache wrappers :meth:`_new_caches` builds.
    _CACHES = ("_row_mw", "_row_db", "shared_profile", "_footprint_box")

    def __init__(self, grid: GridSpec, network: CellularNetwork,
                 rasters: Sequence[_SectorRaster],
                 tilt_model: TiltModelName = "exact",
                 validate: bool = True,
                 clip_floor_db: Optional[float] = None) -> None:
        if len(rasters) != network.n_sectors:
            raise ValueError("one raster per sector required")
        if tilt_model not in ("exact", "shared-delta"):
            raise ValueError(f"unknown tilt model {tilt_model!r}")
        self.grid = grid
        self.network = network
        self.tilt_model: TiltModelName = tilt_model
        self._rasters = list(rasters)
        #: Linear-domain gains below this (dB) quantize to exactly 0,
        #: making per-sector footprints sparse (the ROI layer's
        #: exactness hinge — see ``repro.model.plossdb``).  ``None``
        #: disables clipping; footprints then cover whatever the
        #: unclipped planes reach.
        self.clip_floor_db = (None if clip_floor_db is None
                              else float(clip_floor_db))
        #: Optional packed tilt-major mW tensor (:mod:`repro.model.plossdb`).
        #: When attached, on-ladder rows come from it and every plane
        #: this database emits is float32.
        self._packed: Optional["PackedGainStore"] = None
        #: dtype of every mW plane handed to the engine.  float64 for the
        #: dict-backed path; float32 once a packed store is attached (and
        #: it stays float32 after detach, so full/delta/batch paths keep
        #: comparing like against like within one run).
        self.plane_dtype: np.dtype = np.dtype(np.float64)
        self._new_caches()
        #: Bumped on every invalidation; delta incumbents built against
        #: an older epoch are stale and must be re-prepared.
        self.cache_epoch = 0
        if validate:
            self.validate()

    def _new_caches(self) -> None:
        sectors = max(self.network.n_sectors, 1)
        rows = max(1, min(DEFAULT_TENSOR_CACHE_SIZE * sectors,
                          ROW_CACHE_BYTES // (self.grid.n_cells
                                              * self.plane_dtype.itemsize)))
        # The wrappers see the database through a proxy: bound methods
        # would make a cycle, keeping a dropped database's rasters
        # alive until the garbage collector runs.
        me = weakref.proxy(self)
        cls = type(self)
        # Per-(sector, tilt, offset) linear-domain rows, packed or
        # computed: a single-sector tilt change reads one plane.
        self._row_mw = functools.lru_cache(rows)(
            functools.partial(cls._compute_row_mw, me))
        # The dB twin, filled only by gain_row_db.
        self._row_db = functools.lru_cache(rows)(
            functools.partial(cls._finite_gain_db, me))
        #: The shared-delta radial profile for a tilt, computed once per
        #: target tilt from the canonical sector (sector 0).
        self.shared_profile = functools.lru_cache(DEFAULT_PROFILE_CACHE_SIZE)(
            functools.partial(shared_tilt_profile, self.network.sector(0)))
        # Per-(sector, tilt) nonzero bounding boxes for the dict
        # backend (packed stores carry their own table).  Boxes are 4
        # ints; a generous bound keeps whole tilt ladders resident.
        self._footprint_box = functools.lru_cache(
            DEFAULT_PROFILE_CACHE_SIZE * sectors)(
                functools.partial(cls._compute_footprint, me))

    # Cache wrappers do not pickle: a pickled database (or an engine
    # holding one) arrives with empty caches of its own.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._CACHES:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._new_caches()

    def validate(self) -> Optional[dict]:
        """Reject NaN/inf raster data with an actionable error.

        Corrupt Atoll exports (the operational reality Section 4.2's
        clean-feed assumption hides) must fail here, naming the bad
        sectors, instead of silently propagating NaN into SINR.  With a
        packed store attached the precomputed tensor is scanned too —
        one ``isfinite`` reduction per sector, or per read block of a
        file-backed store — and
        the clean result includes an ROI sparsity report: the fraction
        of the grid inside each sector's footprint box (averaged over
        its tilt ladder), the quantity the windowed engine's speedup
        scales with.  Returns ``None`` for dict-backed databases.
        """
        # The packed scan first: a file cut short after loading fails
        # it with an error before the mapped sidecars are touched.
        bad = set() if self._packed is None else set(
            self._packed.bad_sectors())
        bad.update(sid for sid, raster in enumerate(self._rasters)
                   if not (np.isfinite(raster.loss_db).all()
                           and np.isfinite(raster.horiz_att_db).all()
                           and np.isfinite(raster.theta_deg).all()))
        bad = sorted(bad)
        if bad:
            raise ValueError(
                f"path-loss database contains NaN/inf entries for "
                f"sectors {bad}; repair or re-export the matrices "
                f"before evaluation")
        if self._packed is None:
            return None
        boxes = self._packed.roi.astype(np.int64)
        H, W = self.grid.shape
        areas = ((boxes[:, :, 1] - boxes[:, :, 0])
                 * (boxes[:, :, 3] - boxes[:, :, 2]))
        ratios = areas / float(H * W)
        per_sector = ratios.mean(axis=1)
        return {
            "clip_floor_db": self._packed.clip_floor_db,
            "mean_footprint_ratio": float(ratios.mean()),
            "max_footprint_ratio": float(ratios.max()),
            "per_sector_footprint_ratio": [float(r) for r in per_sector],
        }

    def invalidate_caches(self) -> None:
        """Drop memoized tensors/profiles after in-place raster edits.

        A packed store is a *derived* artifact of the rasters, so it is
        detached here too — after a raster edit (fault injection) the
        precomputed planes are stale, and queries fall back to honest
        recomputation from the edited rasters.  ``plane_dtype`` is kept
        as-is so recomputed planes stay comparable with any incumbents
        the caller re-prepares.
        """
        for name in self._CACHES:
            getattr(self, name).cache_clear()
        self._packed = None
        self.cache_epoch += 1

    # ------------------------------------------------------------------
    # packed storage
    # ------------------------------------------------------------------
    def attach_packed(self, store: "PackedGainStore") -> None:
        """Adopt a packed tilt-major mW tensor as the primary backend.

        All subsequent planes (including off-ladder fallbacks) are
        float32, so the full/delta/parallel paths keep their bitwise
        parity among themselves under the quantized storage.
        """
        S, _, H, W = store.shape
        if S != self.network.n_sectors:
            raise ValueError(
                f"packed store carries {S} sectors; this network has "
                f"{self.network.n_sectors}")
        if (H, W) != self.grid.shape:
            raise ValueError(
                f"packed store grid {(H, W)} does not match analysis "
                f"grid {self.grid.shape}")
        if self.clip_floor_db is None and store.clip_floor_db is not None:
            # Adopt the floor the planes were packed under so off-ladder
            # fallback rows clip the same way the stored rows did.
            self.clip_floor_db = store.clip_floor_db
        self._packed = store
        self.plane_dtype = np.dtype(np.float32)
        # Rows and boxes cached against float64 dict planes no longer
        # describe the float32 rows (and row bound) of this database.
        self._new_caches()

    @property
    def packed_store(self) -> Optional["PackedGainStore"]:
        return self._packed

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_environment(cls, network: CellularNetwork,
                         environment: Environment,
                         spm: Optional[SPMParameters] = None,
                         shadowing_sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
                         shadowing_corr_m: float = DEFAULT_SHADOWING_CORR_M,
                         seed: int = 0,
                         tilt_model: TiltModelName = "exact",
                         clip_floor_db: Optional[float] = None
                         ) -> "PathLossDatabase":
        """Compute the database from terrain the way Atoll would.

        Each sector receives its own correlated shadowing field (keyed
        off ``seed`` and the sector id) on top of any environment-level
        field, so different sectors see *different* irregular fades at
        the same grid — exactly the property that defeats closed-form
        path-loss assumptions.  Rasters come from :func:`sector_rasters`,
        which computes one site's shared terms at a time.

        ``clip_floor_db`` defaults to ``None``: clipping these float64
        planes would perturb the bitwise-reproducible seeds markets are
        anchored to.  ``db.attach_packed(pack_database(db))`` packs in
        memory, clipping at :data:`DEFAULT_CLIP_FLOOR_DB` by default.
        """
        rasters = [raster for _, raster in sector_rasters(
            network, environment, spm, shadowing_sigma_db,
            shadowing_corr_m, seed)]
        return cls(environment.grid, network, rasters, tilt_model=tilt_model,
                   clip_floor_db=clip_floor_db)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def gain_matrix(self, sector_id: int, tilt_deg: float,
                    azimuth_offset_deg: float = 0.0) -> np.ndarray:
        """``L_b(tilt, g)`` (negative dB) for one sector at one tilt.

        ``azimuth_offset_deg`` rotates the horizontal pattern relative
        to the planned azimuth (the azimuth-tuning extension).
        """
        return sector_gain_db(self.network.sector(sector_id),
                              self._rasters[sector_id], tilt_deg,
                              self.tilt_model, self.shared_profile,
                              azimuth_offset_deg)

    def gain_tensor(self, tilts: np.ndarray,
                    azimuth_offsets: Optional[np.ndarray] = None
                    ) -> np.ndarray:
        """Stack of gain matrices, shape ``(n_sectors, rows, cols)``.

        ``tilts`` gives each sector's tilt (and ``azimuth_offsets``,
        when given, each sector's pattern rotation).  The
        :meth:`gain_row_db` rows, stacked afresh on every call
        (read-only); only hand verification
        (``AnalysisEngine._received_power_dbm``), tests and benchmarks
        read it.
        """
        tilts, offsets = self._check_assignment(tilts, azimuth_offsets)
        stack = np.stack([self.gain_row_db(i, t, o)
                          for i, (t, o) in enumerate(zip(tilts, offsets))])
        stack.setflags(write=False)
        return stack

    def gain_tensor_mw(self, tilts: np.ndarray,
                       azimuth_offsets: Optional[np.ndarray] = None
                       ) -> np.ndarray:
        """Linear-domain gain planes ``10^(L/10)``, shape like
        :meth:`gain_tensor`: the :meth:`gain_matrix_mw` rows, stacked
        afresh on every call (read-only).  No evaluation path reads
        it; tests and benchmarks do.
        """
        tilts, offsets = self._check_assignment(tilts, azimuth_offsets)
        stack = np.stack([self.gain_matrix_mw(i, t, o)
                          for i, (t, o) in enumerate(zip(tilts, offsets))])
        stack.setflags(write=False)
        return stack

    def gain_matrix_mw(self, sector_id: int, tilt_deg: float,
                       azimuth_offset_deg: float = 0.0) -> np.ndarray:
        """One sector's linear-domain gain plane ``10^(L/10)``.

        Cached per ``(sector, tilt, offset)`` triple: the
        exponentiated :meth:`gain_matrix` output or, with a packed
        store attached and an on-ladder tilt, the stored float32 row.
        Read-only, since every caller shares it.
        """
        return self._row_mw(sector_id, tilt_deg, azimuth_offset_deg)

    def _compute_row_mw(self, sector_id: int, tilt_deg: float,
                        azimuth_offset_deg: float) -> np.ndarray:
        if self._packed is not None and azimuth_offset_deg == 0.0:
            idx = self._packed.index_of(tilt_deg)
            if idx is not None:
                return self._packed.row(sector_id, idx)
        gain_db = self._finite_gain_db(sector_id, tilt_deg,
                                       azimuth_offset_deg)
        row = np.power(10.0, gain_db / 10.0)
        # Off-ladder fallbacks quantize to the plane dtype so they
        # remain bitwise-comparable with packed rows (float32 once
        # a store is attached, float64 otherwise — a no-op there),
        # and the clip floor applies at that same quantization
        # point — the bit-for-bit twin of the packed assignment.
        row = row.astype(self.plane_dtype, copy=False)
        clip_gains_mw(row, self.clip_floor_db)
        row.setflags(write=False)
        return row

    def gain_row_db(self, sector_id: int, tilt_deg: float,
                    azimuth_offset_deg: float = 0.0) -> np.ndarray:
        """:meth:`gain_matrix`, read-only and NaN/inf-checked, in an
        LRU of its own per ``(sector, tilt, offset)``: the rows Algorithm
        1's capture pre-filter reads at the affected grids, and the one
        dB cache (:meth:`gain_tensor` stacks its rows)."""
        return self._row_db(sector_id, tilt_deg, azimuth_offset_deg)

    def _finite_gain_db(self, sector_id: int, tilt_deg: float,
                        azimuth_offset_deg: float) -> np.ndarray:
        gain_db = self.gain_matrix(sector_id, tilt_deg, azimuth_offset_deg)
        if not np.isfinite(gain_db).all():
            raise ValueError(
                f"path-loss gain matrix contains NaN/inf for sector "
                f"{sector_id}; the database was corrupted after "
                f"construction — rebuild it or run validate()")
        gain_db.setflags(write=False)
        return gain_db

    def footprint(self, sector_id: int, tilt_deg: float,
                  azimuth_offset_deg: float = 0.0
                  ) -> Optional[Tuple[int, int, int, int]]:
        """Tight nonzero bounding box of one sector's gain plane.

        Half-open ``(row0, row1, col0, col1)`` in grid coordinates, or
        ``None`` when no exact box is known cheaply enough to be worth
        it: rotated patterns (the stored boxes describe the planned
        azimuth) and unclipped dict backends (the box would be the
        whole grid).  Packed on-ladder queries answer from the v3
        table; clipped dict/off-ladder queries scan the cached plane
        once and memoize.
        """
        if azimuth_offset_deg != 0.0:
            return None
        if self._packed is not None:
            idx = self._packed.index_of(tilt_deg)
            if idx is not None:
                return self._packed.footprint(sector_id, idx)
        if self.clip_floor_db is None:
            return None
        return self._footprint_box(sector_id, tilt_deg)

    def _compute_footprint(self, sector_id: int,
                           tilt_deg: float) -> Tuple[int, int, int, int]:
        return plane_footprint(self.gain_matrix_mw(sector_id, tilt_deg))

    def _check_assignment(self, tilts: np.ndarray,
                          azimuth_offsets: Optional[np.ndarray]):
        tilts = np.asarray(tilts, dtype=float)
        if tilts.shape != (self.network.n_sectors,):
            raise ValueError("need one tilt per sector")
        if azimuth_offsets is None:
            offsets = np.zeros(self.network.n_sectors)
        else:
            offsets = np.asarray(azimuth_offsets, dtype=float)
            if offsets.shape != (self.network.n_sectors,):
                raise ValueError("need one azimuth offset per sector")
        return tilts, offsets

    def distance_matrix(self, sector_id: int) -> np.ndarray:
        """Distance (m) from the sector to each grid center."""
        return self._rasters[sector_id].distance_m


_PROFILE_STEP_M = 50.0
_PROFILE_BINS = 2400  # 120 km of radial profile — covers any raster


# ----------------------------------------------------------------------
# module-level building blocks, shared with the streaming packer
# ----------------------------------------------------------------------
def sector_gain_db(sector: Sector, raster: _SectorRaster, tilt_deg: float,
                   tilt_model: TiltModelName,
                   shared_profile: Callable[[float], np.ndarray],
                   azimuth_offset_deg: float = 0.0) -> np.ndarray:
    """``L_b(tilt, g)`` (negative dB) under either tilt model — for
    ``gain_matrix`` and the packers alike.  ``shared-delta`` adds the
    radial profile ``shared_profile(tilt_deg)``, sampled by distance,
    to the plane at the planned tilt."""
    if tilt_model == "exact":
        return exact_gain_db(sector, raster, tilt_deg, azimuth_offset_deg)
    base = exact_gain_db(sector, raster, sector.planned_tilt_deg,
                         azimuth_offset_deg)
    return base + profile_at(shared_profile(tilt_deg), raster.distance_m)


def exact_gain_db(sector: Sector, raster: _SectorRaster, tilt_deg: float,
                  azimuth_offset_deg: float = 0.0) -> np.ndarray:
    """``L_b(tilt, g)`` (negative dB) for one precomputed sector raster."""
    ant = sector.antenna
    if azimuth_offset_deg == 0.0:
        horiz = raster.horiz_att_db
    else:
        phi = raster.bearing_deg - (sector.azimuth_deg + azimuth_offset_deg)
        horiz = ant.horizontal_attenuation(phi)
    vert = ant.vertical_attenuation(raster.theta_deg, tilt_deg)
    att = np.minimum(horiz + vert, ant.front_back_db)
    return ant.gain_dbi - att - raster.loss_db


def shared_tilt_profile(ref: Sector, tilt_deg: float) -> np.ndarray:
    """Radial gain-change profile for the shared-delta tilt model."""
    distances = np.arange(_PROFILE_BINS) * _PROFILE_STEP_M
    distances = np.maximum(distances, 1.0)
    theta = np.degrees(np.arctan2(ref.height_m - 1.5, distances))
    ant = ref.antenna
    before = ant.vertical_attenuation(theta, ref.planned_tilt_deg)
    after = ant.vertical_attenuation(theta, tilt_deg)
    return before - after


def profile_at(profile: np.ndarray, distance_m: np.ndarray) -> np.ndarray:
    """Sample a :func:`shared_tilt_profile` at each grid's distance."""
    return profile[np.clip((distance_m / _PROFILE_STEP_M).astype(int),
                           0, len(profile) - 1)]


def sector_rasters(network: CellularNetwork, environment: Environment,
                   spm: Optional[SPMParameters] = None,
                   shadowing_sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
                   shadowing_corr_m: float = DEFAULT_SHADOWING_CORR_M,
                   seed: int = 0) -> Iterator[Tuple[Sector, _SectorRaster]]:
    """Yield ``(sector, raster)`` for every sector, in sector order.

    The one build loop behind :meth:`PathLossDatabase.from_environment`
    and the streaming packer.  Environment terms are computed once per
    call, site terms once per run of consecutive sectors whose
    ``(x, y, height_m)`` match — only one site's at a time — and only
    the azimuth pattern and shadowing draw per sector.  Co-sited rasters
    share the site's read-only ``distance_m``, ``bearing_deg`` and
    ``theta_deg``; ``loss_db`` and ``horiz_att_db`` are their own.
    """
    grid = environment.grid
    model = PropagationModel(environment, spm=spm)
    corr_cells = shadowing_corr_m / grid.cell_size
    key = site = None
    for sector in network.sectors:
        if (sector.x, sector.y, sector.height_m) != key:
            key = (sector.x, sector.y, sector.height_m)
            site = model.site_terms(Transmitter(
                x=sector.x, y=sector.y, height_m=sector.height_m))
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, sector.sector_id]))
        loss = site.loss_db + correlated_gaussian_field(
            grid.shape, corr_cells, shadowing_sigma_db, rng)
        yield sector, _SectorRaster(
            horiz_att_db=sector.antenna.horizontal_attenuation(
                site.bearing_deg - sector.azimuth_deg),
            theta_deg=site.theta_deg, loss_db=loss,
            distance_m=site.distance_m, bearing_deg=site.bearing_deg)
