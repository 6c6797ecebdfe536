"""Packed tilt-major path-loss storage: the ``magus.plossdb/1`` format.

The paper evaluates whole markets: "one path-loss matrix (containing
600 x 600 path loss values) per antenna tilt configuration" per sector,
16 tilt settings, 1000+ sectors — ~23 GB of planes.  The dict-of-
rasters inside :class:`~repro.model.pathloss.PathLossDatabase`
re-exponentiates those planes through LRU caches on every query and
cannot hold a market in RAM.  This module stores them *once*, packed:
:class:`PackedGainStore` holds one contiguous float32 tensor of shape
``(n_sectors, n_tilts, H, W)`` of linear-domain (mW) gains
``10^(L/10)``, tilt-major so a (sector, tilt) row is one contiguous
read, plus the ``(S, T, 4)`` table of each plane's nonzero bounding box.

On-disk layout (``"version": 3``, the only version): ``16-byte magic``
(``magus.plossdb/1\\n``) · ``uint64-LE header length`` · UTF-8 JSON
header · zero padding · seven raw sections, each aligned to 4096 bytes:
the ``gains_mw`` tensor, five ``(S, H, W)`` float32 sidecar planes
(``horiz_att_db``, ``theta_deg``, ``loss_db``, ``distance_m``,
``bearing_deg``, so a loaded database still answers off-ladder tilt and
azimuth-offset queries exactly) and the int32 ``roi`` table, half-open
``[row0, row1, col0, col1)``.  The header carries the grid and network
identity, the tilt ladder and model, the ``clip_floor_db`` the planes
were quantized under, the file size and, per section, ``offset``,
``shape``, ``dtype``, ``nbytes`` and a ``checksum`` stamp;
:func:`read_header` checks all of it and names the file and the key of
the first violation.  A loaded :class:`PackedGainStore` maps nothing
of ``gains_mw``: each (sector, tilt) row the engine asks for is one
positioned read (``os.preadv``) into a fresh array, held by the
database's row cache, and ``validate()``'s NaN/inf scan reads block by
block into one reused buffer.  The ``roi`` table is read once; the
five sidecars, read only by off-ladder and azimuth-offset queries,
are read-only ``np.memmap`` views.

**Float32 parity contract**: planes come from one producer,
:func:`sector_planes_mw` — the float64 ``gain_matrix`` composition
quantized *once* by the float64→float32 cast — and :func:`clip_planes`
zeroes gains below the floor at that quantization point and records the
boxes.  The off-ladder fallback applies the identical cast and clip, so
packed and fallback rows are bitwise equal, the full/delta/batch/
parallel paths stay bitwise identical to each other, and cells outside
a box carry gain *exactly* 0.0, which makes windowed evaluation (see
:mod:`repro.model.roi`) bitwise identical to dense.

Every section is stamped with the stdlib CRC-32 (``"crc32:…"``) when
the writer closes; ``crc32c:`` stamps from older builds verify with the
legacy Castagnoli CRC, and an unknown tag or a missing stamp fails.
:func:`load_packed` verifies small files automatically and big ones on
request (``verify=True``), naming the section and byte range so a
flipped bit in a 23 GB market is a diagnosis, not a mystery plan.  The
header is written *last*: an interrupted build leaves zeroed magic, so
partial files fail loudly at load.
"""

from __future__ import annotations

import functools
import json
import os
import weakref
from typing import (IO, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..faults.durable import (CHECKSUM_ALGORITHM, JSON_INT, JSON_NUMBER,
                              JSON_TEXT, SUPPORTED_CHECKSUMS, ChecksumError,
                              check_schema, checksum_value)
from .antenna import AntennaPattern, TiltRange
from .geometry import GridSpec, Region
from .network import CellularNetwork, Sector
from .pathloss import (DEFAULT_CLIP_FLOOR_DB, DEFAULT_SHADOWING_CORR_M,
                       DEFAULT_SHADOWING_SIGMA_DB, PathLossDatabase,
                       TiltModelName, _SectorRaster, clip_gains_mw,
                       plane_footprint, sector_gain_db, sector_rasters,
                       shared_tilt_profile)
from .propagation import Environment, SPMParameters

__all__ = ["PackedGainStore", "PackedDatabaseWriter", "pack_database",
           "save_packed", "load_packed", "stream_database", "read_header",
           "verify_sections", "sector_planes_mw", "clip_planes",
           "FORMAT_NAME", "MAGIC"]

FORMAT_NAME = "magus.plossdb/1"
FORMAT_VERSION = 3                     # the only version read or written
MAGIC = b"magus.plossdb/1\n"          # exactly 16 bytes
_ALIGN = 4096                          # section alignment (page size)
_PREAMBLE = len(MAGIC) + 8             # magic + uint64-LE header length

#: ``load_packed(verify="auto")`` verifies every section when their
#: total size is at or below this; beyond it verification is opt-in so
#: market-scale loads stay O(milliseconds).
_VERIFY_AUTO_BYTES = 256 * 1024 * 1024
#: Read granularity for streaming section checksums and the NaN/inf
#: scan: each reads into one reused buffer of at most this many bytes.
_CRC_BLOCK_BYTES = 1024 * 1024

#: Fixed-width placeholder stamped into section specs at layout time;
#: the real CRC (same encoded width) replaces it when the writer
#: closes, so the header's byte length never shifts.
_CHECKSUM_PLACEHOLDER = f"{CHECKSUM_ALGORITHM}:00000000"

#: Sidecar raster planes persisted alongside the gains tensor, in
#: section order.  Field names match ``_SectorRaster``.
_SIDECARS = ("horiz_att_db", "theta_deg", "loss_db",
             "distance_m", "bearing_deg")


def _section_layout(S: int, T: int, H: int, W: int) -> Dict[str, tuple]:
    """``name -> (shape, dtype)`` of the seven sections, in file order."""
    return {"gains_mw": ((S, T, H, W), "<f4"),
            **dict.fromkeys(_SIDECARS, ((S, H, W), "<f4")),
            "roi": ((S, T, 4), "<i4")}


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class PackedGainStore:
    """The packed tilt-major float32 mW tensor, in memory or on disk.

    ``row(s, t)`` is sector ``s``'s linear-domain gain plane at the
    ladder tilt ``tilt_values[t]`` and ``roi[s, t]`` its nonzero
    bounding box: a read-only view of ``gains_mw``, or, for a
    file-backed store (``gains_mw`` is ``None``), a fresh read-only
    array read from ``path`` at the header's ``gains_mw`` ``section``.
    """

    def __init__(self, gains_mw: Optional[np.ndarray],
                 tilt_values: Sequence[float],
                 roi: np.ndarray,
                 path: Optional[str] = None,
                 clip_floor_db: Optional[float] = None,
                 section: Optional[Dict] = None) -> None:
        if gains_mw is None:
            self.shape: Tuple[int, ...] = tuple(section["shape"])
            self._offset = int(section["offset"])
        elif gains_mw.ndim != 4:
            raise ValueError("gains tensor must be (S, T, H, W)")
        elif gains_mw.dtype != np.float32:
            raise ValueError("gains tensor must be float32")
        else:
            self.shape = gains_mw.shape
        if self.shape[1] != len(tilt_values):
            raise ValueError("one tilt value per tensor column required")
        self.gains_mw = gains_mw
        self.tilt_values: Tuple[float, ...] = tuple(
            float(t) for t in tilt_values)
        # Exact-float lookup is intentional: ladder tilts are produced
        # by the same `min + i*step` arithmetic on both sides, so they
        # compare equal; anything else is off-ladder by definition and
        # belongs to the exact fallback path.
        self._tilt_index: Dict[float, int] = {
            t: i for i, t in enumerate(self.tilt_values)}
        self.path = os.fspath(path) if path is not None else None
        #: Opened on the first read, closed when the store is dropped;
        #: ``preadv`` ignores the file offset, so forked children share it.
        self._fd: Optional[int] = None
        #: Per-(sector, tilt) nonzero bounding boxes, ``(S, T, 4)``
        #: int32 half-open rows/cols (see :func:`clip_planes`).
        self.roi = np.asarray(roi, dtype=np.int32)
        if self.roi.shape != self.shape[:2] + (4,):
            raise ValueError("roi table must be (S, T, 4)")
        #: The clip floor the planes were quantized under (header
        #: field); informational — clipping happened at pack time.
        self.clip_floor_db = (None if clip_floor_db is None
                              else float(clip_floor_db))

    # -- identity ------------------------------------------------------
    @property
    def n_sectors(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * 4

    # -- queries -------------------------------------------------------
    def index_of(self, tilt_deg: float) -> Optional[int]:
        return self._tilt_index.get(float(tilt_deg))

    def row(self, sector_id: int, tilt_index: int) -> np.ndarray:
        """One (sector, tilt) plane: a view of the in-memory tensor, or
        a fresh array read from the file."""
        if self.gains_mw is not None:
            return self.gains_mw[sector_id, tilt_index]
        row = np.empty(self.shape[2:], dtype=np.float32)
        self._read(row, (sector_id * self.shape[1] + tilt_index)
                   * row.nbytes)
        row.setflags(write=False)
        return row

    def footprint(self, sector_id: int,
                  tilt_index: int) -> Tuple[int, int, int, int]:
        """The (sector, tilt) plane's nonzero bounding box, half-open
        ``(row0, row1, col0, col1)``, from the ROI table."""
        return tuple(self.roi[sector_id, tilt_index].tolist())

    def bad_sectors(self) -> List[int]:
        """Sector ids whose packed planes contain NaN/inf.  A
        file-backed store reads each sector in blocks of at most
        ``_CRC_BLOCK_BYTES`` into one reused buffer, so a market-scale
        scan holds one block, not the tensor."""
        if self.gains_mw is not None:
            ok = np.isfinite(self.gains_mw).all(axis=(1, 2, 3))
            return np.flatnonzero(~ok).tolist()
        per_sector = self.nbytes // self.n_sectors
        block = np.empty(max(1, min(per_sector, _CRC_BLOCK_BYTES) // 4),
                         dtype=np.float32)
        bad: List[int] = []
        for s in range(self.n_sectors):
            for start in range(0, per_sector, block.nbytes):
                chunk = block[:(per_sector - start) // 4]
                self._read(chunk, s * per_sector + start)
                if not np.isfinite(chunk).all():
                    bad.append(s)
                    break
        return bad

    def _read(self, out: np.ndarray, start: int) -> None:
        """Fill ``out`` from byte ``start`` of the ``gains_mw`` section."""
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDONLY)
            weakref.finalize(self, os.close, self._fd)
        offset = self._offset + start
        if os.preadv(self._fd, [out], offset) != out.nbytes:
            raise ValueError(
                f"{self.path}: section 'gains_mw' came back short at bytes "
                f"{offset}..{offset + out.nbytes}: the file was truncated "
                f"or rewritten after it was loaded; re-run `repro-magus "
                f"pack`")

    # -- pickling (spawn workers) --------------------------------------
    # File-backed stores ship only their path, never the descriptor;
    # in-memory stores pickle the (small) tensor itself.
    def __getstate__(self) -> dict:
        if self.path is not None:
            return {"path": self.path}
        return {"gains_mw": self.gains_mw,
                "tilt_values": self.tilt_values, "roi": self.roi,
                "clip_floor_db": self.clip_floor_db}

    def __setstate__(self, state: dict) -> None:
        if "path" in state:
            state = _file_store(state["path"], read_header(state["path"]))
        else:
            state["gains_mw"].setflags(write=False)
        self.__init__(**state)


# ----------------------------------------------------------------------
# the plane producer and the clip
# ----------------------------------------------------------------------
def default_tilt_values(network: CellularNetwork) -> Tuple[float, ...]:
    """The union of every sector's tilt catalogue, ascending."""
    values = sorted({float(t) for s in network.sectors
                     for t in s.tilt_range.settings})
    return tuple(values)


def sector_planes_mw(sector: Sector, raster: _SectorRaster,
                     tilt_values: Sequence[float],
                     tilt_model: TiltModelName,
                     shared_profile: Callable[[float], np.ndarray]
                     ) -> np.ndarray:
    """One sector's ``(T, H, W)`` float32 mW planes: the float64
    :func:`sector_gain_db` of ``gain_matrix``, cast once on assignment."""
    planes = np.empty((len(tilt_values),) + raster.distance_m.shape,
                      dtype=np.float32)
    for j, tilt in enumerate(tilt_values):
        planes[j] = np.power(10.0, sector_gain_db(
            sector, raster, tilt, tilt_model, shared_profile) / 10.0)
    return planes


def clip_planes(planes: np.ndarray,
                clip_floor_db: Optional[float]) -> np.ndarray:
    """Zero a sector's float32 planes below the floor, in place, and
    return their ``(T, 4)`` int32 nonzero bounding boxes."""
    clip_gains_mw(planes, clip_floor_db)
    boxes = np.empty((len(planes), 4), dtype=np.int32)
    for j, plane in enumerate(planes):
        boxes[j] = plane_footprint(plane)
    return boxes


def _floor_of(db: PathLossDatabase, clip_floor_db: object) -> Optional[float]:
    """Resolve ``"inherit"``: the database's own floor when it has one,
    else :data:`DEFAULT_CLIP_FLOOR_DB` — a packed artifact is clipped
    unless the caller passes an explicit ``None``."""
    if clip_floor_db == "inherit":
        return (DEFAULT_CLIP_FLOOR_DB if db.clip_floor_db is None
                else db.clip_floor_db)
    return clip_floor_db


def pack_database(db: PathLossDatabase,
                  tilt_values: Optional[Sequence[float]] = None,
                  clip_floor_db: object = "inherit") -> PackedGainStore:
    """Precompute the packed tensor from a dict-backed database
    (attach it with ``db.attach_packed``)."""
    tilt_values = tuple(float(t) for t in (
        default_tilt_values(db.network) if tilt_values is None
        else tilt_values))
    clip_floor_db = _floor_of(db, clip_floor_db)
    S, T = db.network.n_sectors, len(tilt_values)
    gains = np.empty((S, T) + db.grid.shape, dtype=np.float32)
    roi = np.empty((S, T, 4), dtype=np.int32)
    for s, sector in enumerate(db.network.sectors):
        planes = sector_planes_mw(sector, db._rasters[s], tilt_values,
                                  db.tilt_model, db.shared_profile)
        roi[s] = clip_planes(planes, clip_floor_db)
        gains[s] = planes
    gains.setflags(write=False)
    return PackedGainStore(gains, tilt_values, roi,
                           clip_floor_db=clip_floor_db)


# ----------------------------------------------------------------------
# on-disk writer
# ----------------------------------------------------------------------
class PackedDatabaseWriter:
    """Streams one sector at a time into a ``magus.plossdb/1`` file.

    The file is laid out up front (header size and section offsets are
    known from the shapes alone) but the magic/header preamble is
    written only in :meth:`close`, after every sector has landed — an
    interrupted build is detectable by its zeroed magic.  Writes go
    through buffered ``seek``/``write`` rather than a writable memmap
    so dirtied pages don't inflate the builder's RSS.
    """

    def __init__(self, path: str, grid: GridSpec, network: CellularNetwork,
                 tilt_values: Sequence[float],
                 tilt_model: TiltModelName = "exact",
                 clip_floor_db: Optional[float] = DEFAULT_CLIP_FLOOR_DB
                 ) -> None:
        self.path = os.fspath(path)
        self.grid = grid
        self.network = network
        self.tilt_values = tuple(float(t) for t in tilt_values)
        self._tilt_model = tilt_model
        self.clip_floor_db = (None if clip_floor_db is None
                              else float(clip_floor_db))
        S = network.n_sectors
        H, W = grid.shape
        T = len(self.tilt_values)
        self._plane_bytes = H * W * 4
        self._sector_gain_bytes = T * self._plane_bytes
        # Footprints accumulate in memory as sectors land (S*T*16
        # bytes — trivial) and are written as the roi section at close.
        self._roi = np.zeros((S, T, 4), dtype=np.int32)

        sections: Dict[str, Dict[str, object]] = {}
        # Two-pass offset computation: a draft header (offsets zeroed)
        # fixes the data start, then real offsets are filled in.  The
        # final JSON only changes by offset digits, so one spare page
        # of slack always covers the growth.
        draft = self._header_dict(sections={}, file_bytes=0)
        data_start = _align_up(_PREAMBLE + len(_encode(draft)) + _ALIGN)
        offset = data_start
        for name, (shape, dtype) in _section_layout(S, T, H, W).items():
            nbytes = int(np.prod(shape)) * 4
            # Real CRCs land at close(); the placeholder has the same
            # encoded width so the header length is final now.
            sections[name] = {"offset": offset, "shape": list(shape),
                              "dtype": dtype, "nbytes": nbytes,
                              "checksum": _CHECKSUM_PLACEHOLDER}
            offset = _align_up(offset + nbytes)
        self._file_bytes = offset
        self.header = self._header_dict(sections=sections,
                                        file_bytes=self._file_bytes)
        self._header_bytes = _encode(self.header)
        if _PREAMBLE + len(self._header_bytes) > data_start:
            raise AssertionError("plossdb header overflowed its slack page")
        self._sections = sections
        self._written: set = set()
        self._fh: Optional[IO[bytes]] = open(self.path, "w+b")
        # Reserve the full file (header region stays zeroed until close).
        self._fh.truncate(self._file_bytes)

    def _header_dict(self, sections: Dict, file_bytes: int) -> Dict:
        H, W = self.grid.shape
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "dtype": "float32",
            "clip_floor_db": self.clip_floor_db,
            "tilt_model": self._tilt_model,
            "tilt_values": list(self.tilt_values),
            "n_sectors": self.network.n_sectors,
            "n_tilts": len(self.tilt_values),
            "grid_shape": [H, W],
            "grid": _grid_to_json(self.grid),
            "network": _network_to_json(self.network),
            "sections": sections,
            "file_bytes": file_bytes,
        }

    def write_sector(self, sector_id: int, raster: _SectorRaster,
                     planes_mw: np.ndarray) -> None:
        """Persist one sector: its (T, H, W) float32 mW planes, clipped
        (in place when already float32-contiguous) by :func:`clip_planes`
        for the roi section, plus the five float32 sidecar rasters."""
        assert self._fh is not None, "writer already closed"
        T = len(self.tilt_values)
        H, W = self.grid.shape
        planes = np.ascontiguousarray(planes_mw, dtype=np.float32)
        if planes.shape != (T, H, W):
            raise ValueError(
                f"sector {sector_id}: planes shape {planes.shape} != "
                f"{(T, H, W)}")
        self._roi[sector_id] = clip_planes(planes, self.clip_floor_db)
        self._fh.seek(self._sections["gains_mw"]["offset"]
                      + sector_id * self._sector_gain_bytes)
        self._fh.write(planes.tobytes())
        for name in _SIDECARS:
            plane = np.ascontiguousarray(
                getattr(raster, name), dtype=np.float32)
            self._fh.seek(self._sections[name]["offset"]
                          + sector_id * self._plane_bytes)
            self._fh.write(plane.tobytes())
        self._written.add(sector_id)

    def close(self) -> None:
        """Validate completeness, checksum sections, stamp the header.

        Section CRCs are computed by re-reading the file (sectors may
        have been written in any order), replacing the fixed-width
        placeholders; the re-encoded header cannot change length.
        """
        assert self._fh is not None, "writer already closed"
        missing = [s for s in range(self.network.n_sectors)
                   if s not in self._written]
        if missing:
            self.abort()
            raise ValueError(
                f"plossdb build incomplete: sectors {missing[:8]}"
                f"{'...' if len(missing) > 8 else ''} never written")
        roi = np.ascontiguousarray(self._roi, dtype=np.dtype("<i4"))
        self._fh.seek(self._sections["roi"]["offset"])
        self._fh.write(roi.tobytes())
        self._fh.flush()
        expected_len = len(self._header_bytes)
        for name, spec in self._sections.items():
            spec["checksum"] = _stream_checksum(
                self._fh, int(spec["offset"]), int(spec["nbytes"]))
        self._header_bytes = _encode(self.header)
        if len(self._header_bytes) != expected_len:
            raise AssertionError(
                "plossdb header length changed while stamping checksums")
        self._fh.seek(0)
        self._fh.write(MAGIC)
        self._fh.write(len(self._header_bytes).to_bytes(8, "little"))
        self._fh.write(self._header_bytes)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None

    def abort(self) -> None:
        """Close the handle leaving the file headerless (unloadable)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "PackedDatabaseWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif self._fh is not None:
            self.close()


def _stream_checksum(fh: IO[bytes], offset: int, nbytes: int,
                     algorithm: str = CHECKSUM_ALGORITHM) -> str:
    """``"<algorithm>:…"`` over ``nbytes`` of ``fh`` starting at
    ``offset``, read into one reused buffer of at most
    ``_CRC_BLOCK_BYTES``, so checksumming never materializes a section.
    A file that ends early hashes what it holds, so its stamp fails."""
    fh.seek(offset)
    buf = memoryview(bytearray(min(nbytes, _CRC_BLOCK_BYTES)))
    value = 0
    remaining = nbytes
    while remaining > 0:
        n = fh.readinto(buf[:remaining])
        if not n:
            break
        value = checksum_value(algorithm, buf[:n], value)
        remaining -= n
    return f"{algorithm}:{value:08x}"


def save_packed(db: PathLossDatabase, path: str,
                tilt_values: Optional[Sequence[float]] = None,
                clip_floor_db: object = "inherit") -> Dict:
    """Write an existing database to ``path`` in plossdb format and
    return the header.  Planes are recomputed from the rasters, never
    copied from an attached store; the floor resolves as in
    :func:`pack_database` (``None`` writes an unclipped file)."""
    return _write_packed(path, db.grid, db.network,
                         zip(db.network.sectors, db._rasters),
                         db.tilt_model, tilt_values,
                         _floor_of(db, clip_floor_db))


def stream_database(path: str, network: CellularNetwork,
                    environment: Environment,
                    spm: Optional[SPMParameters] = None,
                    shadowing_sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
                    shadowing_corr_m: float = DEFAULT_SHADOWING_CORR_M,
                    seed: int = 0,
                    tilt_model: TiltModelName = "exact",
                    tilt_values: Optional[Sequence[float]] = None,
                    progress: Optional[Callable[[int, int], None]] = None,
                    clip_floor_db: Optional[float] = DEFAULT_CLIP_FLOOR_DB
                    ) -> Dict:
    """Build a plossdb file one sector at a time — never holding more
    than one site's shared terms plus a single sector's rasters and
    planes in RAM — and return the header.  The rasters come from
    ``from_environment``'s :func:`sector_rasters` loop with the same
    seeds, so the file has the very bytes :func:`save_packed` writes."""
    return _write_packed(path, environment.grid, network, sector_rasters(
        network, environment, spm, shadowing_sigma_db, shadowing_corr_m,
        seed), tilt_model, tilt_values, clip_floor_db, progress)


def _write_packed(path: str, grid: GridSpec, network: CellularNetwork,
                  rasters: Iterable[Tuple[Sector, _SectorRaster]],
                  tilt_model: TiltModelName,
                  tilt_values: Optional[Sequence[float]],
                  clip_floor_db: Optional[float],
                  progress: Optional[Callable[[int, int], None]] = None
                  ) -> Dict:
    """Stream ``(sector, raster)`` pairs through the plane producer
    into a :class:`PackedDatabaseWriter`; return its header."""
    if tilt_values is None:
        tilt_values = default_tilt_values(network)
    # As PathLossDatabase.shared_profile: once per tilt, from sector 0.
    shared_profile = functools.lru_cache(maxsize=None)(
        functools.partial(shared_tilt_profile, network.sector(0)))
    with PackedDatabaseWriter(path, grid, network, tilt_values,
                              tilt_model=tilt_model,
                              clip_floor_db=clip_floor_db) as writer:
        for s, (sector, raster) in enumerate(rasters):
            writer.write_sector(s, raster, sector_planes_mw(
                sector, raster, writer.tilt_values, tilt_model,
                shared_profile))
            del raster        # before the generator builds the next one
            if progress is not None:
                progress(s + 1, network.n_sectors)
        header = writer.header
    return header


# ----------------------------------------------------------------------
# loader
# ----------------------------------------------------------------------
#: The sector, antenna and tilt-range fields a header records, each
#: a number except the two ids.
_SECTOR_FIELDS = ("sector_id", "site_id", "x", "y", "azimuth_deg",
                  "height_m", "power_dbm", "max_power_dbm", "min_power_dbm")
_PART_FIELDS = {"antenna": ("gain_dbi", "horiz_beamwidth", "vert_beamwidth",
                            "front_back_db", "sla_db"),
                "tilt_range": ("normal_deg", "min_deg", "max_deg",
                               "step_deg")}


_SECTION_SCHEMA = {"offset": JSON_INT, "shape": [JSON_INT],
                   "dtype": JSON_TEXT, "nbytes": JSON_INT,
                   "checksum": JSON_TEXT}
#: The v3 header: a dict is a JSON object with (at least) these keys, a
#: one-item list a JSON list of that item, a pair a leaf check.
_HEADER_SCHEMA = {
    "format": JSON_TEXT,
    "version": JSON_INT,
    "dtype": (lambda v: v == "float32", "'float32'"),
    "clip_floor_db": (lambda v: v is None or JSON_NUMBER[0](v),
                      "a number or null"),
    "tilt_model": (lambda v: v in ("exact", "shared-delta"),
                   "'exact' or 'shared-delta'"),
    "tilt_values": [JSON_NUMBER],
    "n_sectors": JSON_INT,
    "n_tilts": JSON_INT,
    "grid_shape": [JSON_INT],
    "grid": dict.fromkeys(("x0", "y0", "x1", "y1", "cell_size"),
                          JSON_NUMBER),
    "network": {"sectors": [{
        **dict.fromkeys(_SECTOR_FIELDS, JSON_NUMBER),
        "sector_id": JSON_INT, "site_id": JSON_INT,
        **{part: dict.fromkeys(fields, JSON_NUMBER)
           for part, fields in _PART_FIELDS.items()}}]},
    "sections": dict.fromkeys(("gains_mw",) + _SIDECARS + ("roi",),
                              _SECTION_SCHEMA),
    "file_bytes": JSON_INT,
}


def _header_error(path: str, key: str, problem: str) -> ValueError:
    return ValueError(f"{path}: malformed plossdb header: key "
                      f"{key or 'header'!r} {problem}; re-run the pack")


def _check_layout(path: str, header: Dict, data_start: int) -> None:
    """Counts, grid and section table agree with each other and with
    the file: every section has its shape, dtype and size and lies
    between the header and ``file_bytes``."""
    S, T = header["n_sectors"], len(header["tilt_values"])
    try:
        H, W = _grid_from_json(header["grid"]).shape
    except ValueError as exc:
        raise _header_error(path, "grid", f"is invalid ({exc})") from exc
    for key, found, want in (
            ("n_tilts", header["n_tilts"], T),
            ("grid_shape", header["grid_shape"], [H, W]),
            ("network.sectors", len(header["network"]["sectors"]), S)):
        if found != want:
            raise _header_error(path, key, f"is {found}, expected {want}")
    end = header["file_bytes"]
    for name, (shape, dtype) in _section_layout(S, T, H, W).items():
        spec = header["sections"][name]
        want = {"shape": list(shape), "dtype": dtype,
                "nbytes": int(np.prod(shape)) * 4}
        for field, value in want.items():
            if spec[field] != value:
                raise _header_error(path, f"sections.{name}.{field}",
                                    f"must be {value!r}")
        if not data_start <= spec["offset"] <= end - spec["nbytes"]:
            raise _header_error(path, f"sections.{name}.offset",
                                f"puts the section outside bytes "
                                f"{data_start}..{end}")


def read_header(path: str) -> Dict:
    """Parse and validate the preamble + JSON header of a plossdb file.

    Raises ``ValueError`` with an actionable message on bad magic, a
    version other than 3, a truncated file, or a header that departs
    from the v3 schema — naming the file and the offending key.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        preamble = fh.read(_PREAMBLE)
        if len(preamble) < _PREAMBLE or preamble[:len(MAGIC)] != MAGIC:
            raise ValueError(
                f"{path} is not a magus.plossdb file (bad magic); "
                f"expected a file produced by `repro-magus pack` or "
                f"save_packed()")
        header_len = int.from_bytes(preamble[len(MAGIC):], "little")
        raw = fh.read(header_len)
    if len(raw) < header_len:
        raise ValueError(
            f"{path} is truncated inside its header "
            f"({size} bytes on disk); re-run the pack")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt plossdb header: {exc}") from exc
    fmt = header.get("format") if isinstance(header, dict) else None
    version = header.get("version") if isinstance(header, dict) else None
    if fmt != FORMAT_NAME or version != FORMAT_VERSION:
        raise ValueError(
            f"{path} was written by format {fmt!r} version {version!r} "
            f"(header keys 'format', 'version'); this build reads "
            f"{FORMAT_NAME} version {FORMAT_VERSION} only — rebuild the "
            f"file with `repro-magus pack`")
    check_schema(header, _HEADER_SCHEMA, "",
                 functools.partial(_header_error, path))
    _check_layout(path, header, _PREAMBLE + header_len)
    if size != header["file_bytes"]:
        raise ValueError(
            f"{path} is truncated or padded: {size} of "
            f"{header['file_bytes']} bytes; re-run the pack")
    return header


def _open_section(path: str, header: Dict, name: str) -> np.ndarray:
    spec = header["sections"][name]
    return np.memmap(path, mode="r", dtype=np.dtype(spec["dtype"]),
                     offset=int(spec["offset"]),
                     shape=tuple(spec["shape"]))


def _file_store(path: str, header: Dict) -> Dict:
    """:class:`PackedGainStore` arguments that read a plossdb file's
    ``gains_mw`` section on demand, with its ``roi`` table in memory."""
    return {"gains_mw": None, "tilt_values": header["tilt_values"],
            "roi": np.array(_open_section(path, header, "roi")),
            "path": path, "clip_floor_db": header["clip_floor_db"],
            "section": header["sections"]["gains_mw"]}


def verify_sections(path: str, header: Optional[Dict] = None) -> List[str]:
    """Check every section of ``path`` against its checksum stamp.

    Returns the names of the sections verified (all of them).  Raises
    :class:`ChecksumError` naming the first section that carries no
    stamp, an unknown tag, or a stamp its bytes fail — with the byte
    range, the actionable half of "your packed market is corrupt".
    """
    path = os.fspath(path)
    if header is None:
        header = read_header(path)
    verified: List[str] = []
    with open(path, "rb") as fh:
        for name, spec in header["sections"].items():
            stamp = spec.get("checksum")
            if stamp is None:
                raise ChecksumError(
                    f"{path}: section {name!r} carries no 'checksum' "
                    f"stamp; re-run the pack")
            algorithm = str(stamp).partition(":")[0]
            if algorithm not in SUPPORTED_CHECKSUMS:
                raise ChecksumError(
                    f"{path}: section {name!r} carries unsupported "
                    f"checksum {stamp!r}; this build verifies "
                    f"{', '.join(map(repr, SUPPORTED_CHECKSUMS))}")
            offset, nbytes = int(spec["offset"]), int(spec["nbytes"])
            actual = _stream_checksum(fh, offset, nbytes, algorithm)
            if actual != stamp:
                raise ChecksumError(
                    f"{path}: section {name!r} (bytes {offset}.."
                    f"{offset + nbytes}) fails its checksum — recorded "
                    f"{stamp}, computed {actual}.  The file is corrupt "
                    f"(torn write or bit rot); re-run the pack, or "
                    f"load with verify=False to inspect the damage")
            verified.append(name)
    return verified


def load_packed(path: str, verify: object = "auto") -> PathLossDatabase:
    """Open a plossdb file as a fully functional ``PathLossDatabase``.

    Nothing is materialized until queried, so market-scale files load
    in milliseconds: gain rows are read with positioned reads when the
    engine first asks for them (see :class:`PackedGainStore`), the
    sidecar rasters are read-only memory maps, and only the small
    ``roi`` table is read up front.  Construction-time ``validate()``
    is skipped (it would read the whole tensor); call it explicitly to
    scan a suspect file.

    ``verify`` controls checksum verification: ``True`` always streams
    every section through the CRC its stamp names (``crc32``, or the
    legacy ``crc32c``), ``False`` never does, and ``"auto"`` (default)
    verifies only files small enough (≤256 MB of sections) that the
    scan doesn't compromise the milliseconds-load contract — run
    :func:`verify_sections` (or ``verify=True``) explicitly for
    market-scale files.
    """
    path = os.fspath(path)
    header = read_header(path)
    if verify not in (True, False, "auto"):
        raise ValueError(f"verify must be True, False or 'auto', "
                         f"not {verify!r}")
    if verify is True or (
            verify == "auto"
            and sum(s["nbytes"] for s in header["sections"].values())
            <= _VERIFY_AUTO_BYTES):
        verify_sections(path, header)
    grid = _grid_from_json(header["grid"])
    try:
        network = _network_from_json(header["network"])
    except ValueError as exc:
        raise _header_error(path, "network", f"is invalid ({exc})") from exc
    sidecars = {name: _open_section(path, header, name)
                for name in _SIDECARS}
    rasters = [
        _SectorRaster(**{name: sidecars[name][s] for name in _SIDECARS})
        for s in range(network.n_sectors)]
    clip_floor_db = header["clip_floor_db"]
    db = PathLossDatabase(grid, network, rasters,
                          tilt_model=header["tilt_model"],
                          validate=False, clip_floor_db=clip_floor_db)
    db.attach_packed(PackedGainStore(**_file_store(path, header)))
    return db


# ----------------------------------------------------------------------
# JSON (de)serialization of grid + network identity
# ----------------------------------------------------------------------
def _encode(header: Dict) -> bytes:
    return json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _grid_to_json(grid: GridSpec) -> Dict:
    r = grid.region
    return {"x0": r.x0, "y0": r.y0, "x1": r.x1, "y1": r.y1,
            "cell_size": grid.cell_size}


def _grid_from_json(data: Dict) -> GridSpec:
    region = Region(data["x0"], data["y0"], data["x1"], data["y1"])
    return GridSpec(region=region, cell_size=data["cell_size"])


def _network_to_json(network: CellularNetwork) -> Dict:
    return {"sectors": [
        {**{f: getattr(s, f) for f in _SECTOR_FIELDS},
         **{part: {f: getattr(getattr(s, part), f) for f in fields}
            for part, fields in _PART_FIELDS.items()}}
        for s in network.sectors]}


def _network_from_json(data: Dict) -> CellularNetwork:
    return CellularNetwork([Sector(
        **{f: sd[f] for f in _SECTOR_FIELDS},
        antenna=AntennaPattern(
            **{f: sd["antenna"][f] for f in _PART_FIELDS["antenna"]}),
        tilt_range=TiltRange(
            **{f: sd["tilt_range"][f] for f in _PART_FIELDS["tilt_range"]}))
        for sd in data["sectors"]])
