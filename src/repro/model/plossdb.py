"""Packed tilt-major path-loss storage (the ``magus.plossdb/1`` format).

The paper evaluates whole markets: "one path-loss matrix (containing
600 x 600 path loss values) per antenna tilt configuration" per sector,
16 tilt settings, 1000+ sectors — ~23 GB of planes.  The dict-of-
rasters inside :class:`~repro.model.pathloss.PathLossDatabase`
re-exponentiates those planes through LRU caches on every query and
cannot hold a market in RAM.  This module stores them *once*, packed:

``PackedGainStore``
    One contiguous float32 tensor of shape ``(n_sectors, n_tilts, H,
    W)`` holding linear-domain (mW-canonical) gains ``10^(L/10)``,
    tilt-major so a (sector, tilt) query is a pure index-and-view and
    a whole-network assignment is one fancy-indexed gather.

``magus.plossdb/1`` on-disk layout
    ``16-byte magic`` (``magus.plossdb/1\\n``) · ``uint64-LE header
    length`` · UTF-8 JSON header (grid, network, tilt ladder, section
    table) · zero padding · raw sections, each aligned to 4096 bytes:
    the gains tensor plus five float32 per-sector sidecar planes
    (``horiz_att_db``, ``theta_deg``, ``loss_db``, ``distance_m``,
    ``bearing_deg``) so a loaded database can still answer off-ladder
    tilt and azimuth-offset queries through the exact fallback path.
    Files are opened read-only with ``np.memmap``; pages are dropped
    (``madvise(MADV_DONTNEED)``) after bulk gathers so a 23 GB market
    evaluates within a laptop RSS budget.

**Float32 parity contract**: gains are computed in float64 (the same
``gain_matrix`` arithmetic as the dict path) and quantized *once* by
the float64→float32 cast at pack time.  The off-ladder fallback applies
the identical quantization (``astype(float32)`` of the same float64
plane), so packed rows and fallback rows are bitwise equal, and the
full/delta/batch/parallel evaluation paths — which all multiply these
float32 planes by float32-cast power factors — stay bitwise identical
to each other.

The header is written *last*: an interrupted build leaves zeroed magic
bytes, so partial files fail loudly at load instead of parsing as an
all-zero market.

Version 2 adds a checksum per section (``"checksum": "crc32:…"`` in
each section-table entry), computed over the raw section bytes when
the writer closes.  New files are stamped with the stdlib CRC-32
(:func:`zlib.crc32`, GB/s); files stamped ``crc32c:`` by older builds
are verified with the legacy Castagnoli CRC, so packs already on disk
load without a rebuild.  Verification follows each stamp's tag, and
an unknown tag fails loudly.  :func:`load_packed` verifies small
files automatically and big ones on request (``verify=True``),
failing with the section name and byte range so a flipped bit in a
23 GB market is a diagnosis, not a mystery mitigation plan.
Version-1 files (no checksums) still load; checksum-less builds are
available via ``checksums=False`` / ``repro-magus pack
--no-checksums``.

Version 3 adds the sparse region-of-influence (ROI) sidecar: a
``clip_floor_db`` header field (gains below the floor are zeroed at
the single f64→f32 quantization point, so footprints are *exactly*
sparse) and an int32 ``roi`` section of shape ``(S, T, 4)`` holding
each (sector, tilt) plane's tight nonzero bounding box as half-open
``[row0, row1, col0, col1)``.  Windowed evaluation (see
:mod:`repro.model.roi`) slices every kernel to these boxes; because
the clip happens at quantization, cells outside a box carry gain
*exactly* 0.0 and windowed math is bitwise identical to dense.
Version-1/2 files (no ROI section) still load — footprints are then
computed lazily per (sector, tilt) on first use.
"""

from __future__ import annotations

import json
import mmap
import os
from typing import IO, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.durable import (CHECKSUM_ALGORITHM, SUPPORTED_CHECKSUMS,
                              ChecksumError, checksum_value)
from .antenna import AntennaPattern, TiltRange
from .geometry import GridSpec, Region
from .network import CellularNetwork, Sector
from .pathloss import (DEFAULT_CLIP_FLOOR_DB, DEFAULT_SHADOWING_CORR_M,
                       DEFAULT_SHADOWING_SIGMA_DB, PathLossDatabase,
                       TiltModelName, _SectorRaster, clip_gains_mw,
                       exact_gain_db, plane_footprint, profile_at,
                       sector_rasters, shared_tilt_profile)
from .propagation import Environment, SPMParameters

__all__ = ["PackedGainStore", "PackedDatabaseWriter", "pack_database",
           "save_packed", "load_packed", "stream_database", "read_header",
           "verify_sections", "FORMAT_NAME", "MAGIC",
           "DEFAULT_CLIP_FLOOR_DB", "clip_gains_mw", "plane_footprint"]

FORMAT_NAME = "magus.plossdb/1"
FORMAT_VERSION = 3                     # v3 = ROI sidecar + clip floor
SUPPORTED_VERSIONS = (1, 2, 3)         # older files still load
MAGIC = b"magus.plossdb/1\n"          # exactly 16 bytes
_ALIGN = 4096                          # section alignment (page size)
_PREAMBLE = len(MAGIC) + 8             # magic + uint64-LE header length

#: ``load_packed(verify="auto")`` verifies every checksummed section
#: when their total size is at or below this; beyond it verification is
#: opt-in so market-scale loads stay O(milliseconds).
_VERIFY_AUTO_BYTES = 256 * 1024 * 1024
#: Read granularity for streaming section checksums.
_CRC_BLOCK_BYTES = 64 * 1024 * 1024

#: Fixed-width placeholder stamped into section specs at layout time;
#: the real CRC (same encoded width) replaces it when the writer
#: closes, so the header's byte length never shifts.
_CHECKSUM_PLACEHOLDER = f"{CHECKSUM_ALGORITHM}:00000000"

#: Sidecar raster planes persisted alongside the gains tensor, in
#: section order.  Field names match ``_SectorRaster``.
_SIDECARS = ("horiz_att_db", "theta_deg", "loss_db",
             "distance_m", "bearing_deg")

#: Per-block budget for the vectorized finite scan (``bad_sectors``):
#: bounds transient RSS while keeping the reduction vectorized.
_SCAN_BLOCK_BYTES = 256 * 1024 * 1024
#: Mapped-page budget for file-backed gathers (see ``gather``): small
#: enough that resident file pages never rival the gathered result,
#: large enough that madvise round trips stay rare.
_GATHER_BLOCK_BYTES = 128 * 1024 * 1024


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class PackedGainStore:
    """The packed tilt-major float32 mW tensor, in-memory or mmap.

    ``gains_mw[s, t]`` is sector ``s``'s linear-domain gain plane at
    the ladder tilt ``tilt_values[t]``.  Arrays are read-only; views
    handed out by :meth:`row` share storage with the tensor.
    """

    def __init__(self, gains_mw: np.ndarray,
                 tilt_values: Sequence[float],
                 path: Optional[str] = None,
                 roi: Optional[np.ndarray] = None,
                 clip_floor_db: Optional[float] = None) -> None:
        if gains_mw.ndim != 4:
            raise ValueError("gains tensor must be (S, T, H, W)")
        if gains_mw.dtype != np.float32:
            raise ValueError("gains tensor must be float32")
        if gains_mw.shape[1] != len(tilt_values):
            raise ValueError("one tilt value per tensor column required")
        self.gains_mw = gains_mw
        # The same buffer as a plain ndarray (no copy): row slices of a
        # memmap run its Python __getitem__/__array_finalize__ hooks,
        # and every candidate window slices a row.
        self._rows = np.asarray(gains_mw)
        self.tilt_values: Tuple[float, ...] = tuple(
            float(t) for t in tilt_values)
        # Exact-float lookup is intentional: ladder tilts are produced
        # by the same `min + i*step` arithmetic on both sides, so they
        # compare equal; anything else is off-ladder by definition and
        # belongs to the exact fallback path.
        self._tilt_index: Dict[float, int] = {
            t: i for i, t in enumerate(self.tilt_values)}
        self.path = os.fspath(path) if path is not None else None
        if roi is not None:
            roi = np.asarray(roi, dtype=np.int32)
            if roi.shape != (gains_mw.shape[0], gains_mw.shape[1], 4):
                raise ValueError("roi table must be (S, T, 4)")
        #: Per-(sector, tilt) nonzero bounding boxes, ``(S, T, 4)``
        #: int32 half-open rows/cols.  ``None`` for v1/v2 files, where
        #: boxes are computed lazily per query (see :meth:`footprint`).
        self._roi = roi
        self._roi_lazy: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
        #: The clip floor the planes were quantized under (header
        #: field); informational — clipping happened at pack time.
        self.clip_floor_db = (None if clip_floor_db is None
                              else float(clip_floor_db))

    # -- identity ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return self.gains_mw.shape

    @property
    def n_sectors(self) -> int:
        return self.gains_mw.shape[0]

    @property
    def nbytes(self) -> int:
        return self.gains_mw.size * self.gains_mw.itemsize

    @property
    def is_file_backed(self) -> bool:
        return self.path is not None

    @property
    def has_footprints(self) -> bool:
        """True when the precomputed (v3) ROI table is present."""
        return self._roi is not None

    # -- queries -------------------------------------------------------
    def index_of(self, tilt_deg: float) -> Optional[int]:
        return self._tilt_index.get(float(tilt_deg))

    def indices_for(self, tilts: np.ndarray) -> Optional[np.ndarray]:
        """Ladder indices for a whole assignment, or None if any tilt
        is off-ladder (caller falls back to the exact path)."""
        indices = np.empty(len(tilts), dtype=np.intp)
        for s, t in enumerate(tilts):
            idx = self._tilt_index.get(float(t))
            if idx is None:
                return None
            indices[s] = idx
        return indices

    def row(self, sector_id: int, tilt_index: int) -> np.ndarray:
        """One (sector, tilt) plane — a zero-copy read-only view."""
        return self._rows[sector_id, tilt_index]

    def footprint(self, sector_id: int,
                  tilt_index: int) -> Tuple[int, int, int, int]:
        """The (sector, tilt) plane's nonzero bounding box.

        Half-open ``(row0, row1, col0, col1)``.  v3 files answer from
        the packed ROI table; v1/v2 files (and in-memory stores built
        without one) scan the plane once and memoize — correct either
        way, just not pre-sparsified for unclipped data.
        """
        if self._roi is not None:
            r0, r1, c0, c1 = self._roi[sector_id, tilt_index]
            return (int(r0), int(r1), int(c0), int(c1))
        key = (sector_id, tilt_index)
        box = self._roi_lazy.get(key)
        if box is None:
            box = plane_footprint(self.gains_mw[sector_id, tilt_index])
            self._roi_lazy[key] = box
        return box

    def footprints(self) -> np.ndarray:
        """All bounding boxes, ``(S, T, 4)`` int32 (computed if absent).

        Used by ``validate()``'s sparsity report; for v1/v2 files this
        scans the whole tensor in sector blocks like ``bad_sectors``.
        """
        if self._roi is not None:
            return np.asarray(self._roi)
        S, T, _, _ = self.shape
        roi = np.empty((S, T, 4), dtype=np.int32)
        for s in range(S):
            for t in range(T):
                roi[s, t] = self.footprint(s, t)
            self.drop_page_cache()
        return roi

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Stacked planes for one tilt index per sector: the whole-
        network assignment the engine multiplies by power factors.

        File-backed stores copy in bounded blocks of sectors, dropping
        the mapped pages after each block — otherwise the faulted-in
        file pages (another full tensor's worth) stay resident next to
        the materialized result and a market-scale gather peaks at
        twice its true footprint.
        """
        S, _, H, W = self.shape
        if self.path is None:
            out = self.gains_mw[np.arange(S), indices]
            out.setflags(write=False)
            return out
        out = np.empty((S, H, W), dtype=self.gains_mw.dtype)
        per_sector = H * W * self.gains_mw.itemsize
        block = max(1, _GATHER_BLOCK_BYTES // max(per_sector, 1))
        for start in range(0, S, block):
            stop = min(S, start + block)
            for s in range(start, stop):
                out[s] = self.gains_mw[s, indices[s]]
            self.drop_page_cache()
        out.setflags(write=False)
        return out

    def bad_sectors(self) -> List[int]:
        """Sector ids whose packed planes contain NaN/inf — one
        vectorized ``isfinite`` reduction per block of sectors."""
        S, T, H, W = self.shape
        per_sector = T * H * W * self.gains_mw.itemsize
        block = max(1, _SCAN_BLOCK_BYTES // max(per_sector, 1))
        bad: List[int] = []
        for start in range(0, S, block):
            chunk = self.gains_mw[start:start + block]
            ok = np.isfinite(chunk).all(axis=(1, 2, 3))
            bad.extend(int(start + i) for i in np.flatnonzero(~ok))
            self.drop_page_cache()
        return bad

    def drop_page_cache(self) -> None:
        """Release resident mmap pages after a bulk read.

        File-backed gathers touch the full tensor; without this the
        page cache counts against the process RSS and a market-scale
        sweep looks like a 23 GB leak.  No-op for in-memory stores.
        """
        if self.path is None:
            return
        mm = getattr(self.gains_mw, "_mmap", None)
        if mm is not None and hasattr(mm, "madvise"):
            try:
                mm.madvise(mmap.MADV_DONTNEED)
            except (ValueError, OSError):  # pragma: no cover — closed map
                pass

    # -- pickling (spawn workers) --------------------------------------
    # File-backed stores ship only their path and reopen the memmap on
    # the far side; in-memory stores pickle the (small) tensor itself.
    def __getstate__(self) -> dict:
        if self.path is not None:
            return {"path": self.path, "tilt_values": self.tilt_values}
        return {"gains_mw": np.asarray(self.gains_mw),
                "tilt_values": self.tilt_values,
                "roi": (None if self._roi is None
                        else np.asarray(self._roi)),
                "clip_floor_db": self.clip_floor_db}

    def __setstate__(self, state: dict) -> None:
        path = state.get("path")
        if path is not None:
            header = read_header(path)
            gains = _open_section(path, header, "gains_mw")
            roi = (_open_section(path, header, "roi")
                   if "roi" in header["sections"] else None)
            self.__init__(gains, state["tilt_values"], path=path,
                          roi=roi,
                          clip_floor_db=header.get("clip_floor_db"))
        else:
            gains = state["gains_mw"]
            gains.setflags(write=False)
            self.__init__(gains, state["tilt_values"],
                          roi=state.get("roi"),
                          clip_floor_db=state.get("clip_floor_db"))


# ----------------------------------------------------------------------
# packing an existing database in memory
# ----------------------------------------------------------------------
def default_tilt_values(network: CellularNetwork) -> Tuple[float, ...]:
    """The union of every sector's tilt catalogue, ascending."""
    values = sorted({float(t) for s in network.sectors
                     for t in s.tilt_range.settings})
    return tuple(values)


def pack_database(db: PathLossDatabase,
                  tilt_values: Optional[Sequence[float]] = None,
                  clip_floor_db: object = "inherit") -> PackedGainStore:
    """Precompute the packed tensor from a dict-backed database.

    Gains are the same float64 ``gain_matrix`` output the dict path
    exponentiates; the assignment into the float32 tensor is the single
    quantization step of the parity contract, and the clip floor is
    applied right there so packed rows match the dict fallback bit for
    bit.  ``"inherit"`` takes the database's own floor when it has one,
    else :data:`DEFAULT_CLIP_FLOOR_DB` — a packed artifact is clipped
    unless the caller passes an explicit ``None``.
    """
    if tilt_values is None:
        tilt_values = default_tilt_values(db.network)
    if clip_floor_db == "inherit":
        clip_floor_db = getattr(db, "clip_floor_db", None)
        if clip_floor_db is None:
            clip_floor_db = DEFAULT_CLIP_FLOOR_DB
    S = db.network.n_sectors
    H, W = db.grid.shape
    T = len(tilt_values)
    gains = np.empty((S, T, H, W), dtype=np.float32)
    roi = np.empty((S, T, 4), dtype=np.int32)
    for s in range(S):
        for j, tilt in enumerate(tilt_values):
            gains[s, j] = np.power(10.0, db.gain_matrix(s, float(tilt)) / 10.0)
            clip_gains_mw(gains[s, j], clip_floor_db)
            roi[s, j] = plane_footprint(gains[s, j])
    gains.setflags(write=False)
    return PackedGainStore(gains, tilt_values, roi=roi,
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
                 checksums: bool = True,
                 clip_floor_db: Optional[float] = DEFAULT_CLIP_FLOOR_DB
                 ) -> None:
        self.path = os.fspath(path)
        self.grid = grid
        self.network = network
        self.tilt_values = tuple(float(t) for t in tilt_values)
        self._tilt_model = tilt_model
        self._checksums = bool(checksums)
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
        specs = [("gains_mw", (S, T, H, W), "<f4")] + \
            [(f, (S, H, W), "<f4") for f in _SIDECARS] + \
            [("roi", (S, T, 4), "<i4")]
        for name, shape, dtype in specs:
            nbytes = int(np.prod(shape)) * 4
            sections[name] = {"offset": offset, "shape": list(shape),
                              "dtype": dtype, "nbytes": nbytes}
            if self._checksums:
                # Real CRCs land at close(); the placeholder has the
                # same encoded width so the header length is final now.
                sections[name]["checksum"] = _CHECKSUM_PLACEHOLDER
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
        """Persist one sector: its (T, H, W) float32 mW planes plus the
        five float32 sidecar rasters.

        The clip floor is applied here — after the float32 cast, i.e.
        at the quantization point — and the per-tilt footprints are
        recorded for the roi section.  ``planes_mw`` may be modified
        in place when already float32-contiguous (both builders hand
        over throwaway buffers).
        """
        assert self._fh is not None, "writer already closed"
        T = len(self.tilt_values)
        H, W = self.grid.shape
        planes = np.ascontiguousarray(planes_mw, dtype=np.float32)
        if planes.shape != (T, H, W):
            raise ValueError(
                f"sector {sector_id}: planes shape {planes.shape} != "
                f"{(T, H, W)}")
        clip_gains_mw(planes, self.clip_floor_db)
        for j in range(T):
            self._roi[sector_id, j] = plane_footprint(planes[j])
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
        if self._checksums:
            self._fh.flush()
            expected_len = len(self._header_bytes)
            for name, spec in self._sections.items():
                spec["checksum"] = _stream_checksum(
                    self._fh, int(spec["offset"]), int(spec["nbytes"]))
            self._header_bytes = _encode(self.header)
            if len(self._header_bytes) != expected_len:
                raise AssertionError(
                    "plossdb header length changed while stamping "
                    "checksums")
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
    ``offset``, read in bounded blocks so checksumming never
    materializes a section."""
    fh.seek(offset)
    value = 0
    remaining = nbytes
    while remaining > 0:
        block = fh.read(min(remaining, _CRC_BLOCK_BYTES))
        value = checksum_value(algorithm, block, value)
        remaining -= _CRC_BLOCK_BYTES
    return f"{algorithm}:{value:08x}"


def save_packed(db: PathLossDatabase, path: str,
                tilt_values: Optional[Sequence[float]] = None,
                checksums: bool = True,
                clip_floor_db: object = "inherit") -> Dict:
    """Write an existing database to ``path`` in plossdb format.

    Planes are recomputed from ``gain_matrix`` (not copied from any
    attached store), so the file is bit-identical whether the source
    database was dict-backed or packed.  The clip floor defaults to
    the database's own when set, else :data:`DEFAULT_CLIP_FLOOR_DB`
    (pass ``None`` explicitly to write an unclipped file).  Returns
    the header dict.
    """
    if tilt_values is None:
        tilt_values = default_tilt_values(db.network)
    if clip_floor_db == "inherit":
        clip_floor_db = getattr(db, "clip_floor_db", None)
        if clip_floor_db is None:
            clip_floor_db = DEFAULT_CLIP_FLOOR_DB
    T = len(tuple(tilt_values))
    H, W = db.grid.shape
    with PackedDatabaseWriter(path, db.grid, db.network, tilt_values,
                              tilt_model=db.tilt_model,
                              checksums=checksums,
                              clip_floor_db=clip_floor_db) as writer:
        for s in range(db.network.n_sectors):
            planes = np.empty((T, H, W), dtype=np.float32)
            for j, tilt in enumerate(writer.tilt_values):
                planes[j] = np.power(10.0, db.gain_matrix(s, tilt) / 10.0)
            writer.write_sector(s, db._rasters[s], planes)
        header = writer.header
    return header


def stream_database(path: str, network: CellularNetwork,
                    environment: Environment,
                    spm: Optional[SPMParameters] = None,
                    shadowing_sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
                    shadowing_corr_m: float = DEFAULT_SHADOWING_CORR_M,
                    seed: int = 0,
                    tilt_model: TiltModelName = "exact",
                    tilt_values: Optional[Sequence[float]] = None,
                    progress: Optional[Callable[[int, int], None]] = None,
                    checksums: bool = True,
                    clip_floor_db: Optional[float] = DEFAULT_CLIP_FLOOR_DB
                    ) -> Dict:
    """Build a plossdb file one sector at a time — never holding more
    than one site's shared terms plus a single sector's rasters and
    planes in RAM.

    The rasters come from the same :func:`sector_rasters` loop as
    ``PathLossDatabase.from_environment`` and the planes from the same
    ``exact_gain_db`` arithmetic as ``gain_matrix``, with the same
    seeds, so a streamed file loads into the same planes an in-memory
    build would produce.  Returns the header dict.
    """
    if tilt_values is None:
        tilt_values = default_tilt_values(network)
    H, W = environment.grid.shape
    ref = network.sector(0)
    profiles: Dict[float, np.ndarray] = {}
    with PackedDatabaseWriter(path, environment.grid, network, tilt_values,
                              tilt_model=tilt_model,
                              checksums=checksums,
                              clip_floor_db=clip_floor_db) as writer:
        n = network.n_sectors
        rasters = sector_rasters(network, environment, spm,
                                 shadowing_sigma_db, shadowing_corr_m, seed)
        for s, (sector, raster) in enumerate(rasters):
            planes = np.empty((len(writer.tilt_values), H, W),
                              dtype=np.float32)
            if tilt_model == "exact":
                for j, tilt in enumerate(writer.tilt_values):
                    gain = exact_gain_db(sector, raster, tilt)
                    planes[j] = np.power(10.0, gain / 10.0)
            else:  # shared-delta: base plane + cached radial profile
                base = exact_gain_db(sector, raster,
                                     sector.planned_tilt_deg)
                for j, tilt in enumerate(writer.tilt_values):
                    profile = profiles.get(tilt)
                    if profile is None:
                        profile = shared_tilt_profile(ref, tilt)
                        profiles[tilt] = profile
                    planes[j] = np.power(10.0, (base + profile_at(
                        profile, raster.distance_m)) / 10.0)
            writer.write_sector(s, raster, planes)
            del raster, planes
            if progress is not None:
                progress(s + 1, n)
        header = writer.header
    return header


# ----------------------------------------------------------------------
# loader
# ----------------------------------------------------------------------
def read_header(path: str) -> Dict:
    """Parse and validate the preamble + JSON header of a plossdb file.

    Raises ``ValueError`` with an actionable message on bad magic,
    unsupported format version, or a truncated file.
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
    fmt = header.get("format")
    version = header.get("version")
    if fmt != FORMAT_NAME or version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"{path} was written by format {fmt!r} version {version}; "
            f"this build reads {FORMAT_NAME} versions "
            f"{list(SUPPORTED_VERSIONS)} — rebuild the file with "
            f"`repro-magus pack`")
    expected = int(header["file_bytes"])
    if size != expected:
        raise ValueError(
            f"{path} is truncated or padded: {size} of {expected} "
            f"bytes; re-run the pack")
    return header


def _open_section(path: str, header: Dict, name: str) -> np.ndarray:
    spec = header["sections"][name]
    return np.memmap(path, mode="r", dtype=np.dtype(spec["dtype"]),
                     offset=int(spec["offset"]),
                     shape=tuple(spec["shape"]))


def verify_sections(path: str, header: Optional[Dict] = None) -> List[str]:
    """Check every checksummed section of ``path`` against its CRC.

    Returns the names of the sections actually verified (empty for a
    v1 file, which carries no checksums).  Raises ``ValueError``
    naming the first bad section and its byte range — the actionable
    half of "your packed market is corrupt".
    """
    path = os.fspath(path)
    if header is None:
        header = read_header(path)
    verified: List[str] = []
    with open(path, "rb") as fh:
        for name, spec in header["sections"].items():
            stamp = spec.get("checksum")
            if stamp is None:
                continue
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

    Gains and sidecar rasters are read-only memory maps — nothing is
    materialized until queried, so market-scale files load in
    milliseconds and evaluate within the mmap page-cache budget.
    Construction-time ``validate()`` is skipped (it would fault in the
    whole tensor); call it explicitly to scan a suspect file.

    ``verify`` controls checksum verification of v2+ files: ``True``
    always streams every section through the CRC its stamp names
    (``crc32``, or the legacy ``crc32c``), ``False`` never does, and ``"auto"`` (default) verifies only files small enough
    (≤256 MB of sections) that the scan doesn't compromise the
    milliseconds-load contract — run :func:`verify_sections` (or
    ``verify=True``) explicitly for market-scale files.
    """
    path = os.fspath(path)
    header = read_header(path)
    if verify not in (True, False, "auto"):
        raise ValueError(f"verify must be True, False or 'auto', "
                         f"not {verify!r}")
    if verify is True or (
            verify == "auto"
            and sum(int(s["nbytes"]) for s in header["sections"].values()
                    if "checksum" in s) <= _VERIFY_AUTO_BYTES):
        verify_sections(path, header)
    grid = _grid_from_json(header["grid"])
    network = _network_from_json(header["network"])
    sidecars = {name: _open_section(path, header, name)
                for name in _SIDECARS}
    rasters = [
        _SectorRaster(**{name: sidecars[name][s] for name in _SIDECARS})
        for s in range(network.n_sectors)]
    clip_floor_db = header.get("clip_floor_db")
    db = PathLossDatabase(grid, network, rasters,
                          tilt_model=header.get("tilt_model", "exact"),
                          validate=False, clip_floor_db=clip_floor_db)
    gains = _open_section(path, header, "gains_mw")
    # v3 carries the ROI table; the (tiny) section is materialized so
    # footprint queries never fault file pages.
    roi = (np.asarray(_open_section(path, header, "roi"))
           if "roi" in header["sections"] else None)
    db.attach_packed(PackedGainStore(gains, header["tilt_values"],
                                     path=path, roi=roi,
                                     clip_floor_db=clip_floor_db))
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
    return {"sectors": [_sector_to_json(s) for s in network.sectors]}


def _sector_to_json(s: Sector) -> Dict:
    return {
        "sector_id": s.sector_id, "site_id": s.site_id,
        "x": s.x, "y": s.y,
        "azimuth_deg": s.azimuth_deg, "height_m": s.height_m,
        "power_dbm": s.power_dbm, "max_power_dbm": s.max_power_dbm,
        "min_power_dbm": s.min_power_dbm,
        "antenna": {
            "gain_dbi": s.antenna.gain_dbi,
            "horiz_beamwidth": s.antenna.horiz_beamwidth,
            "vert_beamwidth": s.antenna.vert_beamwidth,
            "front_back_db": s.antenna.front_back_db,
            "sla_db": s.antenna.sla_db,
        },
        "tilt_range": {
            "normal_deg": s.tilt_range.normal_deg,
            "min_deg": s.tilt_range.min_deg,
            "max_deg": s.tilt_range.max_deg,
            "step_deg": s.tilt_range.step_deg,
        },
    }


def _network_from_json(data: Dict) -> CellularNetwork:
    sectors = []
    for sd in data["sectors"]:
        sectors.append(Sector(
            sector_id=sd["sector_id"], site_id=sd["site_id"],
            x=sd["x"], y=sd["y"], azimuth_deg=sd["azimuth_deg"],
            height_m=sd["height_m"], power_dbm=sd["power_dbm"],
            max_power_dbm=sd["max_power_dbm"],
            min_power_dbm=sd["min_power_dbm"],
            antenna=AntennaPattern(**sd["antenna"]),
            tilt_range=TiltRange(**sd["tilt_range"])))
    return CellularNetwork(sectors)
