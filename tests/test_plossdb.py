"""The packed tilt-major path-loss store and on-disk format (PR 7).

Three layers: the in-memory :class:`PackedGainStore` (float32 parity
with the dict-of-rasters path, off-ladder fallback quantization, the
vectorized ``validate()`` sweep), the ``magus.plossdb/1`` on-disk
format (byte-identical round trips, streamed builds, actionable errors
for bad magic / version drift / truncation / interrupted builds), and
the loaded memory-mapped database as a drop-in engine backend (full vs
delta parity).
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import Evaluator
from repro.core.planning import PlanningSettings
from repro.core.utility import PerformanceUtility
from repro.model import plossdb
from repro.model.engine import AnalysisEngine
from repro.model.geometry import GridSpec, Region
from repro.model.pathloss import (DEFAULT_CLIP_FLOOR_DB,
                                  DEFAULT_PROFILE_CACHE_SIZE,
                                  PathLossDatabase)
from repro.model.plossdb import (FORMAT_NAME, FORMAT_VERSION, MAGIC,
                                 PackedDatabaseWriter, PackedGainStore,
                                 default_tilt_values, load_packed,
                                 pack_database, read_header, save_packed,
                                 stream_database, verify_sections)
from repro.model.propagation import Environment
from repro.synthetic.market import (AreaDimensions, build_area,
                                    pack_area_database)
from repro.synthetic.placement import AreaType


def _packed_clone(db: PathLossDatabase) -> PathLossDatabase:
    """A second database over the same rasters, with a packed store."""
    clone = PathLossDatabase(db.grid, db.network, db._rasters,
                             db.tilt_model, validate=False)
    clone.attach_packed(pack_database(clone))
    return clone


def _rotating_assignments(ladder, n_sectors):
    return [np.array([ladder[(j + s) % len(ladder)]
                      for s in range(n_sectors)])
            for j in range(len(ladder))]


@pytest.fixture
def packed_db(toy_pathloss) -> PathLossDatabase:
    return _packed_clone(toy_pathloss)


# ----------------------------------------------------------------------
class TestPackedStore:
    def test_tensor_matches_quantized_dict(self, toy_pathloss, packed_db):
        """Packed gathers == float32-quantized dict recomputation."""
        ladder = packed_db.packed_store.tilt_values
        assert ladder == default_tilt_values(toy_pathloss.network)
        for tilts in _rotating_assignments(ladder,
                                           toy_pathloss.network.n_sectors):
            want = np.power(10.0, toy_pathloss.gain_tensor(tilts) / 10.0
                            ).astype(np.float32)
            got = packed_db.gain_tensor_mw(tilts)
            assert got.dtype == np.float32
            assert not got.flags.writeable
            assert np.array_equal(got, want)

    def test_row_view_matches_gather(self, packed_db):
        ladder = packed_db.packed_store.tilt_values
        n = packed_db.network.n_sectors
        tilts = np.array([ladder[s % len(ladder)] for s in range(n)])
        stack = packed_db.gain_tensor_mw(tilts)
        for s in range(n):
            assert np.array_equal(stack[s],
                                  packed_db.gain_matrix_mw(s, tilts[s]))

    def test_off_ladder_fallback_is_quantized(self, packed_db):
        """Off-grid tilts recompute but still emit float32 planes."""
        assert 2.5 not in packed_db.packed_store.tilt_values
        row = packed_db.gain_matrix_mw(0, 2.5)
        assert row.dtype == np.float32
        want = np.power(10.0, packed_db.gain_matrix(0, 2.5) / 10.0
                        ).astype(np.float32)
        assert np.array_equal(row, want)
        # A mixed assignment (one off-ladder tilt) falls back as a whole
        # but stays float32 so delta incumbents remain comparable.
        n = packed_db.network.n_sectors
        tilts = np.full(n, packed_db.packed_store.tilt_values[0])
        tilts[0] = 2.5
        assert packed_db.gain_tensor_mw(tilts).dtype == np.float32

    def test_azimuth_offset_bypasses_store(self, packed_db):
        plain = packed_db.gain_matrix_mw(0, 4.0)
        rotated = packed_db.gain_matrix_mw(0, 4.0,
                                           azimuth_offset_deg=30.0)
        assert rotated.dtype == np.float32
        assert not np.array_equal(plain, rotated)

    def test_attach_rejects_shape_mismatch(self, toy_pathloss):
        db = PathLossDatabase(toy_pathloss.grid, toy_pathloss.network,
                              toy_pathloss._rasters, validate=False)
        n = db.network.n_sectors
        H, W = db.grid.shape
        wrong_sectors = PackedGainStore(
            np.ones((n + 1, 2, H, W), np.float32), (2.0, 4.0),
            np.zeros((n + 1, 2, 4), np.int32))
        with pytest.raises(ValueError, match="sectors"):
            db.attach_packed(wrong_sectors)
        wrong_grid = PackedGainStore(
            np.ones((n, 2, H + 1, W), np.float32), (2.0, 4.0),
            np.zeros((n, 2, 4), np.int32))
        with pytest.raises(ValueError, match="grid"):
            db.attach_packed(wrong_grid)

    def test_validate_names_bad_packed_sector(self, toy_pathloss):
        """The vectorized sweep reports which sector blocks are bad."""
        db = PathLossDatabase(toy_pathloss.grid, toy_pathloss.network,
                              toy_pathloss._rasters, validate=False)
        base = pack_database(db)
        gains = np.array(base.gains_mw)          # writable copy
        gains[1, 0, 0, 0] = np.nan
        db.attach_packed(PackedGainStore(gains, base.tilt_values,
                                         base.roi))
        with pytest.raises(ValueError, match=r"sectors \[1\]"):
            db.validate()

    def test_invalidate_detaches_packed_store(self, packed_db):
        epoch = packed_db.cache_epoch
        packed_db.invalidate_caches()
        assert packed_db.packed_store is None
        assert packed_db.cache_epoch == epoch + 1
        # Recomputed planes must stay comparable with existing float32
        # state, so the plane dtype survives the detach.
        assert packed_db.plane_dtype == np.float32
        assert packed_db.gain_matrix_mw(0, 4.0).dtype == np.float32

    def test_shared_profile_cache_is_bounded(self, toy_grid, toy_network):
        db = PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid),
            shadowing_sigma_db=0.0, seed=0, tilt_model="shared-delta")
        for tilt in np.linspace(0.0, 8.0, DEFAULT_PROFILE_CACHE_SIZE * 3):
            db.gain_matrix(0, float(tilt))
        info = db.shared_profile.cache_info()
        assert info.maxsize == DEFAULT_PROFILE_CACHE_SIZE
        assert info.currsize == DEFAULT_PROFILE_CACHE_SIZE
        db.invalidate_caches()
        assert db.shared_profile.cache_info().currsize == 0


# ----------------------------------------------------------------------
class TestOnDiskFormat:
    def test_save_and_stream_are_byte_identical(self, tmp_path, toy_grid,
                                                toy_network, toy_pathloss):
        """Two saves agree, and the streamed builder produces the very
        same bytes as packing the in-memory database (same helpers,
        same seeds)."""
        a, b, c = (tmp_path / n for n in ("a.plossdb", "b.plossdb",
                                          "c.plossdb"))
        save_packed(toy_pathloss, a)
        save_packed(toy_pathloss, b)
        assert a.read_bytes() == b.read_bytes()
        stream_database(c, toy_network, Environment.flat(toy_grid),
                        shadowing_sigma_db=0.0, seed=0)
        assert c.read_bytes() == a.read_bytes()

    @pytest.mark.parametrize("tilt_model", ["exact", "shared-delta"])
    def test_stream_matches_save_on_rough_world(self, tmp_path, rough_world,
                                                tilt_model):
        """Terrain, clutter, diffraction and both shadowing layers:
        the streamed build still writes the in-memory build's bytes."""
        grid, env, net = rough_world
        db = PathLossDatabase.from_environment(
            net, env, shadowing_sigma_db=6.0, seed=7, tilt_model=tilt_model)
        saved, streamed = tmp_path / "saved.plossdb", tmp_path / "s.plossdb"
        save_packed(db, saved)
        stream_database(streamed, net, env, shadowing_sigma_db=6.0, seed=7,
                        tilt_model=tilt_model)
        assert streamed.read_bytes() == saved.read_bytes()

    def test_header_carries_identity(self, tmp_path, toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        assert header["format"] == FORMAT_NAME
        assert header["version"] == FORMAT_VERSION
        assert header["n_sectors"] == toy_pathloss.network.n_sectors
        assert tuple(header["tilt_values"]) == default_tilt_values(
            toy_pathloss.network)
        assert header["file_bytes"] == os.path.getsize(path)

    def test_bad_magic_is_actionable(self, tmp_path):
        path = tmp_path / "junk.plossdb"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            read_header(path)

    def test_version_mismatch_is_actionable(self, tmp_path):
        path = tmp_path / "future.plossdb"
        future = FORMAT_VERSION + 1
        raw = json.dumps({"format": FORMAT_NAME,
                          "version": future}).encode()
        path.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw)
        with pytest.raises(ValueError, match=f"version {future}"):
            read_header(path)

    def test_truncated_file_is_actionable(self, tmp_path, toy_pathloss):
        path = tmp_path / "cut.plossdb"
        save_packed(toy_pathloss, path)
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(ValueError, match="re-run the pack"):
            read_header(path)

    def test_interrupted_build_fails_loudly(self, tmp_path, toy_pathloss):
        """A build that dies mid-stream leaves a headerless file that
        no loader will silently accept."""
        path = tmp_path / "dead.plossdb"
        ladder = default_tilt_values(toy_pathloss.network)
        H, W = toy_pathloss.grid.shape
        with pytest.raises(RuntimeError, match="power cut"):
            with PackedDatabaseWriter(path, toy_pathloss.grid,
                                      toy_pathloss.network,
                                      ladder) as writer:
                planes = np.ones((len(ladder), H, W), np.float32)
                writer.write_sector(0, toy_pathloss._rasters[0], planes)
                raise RuntimeError("power cut")
        assert path.exists()
        with pytest.raises(ValueError, match="bad magic"):
            read_header(path)
        with pytest.raises(ValueError):
            load_packed(path)

    def test_incomplete_close_is_rejected(self, tmp_path, toy_pathloss):
        path = tmp_path / "partial.plossdb"
        writer = PackedDatabaseWriter(path, toy_pathloss.grid,
                                      toy_pathloss.network,
                                      default_tilt_values(
                                          toy_pathloss.network))
        try:
            with pytest.raises(ValueError, match="sector"):
                writer.close()
        finally:
            writer.abort()


# ----------------------------------------------------------------------
class TestLoadedDatabase:
    @pytest.fixture
    def loaded(self, tmp_path, toy_pathloss) -> PathLossDatabase:
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        return load_packed(path)

    def test_loaded_matches_in_memory_pack(self, toy_pathloss, packed_db,
                                           loaded):
        assert loaded.packed_store.path is not None
        assert loaded.plane_dtype == np.float32
        ladder = loaded.packed_store.tilt_values
        for tilts in _rotating_assignments(ladder,
                                           loaded.network.n_sectors):
            assert np.array_equal(loaded.gain_tensor_mw(tilts),
                                  packed_db.gain_tensor_mw(tilts))

    def test_full_delta_parity_on_mmap(self, loaded, toy_density):
        engine = AnalysisEngine(loaded)
        network = loaded.network
        base = network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, toy_density)
        for trial in (base.with_power(0, 38.0),
                      base.with_tilt(1, 6.0),
                      base.with_power(2, 30.0)):
            full = engine.evaluate(trial, toy_density)
            delta, _ = engine.evaluate_delta(incumbent, trial,
                                             toy_density)
            assert np.array_equal(full.serving, delta.serving)
            assert np.array_equal(full.sinr_db, delta.sinr_db)
            assert np.array_equal(full.rate_bps, delta.rate_bps)


# ----------------------------------------------------------------------
def _gains_range(path):
    """``(offset, end)`` of the ``gains_mw`` section of ``path``."""
    spec = read_header(path)["sections"]["gains_mw"]
    return spec["offset"], spec["offset"] + spec["nbytes"]


class TestPositionedReads:
    """A loaded database reads its gain rows with positioned reads:
    nothing maps the tensor, reads stay inside its section, a file cut
    short under a loaded store fails loudly, and descriptors neither
    pickle nor leak."""

    @pytest.fixture
    def path(self, tmp_path, toy_pathloss):
        path = str(tmp_path / "toy.plossdb")
        save_packed(toy_pathloss, path)
        return path

    def test_no_memmap_over_gains(self, path, monkeypatch):
        offsets = []
        real = np.memmap

        def spy(*args, **kwargs):
            offsets.append(kwargs.get("offset", 0))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "memmap", spy)
        loaded = load_packed(path)
        rows = [loaded.gain_matrix_mw(s, t)
                for s in range(loaded.network.n_sectors)
                for t in loaded.packed_store.tilt_values]
        start, end = _gains_range(path)
        assert offsets and not any(start <= o < end for o in offsets)
        assert loaded.packed_store.gains_mw is None
        assert not any(isinstance(r, real) or isinstance(r.base, real)
                       for r in rows)
        assert not any(r.flags.writeable for r in rows)

    def test_anchor_and_batch_read_inside_gains(self, path, toy_density,
                                                monkeypatch):
        """A dense anchor plus one ``score_candidates`` batch on a
        clipped file-backed world: every read lands in ``gains_mw``."""
        reads = []
        real = os.preadv

        def spy(fd, buffers, offset):
            reads.append((offset, sum(memoryview(b).nbytes
                                      for b in buffers)))
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", spy)
        loaded = load_packed(path)
        assert loaded.clip_floor_db == DEFAULT_CLIP_FLOOR_DB
        network = loaded.network
        base = network.planned_configuration()
        ev = Evaluator(AnalysisEngine(loaded), toy_density,
                       PerformanceUtility())
        ev.utility_of(base)
        configs = [base.with_power(0, base.power_dbm(0) + 1.0),
                   base.with_tilt(1, base.tilt_deg(1) + 1.0),
                   base.with_offline([2])]
        assert len(ev.score_candidates(configs, parent=base)) == 3
        start, end = _gains_range(path)
        assert reads
        assert all(start <= o and o + n <= end for o, n in reads)

    def test_truncated_after_load_fails_loudly(self, path):
        loaded = load_packed(path)
        store = loaded.packed_store
        first = loaded.gain_matrix_mw(0, store.tilt_values[0])  # cached
        start, _ = _gains_range(path)
        # Keep sector 0's planes, cut every later byte.
        os.truncate(path, start + store.nbytes // store.n_sectors)
        assert loaded.gain_matrix_mw(0, store.tilt_values[0]) is first
        message = (rf"{path}: section 'gains_mw' came back short at "
                   rf"bytes \d+\.\.\d+.*re-run `repro-magus pack`")
        with pytest.raises(ValueError, match=message):
            loaded.gain_matrix_mw(1, store.tilt_values[0])
        with pytest.raises(ValueError, match=message):
            store.bad_sectors()

    def test_pickled_store_ships_path_only(self, path):
        store = load_packed(path).packed_store
        ladder = range(len(store.tilt_values))
        want = [store.row(s, t).tobytes()
                for s in range(store.n_sectors) for t in ladder]
        assert store._fd is not None
        assert store.__getstate__() == {"path": path}
        clone = pickle.loads(pickle.dumps(store))
        assert clone._fd is None and clone.gains_mw is None
        assert [clone.row(s, t).tobytes()
                for s in range(store.n_sectors) for t in ladder] == want
        assert np.array_equal(clone.roi, store.roi)

    def test_load_and_drop_keeps_fd_count(self, path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd on this platform")
        gc.collect()          # descriptors of earlier tests' stores
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            loaded = load_packed(path)
            loaded.gain_matrix_mw(1, loaded.packed_store.tilt_values[0])
            loaded.validate()
            del loaded
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_packed_nan_scan_names_sector(self, tmp_path, toy_network,
                                          monkeypatch):
        """A NaN under a valid stamp passes the checksums and is named
        by ``validate()``; the scan allocates at most two blocks."""
        path = str(tmp_path / "nan.plossdb")
        grid = GridSpec(Region.square(3_000.0), cell_size=50.0)
        db = PathLossDatabase.from_environment(
            toy_network, Environment.flat(grid), shadowing_sigma_db=0.0)
        ladder = default_tilt_values(toy_network)
        H, W = grid.shape
        with PackedDatabaseWriter(path, grid, toy_network,
                                  ladder) as writer:
            for s, raster in enumerate(db._rasters):
                planes = np.full((len(ladder), H, W), 1e-9, np.float32)
                if s == 2:
                    planes[len(ladder) - 1, H - 1, W - 1] = np.nan
                writer.write_sector(s, raster, planes)
        loaded = load_packed(path, verify=True)
        with pytest.raises(ValueError, match=r"sectors \[2\]"):
            loaded.validate()
        block = 16 * 1024
        monkeypatch.setattr(plossdb, "_CRC_BLOCK_BYTES", block)
        store = loaded.packed_store
        assert store.nbytes // store.n_sectors > 4 * block
        store.bad_sectors()                # opens the descriptor
        tracemalloc.start()
        try:
            assert store.bad_sectors() == [2]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * block


# ----------------------------------------------------------------------
class TestMarketIntegration:
    DIMS = AreaDimensions(tuning_side_m=1_600.0, margin_m=800.0,
                          cell_size_m=200.0)

    def test_build_area_plossdb_roundtrip(self, tmp_path):
        path = str(tmp_path / "area.plossdb")
        first = build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                           planning=PlanningSettings(max_passes=0),
                           plossdb=path)
        assert first.pathloss.packed_store.path == path
        assert os.path.exists(path)
        # Second build memory-maps the existing file.
        again = build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                           planning=PlanningSettings(max_passes=0),
                           plossdb=path)
        assert again.pathloss.packed_store.path == path
        assert np.array_equal(first.baseline.sinr_db,
                              again.baseline.sinr_db)

    def test_build_area_plossdb_mismatch_guard(self, tmp_path):
        path = str(tmp_path / "area.plossdb")
        build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                   planning=PlanningSettings(max_passes=0), plossdb=path)
        with pytest.raises(ValueError, match="different network"):
            build_area(AreaType.SUBURBAN, seed=43, dims=self.DIMS,
                       planning=PlanningSettings(max_passes=0),
                       plossdb=path)

    def test_build_area_rejects_other_tilt_model(self, tmp_path):
        path = str(tmp_path / "area.plossdb")
        pack_area_database(path, AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                           tilt_model="shared-delta")
        with pytest.raises(ValueError) as info:
            build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                       planning=PlanningSettings(max_passes=0),
                       plossdb=path)
        message = str(info.value)
        for part in (path, "'tilt_model'", "'shared-delta'", "'exact'"):
            assert part in message
        # The matching model loads the same file.
        area = build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                          tilt_model="shared-delta",
                          planning=PlanningSettings(max_passes=0),
                          plossdb=path)
        assert area.pathloss.tilt_model == "shared-delta"


# ----------------------------------------------------------------------
def _rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header of the plossdb file at
    ``path``, in place.

    Section bytes and offsets are untouched; the header shrinks or
    grows into the slack page every writer leaves before the first
    section, so only the header can be at fault when the file is read.
    """
    preamble = len(MAGIC) + 8
    with open(path, "r+b") as fh:
        head = fh.read(preamble)
        header_len = int.from_bytes(head[len(MAGIC):], "little")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        data_start = min(spec["offset"]
                         for spec in header["sections"].values())
        edit(header)
        raw = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
        assert preamble + len(raw) <= data_start
        fh.seek(len(MAGIC))
        fh.write(len(raw).to_bytes(8, "little"))
        fh.write(raw + b"\x00" * max(header_len - len(raw), 0))


class TestRoiFormat:
    """The v3 ROI sidecar: persisted boxes, the one version, sparsity."""

    def test_v3_header_and_roi_section(self, tmp_path, toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        assert header["version"] == 3
        assert header["clip_floor_db"] == DEFAULT_CLIP_FLOOR_DB
        spec = header["sections"]["roi"]
        assert spec["shape"] == [header["n_sectors"],
                                 header["n_tilts"], 4]
        assert "roi" in verify_sections(path, header)
        loaded = load_packed(path)
        assert np.array_equal(loaded.packed_store.roi,
                              pack_database(toy_pathloss).roi)
        assert loaded.clip_floor_db == DEFAULT_CLIP_FLOOR_DB

    def test_clip_floor_none_is_persisted(self, tmp_path, toy_pathloss):
        path = tmp_path / "raw.plossdb"
        save_packed(toy_pathloss, path, clip_floor_db=None)
        assert read_header(path)["clip_floor_db"] is None
        assert load_packed(path).clip_floor_db is None

    def test_v2_file_is_rejected(self, tmp_path, toy_pathloss):
        """A pre-ROI v2 header (no roi section, no clip floor) names its
        version instead of loading without a footprint table."""
        path = tmp_path / "v2.plossdb"
        save_packed(toy_pathloss, path)

        def downgrade(header):
            header["version"] = 2
            del header["clip_floor_db"], header["sections"]["roi"]
        _rewrite_header(path, downgrade)
        with pytest.raises(ValueError, match=r"version 2\b.*version 3"):
            load_packed(path)

    def test_validate_reports_sparsity(self, toy_grid, toy_network):
        db = PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid),
            shadowing_sigma_db=0.0, seed=0, clip_floor_db=-110.0)
        db.attach_packed(pack_database(db))      # inherits the floor
        report = db.validate()
        assert report["clip_floor_db"] == -110.0
        assert 0.0 < report["mean_footprint_ratio"] \
            <= report["max_footprint_ratio"] < 1.0
        ratios = report["per_sector_footprint_ratio"]
        assert len(ratios) == toy_network.n_sectors
        assert all(0.0 < r <= 1.0 for r in ratios)

    def test_validate_dict_backend_returns_none(self, toy_pathloss):
        assert toy_pathloss.validate() is None

    def test_pack_database_inherits_floor(self, toy_grid, toy_network,
                                          toy_pathloss):
        assert (pack_database(toy_pathloss).clip_floor_db
                == DEFAULT_CLIP_FLOOR_DB)
        clipped = PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid),
            shadowing_sigma_db=0.0, seed=0, clip_floor_db=-110.0)
        assert pack_database(clipped).clip_floor_db == -110.0


# ----------------------------------------------------------------------
def _key_paths(node, prefix=()):
    """Every key path of a JSON tree: dict keys and list indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _kind(value) -> str:
    """The JSON type of ``value``, booleans apart from numbers."""
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else \
        type(value).__name__


#: Malformed v3 headers: ``(case, edit, the key the error names)``.
_PROBES = [
    ("checksum-deleted",
     lambda h: h["sections"]["gains_mw"].pop("checksum"),
     "sections.gains_mw.checksum"),
    ("roi-deleted", lambda h: h["sections"].pop("roi"), "sections.roi"),
    ("file-bytes-deleted", lambda h: h.pop("file_bytes"), "file_bytes"),
    ("sections-deleted", lambda h: h.pop("sections"), "sections"),
    ("grid-deleted", lambda h: h.pop("grid"), "grid"),
    ("gains-shape", lambda h: h["sections"]["gains_mw"]["shape"].__setitem__(
        1, 2), "sections.gains_mw.shape"),
    ("roi-shape", lambda h: h["sections"]["roi"]["shape"].__setitem__(
        2, 2), "sections.roi.shape"),
    ("sidecar-shape", lambda h: h["sections"]["loss_db"]["shape"].pop(),
     "sections.loss_db.shape"),
    ("extent-past-end", lambda h: h["sections"]["theta_deg"].__setitem__(
        "offset", h["file_bytes"]), "sections.theta_deg.offset"),
    ("n-tilts", lambda h: h.__setitem__("n_tilts", 1), "n_tilts"),
    ("tilt-model", lambda h: h.__setitem__("tilt_model", "linear"),
     "tilt_model"),
    ("sector-field", lambda h: h["network"]["sectors"][1].pop("x"),
     "network.sectors[1].x"),
    ("bool-for-int", lambda h: h["network"]["sectors"][1].__setitem__(
        "sector_id", True), "network.sectors[1].sector_id"),
]


class TestHeaderSchema:
    """Every malformed v3 header fails with a ValueError that names
    the file and the key, and nothing loads."""

    @pytest.mark.parametrize("edit, key", [p[1:] for p in _PROBES],
                             ids=[p[0] for p in _PROBES])
    def test_probe_names_file_and_key(self, tmp_path, toy_pathloss, edit,
                                      key):
        path = tmp_path / "bad.plossdb"
        save_packed(toy_pathloss, path)
        _rewrite_header(path, edit)
        for load in (read_header, load_packed):
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(path) in str(info.value)
            assert repr(key) in str(info.value)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_deleted_or_retyped_key_is_a_value_error(
            self, tmp_path, toy_pathloss, data):
        """Delete or retype one random key anywhere in the header: the
        loader raises a ValueError naming the file and that key, and
        never another exception type."""
        good = tmp_path / "good.plossdb"
        if not good.exists():
            save_packed(toy_pathloss, good)
        header = read_header(good)
        path = data.draw(st.sampled_from(sorted(
            _key_paths(header), key=repr)))
        bad = tmp_path / "bad.plossdb"
        bad.write_bytes(good.read_bytes())

        def edit(h):
            parent = h
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(path[-1], str) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:       # never null, which ``clip_floor_db`` takes
                old = _kind(parent[path[-1]])
                parent[path[-1]] = data.draw(st.sampled_from(
                    [v for v in ("x", 1.5, [], {}, True) if _kind(v) != old]))
        _rewrite_header(bad, edit)
        with pytest.raises(ValueError) as info:
            load_packed(bad)
        leaf = next(k for k in reversed(path) if isinstance(k, str))
        assert str(bad) in str(info.value)
        assert leaf in str(info.value)
