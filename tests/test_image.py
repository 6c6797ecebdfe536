"""Tests for the Netpbm image exporters."""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.image import (write_field_pgm, write_mask_pgm,
                                  write_serving_ppm)
from repro.model.snapshot import NO_SERVICE


def _read_netpbm(path):
    data = path.read_bytes()
    magic, dims, maxval_rest = data.split(b"\n", 2)
    cols, rows = map(int, dims.split())
    maxval, raw = maxval_rest.split(b"\n", 1)
    return magic.decode(), cols, rows, int(maxval), raw


class TestFieldPgm:
    def test_header_and_size(self, tmp_path):
        field = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        path = write_field_pgm("f", field, directory=tmp_path)
        magic, cols, rows, maxval, raw = _read_netpbm(path)
        assert magic == "P5"
        assert (cols, rows) == (4, 3)
        assert maxval == 255
        assert len(raw) == 12

    def test_scaling_endpoints(self, tmp_path):
        field = np.asarray([[0.0, 10.0]])
        path = write_field_pgm("g", field, directory=tmp_path)
        *_, raw = _read_netpbm(path)
        assert raw[0] == 0 and raw[1] == 255

    def test_north_up(self, tmp_path):
        # Row 0 (south) is dark, row 1 (north) bright -> file starts
        # with the bright (northern) row.
        field = np.asarray([[0.0], [1.0]])
        path = write_field_pgm("n", field, directory=tmp_path)
        *_, raw = _read_netpbm(path)
        assert raw[0] == 255 and raw[1] == 0

    def test_pinned_scale(self, tmp_path):
        path = write_field_pgm("p", np.asarray([[5.0]]), lo=0.0,
                               hi=10.0, directory=tmp_path)
        *_, raw = _read_netpbm(path)
        assert raw[0] in (127, 128)    # 0.5 x 255 rounds either way

    def test_nan_rejected_when_all(self, tmp_path):
        with pytest.raises(ValueError):
            write_field_pgm("bad", np.full((2, 2), np.nan),
                            directory=tmp_path)

    def test_bad_name(self, tmp_path):
        with pytest.raises(ValueError):
            write_field_pgm("a/b", np.zeros((2, 2)),
                            directory=tmp_path)


class TestMaskPgm:
    def test_binary_values(self, tmp_path):
        path = write_mask_pgm("m", np.asarray([[True, False]]),
                              directory=tmp_path)
        *_, raw = _read_netpbm(path)
        assert sorted(raw) == [0, 255]


class TestServingPpm:
    def test_header_and_hole_color(self, tmp_path):
        serving = np.asarray([[0, 1], [NO_SERVICE, 0]])
        path = write_serving_ppm("s", serving, directory=tmp_path)
        magic, cols, rows, maxval, raw = _read_netpbm(path)
        assert magic == "P6"
        assert (cols, rows) == (2, 2)
        assert len(raw) == 12
        # First written row is raster row 1 (north up): hole then s0.
        assert raw[0:3] == b"\x00\x00\x00"

    def test_same_sector_same_color(self, tmp_path):
        serving = np.asarray([[3, 3, 7]])
        path = write_serving_ppm("c", serving, directory=tmp_path)
        *_, raw = _read_netpbm(path)
        assert raw[0:3] == raw[3:6]
        assert raw[0:3] != raw[6:9]

    def test_colors_deterministic(self, tmp_path):
        a = write_serving_ppm("d1", np.asarray([[5]]),
                              directory=tmp_path).read_bytes()
        b = write_serving_ppm("d2", np.asarray([[5]]),
                              directory=tmp_path).read_bytes()
        assert a.split(b"\n", 2)[2] == b.split(b"\n", 2)[2]


_RESULTS = Path(__file__).resolve().parents[1] / "results"
_COMMITTED = sorted(_RESULTS.glob("*.pgm")) + sorted(_RESULTS.glob("*.ppm"))


class TestCommittedImages:
    """Every map image under ``results/`` is a whole Netpbm file: its
    payload holds exactly the pixels its header declares."""

    def test_images_committed(self):
        assert _COMMITTED

    @pytest.mark.parametrize("path", _COMMITTED, ids=lambda p: p.name)
    def test_payload_matches_header(self, path):
        magic, cols, rows, maxval, raw = _read_netpbm(path)
        assert magic in ("P5", "P6") and maxval == 255
        channels = 3 if magic == "P6" else 1
        assert len(raw) == cols * rows * channels
