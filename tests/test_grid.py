"""CFT1 round trips, malformed-file handling and bilinear resampling."""
import contextlib
import io
import math
import os
import stat
import struct
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from segfuse import (DenseGrid, LabelMap, SegfuseError, load_grid, load_label_map,
                     save_grid, save_label_map)
from segfuse.cli import main
from segfuse.errors import check_finite
from segfuse.grid import (_TILE_BYTES, _read_rows, _row_tiles, _write_rows,
                          bilinear_taps, interpolate_axis)

import oracle
from scenes import report_free_space


def test_load_zero_grid(tmp_path):
    path = tmp_path / "z.cft1"
    save_grid(DenseGrid(np.zeros((2, 2, 1), dtype=np.float32)), path)
    grid = load_grid(path)
    assert grid.dims == (2, 2, 1)
    assert (grid.data == 0.0).all()


def test_round_trip_single_value(tmp_path):
    path = tmp_path / "one.cft1"
    save_grid(DenseGrid(np.array([[[3.5]]], dtype=np.float32)), path)
    assert load_grid(path).data[0, 0, 0] == np.float32(3.5)


def test_two_axis_header(tmp_path):
    path = tmp_path / "two.cft1"
    save_grid(DenseGrid(np.ones((2, 3), dtype=np.float32)), path)
    raw = path.read_bytes()
    assert raw[:4] == b"CFT1"
    assert raw[4] == 1  # f32 dtype code
    assert raw[5] == 2  # ndim
    assert struct.unpack("<II", raw[6:14]) == (2, 3)


def test_round_trip_random_payload_bits(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal(1000).astype(np.float32).reshape(10, 100)
    path = tmp_path / "r.cft1"
    save_grid(DenseGrid(data), path)
    back = load_grid(path)
    assert back.data.tobytes() == data.tobytes()


def test_round_trip_large_grid(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((64, 64, 256)).astype(np.float32)
    path = tmp_path / "big.cft1"
    save_grid(DenseGrid(data), path)
    assert np.array_equal(load_grid(path).data, data)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.cft1"
    save_grid(DenseGrid(np.ones((2, 2, 1), dtype=np.float32)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # drop one float
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "payload_truncated"


def test_oversized_header_rejected_before_reading(tmp_path):
    # 26 bytes on disk, 60000 x 60000 x 4 bytes promised.
    path = tmp_path / "huge.cft1"
    path.write_bytes(b"CFT1" + struct.pack("<BBII", 2, 2, 60000, 60000) + bytes(12))
    with pytest.raises(SegfuseError) as err:
        load_label_map(path)
    assert err.value.code == "payload_truncated"
    assert "14400000000" in str(err.value)


def test_oversized_header_through_fifo_exits_1(tmp_path, capsys):
    # A FIFO has no size to check: the reader must stop at EOF, not
    # allocate the 14.4 GB the header promises.
    fifo = tmp_path / "gt.fifo"
    os.mkfifo(fifo)
    pred = tmp_path / "pred.cft1"
    save_label_map(LabelMap(np.zeros((2, 2), dtype=np.uint32)), pred)

    def write():
        with open(fifo, "wb") as f:
            f.write(b"CFT1" + struct.pack("<BBII", 2, 2, 60000, 60000) + bytes(12))

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    code = main(["eval", "--gt", str(fifo), "--pred", str(pred), "--classes", "2"])
    writer.join(timeout=10)
    err = capsys.readouterr().err
    assert code == 1
    assert "payload_truncated" in err and "14400000000" in err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dtype=st.sampled_from([1, 2]), ndim=st.sampled_from([2, 3]),
       extents=st.lists(st.integers(1, 2**32 - 1), min_size=3, max_size=3),
       payload=st.binary(max_size=64))
@example(dtype=2, ndim=2, extents=[60000, 60000, 1], payload=bytes(12))
def test_short_payload_header_fuzz_exits_1(dtype, ndim, extents, payload):
    extents = extents[:ndim]
    promised = math.prod(extents) * 4
    payload = payload[:max(0, promised - 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cft1")
        with open(path, "wb") as f:
            f.write(b"CFT1" + struct.pack("<BB", dtype, ndim))
            f.write(struct.pack("<" + "I" * ndim, *extents) + payload)
        if dtype == 2:
            argv = ["eval", "--gt", path, "--pred", path, "--classes", "2"]
        else:
            argv = ["fuse", "--evidence", path, "--presence", path,
                    "--prior", path, "--out", os.path.join(tmp, "o.cft1")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 1
    assert err.getvalue().startswith("segfuse: error: ")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.cft1"
    save_grid(DenseGrid(np.ones((2, 2), dtype=np.float32)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "payload_excess"


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cft1"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "bad_magic"


def test_bad_dtype_code(tmp_path):
    path = tmp_path / "d.cft1"
    save_grid(DenseGrid(np.ones((2, 2), dtype=np.float32)), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 3
    path.write_bytes(bytes(raw))
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "bad_dtype"


def test_label_file_dtype_not_accepted_as_grid(tmp_path):
    path = tmp_path / "lm.cft1"
    save_label_map(LabelMap(np.zeros((2, 2), dtype=np.uint32)), path)
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "bad_dtype"


def test_bad_ndim(tmp_path):
    # A grid has 2 or 3 axes and a label map 2.  Each label-map file is whole:
    # its last u32 is the payload of its one pixel.
    for body, load in ((struct.pack("<BB", 1, 4) + bytes(16), load_grid),
                       (struct.pack("<BBIIII", 2, 3, 1, 1, 1, 7), load_label_map),
                       (struct.pack("<BBII", 2, 1, 1, 7), load_label_map)):
        path = tmp_path / "n.cft1"
        path.write_bytes(b"CFT1" + body)
        with pytest.raises(SegfuseError) as err:
            load(path)
        assert err.value.code == "bad_ndim"


def test_zero_extent(tmp_path):
    path = tmp_path / "e.cft1"
    path.write_bytes(b"CFT1" + struct.pack("<BBII", 1, 2, 0, 3))
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "bad_extent"


def test_nonfinite_payload_rejected(tmp_path):
    path = tmp_path / "nan.cft1"
    data = np.array([[1.0, np.nan]], dtype=np.float32).reshape(1, 2)
    header = b"CFT1" + struct.pack("<BBII", 1, 2, 1, 2)
    path.write_bytes(header + data.tobytes())
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "nonfinite_values"


def test_nonfinite_value_in_last_slice_rejected(tmp_path):
    # the finiteness check runs in 1 MiB slices; 2.4 MB puts this in the third
    data = np.zeros((600, 1000), dtype=np.float32)
    data[-1, -1] = np.inf
    path = tmp_path / "inf.cft1"
    save_grid(DenseGrid(data), path)
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "nonfinite_values"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_value_ending_a_middle_slice_rejected(tmp_path, bad):
    # 3 MiB of float32: the bad value is the last one of the second 1 MiB slice
    data = np.zeros((3, 1 << 18), dtype=np.float32)
    data[1, -1] = bad
    path = tmp_path / "bad.cft1"
    save_grid(DenseGrid(data), path)
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "nonfinite_values"


@pytest.mark.parametrize("values, finite", [
    (np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max,
               np.finfo(np.float32).tiny / 2, -0.0], dtype=np.float32), True),
    (np.array([[1, -7]], dtype=np.int64), True),
    (np.zeros((0, 3)), True),
    (np.array([0.0, 1.0, np.nan]), False),
    (np.array([np.nan, 1.0, 0.0]), False),
    (np.array([np.inf, np.nan]), False),
    (np.array([1.0, -np.inf]), False),
    (np.array([[np.inf], [1.0]], dtype=np.float32), False),
])
def test_all_finite(values, finite):
    # `check_finite` passes exactly the arrays np.isfinite calls finite.
    assert bool(np.isfinite(values).all()) is finite
    if finite:
        check_finite("nonfinite_values", "values", values)
        return
    with pytest.raises(SegfuseError) as err:
        check_finite("nonfinite_values", "values", values)
    assert str(err.value) == "nonfinite_values: values must hold no NaN or Inf"


def test_short_read_after_size_check_is_truncated(tmp_path, monkeypatch):
    # The file shrinks between the size check and the read: fstat reports
    # the whole payload, the read delivers all but one value.
    path = tmp_path / "short.cft1"
    save_grid(DenseGrid(np.ones((4, 4, 2), dtype=np.float32)), path)
    path.write_bytes(path.read_bytes()[:-4])
    real_fstat = os.fstat

    def fstat(fd):
        st = real_fstat(fd)
        return os.stat_result(st[:6] + (st.st_size + 4,) + st[7:10])

    monkeypatch.setattr(os, "fstat", fstat)
    with pytest.raises(SegfuseError) as err:
        load_grid(path)
    assert err.value.code == "payload_truncated"
    assert "payload has 124 bytes, header promises 128" in str(err.value)


def _load_through_fifo(tmp_path, path, load):
    fifo = tmp_path / (path.name + ".fifo")
    os.mkfifo(fifo)
    raw = path.read_bytes()

    def write():
        with open(fifo, "wb") as f:
            f.write(raw)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load(fifo)
    finally:
        writer.join(timeout=10)


@pytest.mark.parametrize("through_fifo", [False, True])
def test_loaded_arrays_are_writable_and_contiguous(tmp_path, through_fifo):
    rng = np.random.default_rng(13)
    grid = DenseGrid(rng.standard_normal((3, 5, 2)).astype(np.float32))
    labels = LabelMap(rng.integers(0, 9, (4, 3)).astype(np.uint32))
    grid_path, labels_path = tmp_path / "g.cft1", tmp_path / "l.cft1"
    save_grid(grid, grid_path)
    save_label_map(labels, labels_path)
    for path, load, want in ((grid_path, load_grid, grid),
                             (labels_path, load_label_map, labels)):
        got = (_load_through_fifo(tmp_path, path, load) if through_fifo
               else load(path))
        assert got.data.flags.writeable and got.data.flags.c_contiguous
        assert got.data.tobytes() == want.data.tobytes()
        got.data[0, 0] = 0


def test_saved_bytes_are_header_plus_payload(tmp_path):
    rng = np.random.default_rng(17)
    cases = [
        (save_grid, DenseGrid(rng.standard_normal((3, 4, 5)).astype(np.float32)),
         b"CFT1" + struct.pack("<BBIII", 1, 3, 3, 4, 5), "<f4"),
        (save_grid, DenseGrid(rng.standard_normal((2, 7)).astype(np.float32)),
         b"CFT1" + struct.pack("<BBII", 1, 2, 2, 7), "<f4"),
        (save_label_map, LabelMap(rng.integers(0, 2**32, (6, 2), dtype=np.uint32)),
         b"CFT1" + struct.pack("<BBII", 2, 2, 6, 2), "<u4"),
    ]
    for save, value, header, dtype in cases:
        path = tmp_path / "out.cft1"
        save(value, path)
        assert path.read_bytes() == header + value.data.astype(dtype).tobytes()


def test_label_map_round_trip(tmp_path):
    labels = LabelMap(np.arange(12, dtype=np.uint32).reshape(3, 4))
    path = tmp_path / "lab.cft1"
    save_label_map(labels, path)
    assert np.array_equal(load_label_map(path).data, labels.data)


def test_grid_validates_axes():
    for shape in ((4,), (2, 2, 2, 2)):
        with pytest.raises(SegfuseError) as err:
            DenseGrid(np.zeros(shape, dtype=np.float32))
        assert err.value.code == "shape_mismatch"


@pytest.mark.parametrize("make, shape", [
    (DenseGrid, (2, 0)),
    (DenseGrid, (0, 2, 3)),
    (LabelMap, (2, 2, 2)),
    (LabelMap, (0, 2)),
])
def test_containers_reject_bad_shapes_with_code(make, shape):
    with pytest.raises(SegfuseError) as err:
        make(np.zeros(shape))
    assert err.value.code == "shape_mismatch"


# --- bilinear resize ---------------------------------------------------------

def _resize(src, out_h, out_w):
    """Separable float64 resize: the row pass, then the column pass."""
    src = np.asarray(src, dtype=np.float64)
    rows = interpolate_axis(src, bilinear_taps(src.shape[0], out_h), axis=0)
    return interpolate_axis(rows, bilinear_taps(src.shape[1], out_w), axis=1)


@pytest.mark.parametrize("row_bytes", [
    1, _TILE_BYTES // 7, _TILE_BYTES // 3, _TILE_BYTES // 2 + 1, _TILE_BYTES,
    _TILE_BYTES + 1, 5 * _TILE_BYTES])
def test_row_tiles_cover_every_row_once_in_order(row_bytes):
    for height in range(1, 50):
        tiles = _row_tiles(height, row_bytes)
        rows = [r for tile in tiles for r in range(tile.start, tile.stop)]
        assert rows == list(range(height)), (height, tiles)
        sizes = [tile.stop - tile.start for tile in tiles]
        assert min(sizes) >= 1 and tiles[0].start == 0
        # every tile but the last has the full height, within the budget
        # unless a single row is over it
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
        assert sizes[0] == 1 or sizes[0] * row_bytes <= _TILE_BYTES


def test_resize_constant_stays_constant():
    out = _resize(np.full((3, 5, 2), 2.0), 7, 4)
    assert out.shape == (7, 4, 2)
    assert (out.astype(np.float32) == np.float32(2.0)).all()


def test_resize_single_sample_clamps():
    out = _resize(np.array([[[7.0]]]), 5, 3)
    assert (out == 7.0).all()


def test_resize_2x2_to_4x4_matches_reference():
    # Frozen from the float64 per-pixel reference (half-pixel centers).
    expected = np.array([
        [0.00, 0.25, 0.75, 1.00],
        [0.50, 0.75, 1.25, 1.50],
        [1.50, 1.75, 2.25, 2.50],
        [2.00, 2.25, 2.75, 3.00],
    ])
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = _resize(src[:, :, None], 4, 4)
    assert np.allclose(out[:, :, 0], expected, atol=1e-12)
    assert np.allclose(oracle.bilinear(src, 4, 4), expected)


def test_resize_identity_is_pass_through():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((6, 5, 3)).astype(np.float32)
    out = _resize(data, 6, 5)
    assert out.dtype == np.float64
    assert np.array_equal(out, data)


def test_resize_array_matches_reference_in_float64():
    rng = np.random.default_rng(23)
    for _ in range(10):
        h, w, d = rng.integers(1, 9, size=3)
        oh, ow = rng.integers(1, 13, size=2)
        data = rng.standard_normal((h, w, d))
        out = _resize(data, int(oh), int(ow))
        ref = oracle.bilinear(data, int(oh), int(ow))
        assert np.abs(out - ref).max() < 1e-14


def test_resize_matches_reference_on_random_grids():
    # float32 input, as features arrive from a grid, is resampled in float64
    rng = np.random.default_rng(21)
    for _ in range(10):
        h, w, d = rng.integers(1, 9, size=3)
        oh, ow = rng.integers(1, 13, size=2)
        data = rng.standard_normal((h, w, d)).astype(np.float32)
        out = _resize(data, int(oh), int(ow))
        ref = oracle.bilinear(data.astype(np.float64), int(oh), int(ow))
        assert np.abs(out - ref).max() < 1e-14


def test_resize_range_bounded_per_channel():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, 6, 3))
    out = _resize(data, 9, 11)
    for c in range(3):
        assert out[:, :, c].min() >= data[:, :, c].min() - 1e-12
        assert out[:, :, c].max() <= data[:, :, c].max() + 1e-12


def test_resize_linearity():
    rng = np.random.default_rng(9)
    g1 = rng.standard_normal((5, 4, 2))
    g2 = rng.standard_normal((5, 4, 2))
    a, b = 0.7, -1.3
    lhs = _resize(a * g1 + b * g2, 8, 9)
    r1 = _resize(g1, 8, 9)
    r2 = _resize(g2, 8, 9)
    assert np.allclose(lhs, a * r1 + b * r2, atol=1e-12)


# --- row-tile reader and writer ----------------------------------------------

def _feed_fifo(fifo, raw):
    """Start a thread that writes `raw` into the FIFO at `fifo`."""
    def write():
        with open(fifo, "wb") as f:
            f.write(raw)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def _read_in_tiles(path, steps):
    """The tiles `_read_rows` gives for row counts `steps`, in order."""
    with _read_rows(path, DenseGrid) as reader:
        return reader.extents, [reader.read(n) for n in steps]


@pytest.mark.parametrize("through_fifo", [False, True])
def test_row_reader_reads_tiles_in_order(tmp_path, through_fifo):
    rng = np.random.default_rng(29)
    data = rng.standard_normal((7, 5, 3)).astype(np.float32)
    path = tmp_path / "g.cft1"
    save_grid(DenseGrid(data), path)
    if through_fifo:
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        writer = _feed_fifo(fifo, path.read_bytes())
        path = fifo
    extents, tiles = _read_in_tiles(path, [3, 1, 3])
    if through_fifo:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert extents == (7, 5, 3)
    assert [t.shape for t in tiles] == [(3, 5, 3), (1, 5, 3), (3, 5, 3)]
    assert all(t.flags.writeable and t.flags.c_contiguous for t in tiles)
    assert np.concatenate(tiles).tobytes() == data.tobytes()


def _grid_bytes(shape, seed=31):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape).astype(np.float32)
    return (b"CFT1" + struct.pack("<BB", 1, len(shape))
            + struct.pack("<" + "I" * len(shape), *shape) + data.tobytes())


@pytest.mark.parametrize("through_fifo", [False, True])
def test_row_reader_payload_cut_in_a_tile(tmp_path, through_fifo):
    # 4 rows of 24 bytes; the payload stops 10 bytes into the third row
    raw = _grid_bytes((4, 3, 2))[:18 + 2 * 24 + 10]
    path = tmp_path / "cut.cft1"
    path.write_bytes(raw)
    read = []
    with contextlib.ExitStack() as stack:
        if through_fifo:
            fifo = tmp_path / "cut.fifo"
            os.mkfifo(fifo)
            writer = _feed_fifo(fifo, raw)
            stack.callback(writer.join, 10)
            path = fifo
        with pytest.raises(SegfuseError) as err:
            with _read_rows(path, DenseGrid) as reader:
                for _ in range(2):
                    read.append(reader.read(2))
    assert err.value.code == "payload_truncated"
    assert "payload has 58 bytes, header promises 96" in str(err.value)
    # a regular file's size is checked on open, before any tile is read;
    # a FIFO has no size, so the first tile arrives and the second is short
    assert len(read) == (1 if through_fifo else 0)


@pytest.mark.parametrize("through_fifo", [False, True])
def test_row_reader_trailing_bytes(tmp_path, through_fifo):
    raw = _grid_bytes((4, 3, 2)) + b"\x00"
    path = tmp_path / "long.cft1"
    path.write_bytes(raw)
    read = []
    with contextlib.ExitStack() as stack:
        if through_fifo:
            fifo = tmp_path / "long.fifo"
            os.mkfifo(fifo)
            writer = _feed_fifo(fifo, raw)
            stack.callback(writer.join, 10)
            path = fifo
        with pytest.raises(SegfuseError) as err:
            with _read_rows(path, DenseGrid) as reader:
                for _ in range(2):
                    read.append(reader.read(2))
    assert err.value.code == "payload_excess"
    # a FIFO's extra byte shows when the last row has been read
    assert len(read) == (1 if through_fifo else 0)


def test_row_reader_checks_finiteness_per_tile(tmp_path):
    data = np.zeros((4, 3, 2), dtype=np.float32)
    data[3, 2, 1] = np.nan
    path = tmp_path / "nan.cft1"
    save_grid(DenseGrid(data), path)
    with _read_rows(path, DenseGrid) as reader:
        assert not reader.read(3).any()
        with pytest.raises(SegfuseError) as err:
            reader.read(1)
    assert err.value.code == "nonfinite_values"


def test_row_writer_writes_tiles_after_the_header(tmp_path):
    rng = np.random.default_rng(37)
    data = rng.standard_normal((5, 2, 3)).astype(np.float32)
    path = tmp_path / "w.cft1"
    with _write_rows(path, DenseGrid, data.shape) as write:
        for r0 in range(0, 5, 2):
            write(data[r0:r0 + 2].astype(np.float64))
    whole = tmp_path / "whole.cft1"
    save_grid(DenseGrid(data), whole)
    assert path.read_bytes() == whole.read_bytes()


def test_row_writer_removes_a_regular_output_on_failure(tmp_path):
    path = tmp_path / "partial.cft1"
    with pytest.raises(MemoryError):
        with _write_rows(path, DenseGrid, (4, 2)) as write:
            write(np.zeros((2, 2)))
            raise MemoryError
    assert not path.exists()


def test_row_writer_leaves_a_fifo_on_failure(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    with pytest.raises(MemoryError):
        with _write_rows(fifo, DenseGrid, (4, 2)) as write:
            write(np.zeros((2, 2)))
            raise MemoryError
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert len(got[0]) == 14 + 16


def test_row_writer_leaves_a_symlinked_output_on_failure(tmp_path):
    # a link such as /dev/stdout is never unlinked
    target = tmp_path / "target.cft1"
    link = tmp_path / "link.cft1"
    link.symlink_to(target)
    with pytest.raises(MemoryError):
        with _write_rows(link, DenseGrid, (1, 1)):
            raise MemoryError
    assert link.is_symlink()


def test_row_writer_refuses_an_output_that_cannot_fit(tmp_path, monkeypatch):
    path = tmp_path / "big.cft1"
    path.write_bytes(b"old")
    report_free_space(monkeypatch, 1 << 20)
    with pytest.raises(SegfuseError) as err:
        with _write_rows(path, DenseGrid, (1024, 257)):
            pytest.fail("no row may be written")
    assert err.value.code == "insufficient_space"
    assert "needs 1052686 bytes" in str(err.value)
    assert not path.exists()
    # the one-tile case, save_grid, takes the same check
    with pytest.raises(SegfuseError) as err:
        save_grid(DenseGrid(np.zeros((1024, 257), dtype=np.float32)), path)
    assert err.value.code == "insufficient_space"
    assert not path.exists()
    with _write_rows(path, DenseGrid, (1024, 255)) as write:
        write(np.zeros((1024, 255)))
    assert path.stat().st_size == 14 + 1024 * 255 * 4


def test_row_writer_refuses_an_extent_above_u32(tmp_path):
    path = tmp_path / "wide.cft1"
    with pytest.raises(SegfuseError) as err:
        with _write_rows(path, DenseGrid, (2**32, 1)):
            pytest.fail("no row may be written")
    assert err.value.code == "bad_extent"
    assert not path.exists()
