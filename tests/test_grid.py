"""CFT1 round trips, malformed-file handling and bilinear resampling."""
import contextlib
import io
import math
import os
import struct
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from segfuse import (DenseGrid, LabelMap, ShapeError, TensorFormatError,
                     load_grid, load_label_map, save_grid, save_label_map)
from segfuse.cli import main
from segfuse.grid import resize_bilinear_array

import oracle


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
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "payload_truncated"


def test_oversized_header_rejected_before_reading(tmp_path):
    # 26 bytes on disk, 60000 x 60000 x 4 bytes promised.
    path = tmp_path / "huge.cft1"
    path.write_bytes(b"CFT1" + struct.pack("<BBII", 2, 2, 60000, 60000) + bytes(12))
    with pytest.raises(TensorFormatError) as err:
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
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "payload_excess"


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cft1"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "bad_magic"


def test_bad_dtype_code(tmp_path):
    path = tmp_path / "d.cft1"
    save_grid(DenseGrid(np.ones((2, 2), dtype=np.float32)), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 3
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "bad_dtype"


def test_label_file_dtype_not_accepted_as_grid(tmp_path):
    path = tmp_path / "lm.cft1"
    save_label_map(LabelMap(np.zeros((2, 2), dtype=np.uint32)), path)
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "bad_dtype"


def test_bad_ndim(tmp_path):
    path = tmp_path / "n.cft1"
    path.write_bytes(b"CFT1" + struct.pack("<BB", 1, 4) + bytes(16))
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "bad_ndim"


def test_zero_extent(tmp_path):
    path = tmp_path / "e.cft1"
    path.write_bytes(b"CFT1" + struct.pack("<BBII", 1, 2, 0, 3))
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "bad_extent"


def test_nonfinite_payload_rejected(tmp_path):
    path = tmp_path / "nan.cft1"
    data = np.array([[1.0, np.nan]], dtype=np.float32).reshape(1, 2)
    header = b"CFT1" + struct.pack("<BBII", 1, 2, 1, 2)
    path.write_bytes(header + data.tobytes())
    with pytest.raises(TensorFormatError) as err:
        load_grid(path)
    assert err.value.code == "nonfinite_values"


def test_label_map_round_trip(tmp_path):
    labels = LabelMap(np.arange(12, dtype=np.uint32).reshape(3, 4))
    path = tmp_path / "lab.cft1"
    save_label_map(labels, path)
    assert np.array_equal(load_label_map(path).data, labels.data)


def test_grid_validates_axes():
    with pytest.raises(ShapeError):
        DenseGrid(np.zeros(4, dtype=np.float32))
    with pytest.raises(ShapeError):
        DenseGrid(np.zeros((2, 2, 2, 2), dtype=np.float32))


# --- bilinear resize ---------------------------------------------------------

def test_resize_constant_stays_constant():
    out = resize_bilinear_array(np.full((3, 5, 2), 2.0), 7, 4)
    assert out.shape == (7, 4, 2)
    assert (out.astype(np.float32) == np.float32(2.0)).all()


def test_resize_single_sample_clamps():
    out = resize_bilinear_array(np.array([[[7.0]]]), 5, 3)
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
    out = resize_bilinear_array(src[:, :, None], 4, 4)
    assert np.allclose(out[:, :, 0], expected, atol=1e-12)
    assert np.allclose(oracle.bilinear(src, 4, 4), expected)


def test_resize_identity_is_pass_through():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((6, 5, 3)).astype(np.float32)
    out = resize_bilinear_array(data, 6, 5)
    assert out.dtype == np.float64
    assert np.array_equal(out, data)


def test_resize_array_identity_returns_input():
    data = np.random.default_rng(4).standard_normal((3, 4, 2))
    assert resize_bilinear_array(data, 3, 4) is data


def test_resize_array_matches_reference_in_float64():
    rng = np.random.default_rng(23)
    for _ in range(10):
        h, w, d = rng.integers(1, 9, size=3)
        oh, ow = rng.integers(1, 13, size=2)
        data = rng.standard_normal((h, w, d))
        out = resize_bilinear_array(data, int(oh), int(ow))
        ref = oracle.bilinear(data, int(oh), int(ow))
        assert np.abs(out - ref).max() < 1e-14


def test_resize_matches_reference_on_random_grids():
    # float32 input, as features arrive from a grid, is resampled in float64
    rng = np.random.default_rng(21)
    for _ in range(10):
        h, w, d = rng.integers(1, 9, size=3)
        oh, ow = rng.integers(1, 13, size=2)
        data = rng.standard_normal((h, w, d)).astype(np.float32)
        out = resize_bilinear_array(data, int(oh), int(ow))
        ref = oracle.bilinear(data.astype(np.float64), int(oh), int(ow))
        assert np.abs(out - ref).max() < 1e-14


def test_resize_range_bounded_per_channel():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, 6, 3))
    out = resize_bilinear_array(data, 9, 11)
    for c in range(3):
        assert out[:, :, c].min() >= data[:, :, c].min() - 1e-12
        assert out[:, :, c].max() <= data[:, :, c].max() + 1e-12


def test_resize_linearity():
    rng = np.random.default_rng(9)
    g1 = rng.standard_normal((5, 4, 2))
    g2 = rng.standard_normal((5, 4, 2))
    a, b = 0.7, -1.3
    lhs = resize_bilinear_array(a * g1 + b * g2, 8, 9)
    r1 = resize_bilinear_array(g1, 8, 9)
    r2 = resize_bilinear_array(g2, 8, 9)
    assert np.allclose(lhs, a * r1 + b * r2, atol=1e-12)
