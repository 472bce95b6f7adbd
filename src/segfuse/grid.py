"""Dense grid containers, CFT1 tensor file I/O and bilinear resampling.

CFT1 file layout (little-endian):

    magic    4 bytes   b"CFT1"
    dtype    u8        1 = float32, 2 = uint32
    ndim     u8        2 or 3
    extents  ndim*u32
    payload  prod(extents) scalars, row-major, channel-fastest

Grids are treated as immutable after construction; every operation returns a
fresh grid.  Interpolation weights and blends are computed in float64 and
rounded to float32 once, at the output.

A regular file's payload is read straight into the array that is returned,
and a saved array is written from its own memory, so neither direction makes
a full-size copy.  `_tile_rows` is the row-tile height that the prior and
fusion kernels and scene generation share, and `_all_finite` is the one
NaN/Inf check.
"""
from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TensorFormatError

MAGIC = b"CFT1"
DTYPE_F32 = 1
DTYPE_U32 = 2

_DTYPE_NP = {DTYPE_F32: np.dtype("<f4"), DTYPE_U32: np.dtype("<u4")}
# Read size for inputs without a file size, such as pipes and FIFOs, and the
# slice size of the finiteness check.
_STREAM_CHUNK = 1 << 20
# Budget for the working arrays of one row tile of a kernel.  Small tiles
# keep the working set in cache; a tile never goes below one row.
_TILE_BYTES = 1 << 20


def _tile_rows(height: int, row_bytes: int) -> int:
    """Rows per tile of `row_bytes` working bytes per row; a function of the shape only."""
    return max(1, min(height, _TILE_BYTES // row_bytes))


def _all_finite(arr: np.ndarray) -> bool:
    """True if arr holds no NaN or Inf; min and max propagate NaN, so it fails too."""
    return arr.size == 0 or bool(arr.min() > -np.inf and arr.max() < np.inf)


@dataclass
class DenseGrid:
    """Float32 scalar field with 2 (H x W) or 3 (H x W x C) axes."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=np.float32)
        if arr.ndim not in (2, 3):
            raise ShapeError(f"grid needs 2 or 3 axes, got {arr.ndim}")
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"grid extents must be >= 1, got {arr.shape}")
        self.data = arr

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2] if self.data.ndim == 3 else 1


@dataclass
class LabelMap:
    """Per-pixel class indices (uint32, H x W)."""

    data: np.ndarray
    background_index: int | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=np.uint32)
        if arr.ndim != 2:
            raise ShapeError(f"label map needs 2 axes, got {arr.ndim}")
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"label map extents must be >= 1, got {arr.shape}")
        self.data = arr

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape


def _read_header(f, path, want_dtype):
    head = f.read(6)
    if len(head) < 6 or head[:4] != MAGIC:
        raise TensorFormatError("bad_magic", f"{path}: not a CFT1 file")
    dtype_code, ndim = head[4], head[5]
    if dtype_code != want_dtype:
        raise TensorFormatError(
            "bad_dtype", f"{path}: dtype code {dtype_code}, expected {want_dtype}")
    if ndim not in (2, 3):
        raise TensorFormatError("bad_ndim", f"{path}: ndim {ndim}, expected 2 or 3")
    raw = f.read(4 * ndim)
    if len(raw) < 4 * ndim:
        raise TensorFormatError("payload_truncated", f"{path}: header cut short")
    extents = struct.unpack("<" + "I" * ndim, raw)
    if any(e == 0 for e in extents):
        raise TensorFormatError("bad_extent", f"{path}: zero extent in {extents}")
    return extents


def _check_payload_size(path, got, size):
    if got < size:
        raise TensorFormatError(
            "payload_truncated",
            f"{path}: payload has {got} bytes, header promises {size}")


def _read_payload(f, path, extents, np_dtype):
    size = math.prod(extents) * np_dtype.itemsize
    # A forged header must not make the reader allocate what it claims.  A
    # regular file's size is checked before the payload is read into the
    # array that is returned; a pipe has no size, so it is read in bounded
    # chunks and memory grows only with the bytes that actually arrive.
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        _check_payload_size(path, st.st_size - f.tell(), size)
        arr = np.empty(extents, dtype=np_dtype)
        # The file can still be shorter than its size said a moment ago.
        _check_payload_size(path, f.readinto(memoryview(arr).cast("B")), size)
    else:
        buf = bytearray()
        while len(buf) < size:
            chunk = f.read(min(_STREAM_CHUNK, size - len(buf)))
            if not chunk:
                break
            buf += chunk
        _check_payload_size(path, len(buf), size)
        arr = np.frombuffer(buf, dtype=np_dtype).reshape(extents)
    if f.read(1):
        raise TensorFormatError("payload_excess", f"{path}: trailing bytes after payload")
    return arr


def _write_file(path, dtype_code, arr):
    header = MAGIC + struct.pack("<BB", dtype_code, arr.ndim)
    header += struct.pack("<" + "I" * arr.ndim, *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_NP[dtype_code])
    with open(path, "wb") as f:
        f.write(header)
        f.write(memoryview(payload).cast("B"))


def load_grid(path) -> DenseGrid:
    """Read a float32 CFT1 tensor; rejects non-finite payloads."""
    with open(path, "rb") as f:
        extents = _read_header(f, path, DTYPE_F32)
        arr = _read_payload(f, path, extents, _DTYPE_NP[DTYPE_F32])
    flat = arr.reshape(-1)
    step = _STREAM_CHUNK // flat.itemsize
    for start in range(0, flat.size, step):
        if not _all_finite(flat[start:start + step]):
            raise TensorFormatError("nonfinite_values", f"{path}: payload has NaN/Inf")
    return DenseGrid(arr)


def save_grid(grid: DenseGrid, path) -> None:
    _write_file(path, DTYPE_F32, grid.data)


def load_label_map(path) -> LabelMap:
    """Read a uint32 CFT1 label map (2 axes)."""
    with open(path, "rb") as f:
        extents = _read_header(f, path, DTYPE_U32)
        if len(extents) != 2:
            raise TensorFormatError("bad_ndim", f"{path}: label map must have 2 axes")
        arr = _read_payload(f, path, extents, _DTYPE_NP[DTYPE_U32])
    return LabelMap(arr)


def save_label_map(labels: LabelMap, path) -> None:
    _write_file(path, DTYPE_U32, labels.data)


def bilinear_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-pixel-center bilinear taps along one axis: (i0, i1, frac).

    Output index i samples source coordinate (i + 0.5) * n_in / n_out - 0.5,
    clamped to [0, n_in - 1]; it blends sources i0 and i1 = min(i0 + 1,
    n_in - 1) with weight frac on i1.
    """
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    return i0, np.minimum(i0 + 1, n_in - 1), pos - i0


def interpolate_axis(src: np.ndarray, taps, axis: int) -> np.ndarray:
    """Blend src along one axis with `bilinear_taps` output (or a slice of it)."""
    i0, i1, frac = taps
    frac = frac.reshape((-1,) + (1,) * (src.ndim - axis - 1))
    out = np.take(src, i0, axis=axis)
    out *= 1.0 - frac
    far = np.take(src, i1, axis=axis)
    far *= frac
    out += far
    return out

