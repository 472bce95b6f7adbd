"""Dense grid containers, CFT1 tensor file I/O and bilinear resampling.

CFT1 file layout (little-endian):

    magic    4 bytes   b"CFT1"
    dtype    u8        1 = float32, 2 = uint32
    ndim     u8        2 or 3 for float32, 2 for uint32
    extents  ndim*u32
    payload  prod(extents) scalars, row-major, channel-fastest

Grids are treated as immutable after construction; every operation returns a
fresh grid.  Interpolation weights and blends are computed in float64 and
rounded to float32 once, at the output.

CFT1 payloads are read and written in blocks of whole rows, so a command can
stream a grid through a kernel without holding it.  `_read_rows` parses the
header once and then reads the rows in order, checking finiteness block by
block; `_write_rows` writes the header and then the rows in order.  A load
or a save is the one-block case of these, read straight into the array that
is returned or written from the array's own memory, so there is one read
path and one write path, and neither makes a full-size copy.  A failed
write removes its output if that is a regular file.  `_row_tiles` is the
one row tiling, which every blocked loop walks, and `_all_finite` is the
one NaN/Inf check.
"""
from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SegfuseError

MAGIC = b"CFT1"
# Largest extent a u32 header field holds.
_MAX_EXTENT = 2**32 - 1

# Read size for inputs without a file size, such as pipes and FIFOs.
_STREAM_CHUNK = 1 << 20
# Budget for the working arrays of one row tile of a kernel.  Small tiles
# keep the working set in cache; a tile never goes below one row.
_TILE_BYTES = 1 << 20


def _row_tiles(height: int, row_bytes: int) -> list[slice]:
    """In-order row slices covering 0..height; a function of the shape only."""
    step = max(1, min(height, _TILE_BYTES // row_bytes))  # rows per tile
    return [slice(r0, min(r0 + step, height)) for r0 in range(0, height, step)]


def _all_finite(arr: np.ndarray) -> bool:
    """True if arr holds no NaN or Inf; min and max propagate NaN, so it fails too."""
    return arr.size == 0 or bool(arr.min() > -np.inf and arr.max() < np.inf)


class _Record:
    """The one rule of a CFT1 record type, on its arrays and its file headers.

    A subclass sets its CFT1 dtype `code`, numpy `dtype`, allowed axis
    counts `ndims` and the `noun` of its messages.
    """

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=self.dtype)
        if arr.ndim not in self.ndims:
            raise SegfuseError("shape_mismatch",
                               f"{self.noun} needs {_axis_counts(self)} axes, "
                               f"got {arr.ndim}")
        if any(e < 1 for e in arr.shape):
            raise SegfuseError("shape_mismatch",
                               f"{self.noun} extents must be >= 1, got {arr.shape}")
        self.data = arr

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape


def _axis_counts(record) -> str:
    return " or ".join(str(n) for n in record.ndims)


@dataclass
class DenseGrid(_Record):
    """Float32 scalar field with 2 (H x W) or 3 (H x W x C) axes."""

    data: np.ndarray
    code, dtype, ndims, noun = 1, np.dtype("<f4"), (2, 3), "grid"

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2] if self.data.ndim == 3 else 1


# Largest label a uint32 `LabelMap` holds.
_MAX_LABEL = 2**32 - 1


@dataclass
class LabelMap(_Record):
    """Per-pixel class indices (uint32, H x W)."""

    data: np.ndarray
    code, dtype, ndims, noun = 2, np.dtype("<u4"), (2,), "label map"


def _read_header(f, path, record):
    head = f.read(6)
    if len(head) < 6 or head[:4] != MAGIC:
        raise SegfuseError("bad_magic", f"{path}: not a CFT1 file")
    dtype_code, ndim = head[4], head[5]
    if dtype_code != record.code:
        raise SegfuseError(
            "bad_dtype", f"{path}: dtype code {dtype_code}, expected {record.code}")
    if ndim not in record.ndims:
        raise SegfuseError(
            "bad_ndim", f"{path}: ndim {ndim}, expected {_axis_counts(record)}")
    raw = f.read(4 * ndim)
    if len(raw) < 4 * ndim:
        raise SegfuseError("payload_truncated", f"{path}: header cut short")
    extents = struct.unpack("<" + "I" * ndim, raw)
    if any(e == 0 for e in extents):
        raise SegfuseError("bad_extent", f"{path}: zero extent in {extents}")
    return extents


def _payload_truncated(path, got, size):
    return SegfuseError(
        "payload_truncated", f"{path}: payload has {got} bytes, header promises {size}")


def _payload_excess(path):
    return SegfuseError("payload_excess", f"{path}: trailing bytes after payload")


class _RowReader:
    """The payload of one open CFT1 file, read in order in blocks of whole rows.

    The header is parsed on construction.  A forged header must not make the
    reader allocate what it claims: a regular file's size is checked against
    the header here, before any row is read, and each block is read straight
    into the array that is returned.  A pipe or FIFO has no size, so a block
    is read in bounded chunks and memory grows only with the bytes that
    actually arrive.  Float rows are checked for NaN/Inf block by block, and
    the read of the last row checks that nothing follows it.
    """

    def __init__(self, f, path, record):
        self._f, self._path = f, path
        self.extents = _read_header(f, path, record)
        self._dtype = record.dtype
        self._size = math.prod(self.extents) * self._dtype.itemsize
        self._got = 0
        self._rows_left = self.extents[0]
        st = os.fstat(f.fileno())
        self._sized = stat.S_ISREG(st.st_mode)
        if self._sized:
            left = st.st_size - f.tell()
            if left < self._size:
                raise _payload_truncated(path, left, self._size)
            if left > self._size:
                raise _payload_excess(path)

    def read(self, n: int) -> np.ndarray:
        """The next `n` rows, as a writable C-contiguous array."""
        shape = (n,) + self.extents[1:]
        nbytes = math.prod(shape) * self._dtype.itemsize
        if self._sized:
            arr = np.empty(shape, dtype=self._dtype)
            # The file can still be shorter than its size said on open.
            got = self._f.readinto(memoryview(arr).cast("B"))
        else:
            buf = bytearray()
            while len(buf) < nbytes:
                chunk = self._f.read(min(_STREAM_CHUNK, nbytes - len(buf)))
                if not chunk:
                    break
                buf += chunk
            got = len(buf)
        self._got += got
        if got < nbytes:
            raise _payload_truncated(self._path, self._got, self._size)
        if not self._sized:
            arr = np.frombuffer(buf, dtype=self._dtype).reshape(shape)
        if self._dtype.kind == "f" and not _all_finite(arr):
            raise SegfuseError("nonfinite_values",
                               f"{self._path}: payload has NaN/Inf")
        self._rows_left -= n
        if self._rows_left == 0 and self._f.read(1):
            raise _payload_excess(self._path)
        return arr


@contextlib.contextmanager
def _read_rows(path, record):
    """A `_RowReader` over the CFT1 file of record type `record` at `path`."""
    with open(path, "rb") as f:
        yield _RowReader(f, path, record)


def _check_extents(path, extents):
    """Refuse extents that a CFT1 header cannot hold."""
    if max(extents) > _MAX_EXTENT:
        raise SegfuseError(
            "bad_extent", f"{path}: extent above {_MAX_EXTENT} in {tuple(extents)}")


@contextlib.contextmanager
def _write_rows(path, record, extents):
    """Yield `write(rows)`, which appends blocks of whole rows after the header.

    The caller writes the rows in order.  A regular output whose size exceeds
    the free space of its file system fails with `insufficient_space` before
    any row is written.  If anything fails before the `with` block ends, the
    output is removed when it is a regular file, so a failed write leaves no
    partial file behind.
    """
    _check_extents(path, extents)
    header = MAGIC + struct.pack("<BB", record.code, len(extents))
    header += struct.pack("<" + "I" * len(extents), *extents)
    size = len(header) + math.prod(extents) * record.dtype.itemsize
    created = None
    try:
        with open(path, "wb") as f:
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                created = (st.st_dev, st.st_ino)
                fs = os.fstatvfs(f.fileno())
                free = fs.f_bavail * fs.f_frsize
                if size > free:
                    raise SegfuseError(
                        "insufficient_space",
                        f"{path}: needs {size} bytes, its file system has "
                        f"{free} free")
            f.write(header)
            yield lambda rows: f.write(
                memoryview(np.ascontiguousarray(rows, dtype=record.dtype)).cast("B"))
    except BaseException:
        # Only the regular file opened here is removed: never a FIFO, a
        # device or a symlink such as /dev/stdout.
        with contextlib.suppress(OSError):
            st = os.lstat(path)
            if stat.S_ISREG(st.st_mode) and (st.st_dev, st.st_ino) == created:
                os.unlink(path)
        raise


def load_grid(path) -> DenseGrid:
    """Read a float32 CFT1 tensor; rejects non-finite payloads."""
    with _read_rows(path, DenseGrid) as reader:
        return DenseGrid(reader.read(reader.extents[0]))


def save_grid(grid: DenseGrid, path) -> None:
    with _write_rows(path, DenseGrid, grid.data.shape) as write:
        write(grid.data)


def load_label_map(path) -> LabelMap:
    """Read a uint32 CFT1 label map (2 axes)."""
    with _read_rows(path, LabelMap) as reader:
        return LabelMap(reader.read(reader.extents[0]))


def save_label_map(labels: LabelMap, path) -> None:
    with _write_rows(path, LabelMap, labels.data.shape) as write:
        write(labels.data)


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

