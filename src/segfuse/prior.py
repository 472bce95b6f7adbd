"""Similarity maps, synonym aggregation and the cross-class log prior.

The per-pixel pipeline is: unit-normalize dense features, resize them to the
evidence resolution, unit-normalize again, dot them against every synonym
embedding, pool each class's synonym scores, then log-softmax across classes.
All arithmetic runs in float64 and is rounded to float32 once, at the grid
boundary; log-domain reductions use max subtraction so large-magnitude inputs
stay finite.

Resize and dot product are both linear, so the kernel computes them in the
cheaper order: the dot products run at feature resolution, and the N
similarity maps are resized instead of the D-wide features.  The
re-normalization after the resize divides each similarity by the exact norm
of the resized feature vector, which comes from neighbour Gram maps made
once at feature resolution: dot products of each feature vector with itself
and its right and lower neighbours, and across both diagonals of each 2x2
block, into one out_h x out_w array per call.  An axis whose size does not
change is not interpolated.

The similarities are made at feature resolution, in blocks of source rows
that each run one BLAS call per source row, as one whole product would.
Their columns are then put in synonym-major order and the synonym axis
first: the classes with m synonyms form m slabs, slab j holding synonym j
of each, so pooling is elementwise over whole contiguous slabs, and one
gather per tile puts the classes back in order.  Tiles of output rows only
blend, divide and pool, so no resized array exists at full resolution;
`pooled_scores` runs the same tiles as `build_prior`, pools each tile once
for every mode it is given, and stops before the log-softmax, so several
modes share one similarity build.  The product blocks and then the tiles
run on one pool of up to `threads` threads, with numpy's OpenBLAS held at
one thread for the whole call, so no BLAS thread competes with the pool.
The finished tiles go to one sink in row order:
`build_prior` and `pooled_scores` fill arrays, and the `prior` command
writes each tile to its output file, so it never holds the log prior.  At
most `2 * threads` finished tiles wait for the sink.  `_row_tiles` cuts the
blocks and tiles from the shapes alone, each product row is one
single-threaded BLAS call, and all work after the products is elementwise
per output pixel, so the output bytes depend on neither the tile height nor
the thread count, of the pool or of BLAS.
"""
from __future__ import annotations

import collections
import contextlib
import ctypes
import glob
import itertools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingStore, _check_class_counts
from .errors import SegfuseError, check_choice
from .grid import (DenseGrid, _all_finite, _row_tiles, _write_rows, bilinear_taps,
                   interpolate_axis)
from .prompts import PromptBank

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.10

AGGREGATION_KINDS = ("lse", "average", "max")
NORMALIZE_ORDERS = ("before", "after", "both")
# Cosines lie in [-1, 1], so |log prior| <= 2 / tau_s + ln(m_c) + ln C,
# which rounds to a finite float32 for any tau_s at or above this.
MIN_TAU = 2.0 / float(np.finfo(np.float32).max)


def check_tau_s(value: float) -> None:
    """The one check on a pooling temperature: finite and >= MIN_TAU.

    NaN fails too.  An infinite temperature would pool every class to
    log(m_c), whatever the features say.
    """
    if not MIN_TAU <= value < math.inf:
        raise SegfuseError("bad_tau_s", f"tau_s must be finite and >= {MIN_TAU:.6g} "
                                        f"(2 / float32 max), got {value}")


def check_normalize_order(value: str) -> None:
    """The one check on a normalization order: one of NORMALIZE_ORDERS."""
    check_choice("bad_normalize_order", "normalize_order", value, NORMALIZE_ORDERS)


def check_threads(value: int) -> None:
    """The one check on a worker-thread count: at least 1."""
    if value < 1:
        raise SegfuseError("bad_threads", f"threads must be >= 1, got {value}")


@dataclass(frozen=True)
class Aggregation:
    """Synonym pooling rule; only the lse variant carries a temperature."""

    kind: str
    tau_s: float = DEFAULT_TAU

    def __post_init__(self):
        check_choice("bad_aggregation", "aggregation", self.kind, AGGREGATION_KINDS)
        if self.kind == "lse":
            check_tau_s(self.tau_s)
        else:  # average and max ignore `tau_s`, so they compare equal
            object.__setattr__(self, "tau_s", DEFAULT_TAU)


def normalize_pixels_array(feats: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit-normalize each vector along the last axis of a float64 copy.

    Zero-norm pixels map to the zero vector (similarity 0 to everything) and
    are counted rather than rejected; padded regions produce them routinely.
    The copy is normalized in place over bounded row blocks, so the only
    full-size array is the one returned.
    """
    feats = np.array(feats, dtype=np.float64)
    rows = feats.reshape(-1, feats.shape[-1])
    zero_pixels = 0
    for tile in _row_tiles(rows.shape[0], rows.shape[1] * 8):
        block = rows[tile]
        norms = np.sqrt((block * block).sum(axis=-1))
        zero = norms == 0.0
        block /= np.where(zero, 1.0, norms)[:, None]
        zero_pixels += int(zero.sum())
    return feats, zero_pixels


def _synonym_major(offsets) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The synonym-major column order of a store: (groups, columns, positions).

    Classes are grouped by synonym count, in the order the counts first
    appear.  A group of k classes with m synonyms each takes the next m * k
    columns as m slabs of k: slab j holds synonym j of each of its classes,
    in class order.  `groups` lists (k, m) per group, `columns[i]` is the
    store column at permuted column i, and `positions[c]` is where class c
    lands when the groups' pooled scores are laid side by side.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for ci, (start, count) in enumerate(offsets):
        groups.setdefault(count, []).append((ci, start))
    columns = [start + j for count, members in groups.items()
               for j in range(count) for _, start in members]
    order = [ci for members in groups.values() for ci, _ in members]
    return ([(len(members), count) for count, members in groups.items()],
            np.array(columns, dtype=np.intp), np.argsort(order))


def _sum_in_reduce_order(terms, n: int) -> np.ndarray:
    """Elementwise sum of the next `n` arrays of the iterator `terms`.

    The terms are added in the order numpy's `add.reduce` adds an axis of
    length n, so the bits are those of that reduction: in turn below 8
    terms, else into 8 running sums joined pairwise, halving first above
    128.  No term is written to; one term alone is returned as it is.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_in_reduce_order(terms, half) + _sum_in_reduce_order(terms, n - half)
    if n < 8:
        total = next(terms)
        if n > 1:
            total = total + next(terms)
            for term in itertools.islice(terms, n - 2):
                total += term
        return total
    r = list(itertools.islice(terms, 8))
    for _ in range(n // 8 - 1):
        r = [acc + term for acc, term in zip(r, itertools.islice(terms, 8))]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in itertools.islice(terms, n % 8):
        total += term
    return total


def _pool_tile(sims: np.ndarray, groups, positions: np.ndarray,
               mode: Aggregation, overwrite: bool) -> np.ndarray:
    """Pool synonym-major (N, ...) scores into class-order (..., C) scores.

    Each group of k classes with m synonyms is m slabs of k planes, and it
    is pooled elementwise over its slabs, in synonym order: the max, the
    mean, or the max-shifted log-sum-exp at temperature tau_s.  That gives
    the bits of reducing each class's own m scores along an axis.  The
    groups' scores are stacked, then gathered into class order, with the
    class axis last, once.  `sims` is only read, unless `overwrite` lets
    the lse scaling reuse it.
    """
    if mode.kind == "lse":
        sims = np.divide(sims, mode.tau_s, out=sims if overwrite else None)
    lead = sims.shape[1:]
    peak = np.empty((len(positions),) + lead)
    pooled = peak if mode.kind == "max" else np.empty_like(peak)
    col = pos = 0
    for k, m in groups:
        slabs = sims[col:col + m * k].reshape((m, k) + lead)
        np.maximum.reduce(slabs, axis=0, out=peak[pos:pos + k])
        if mode.kind == "lse":  # `slabs` view the scaled scores: ours to write
            slabs -= peak[pos:pos + k]
            np.exp(slabs, out=slabs)
            np.log(_sum_in_reduce_order(iter(slabs), m), out=pooled[pos:pos + k])
        elif mode.kind == "average":
            # The reduction starts from +0.0, so a sum of -0.0 reads +0.0.
            np.add(_sum_in_reduce_order(iter(slabs), m), 0.0,
                   out=pooled[pos:pos + k])
            pooled[pos:pos + k] /= m
        col, pos = col + m * k, pos + k
    if mode.kind == "lse":
        pooled += peak
    out = np.empty(lead + (len(positions),))
    out[...] = np.moveaxis(np.take(pooled, positions, axis=0), 0, -1)
    return out


def log_prior_array(u: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (class) axis, never materializing the softmax.

    One buffer holds the shifted scores, then their exponentials, then the
    result; `u` is not written.
    """
    u = np.asarray(u, dtype=np.float64)
    peak = u.max(axis=-1, keepdims=True)
    out = np.subtract(u, peak)
    lse = np.exp(out, out=out).sum(axis=-1, keepdims=True)
    np.log(lse, out=lse)
    lse += peak
    return np.subtract(u, lse, out=out)


def _check_prior_inputs(features: DenseGrid, store: EmbeddingStore,
                        out_h: int, out_w: int, normalize_order: str,
                        threads: int) -> None:
    check_normalize_order(normalize_order)
    check_threads(threads)
    if features.data.ndim != 3:
        raise SegfuseError("dim_mismatch", "features need 3 axes (H, W, D)")
    if features.channels != store.dim:
        raise SegfuseError("dim_mismatch", f"feature dim {features.channels} "
                                           f"!= embedding dim {store.dim}")
    if out_h < 1 or out_w < 1:
        raise SegfuseError("shape_mismatch",
                           f"target dims must be >= 1, got {out_h}x{out_w}")
    if not _all_finite(features.data):
        raise SegfuseError("nonfinite_values", "features hold NaN or Inf")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel dot products of two (H, W, D) arrays."""
    return np.einsum("ijk,ijk->ij", a, b)


def _resized_norms(src: np.ndarray, taps_y, taps_x, identity_y: bool,
                   identity_x: bool) -> np.ndarray:
    """The (out_h, out_w) exact norms of the resized feature vectors.

    A resized vector is a tap-weighted sum of at most four source vectors, so
    its squared norm is a weighted sum of their dot products.  These come
    from neighbour Gram maps at feature resolution, taken on views of `src`:
    self, right, down, and down-right plus right x down (always weighted
    alike, so kept as one sum).  They are blended along x into `same[y]`, the
    squared norm of row y's x-blend, and `pair[y]`, twice the dot product of
    the x-blends of rows y and y + 1, which are then blended along y.
    """
    self_dots = _dots(src, src)
    # A second tap has weight 0 where it clamps at the last row or column and
    # on an identity axis, so the maps only such taps read stay 0.
    down = np.zeros_like(self_dots)
    if not identity_y:
        down[:-1] = _dots(src[:-1], src[1:])
    if identity_x:  # the x-blend of a map is the map itself
        same, pair = self_dots, 2.0 * down
    else:
        right, diagonals = np.zeros_like(self_dots), np.zeros_like(self_dots)
        right[:, :-1] = _dots(src[:, :-1], src[:, 1:])
        if not identity_y:
            diagonals[:-1, :-1] = (_dots(src[:-1, :-1], src[1:, 1:])
                                   + _dots(src[:-1, 1:], src[1:, :-1]))
        x0, x1, fx = taps_x
        a, b = 1.0 - fx, fx
        same = a * a * self_dots[:, x0] + b * b * self_dots[:, x1] \
            + 2.0 * a * b * right[:, x0]
        pair = 2.0 * (a * a * down[:, x0] + b * b * down[:, x1]
                      + a * b * diagonals[:, x0])
    y0, y1, fy = taps_y
    c, d = (1.0 - fy)[:, None], fy[:, None]
    norms = c * c * same[y0]  # summed in place: fewer full-size temporaries
    norms += d * d * same[y1]
    norms += c * d * pair[y0]
    # Rounding can take a vanishing norm below zero; a pixel whose taps hold
    # only zero vectors gets exactly 0.
    return np.sqrt(np.maximum(norms, 0.0, out=norms), out=norms)


# numpy's bundled OpenBLAS, whose thread count `_one_blas_thread` controls.
_OPENBLAS = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                         "libscipy_openblas64_*.so")


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread.

    The count is process-global: it is set when the block starts and the
    caller's count is restored when it ends, however it ends.  Where the
    library or one of its two thread-count symbols is missing, this does
    nothing.
    """
    try:
        blas = ctypes.CDLL(glob.glob(_OPENBLAS)[0])
        get_threads = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        yield
        return
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _map_in_order(fn, items, pool, workers: int, consume) -> None:
    """Call `consume(item, fn(item))` for each item in order.

    `fn` runs on `pool`, an executor of `workers` threads, even one, and
    `consume` on the calling thread.  At most `2 * workers` items are
    submitted but not yet consumed, so a slow consumer holds the pool back
    instead of letting results pile up.  If `fn` or `consume` fails, the
    items not yet started are cancelled before the error propagates; the
    caller's `with` block on the pool then joins it.
    """
    items = iter(items)
    pending = collections.deque(
        (item, pool.submit(fn, item))
        for item in itertools.islice(items, 2 * workers))
    try:
        while pending:
            item, future = pending.popleft()
            consume(item, future.result())
            for later in itertools.islice(items, 1):
                pending.append((later, pool.submit(fn, later)))
    finally:
        for _, future in pending:
            future.cancel()


def _tiled_kernel(features: DenseGrid, store: EmbeddingStore,
                  modes: tuple[Aggregation, ...], out_h: int, out_w: int,
                  normalize_order: str, threads: int, dtype, finish,
                  sink=None) -> list[np.ndarray] | None:
    """`finish(pooled scores)` as `dtype` for each of `modes`, over tiles of
    whole output rows.

    This is the one kernel behind `build_prior`, `pooled_scores` and the
    `prior` command.  It makes the (out_h, out_w) float64 norms of the
    resized feature vectors once, and logs how many are zero.  The
    similarities are then made at feature resolution in blocks of source
    rows, and each row tile is one call that only blends and divides its
    rows once, then pools and finishes them once per mode.  Blocks and tiles
    run on one pool of up to `threads` workers, with BLAS at one thread for
    the whole call.  The finished tiles go to `sink(rows, values)` in row
    order, `values` holding one array per mode, and the kernel returns None.
    Without a sink each tile fills its own rows of one (out_h, out_w, C)
    array per mode, allocated once the features are no longer needed, so no
    finished tile waits, and the kernel returns those arrays.
    """
    with _one_blas_thread():
        zero_pixels = 0
        if normalize_order in ("before", "both"):
            src, zero_pixels = normalize_pixels_array(features.data)
        else:
            src = features.data.astype(np.float64)
        identity_y, identity_x = out_h == features.height, out_w == features.width
        taps_y = bilinear_taps(features.height, out_h)
        taps_x = bilinear_taps(features.width, out_w)
        divisor = None
        if normalize_order in ("after", "both"):
            divisor = _resized_norms(src, taps_y, taps_x, identity_y, identity_x)
            zero_pixels += int(np.count_nonzero(divisor == 0.0))
            divisor[divisor == 0.0] = 1.0  # a zero vector stays zero

        groups, columns, positions = _synonym_major(store.offsets)
        vectors_t = store.vectors.astype(np.float64).T
        # (N, in_h, in_w) similarities at feature resolution, synonym-major
        # along the first axis.  Each block of source rows is one BLAS product
        # per row, as the whole product would be, on the tiles' pool; its
        # columns are permuted only afterwards, since permuting `vectors_t`
        # first changes product bits.
        sims_src = np.empty((store.num_vectors,) + src.shape[:2])

        def product(rows: slice) -> None:
            sims_src[:, rows] = np.moveaxis(src[rows] @ vectors_t, -1, 0)[columns]

        def tile(rows: slice) -> list[np.ndarray]:
            sims = (sims_src[:, rows] if identity_y else interpolate_axis(
                sims_src, tuple(t[rows] for t in taps_y), axis=1))
            if not identity_x:
                sims = interpolate_axis(sims, taps_x, axis=2)
            if divisor is not None:
                # On an identity grid `sims` is a view of `sims_src`.  Writing
                # it in place is safe: no other tile reads these rows.
                sims /= divisor[rows]
            values = []
            for i, mode in enumerate(modes):
                # Only the last mode may overwrite `sims`, so every mode pools
                # the same scores.
                value = finish(_pool_tile(sims, groups, positions, mode,
                                          i == len(modes) - 1)).astype(
                                              dtype, copy=False)
                if out is None:
                    values.append(value)
                else:
                    out[i][rows] = value
            return values

        # The budgets cover the float64 similarities of one row: source rows
        # for the product blocks, output rows for the tiles.
        blocks = _row_tiles(features.height,
                            features.width * store.num_vectors * 8)
        tiles = _row_tiles(out_h, out_w * store.num_vectors * 8)
        workers = min(threads, max(len(blocks), len(tiles)))
        with ThreadPoolExecutor(workers) as pool:
            _map_in_order(product, blocks, pool, workers, lambda rows, _: None)
            del src
            out = None
            if sink is None:
                out = [np.empty((out_h, out_w, store.num_classes), dtype=dtype)
                       for _ in modes]

                def sink(rows, values):
                    pass

            _map_in_order(tile, tiles, pool, workers, sink)
    if zero_pixels:
        logger.warning("%d zero-norm feature pixels mapped to the zero vector",
                       zero_pixels)
    return out


def build_prior(features: DenseGrid, store: EmbeddingStore, bank: PromptBank,
                mode: Aggregation, out_h: int, out_w: int, *,
                normalize_order: str = "both", threads: int = 1) -> DenseGrid:
    """Full semantic-prior pipeline for one image: the float32 log prior.

    Features are unit-normalized, bilinearly resized to out_h x out_w (the
    structural evidence resolution), matched against every synonym embedding,
    pooled per class with `mode`, and cross-class normalized.
    `normalize_order` picks whether pixel normalization happens before the
    resize, after it, or both (interpolated vectors shrink below unit norm,
    so the default re-normalizes).  The similarities are computed at feature
    resolution and then resized, and the re-normalization divides them by
    the exact norm of each resized feature vector, taken from neighbour Gram
    maps; the result equals the resize-first order up to float64 rounding.
    Up to `threads` row tiles run at once; the output bytes never depend on
    it.  During the call numpy's OpenBLAS runs at one thread, and that
    setting is process-global: numpy on the caller's other threads gets
    one-thread BLAS until the call returns.  `bank` is only checked against
    the store's class count.
    """
    _check_class_counts(store=store.num_classes, bank=bank.num_classes)
    _check_prior_inputs(features, store, out_h, out_w, normalize_order, threads)
    log_prior, = _tiled_kernel(features, store, (mode,), out_h, out_w,
                               normalize_order, threads, np.float32,
                               log_prior_array)
    return DenseGrid(log_prior)


def pooled_scores(features: DenseGrid, store: EmbeddingStore,
                  modes: Sequence[Aggregation], out_h: int, out_w: int, *,
                  normalize_order: str = "both",
                  threads: int = 1) -> list[np.ndarray]:
    """Float64 (out_h, out_w, C) pooled class scores before the log-softmax,
    one array per mode of `modes`, in order.

    Same inputs but the bank, kernel and `threads` as `build_prior`, and
    the same process-global one-thread BLAS during the call.  The
    similarities are built once and pooled once per mode.  A class's pooled
    score depends only on its own synonyms, so a caller comparing class
    subsets slices columns of one full array and log-softmaxes each slice.
    """
    _check_prior_inputs(features, store, out_h, out_w, normalize_order, threads)
    return _tiled_kernel(features, store, tuple(modes), out_h, out_w,
                         normalize_order, threads, np.float64,
                         lambda pooled: pooled)


def _write_prior(features: DenseGrid, store: EmbeddingStore,
                 mode: Aggregation, out_h: int, out_w: int, path, *,
                 normalize_order: str, threads: int) -> None:
    """`save_grid(build_prior(...), path)`, writing each tile as it is finished.

    The output is opened, and checked against the free space of its file
    system, before any similarity is computed, and the whole log prior is
    never held.
    """
    _check_prior_inputs(features, store, out_h, out_w, normalize_order, threads)
    with _write_rows(path, DenseGrid, (out_h, out_w, store.num_classes)) as write:
        _tiled_kernel(features, store, (mode,), out_h, out_w, normalize_order,
                      threads, np.float32, log_prior_array,
                      lambda rows, values: write(values[0]))
