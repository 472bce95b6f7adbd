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

The similarities are one stacked product at feature resolution, which numpy
runs as one BLAS call per source row.  Tiles of output rows then only blend,
divide and pool, so no resized array exists at full resolution;
`pooled_scores` runs the same tiles as `build_prior`, pools each tile once
for every mode it is given, and stops before the log-softmax, so several
modes share one similarity build.  Up to `threads` tiles run at once on a
thread pool, and the finished tiles go to one sink in row order:
`build_prior` and `pooled_scores` fill arrays, and the `prior` command
writes each tile to its output file, so it never holds the log prior.  At
most `2 * threads` finished tiles wait for the sink.  `_row_tiles` cuts the
tiles from the output shape alone and all work after the products is
elementwise per output pixel, so the output bytes depend on neither the tile
height nor the thread count.
"""
from __future__ import annotations

import collections
import itertools
import logging
import math
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


def _pool_in_place(u: np.ndarray, mode: Aggregation) -> np.ndarray:
    """Pool the last axis of a scratch array, overwriting it for lse."""
    if mode.kind == "average":
        return u.mean(axis=-1)
    if mode.kind == "max":
        return u.max(axis=-1)
    u /= mode.tau_s
    peak = u.max(axis=-1, keepdims=True)
    u -= peak
    np.exp(u, out=u)
    return peak[..., 0] + np.log(u.sum(axis=-1))


def _segments_by_length(offsets) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group class segments by synonym count: (class indices, (k, m) columns).

    Classes with m synonyms are pooled together as one (..., k, m) block, so
    each class still reduces its own m scores in file order.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for ci, (start, count) in enumerate(offsets):
        groups.setdefault(count, []).append((ci, start))
    return [(np.array([ci for ci, _ in members]),
             np.array([start for _, start in members])[:, None] + np.arange(count))
            for count, members in groups.items()]


def _pool_segments(sims: np.ndarray, segments, n_classes: int,
                   mode: Aggregation) -> np.ndarray:
    """Pool every class's synonym columns of (..., N) scores into (..., C)."""
    pooled = np.empty(sims.shape[:-1] + (n_classes,))
    for classes, columns in segments:
        pooled[..., classes] = _pool_in_place(sims[..., columns], mode)
    return pooled


def log_prior_array(u: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (class) axis, never materializing the softmax."""
    u = np.asarray(u, dtype=np.float64)
    peak = u.max(axis=-1, keepdims=True)
    lse = peak + np.log(np.exp(u - peak).sum(axis=-1, keepdims=True))
    return u - lse


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


def _map_in_order(fn, items, workers: int, consume) -> None:
    """Call `consume(item, fn(item))` for each item in order.

    `fn` runs on a pool of `workers` threads, even one, and `consume` on the
    calling thread.  At most `2 * workers` items are submitted but not yet
    consumed, so a slow consumer holds the pool back instead of letting
    results pile up.  If `fn` or `consume` fails, the items not yet started
    are cancelled and the pool is joined before the error propagates.
    """
    items = iter(items)
    with ThreadPoolExecutor(workers) as pool:
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
    resized feature vectors once, and logs how many are zero.  Each row tile
    is then one call that only blends and divides its rows once, then pools
    and finishes them once per mode, and up to `threads` tiles run at once.
    The finished tiles go to `sink(rows, values)` in row order, `values`
    holding one array per mode, and the kernel returns None.  Without a sink
    each tile fills its own rows of one (out_h, out_w, C) array per mode,
    allocated once the features are no longer needed, so no finished tile
    waits, and the kernel returns those arrays.
    """
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

    # (in_h, in_w, N) similarities at feature resolution, one BLAS product
    # per source row, on BLAS's own threads before any tile starts; the
    # tiles make no BLAS call.
    sims_src = src @ store.vectors.astype(np.float64).T
    del src
    segments = _segments_by_length(store.offsets)
    out = None
    if sink is None:
        out = [np.empty((out_h, out_w, store.num_classes), dtype=dtype)
               for _ in modes]

        def sink(rows, values):
            pass

    def tile(rows: slice) -> list[np.ndarray]:
        sims = (sims_src[rows] if identity_y else interpolate_axis(
            sims_src, tuple(t[rows] for t in taps_y), axis=0))
        if not identity_x:
            sims = interpolate_axis(sims, taps_x, axis=1)
        if divisor is not None:
            # On an identity grid `sims` is a view of `sims_src`.  Dividing
            # it in place is safe: no other tile reads these rows.
            sims /= divisor[rows, :, None]
        values = []
        for i, mode in enumerate(modes):
            # `_pool_segments` pools a gathered copy of the columns, so
            # `sims` is left as it is for the next mode.
            value = finish(_pool_segments(sims, segments, store.num_classes,
                                          mode)).astype(dtype, copy=False)
            if out is None:
                values.append(value)
            else:
                out[i][rows] = value
        return values

    # The tile budget covers the float64 similarities at output resolution.
    tiles = _row_tiles(out_h, out_w * store.num_vectors * 8)
    _map_in_order(tile, tiles, min(threads, len(tiles)), sink)
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
    it.  `bank` is only checked against the store's class count.
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

    Same inputs but the bank, kernel and `threads` as `build_prior`.  The
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
