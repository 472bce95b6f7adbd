"""Similarity maps, synonym aggregation and the cross-class log prior.

The per-pixel pipeline is: unit-normalize dense features, resize them to the
evidence resolution, dot them against every synonym embedding, pool each
class's synonym scores, then log-softmax across classes.  All arithmetic runs
in float64 and is rounded to float32 once, at the grid boundary; log-domain
reductions use max subtraction so large-magnitude inputs stay finite.

`build_prior` runs the pipeline over tiles of output rows, so the resized
features and the similarity tensor never exist at full resolution;
`pooled_scores` runs the same tiles and stops before the log-softmax.  The tile
height comes from the output shape alone.  Every similarity product is one
BLAS call per output row, whatever the tile height: OpenBLAS gives a row of
a taller product different last bits, so per-row calls are what keep the
output bytes independent of the tile height.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingStore
from .errors import SegfuseError, ShapeError
from .grid import DenseGrid, bilinear_taps, interpolate_axis
from .prompts import PromptBank

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.10
# Budget for one tile row-block of the largest float64 intermediate
# (out_w * max(D, N) * 8 bytes per output row).  Small tiles keep the working
# set in cache; the tile never goes below one row.
_TILE_BYTES = 1 << 20

AGGREGATION_KINDS = ("lse", "average", "max")
NORMALIZE_ORDERS = ("before", "after", "both")


@dataclass(frozen=True)
class Aggregation:
    """Synonym pooling rule; only the lse variant carries a temperature."""

    kind: str
    tau_s: float = DEFAULT_TAU

    def __post_init__(self):
        if self.kind not in AGGREGATION_KINDS:
            raise ValueError(f"aggregation kind must be one of {AGGREGATION_KINDS}")
        if self.kind == "lse" and not self.tau_s > 0.0:
            raise ValueError(f"lse temperature must be > 0, got {self.tau_s}")

    @classmethod
    def lse(cls, tau_s: float = DEFAULT_TAU) -> "Aggregation":
        return cls("lse", tau_s)

    @classmethod
    def average(cls) -> "Aggregation":
        return cls("average")

    @classmethod
    def maximum(cls) -> "Aggregation":
        return cls("max")


@dataclass
class PriorStack:
    """Cross-class log prior plus the pooled scores it was built from."""

    log_pi: DenseGrid        # H x W x C
    aggregated_u: DenseGrid  # H x W x C
    zero_norm_pixels: int = 0


def normalize_pixels_array(feats: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit-normalize each pixel vector in float64.

    Zero-norm pixels map to the zero vector (similarity 0 to everything) and
    are counted rather than rejected; padded regions produce them routinely.
    """
    feats = np.asarray(feats, dtype=np.float64)
    norms = np.sqrt((feats * feats).sum(axis=-1))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return feats / safe[..., None], int(zero.sum())


def similarity_array(feats: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    """Per-pixel dot product of an (H, W, D) field against one D-vector."""
    return np.einsum("hwd,d->hw", feats, embedding)


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


def aggregate_array(u: np.ndarray, mode: Aggregation) -> np.ndarray:
    """Pool synonym scores along the last axis.

    lse computes log sum_j exp(u_j / tau_s) with max subtraction; average and
    max operate on the raw scores.  Reduction order is the synonym file order.
    This is the one-segment case of the pooling `build_prior` runs.
    """
    u = np.asarray(u, dtype=np.float64)
    m = u.shape[-1]
    if m == 0:
        raise SegfuseError("empty_synonym_set", "cannot aggregate zero synonyms")
    return _pool_segments(u, _segments_by_length(((0, m),)), 1, mode)[..., 0]


def log_prior_array(u: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (class) axis, never materializing the softmax."""
    u = np.asarray(u, dtype=np.float64)
    peak = u.max(axis=-1, keepdims=True)
    lse = peak + np.log(np.exp(u - peak).sum(axis=-1, keepdims=True))
    return u - lse


def similarity_map(features: DenseGrid, embedding: np.ndarray) -> DenseGrid:
    """Similarity of unit-normalized features against one unit embedding.

    Returns an H x W x 1 grid of cosine scores in [-1, 1].  Features are
    expected already normalized (see `normalize_pixels_array`).
    """
    embedding = np.asarray(embedding, dtype=np.float64).ravel()
    if features.data.ndim != 3:
        raise ShapeError("features need 3 axes (H, W, D)", code="dim_mismatch")
    if features.channels != embedding.shape[0]:
        raise ShapeError(
            f"feature dim {features.channels} != embedding dim {embedding.shape[0]}",
            code="dim_mismatch")
    sim = similarity_array(features.data.astype(np.float64), embedding)
    return DenseGrid(sim.astype(np.float32)[:, :, None])


def aggregate_class(sim_stack: Sequence[DenseGrid], mode: Aggregation) -> DenseGrid:
    """Pool one class's synonym similarity grids into a single H x W x 1 grid."""
    if len(sim_stack) == 0:
        raise SegfuseError("empty_synonym_set", "cannot aggregate zero synonyms")
    shapes = {(g.height, g.width) for g in sim_stack}
    if len(shapes) != 1:
        raise ShapeError(f"synonym grids disagree on dims: {sorted(shapes)}")
    u = np.stack([g.data.reshape(g.height, g.width).astype(np.float64)
                  for g in sim_stack], axis=-1)
    return DenseGrid(aggregate_array(u, mode).astype(np.float32)[:, :, None])


def log_prior(aggregated: DenseGrid) -> PriorStack:
    """Cross-class normalization of pooled scores into a log-prior stack."""
    if aggregated.data.ndim != 3:
        raise ShapeError("aggregated scores need 3 axes (H, W, C)")
    log_pi = log_prior_array(aggregated.data.astype(np.float64))
    return PriorStack(DenseGrid(log_pi.astype(np.float32)), aggregated)


def _tile_rows(out_h: int, out_w: int, dim: int, n_vectors: int) -> int:
    """Output rows per tile; a function of the shape only."""
    return max(1, min(out_h, _TILE_BYTES // (out_w * max(dim, n_vectors) * 8)))


def _check_prior_inputs(features: DenseGrid, store: EmbeddingStore,
                        bank: PromptBank, out_h: int, out_w: int,
                        normalize_order: str) -> None:
    if normalize_order not in NORMALIZE_ORDERS:
        raise ValueError(f"normalize_order must be one of {NORMALIZE_ORDERS}")
    if features.data.ndim != 3:
        raise ShapeError("features need 3 axes (H, W, D)", code="dim_mismatch")
    if features.channels != store.dim:
        raise ShapeError(
            f"feature dim {features.channels} != embedding dim {store.dim}",
            code="dim_mismatch")
    if store.num_classes != bank.num_classes:
        raise ShapeError(
            f"store has {store.num_classes} classes, bank has {bank.num_classes}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target dims must be >= 1, got {out_h}x{out_w}")


def _pooled_tiles(features: DenseGrid, store: EmbeddingStore, mode: Aggregation,
                  out_h: int, out_w: int, normalize_order: str):
    """Yield (rows, float64 pooled scores, zero-norm pixels) per row tile.

    This is the one kernel behind `build_prior` and `pooled_scores`.  Each
    tile's zero-norm count covers the pixels counted since the previous tile.
    """
    src = features.data.astype(np.float64)
    zero_pixels = 0
    if normalize_order in ("before", "both"):
        src, zero_pixels = normalize_pixels_array(src)
    renormalize = normalize_order in ("after", "both")
    identity = (out_h, out_w) == (features.height, features.width)
    taps_y = bilinear_taps(features.height, out_h)
    taps_x = bilinear_taps(features.width, out_w)

    vectors_t = store.vectors.astype(np.float64).T
    segments = _segments_by_length(store.offsets)
    step = _tile_rows(out_h, out_w, store.dim, store.num_vectors)
    total = 0
    for r0 in range(0, out_h, step):
        rows = slice(r0, min(r0 + step, out_h))
        if identity:
            tile = src[rows]
        else:
            tile = interpolate_axis(src, [t[rows] for t in taps_y], axis=0)
            tile = interpolate_axis(tile, taps_x, axis=1)
        if renormalize:
            tile, n = normalize_pixels_array(tile)
            zero_pixels += n
        # (rows, out_w, D) @ (D, N) is one BLAS product per output row.
        yield rows, _pool_segments(tile @ vectors_t, segments,
                                   store.num_classes, mode), zero_pixels
        total += zero_pixels
        zero_pixels = 0
    if total:
        logger.warning("%d zero-norm feature pixels mapped to the zero vector",
                       total)


def build_prior(features: DenseGrid, store: EmbeddingStore, bank: PromptBank,
                mode: Aggregation, out_h: int, out_w: int, *,
                normalize_order: str = "both") -> PriorStack:
    """Full semantic-prior pipeline for one image.

    Features are unit-normalized, bilinearly resized to out_h x out_w (the
    structural evidence resolution), matched against every synonym embedding,
    pooled per class with `mode`, and cross-class normalized.
    `normalize_order` picks whether pixel normalization happens before the
    resize, after it, or both (interpolated vectors shrink below unit norm,
    so the default re-normalizes).  Work runs over row tiles in bounded
    memory; the output bytes do not depend on the tile height.
    """
    _check_prior_inputs(features, store, bank, out_h, out_w, normalize_order)
    shape = (out_h, out_w, store.num_classes)
    log_pi = np.empty(shape, dtype=np.float32)
    aggregated = np.empty(shape, dtype=np.float32)
    zero_pixels = 0
    for rows, pooled, n in _pooled_tiles(features, store, mode, out_h, out_w,
                                         normalize_order):
        log_pi[rows] = log_prior_array(pooled)
        aggregated[rows] = pooled
        zero_pixels += n
    return PriorStack(DenseGrid(log_pi), DenseGrid(aggregated),
                      zero_norm_pixels=zero_pixels)


def pooled_scores(features: DenseGrid, store: EmbeddingStore, bank: PromptBank,
                  mode: Aggregation, out_h: int, out_w: int, *,
                  normalize_order: str = "both") -> np.ndarray:
    """Float64 (out_h, out_w, C) pooled class scores, before the log-softmax.

    Same inputs and kernel as `build_prior`.  A class's pooled score depends
    only on its own synonyms, so a caller comparing class subsets slices
    columns of one full array and log-softmaxes each slice.
    """
    _check_prior_inputs(features, store, bank, out_h, out_w, normalize_order)
    out = np.empty((out_h, out_w, store.num_classes))
    for rows, pooled, _ in _pooled_tiles(features, store, mode, out_h, out_w,
                                         normalize_order):
        out[rows] = pooled
    return out
