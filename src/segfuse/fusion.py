"""Unified-scale fusion of structural, semantic and presence evidence.

Per pixel and class the calibrated score is

    S_c = mask_logit_c + lambda_prior * log_pi_c + presence_c

with the presence logit broadcast to every pixel.  Mask evidence may arrive
as raw logits (passed through bit-exactly) or probabilities (clamped, then
mapped through log(p / (1 - p)) and rounded to float32).  Decoding is a
per-pixel argmax with ties going to the smallest class index, plus optional
background rejection for pixels whose best score falls below a threshold.
A NaN score, wherever it came from, or an infinite best score (a float32
overflow, say) fails the decode instead of choosing a label.

One function, `_fuse_and_decode_rows`, fuses and decodes each tile of whole
rows in turn, so the H x W x C score stack never exists.  Each tile is
summed in float64 in the order (m + lambda * l) + z and rounded to float32
once, so the bytes do not depend on the tile height.  It takes its evidence
and prior rows from a source: `fuse_and_decode` slices its arrays, and the
`fuse` command reads the two files in lockstep, one tile of each at a time,
so it never holds a whole input.  Probability evidence is range-checked
tile by tile, where it is converted.  The tiles come from the shape alone,
through the `_row_tiles` the prior kernel uses too.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import check_choice, check_equal, check_finite, check_float, check_int
from .grid import _MAX_U32, DenseGrid, LabelMap, _real_array, _row_tiles

PROB_EPS = 1e-6
# Bytes per score live at a fused tile's peak: the caller's previous float32
# tile, plus p and 1 - p in float64 for probability evidence.
_TILE_BYTES_PER_SCORE = 20

EVIDENCE_KINDS = ("logits", "probabilities")


def _check_evidence(dims: tuple[int, ...], kind: str, presence) -> np.ndarray:
    """The one check of mask evidence: its kind, 3 axes, one presence per class.

    Returns the (C,) float32 presence logits; None means all zero.  The range
    of probability evidence is checked per tile, where it is converted.
    """
    check_choice("bad_evidence_kind", "evidence kind", kind, EVIDENCE_KINDS)
    check_choice("shape_mismatch", "mask evidence axis count", len(dims), (3,))
    c = dims[2]
    presence = (np.zeros(c, dtype=np.float32) if presence is None
                else _real_array("presence", presence, np.float32).ravel())
    check_equal("shape_mismatch", "class counts", presence=presence.shape[0],
                evidence=c)
    return presence


@dataclass
class EvidenceBundle:
    """Per-class mask evidence plus image-level presence logits for one image."""

    mask_evidence: DenseGrid  # H x W x C
    evidence_kind: str = "logits"
    presence: np.ndarray | None = None  # (C,) logits; None means all zero

    def __post_init__(self):
        self.presence = _check_evidence(self.mask_evidence.dims,
                                        self.evidence_kind, self.presence)


@dataclass(frozen=True)
class Background:
    """Reject pixels whose best score is below `threshold` to a reserved index.

    `index` defaults to C, the first index past the foreground classes, and
    must fit a uint32 label.  A threshold of -inf rejects nothing and +inf
    rejects everything, and so does one beyond float32's range of the same
    sign; NaN is refused, because no score compares below it.
    """

    threshold: float
    index: int | None = None

    def __post_init__(self):
        check_float("bad_background_threshold", "background threshold", self.threshold)
        if self.index is not None:
            check_int("bad_background_index", "background index", self.index,
                      0, _MAX_U32)


DEFAULT_LAMBDA = 0.7


@dataclass(frozen=True)
class FusionConfig:
    lambda_prior: float = DEFAULT_LAMBDA
    background: Background | None = None

    def __post_init__(self):
        check_float("bad_lambda_prior", "lambda_prior", self.lambda_prior,
                    0.0, sys.float_info.max)


def _mask_logits(data: np.ndarray, kind: str) -> np.ndarray:
    """Float32 mask logits of evidence rows `data` of kind `kind`.

    This is the one place probability evidence is range-checked.
    """
    if kind == "logits":
        return data
    # min and max propagate NaN, which lies in no range.
    for bound in (data.min(), data.max()):
        check_float("probability_out_of_range", "probability evidence",
                    float(bound), 0.0, 1.0)
    p = data.astype(np.float64)
    np.clip(p, PROB_EPS, 1.0 - PROB_EPS, out=p)
    odds = 1.0 - p
    np.divide(p, odds, out=odds)
    del p  # at most two float64 arrays per tile are live at once
    return np.log(odds, out=odds).astype(np.float32)


def _fused_rows(mask: np.ndarray, log_pi: np.ndarray, kind: str,
                presence: np.ndarray, lambda_prior: float) -> np.ndarray:
    """Float32 fused scores of one tile, summed in float64 and rounded once.

    The float64 temporaries are freed on return, before the tile is decoded.
    A score too large for float32 becomes an infinity, without a warning.
    """
    mask_logits = _mask_logits(mask, kind)
    with np.errstate(over="ignore"):
        # lambda * l + m is m + lambda * l bit for bit: IEEE addition commutes.
        scores = np.multiply(log_pi, lambda_prior, dtype=np.float64)
        scores += mask_logits
        scores += presence
        return scores.astype(np.float32)


def _fuse_and_decode_rows(read, dims: tuple[int, ...], kind: str, presence,
                          prior_dims: tuple[int, ...], lambda_prior: float,
                          background: Background | None) -> LabelMap:
    """Fuse and decode an H x W x C grid one tile of whole rows at a time.

    Everything is checked before the first read.  `read(rows)` returns the
    mask evidence and log-prior rows `rows`; it is called once per tile, in
    row order, so it can read two files in lockstep.
    """
    presence = _check_evidence(dims, kind, presence).astype(np.float64)
    check_equal("shape_mismatch", "dims", prior=prior_dims, evidence=dims)
    height, width, n_classes = dims
    background_index = None
    if background is not None:  # it must name no foreground class
        background_index = (n_classes if background.index is None
                            else int(background.index))
        check_int("background_index_collision", "background index",
                  background_index, n_classes)
    labels = np.empty((height, width), dtype=np.uint32)
    for rows in _row_tiles(height, width * n_classes * _TILE_BYTES_PER_SCORE):
        scores = _fused_rows(*read(rows), kind, presence, lambda_prior)
        tile_labels = np.argmax(scores, axis=2)
        # argmax stops at a pixel's first NaN, so the best score is NaN
        # exactly where any of the pixel's scores is, and infinite on overflow.
        best = scores.reshape(-1)[tile_labels.ravel()
                                  + np.arange(0, scores.size, n_classes)]
        check_finite("nonfinite_scores", "best fused scores", best)
        labels[rows] = tile_labels
        if background_index is not None:
            # A threshold beyond float32's range compares as +-inf, its
            # float32 cast, and the cast's overflow warning says nothing more.
            with np.errstate(over="ignore"):
                labels[rows][best.reshape(tile_labels.shape)
                             < background.threshold] = background_index
    return LabelMap(labels)


def fuse_and_decode(evidence: EvidenceBundle, prior: DenseGrid,
                    cfg: FusionConfig) -> LabelMap:
    """Fuse mask logits, weighted log prior and presence; decode the labels.

    `prior` is the H x W x C log-prior grid that `build_prior` returns.
    Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before the logit,
    so 0 and 1 stay finite; one outside [0, 1], NaN included, fails with
    `probability_out_of_range`.  The decode is a per-pixel argmax with ties
    to the smallest class index; with background enabled, pixels whose best
    score is below the threshold get the reserved background index (default
    C), which must lie outside the foreground range.  Each row tile is
    decoded as it is fused, so the H x W x C score stack never exists.
    """
    mask, log_pi = evidence.mask_evidence.data, prior.data
    dims = evidence.mask_evidence.dims
    return _fuse_and_decode_rows(lambda rows: (mask[rows], log_pi[rows]), dims,
                                 evidence.evidence_kind, evidence.presence,
                                 prior.dims, cfg.lambda_prior, cfg.background)


def write_pgm(labels: LabelMap, path) -> None:
    """8-bit binary PGM export (class index as gray) for eyeballing; needs <= 256 labels."""
    check_int("pgm_label_overflow", "PGM label", int(labels.data.max(initial=0)),
              0, 255)
    h, w = labels.data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(labels.data.astype(np.uint8).tobytes())
