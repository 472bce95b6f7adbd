"""Unified-scale fusion of structural, semantic and presence evidence.

Per pixel and class the calibrated score is

    S_c = mask_logit_c + lambda_prior * log_pi_c + presence_c

with the presence logit broadcast to every pixel.  Mask evidence may arrive
as raw logits (passed through bit-exactly) or probabilities (clamped, then
mapped through log(p / (1 - p))).  Decoding is a per-pixel argmax with ties
going to the smallest class index, plus optional background rejection for
pixels whose best score falls below a threshold.  A NaN score, wherever it
came from, fails the decode instead of choosing a label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SegfuseError, ShapeError
from .grid import DenseGrid, LabelMap

if TYPE_CHECKING:
    from .prior import PriorStack

PROB_EPS = 1e-6

EVIDENCE_KINDS = ("logits", "probabilities")


@dataclass
class EvidenceBundle:
    """Per-class mask evidence plus image-level presence logits for one image."""

    mask_evidence: DenseGrid  # H x W x C
    evidence_kind: str = "logits"
    presence: np.ndarray | None = None  # (C,) logits; None means all zero

    def __post_init__(self):
        if self.evidence_kind not in EVIDENCE_KINDS:
            raise ValueError(f"evidence kind must be one of {EVIDENCE_KINDS}")
        if self.mask_evidence.data.ndim != 3:
            raise ShapeError("mask evidence needs 3 axes (H, W, C)")
        c = self.mask_evidence.channels
        if self.presence is None:
            self.presence = np.zeros(c, dtype=np.float32)
        else:
            self.presence = np.asarray(self.presence, dtype=np.float32).ravel()
        if self.presence.shape[0] != c:
            raise ShapeError(
                f"presence has {self.presence.shape[0]} entries for {c} classes")
        if self.evidence_kind == "probabilities":
            data = self.mask_evidence.data
            # Written so that NaN, which fails every comparison, is rejected.
            if not (data.min() >= 0.0 and data.max() <= 1.0):
                raise SegfuseError(
                    "probability_out_of_range",
                    "probability evidence must lie in [0, 1]")

    @property
    def num_classes(self) -> int:
        return self.mask_evidence.channels


@dataclass(frozen=True)
class Background:
    """Reject pixels whose best score is below `threshold` to a reserved index.

    `index` defaults to C, the first index past the foreground classes.
    A threshold of -inf rejects nothing and +inf rejects everything; NaN is
    refused, because no score compares below it.
    """

    threshold: float
    index: int | None = None

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise SegfuseError("bad_background_threshold",
                               "background threshold must not be NaN")


def check_lambda_prior(value: float) -> None:
    """The one check on a prior weight: finite and >= 0 (NaN fails too)."""
    if not 0.0 <= value < math.inf:
        raise SegfuseError("bad_lambda_prior",
                           f"lambda_prior must be finite and >= 0, got {value}")


def check_tau_s(value: float) -> None:
    """The one check on a pooling temperature: finite and > 0 (NaN fails too).

    An infinite temperature would pool every class to log(m_c), whatever the
    features say.
    """
    if not 0.0 < value < math.inf:
        raise SegfuseError("bad_tau_s", f"tau_s must be finite and > 0, got {value}")


@dataclass(frozen=True)
class FusionConfig:
    lambda_prior: float = 0.7
    background: Background | None = None

    def __post_init__(self):
        check_lambda_prior(self.lambda_prior)


def to_logit(evidence: EvidenceBundle) -> DenseGrid:
    """Mask evidence on the additive logit scale.

    Logit-kind evidence passes through unchanged (logit of sigmoid is the
    identity, so the round trip is skipped).  Probabilities are clamped to
    [PROB_EPS, 1 - PROB_EPS] first so 0 and 1 stay finite.
    """
    if evidence.evidence_kind == "logits":
        return evidence.mask_evidence
    p = np.clip(evidence.mask_evidence.data.astype(np.float64),
                PROB_EPS, 1.0 - PROB_EPS)
    return DenseGrid(np.log(p / (1.0 - p)).astype(np.float32))


def fuse(evidence: EvidenceBundle, prior: PriorStack | DenseGrid,
         cfg: FusionConfig) -> DenseGrid:
    """Combine mask logits, weighted log prior and presence on one scale.

    Returns the H x W x C fused scores; `prior` is a `PriorStack` or its
    bare log-prior grid.
    """
    log_pi = prior if isinstance(prior, DenseGrid) else prior.log_pi
    mask_logits = to_logit(evidence)
    if log_pi.dims != mask_logits.dims:
        raise ShapeError(
            f"prior dims {log_pi.dims} != evidence dims {mask_logits.dims}")
    scores = (mask_logits.data.astype(np.float64)
              + cfg.lambda_prior * log_pi.data.astype(np.float64)
              + evidence.presence.astype(np.float64)[None, None, :])
    return DenseGrid(scores.astype(np.float32))


def decode(scores: DenseGrid, cfg: FusionConfig) -> LabelMap:
    """Per-pixel argmax over classes; optional background rejection.

    Ties go to the smallest class index.  With background enabled, pixels
    whose best score is below the threshold get the reserved background index
    (default C), which must lie outside the foreground range.
    """
    data = scores.data
    n_classes = data.shape[2]
    labels = np.argmax(data, axis=2)
    # argmax stops at a pixel's first NaN, so the best score is NaN exactly
    # where any of the pixel's scores is.
    best = data.reshape(-1)[labels.ravel() + np.arange(0, data.size, n_classes)]
    if np.isnan(best).any():
        raise SegfuseError("nonfinite_scores", "fused scores hold NaN")
    labels = labels.astype(np.uint32)
    background_index = None
    if cfg.background is not None:
        background_index = (cfg.background.index
                            if cfg.background.index is not None else n_classes)
        if background_index < n_classes:
            raise SegfuseError(
                "background_index_collision",
                f"background index {background_index} collides with a foreground "
                f"class (need >= {n_classes})")
        labels = np.where(best.reshape(labels.shape) < cfg.background.threshold,
                          np.uint32(background_index), labels)
    return LabelMap(labels, background_index=background_index)


def fuse_and_decode(evidence: EvidenceBundle, prior: PriorStack | DenseGrid,
                    cfg: FusionConfig) -> LabelMap:
    return decode(fuse(evidence, prior, cfg), cfg)


def write_pgm(labels: LabelMap, path) -> None:
    """8-bit binary PGM export (class index as gray) for eyeballing; needs <= 256 labels."""
    if labels.data.max(initial=0) > 255:
        raise SegfuseError("pgm_label_overflow", "PGM export supports labels <= 255")
    h, w = labels.data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(labels.data.astype(np.uint8).tobytes())
