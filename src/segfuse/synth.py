"""Seeded synthetic scenes: embeddings, features, ground truth and evidence.

A scene is a desk-scale stand-in for a real image plus model outputs, built
from a single RNG seed so that every tensor regenerates bitwise.  Ground truth
is a nearest-center partition of the pixel grid; features point along the
ground-truth class embedding with optional isotropic contamination; mask
logits carry a fixed signed margin plus noise; presence logits follow class
occupancy.  The `overlap` knob scales all evidence corruption (feature noise
and mask-logit noise), so overlap=0 produces perfectly separable evidence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, store_from_array
from .fusion import EvidenceBundle
from .grid import DenseGrid, LabelMap
from .prior import normalize_pixels_array
from .prompts import PromptBank, PromptClass

MASK_MARGIN = 2.5
MASK_NOISE_SCALE = 2.0


@dataclass
class SyntheticScene:
    seed: int
    height: int
    width: int
    dim: int
    num_classes: int
    features: DenseGrid
    gt: LabelMap
    evidence: EvidenceBundle
    embeddings: EmbeddingStore
    bank: PromptBank


def generate_scene(seed: int, height: int, width: int, dim: int,
                   num_classes: int, synonyms_per_class: int,
                   drift: float, overlap: float,
                   feature_height: int | None = None,
                   feature_width: int | None = None) -> SyntheticScene:
    """Build a fully seeded scene.

    drift scales how far synonym embeddings wander from their canonical
    direction (0 means every synonym equals the canonical vector bitwise);
    overlap scales feature contamination and mask-logit noise (0 means
    features equal the gt-class embedding bitwise and mask logits are exact
    signed margins).  Synonym counts vary per class in 1..synonyms_per_class.
    The optional feature grid size decouples the feature resolution from the
    evidence resolution so the resize path gets exercised.
    """
    if min(height, width, dim, num_classes, synonyms_per_class) < 1:
        raise ValueError("scene dimensions must be >= 1")
    if drift < 0 or overlap < 0:
        raise ValueError("drift and overlap must be >= 0")
    fh = feature_height if feature_height is not None else height
    fw = feature_width if feature_width is not None else width
    rng = np.random.default_rng(seed)

    counts = rng.integers(1, synonyms_per_class + 1, size=num_classes)
    canon, _ = normalize_pixels_array(rng.standard_normal((num_classes, dim)))

    rows = []
    classes = []
    for ci in range(num_classes):
        m_c = int(counts[ci])
        rows.append(canon[ci])
        for j in range(1, m_c):
            bump = rng.standard_normal(dim)
            if drift > 0:
                rows.append(normalize_pixels_array(canon[ci] + drift * bump)[0])
            else:
                rows.append(canon[ci].copy())
        names = (f"class{ci}",) + tuple(f"class{ci} v{j}" for j in range(1, m_c))
        classes.append(PromptClass(ci, names[0], names))
    bank = PromptBank(tuple(classes))
    store = store_from_array(np.stack(rows), bank)

    cy = rng.uniform(0.0, height, num_classes)
    cx = rng.uniform(0.0, width, num_classes)
    yy = np.arange(height, dtype=np.float64)[:, None, None]
    xx = np.arange(width, dtype=np.float64)[None, :, None]
    dist2 = (yy - cy[None, None, :]) ** 2 + (xx - cx[None, None, :]) ** 2
    gt = np.argmin(dist2, axis=2).astype(np.uint32)

    if (fh, fw) == (height, width):
        gt_feat = gt
    else:
        sy = np.clip(np.rint((np.arange(fh) + 0.5) * height / fh - 0.5), 0,
                     height - 1).astype(np.int64)
        sx = np.clip(np.rint((np.arange(fw) + 0.5) * width / fw - 0.5), 0,
                     width - 1).astype(np.int64)
        gt_feat = gt[np.ix_(sy, sx)]

    # Features start from the store's float32 rows so overlap=0 reproduces the
    # stored canonical embeddings bit for bit.
    starts = [store.offsets[c][0] for c in range(num_classes)]
    canon64 = store.vectors[starts].astype(np.float64)
    feats = canon64[gt_feat]
    if overlap > 0:
        feats = feats + overlap * rng.standard_normal((fh, fw, dim)) / np.sqrt(dim)
        feats, _ = normalize_pixels_array(feats)
    features = DenseGrid(feats.astype(np.float32))

    sign = np.where(gt[:, :, None] == np.arange(num_classes)[None, None, :], 1.0, -1.0)
    logits = MASK_MARGIN * sign
    if overlap > 0:
        logits = logits + overlap * MASK_NOISE_SCALE * rng.standard_normal(
            (height, width, num_classes))
    mask = DenseGrid(logits.astype(np.float32))

    occupancy = np.bincount(gt.ravel(), minlength=num_classes).astype(np.float64)
    total = float(height * width)
    presence = np.log((occupancy + 1.0) / (total - occupancy + 1.0)).astype(np.float32)

    return SyntheticScene(
        seed=seed, height=height, width=width, dim=dim, num_classes=num_classes,
        features=features, gt=LabelMap(gt),
        evidence=EvidenceBundle(mask, "logits", presence),
        embeddings=store, bank=bank)
