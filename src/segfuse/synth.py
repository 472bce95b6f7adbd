"""Seeded synthetic scenes: embeddings, features, ground truth and evidence.

A scene is a desk-scale stand-in for a real image plus model outputs, built
from a single RNG seed so that every tensor regenerates bitwise.  Ground truth
is a nearest-center partition of the pixel grid; features point along the
ground-truth class embedding with optional isotropic contamination; mask
logits carry a fixed signed margin plus noise; presence logits follow class
occupancy.  The `overlap` knob scales all evidence corruption (feature noise
and mask-logit noise), so overlap=0 produces perfectly separable evidence.

Scenes are built in bounded memory.  The outputs (uint32 ground truth,
float32 features and mask logits) are allocated whole, after the small
prompt embeddings and before any grid-sized work, so a scene too large for
memory raises `MemoryError` at its first large allocation, which the CLI
reports as `out_of_memory` with exit 1.  Ground truth, features and mask
logits are then computed in float64 over blocks of whole rows and rounded
into the outputs, so no full-size float64 array exists.  The block height
comes from `_tile_rows` over the float64 bytes a block holds per row; every
step is per pixel and the noise is drawn block by block in row order,
features first, so the bytes do not depend on the block height.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, store_from_array
from .errors import SegfuseError
from .fusion import EvidenceBundle
from .grid import DenseGrid, LabelMap, _tile_rows
from .prior import normalize_pixels_array
from .prompts import PromptBank, PromptClass

MASK_MARGIN = 2.5
MASK_NOISE_SCALE = 2.0
# Float64 bytes per element that a block holds at once: the distances for
# ground truth; for features and mask logits, three arrays of its rows (the
# rows, the noise and its scaled copy, or the rows and their normalized copy).
_GT_BLOCK_BYTES = 8
_NOISY_BLOCK_BYTES = 24


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


def _nearest_source(n_in: int, n_out: int) -> np.ndarray:
    """Nearest source index of each of n_out pixel centers over n_in pixels."""
    pos = np.rint((np.arange(n_out) + 0.5) * n_in / n_out - 0.5)
    return np.clip(pos, 0, n_in - 1).astype(np.int64)


def _prompt_embeddings(rng, dim: int, num_classes: int,
                       synonyms_per_class: int,
                       drift: float) -> tuple[EmbeddingStore, PromptBank]:
    """The scene's prompt bank and unit synonym embeddings, drawn from rng.

    Its float64 rows are freed on return, before the grid-sized work starts.
    """
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
    return store_from_array(np.stack(rows), bank), bank


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
    fh = feature_height if feature_height is not None else height
    fw = feature_width if feature_width is not None else width
    if min(height, width, fh, fw, dim, num_classes, synonyms_per_class) < 1:
        raise SegfuseError("bad_scene_size", "scene dimensions must be >= 1")
    if drift < 0 or overlap < 0:
        raise SegfuseError("bad_scene_noise", "drift and overlap must be >= 0")
    rng = np.random.default_rng(seed)
    store, bank = _prompt_embeddings(rng, dim, num_classes, synonyms_per_class,
                                     drift)

    # The outputs come before any grid-sized work, so a scene too large for
    # memory fails here.
    gt = np.empty((height, width), dtype=np.uint32)
    feats = np.empty((fh, fw, dim), dtype=np.float32)
    logits = np.empty((height, width, num_classes), dtype=np.float32)
    cy = rng.uniform(0.0, height, num_classes)
    cx = rng.uniform(0.0, width, num_classes)
    dy2 = (np.arange(height, dtype=np.float64)[:, None] - cy) ** 2
    dx2 = (np.arange(width, dtype=np.float64)[:, None] - cx) ** 2
    step = _tile_rows(height, width * num_classes * _GT_BLOCK_BYTES)
    for r0 in range(0, height, step):
        dist2 = dy2[r0:r0 + step, None, :] + dx2
        gt[r0:r0 + step] = np.argmin(dist2, axis=2)

    # Features start from the store's float32 rows so overlap=0 reproduces the
    # stored canonical embeddings bit for bit.
    starts = [store.offsets[c][0] for c in range(num_classes)]
    canon64 = store.vectors[starts].astype(np.float64)
    sy, sx = _nearest_source(height, fh), _nearest_source(width, fw)
    step = _tile_rows(fh, fw * dim * _NOISY_BLOCK_BYTES)
    for r0 in range(0, fh, step):
        block = canon64[gt[np.ix_(sy[r0:r0 + step], sx)]]
        if overlap > 0:
            block += overlap * rng.standard_normal(block.shape) / np.sqrt(dim)
            block, _ = normalize_pixels_array(block)
        feats[r0:r0 + step] = block

    labels = np.arange(num_classes)
    step = _tile_rows(height, width * num_classes * _NOISY_BLOCK_BYTES)
    for r0 in range(0, height, step):
        block = np.where(gt[r0:r0 + step, :, None] == labels, 1.0, -1.0)
        block *= MASK_MARGIN
        if overlap > 0:
            block += overlap * MASK_NOISE_SCALE * rng.standard_normal(block.shape)
        logits[r0:r0 + step] = block

    occupancy = np.bincount(gt.ravel(), minlength=num_classes).astype(np.float64)
    total = float(height * width)
    presence = np.log((occupancy + 1.0) / (total - occupancy + 1.0)).astype(np.float32)

    return SyntheticScene(
        seed=seed, height=height, width=width, dim=dim, num_classes=num_classes,
        features=DenseGrid(feats), gt=LabelMap(gt),
        evidence=EvidenceBundle(DenseGrid(logits), "logits", presence),
        embeddings=store, bank=bank)
