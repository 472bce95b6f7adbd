"""Seeded synthetic scenes: embeddings, features, ground truth and evidence.

A scene is a desk-scale stand-in for a real image plus model outputs, built
from a single RNG seed so that every tensor regenerates bitwise.  Ground truth
is a nearest-center partition of the pixel grid; features point along the
ground-truth class embedding with optional isotropic contamination; mask
logits carry a fixed signed margin plus noise; presence logits follow class
occupancy.  The `overlap` knob scales all evidence corruption (feature noise
and mask-logit noise), so overlap=0 produces perfectly separable evidence.

Scenes are drawn in bounded memory, along one path, `_SceneDraw`.  It
checks every argument first: a scene whose arrays numpy cannot address at
all fails with `bad_scene_size` before anything is drawn.  It then draws
the small prompt embeddings and allocates the uint32 ground truth, the
first grid-sized allocation, so a scene too large for memory raises
`MemoryError` there, which the CLI reports as `out_of_memory` with exit 1,
before a caller has opened any output.  `draw` computes the ground truth,
the features and then the mask logits in float64 over the row blocks of
`_row_tiles`, sized by the float64 bytes a block holds per row, and hands
each feature block and each mask-logit block to one writer per grid, in
row order.  `generate_scene` fills whole float32 arrays from those
writers; `segfuse gen` appends the blocks to its output files, so it never
holds the features or the `H x W x C` mask logits.  Every step is per pixel
and the noise is drawn block by block in row order, features first, so the
bytes do not depend on the block height or on where the blocks go.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, canonical_vectors, store_from_array
from .errors import SegfuseError
from .fusion import EvidenceBundle
from .grid import DenseGrid, LabelMap, _row_tiles
from .prior import normalize_pixels_array
from .prompts import MAX_SYNONYMS, PromptBank

MASK_MARGIN = 2.5
MASK_NOISE_SCALE = 2.0
# A scene is pure noise long before drift or overlap reaches this, and its
# float32 mask logits would overflow near 1e37.
MAX_NOISE = 1e6
# Float64 bytes per element that a block holds at once: the distances for
# ground truth; for features and mask logits, three arrays of its rows (the
# rows, the noise and its scaled copy, or the rows and their normalized copy).
_GT_BLOCK_BYTES = 8
_NOISY_BLOCK_BYTES = 24


@dataclass
class SyntheticScene:
    height: int
    width: int
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
        classes.append(names)
    bank = PromptBank(tuple(classes))
    return store_from_array(np.stack(rows), bank), bank


def _logit_rows(rng, gt_rows, num_classes: int, overlap: float) -> np.ndarray:
    """Float64 mask logits of the pixels whose ground truth is gt_rows."""
    block = np.where(gt_rows[:, :, None] == np.arange(num_classes), 1.0, -1.0)
    block *= MASK_MARGIN
    if overlap > 0:
        block += overlap * MASK_NOISE_SCALE * rng.standard_normal(block.shape)
    return block


class _SceneDraw:
    """One seeded scene, checked and ready to draw its grids.

    Construction checks every argument, draws the prompt embeddings and
    allocates the ground truth `gt`; `feature_shape` and `logit_shape` are
    the extents of the two float32 grids that `draw` writes.
    """

    def __init__(self, seed: int, height: int, width: int, dim: int,
                 num_classes: int, synonyms_per_class: int, drift: float,
                 overlap: float, feature_height: int | None,
                 feature_width: int | None):
        fh = feature_height if feature_height is not None else height
        fw = feature_width if feature_width is not None else width
        if min(height, width, fh, fw, dim, num_classes, synonyms_per_class) < 1:
            raise SegfuseError("bad_scene_size", "scene dimensions must be >= 1")
        # A prompt file holds at most MAX_SYNONYMS variants per class.
        if synonyms_per_class > MAX_SYNONYMS:
            raise SegfuseError("bad_scene_size", f"synonyms per class must be <= "
                               f"{MAX_SYNONYMS}, got {synonyms_per_class}")
        # numpy refuses an array whose byte size overflows its index type with a
        # bare ValueError, before allocating anything.
        if 8 * max(num_classes * dim, height * width * num_classes,
                   fh * fw * dim) > np.iinfo(np.intp).max:
            raise SegfuseError("bad_scene_size", "scene too large to address")
        if not (0.0 <= drift <= MAX_NOISE and 0.0 <= overlap <= MAX_NOISE):
            raise SegfuseError("bad_scene_noise",
                               f"drift and overlap must lie in [0, {MAX_NOISE:g}]")
        if seed < 0:
            raise SegfuseError("bad_scene_seed", f"seed must be >= 0, got {seed}")
        self._rng = np.random.default_rng(seed)
        self._overlap = overlap
        self.embeddings, self.bank = _prompt_embeddings(
            self._rng, dim, num_classes, synonyms_per_class, drift)
        self.gt = np.empty((height, width), dtype=np.uint32)
        self.feature_shape = (fh, fw, dim)
        self.logit_shape = (height, width, num_classes)

    def draw(self, write_features, write_logits) -> np.ndarray:
        """Fill `gt`, pass every feature block and then every mask-logit block
        to its writer in row order, and return the float32 presence logits."""
        rng, gt, overlap = self._rng, self.gt, self._overlap
        height, width, num_classes = self.logit_shape
        fh, fw, dim = self.feature_shape
        cy = rng.uniform(0.0, height, num_classes)
        cx = rng.uniform(0.0, width, num_classes)
        dy2 = (np.arange(height, dtype=np.float64)[:, None] - cy) ** 2
        dx2 = (np.arange(width, dtype=np.float64)[:, None] - cx) ** 2
        for rows in _row_tiles(height, width * num_classes * _GT_BLOCK_BYTES):
            gt[rows] = np.argmin(dy2[rows, None, :] + dx2, axis=2)

        # Features start from the store's float32 rows so overlap=0 reproduces
        # the stored canonical embeddings bit for bit.
        canon64 = canonical_vectors(self.embeddings).astype(np.float64)
        sy, sx = _nearest_source(height, fh), _nearest_source(width, fw)
        for rows in _row_tiles(fh, fw * dim * _NOISY_BLOCK_BYTES):
            block = canon64[gt[np.ix_(sy[rows], sx)]]
            if overlap > 0:
                block += overlap * rng.standard_normal(block.shape) / np.sqrt(dim)
                block, _ = normalize_pixels_array(block)
            write_features(block)
        for rows in _row_tiles(height, width * num_classes * _NOISY_BLOCK_BYTES):
            write_logits(_logit_rows(rng, gt[rows], num_classes, overlap))

        occupancy = np.bincount(gt.ravel(), minlength=num_classes).astype(np.float64)
        total = float(height * width)
        return np.log((occupancy + 1.0) / (total - occupancy + 1.0)).astype(np.float32)


def _filler(arr: np.ndarray):
    """A writer that fills arr with blocks of whole rows, in order."""
    filled = 0

    def write(rows):
        nonlocal filled
        arr[filled:filled + len(rows)] = rows
        filled += len(rows)
    return write


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

    The ground truth, features and mask logits are allocated whole, before
    any grid-sized work, and filled by `_SceneDraw.draw`, the path that
    `segfuse gen` streams to disk, so the two give the same bytes.
    """
    scene = _SceneDraw(seed, height, width, dim, num_classes, synonyms_per_class,
                       drift, overlap, feature_height, feature_width)
    feats = np.empty(scene.feature_shape, dtype=np.float32)
    logits = np.empty(scene.logit_shape, dtype=np.float32)
    presence = scene.draw(_filler(feats), _filler(logits))
    return SyntheticScene(
        height=height, width=width, num_classes=num_classes,
        features=DenseGrid(feats), gt=LabelMap(scene.gt),
        evidence=EvidenceBundle(DenseGrid(logits), "logits", presence),
        embeddings=scene.embeddings, bank=scene.bank)
