"""Shared scene fixtures, probes into the prior and fusion kernels, and a
traced-memory probe."""
import math
import tracemalloc

import numpy as np

from segfuse import (DenseGrid, EvidenceBundle, LabelMap, parse_prompt_file,
                     store_from_array)
from segfuse import fusion as fusion_module
from segfuse import prior as prior_module
from segfuse.synth import SyntheticScene


def fused_scores(evidence, prior, cfg):
    """The float32 H x W x C scores that `fuse_and_decode` decodes.

    The library never holds the whole stack.  Every step of its per-tile
    fusion is elementwise, so one call over the whole grid gives the same
    bytes as the tiles.
    """
    return fusion_module._fused_rows(
        evidence.mask_evidence.data, prior.data, evidence.evidence_kind,
        evidence.presence.astype(np.float64), cfg.lambda_prior)


def traced_peak(run):
    """Bytes `run()` holds at its peak beyond what was live before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def pool_synonyms(u, mode):
    """The prior kernel's pooling of the last axis of `u` as one class."""
    u = np.asarray(u, dtype=np.float64)
    segments = prior_module._segments_by_length(((0, u.shape[-1]),))
    return prior_module._pool_segments(u, segments, 1, mode)[..., 0]


def scene_params(seed):
    """Deterministic per-seed parameter draw for the oracle-equivalence suite.

    Sizes stay small (H, W <= 16, C <= 8, d <= 32, synonyms <= 4) and odd
    seeds use a coarser feature grid so the resize path gets exercised.
    """
    rng = np.random.default_rng(10_000 + seed)
    h = int(rng.integers(6, 17))
    w = int(rng.integers(6, 17))
    d = int(rng.integers(4, 33))
    c = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    drift = float(rng.uniform(0.0, 0.5))
    overlap = float(rng.uniform(0.1, 0.8))
    fh = fw = None
    if seed % 2:
        fh = max(1, h // 2)
        fw = max(1, w // 2)
    return dict(seed=seed, height=h, width=w, dim=d, num_classes=c,
                synonyms_per_class=m, drift=drift, overlap=overlap,
                feature_height=fh, feature_width=fw)


def confusable_scene(seed=404, height=16, width=16, dim=8, num_classes=6,
                     pair_cos=0.97, feat_noise=1.0, margin=1.5,
                     mask_noise=2.0):
    """Hand-built scene with one near-duplicate class pair (0 and 1).

    Class 1's embedding sits at cosine `pair_cos` from class 0's while the
    rest are mutually orthogonal, so under "easy" selection the confuser
    enters the candidate set at the smallest nonzero ratio and under "hard"
    it enters last.  Noise levels are chosen so the prior actually decides
    borderline pixels.
    """
    rng = np.random.default_rng(seed)
    basis = np.eye(dim)
    rows = np.zeros((num_classes, dim))
    rows[0] = basis[0]
    rows[1] = pair_cos * basis[0] + math.sqrt(1.0 - pair_cos ** 2) * basis[1]
    for k in range(2, num_classes):
        rows[k] = basis[k]
    bank = parse_prompt_file("\n".join(f"c{i}" for i in range(num_classes)))
    store = store_from_array(rows, bank)

    gt = (np.arange(width)[None, :] * num_classes // width).repeat(
        height, axis=0).astype(np.uint32)
    canon = store.vectors.astype(np.float64)
    feats = canon[gt] + feat_noise * rng.standard_normal(
        (height, width, dim)) / math.sqrt(dim)
    feats /= np.sqrt((feats ** 2).sum(axis=-1, keepdims=True))
    sign = np.where(gt[:, :, None] == np.arange(num_classes)[None, None, :],
                    1.0, -1.0)
    logits = margin * sign + mask_noise * rng.standard_normal(
        (height, width, num_classes))
    return SyntheticScene(
        height, width, num_classes,
        DenseGrid(feats.astype(np.float32)), LabelMap(gt),
        EvidenceBundle(DenseGrid(logits.astype(np.float32)), "logits",
                       np.zeros(num_classes, dtype=np.float32)),
        store, bank)
