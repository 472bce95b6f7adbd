"""Output checks against the float64 oracle in `tests/oracle.py`.

The full-image oracle is a per-pixel Python loop, far too slow at 256 x 256
with 150 classes, so the log prior and the labels are compared on a seeded
sample of pixels: the log prior within 1e-5, the labels exactly.  Eval and
sweep CSVs are recomputed with `oracle.confusion` / `oracle.mean_iou` over
every pixel.  Each check returns a list of problems; empty means correct.
"""
from __future__ import annotations

import itertools

import numpy as np

import oracle

PRIOR_TOL = 1e-5
CSV_TOL = 5e-7       # CSVs print 6 decimals
SAMPLE_PIXELS = 256


def sample_pixels(seed, height, width, count=SAMPLE_PIXELS):
    rng = np.random.default_rng([seed, 17])
    flat = rng.choice(height * width, size=min(count, height * width),
                      replace=False)
    return [(int(i) // width, int(i) % width) for i in np.sort(flat)]


def oracle_log_prior(features, embeddings, offsets, out_h, out_w, pixels,
                     aggregation="lse", tau_s=0.10):
    """Oracle log prior (float64) at the sampled pixels, one row per pixel."""
    emb = oracle.unit_pixels(embeddings)
    resized = oracle.bilinear(oracle.unit_pixels(features), out_h, out_w)
    picked = oracle.unit_pixels(np.stack([resized[i, j] for i, j in pixels]))
    rows = []
    for f in picked:
        pooled = [oracle.aggregate([float(np.dot(emb[r], f))
                                    for r in range(start, start + count)],
                                   aggregation, tau_s)
                  for start, count in offsets]
        rows.append(oracle.log_softmax(pooled))
    return np.array(rows)


def oracle_labels(mask, presence, log_pi, pixels, lam, *, probabilities=False,
                  background=None):
    """Fused argmax (ties to the smallest index) at the sampled pixels.

    `background` is (threshold, index): a best score below the threshold
    maps to the reserved index.
    """
    labels = []
    for (i, j), prior in zip(pixels, log_pi):
        best, best_score = 0, None
        for c in range(len(prior)):
            m = float(mask[i, j, c])
            if probabilities:
                m = oracle.prob_to_logit(m)
            score = m + lam * prior[c] + float(presence[c])
            if best_score is None or score > best_score:
                best, best_score = c, score
        if background is not None and best_score < background[0]:
            best = background[1]
        labels.append(best)
    return labels


def compare_prior(name, log_pi_file, expected, pixels):
    got = np.array([log_pi_file[i, j] for i, j in pixels], dtype=np.float64)
    err = float(np.abs(got - expected).max())
    return [] if err <= PRIOR_TOL else [
        f"{name}: log prior differs from oracle by {err:.3g} (> {PRIOR_TOL})"]


def compare_labels(name, labels, expected, pixels):
    got = [int(labels[i, j]) for i, j in pixels]
    bad = sum(g != e for g, e in zip(got, expected))
    return [] if bad == 0 else [
        f"{name}: {bad}/{len(pixels)} sampled labels differ from oracle"]


def _close(text, value):
    if value is None:
        return text == "nan"
    return abs(float(text) - value) <= CSV_TOL


def compare_eval_csv(name, csv_text, gt, pred, n_classes, ignore_index=None):
    counts = oracle.confusion(gt, pred, n_classes, ignore_index)
    ious = oracle.iou_values(counts)
    lines = csv_text.splitlines()
    expected_rows = n_classes + 2
    if len(lines) != expected_rows or lines[0] != "class_index,iou":
        return [f"{name}: eval CSV has {len(lines)} lines, want {expected_rows}"]
    problems = []
    for c, (line, iou) in enumerate(zip(lines[1:-1], ious)):
        index, _, value = line.partition(",")
        if index != str(c) or not _close(value, iou):
            problems.append(f"{name}: eval row {c} is '{line}', oracle {iou}")
    key, _, value = lines[-1].partition(",")
    if key != "miou" or not _close(value, oracle.mean_iou(counts)):
        problems.append(f"{name}: eval footer '{lines[-1]}', oracle "
                        f"{oracle.mean_iou(counts)}")
    return problems[:5]


def check_sweep(csv_text, scene, target, axes, oracle_settings):
    """Recompute every sweep row's mIoU with the oracle's confusion counts.

    Predictions come from the library's restricted pipeline; for the
    settings listed in `oracle_settings` they are also compared pixel by
    pixel with `oracle.pipeline`.
    """
    from segfuse.competition import (CompetitionSpec, restrict_to_classes,
                                     select_competitors)
    from segfuse.fusion import FusionConfig, fuse_and_decode
    from segfuse.prior import Aggregation, build_prior

    lines = csv_text.splitlines()
    settings = list(itertools.product(*axes))
    if len(lines) != len(settings) + 1:
        return [f"sweep: CSV has {len(lines) - 1} rows, want {len(settings)}"]
    n = scene.num_classes
    problems = []
    for k, ((p, sel, lam, tau, agg), line) in enumerate(zip(settings, lines[1:])):
        fields = line.split(",")
        head = f"{p:.6f},{sel},{lam:.6f},{tau:.6f},{agg},primary"
        if ",".join(fields[:-1]) != head:
            problems.append(f"sweep: row {k} is '{line}', want '{head},...'")
            continue
        competitors = sorted(select_competitors(
            scene.embeddings, scene.bank, CompetitionSpec(target, p, sel)))
        bank, store, evidence = restrict_to_classes(
            scene.bank, scene.embeddings, scene.evidence, competitors)
        mode = Aggregation(agg, tau) if agg == "lse" else Aggregation(agg)
        prior = build_prior(scene.features, store, bank, mode,
                            scene.height, scene.width)
        sub_pred = fuse_and_decode(evidence, prior, FusionConfig(lam)).data
        if k in oracle_settings:
            _, _, ref = oracle.pipeline(
                scene.features.data, store.vectors, store.offsets,
                evidence.mask_evidence.data, evidence.presence,
                lam=lam, tau_s=tau, aggregation=agg)
            if not np.array_equal(ref, sub_pred):
                problems.append(f"sweep: row {k} labels differ from oracle")
        pred = np.asarray(competitors)[sub_pred]
        gt = np.where(np.isin(scene.gt.data, competitors), scene.gt.data, n)
        expected = oracle.mean_iou(oracle.confusion(gt, pred, n, ignore_index=n))
        if not _close(fields[-1], expected):
            problems.append(
                f"sweep: row {k} miou {fields[-1]}, oracle {expected}")
    return problems[:5]


def check_pgm(pgm_bytes, labels):
    h, w = labels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    body = labels.astype(np.uint8).tobytes()
    return [] if pgm_bytes == header + body else ["pgm: bytes differ from labels"]

