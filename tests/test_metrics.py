"""Confusion matrix, IoU and mIoU behavior."""
import numpy as np
import pytest

from segfuse import (ConfusionMatrix, LabelMap, SegfuseError, ShapeError,
                     iou_report, miou)
from segfuse.metrics import per_class_iou

import oracle


def _lm(values):
    return LabelMap(np.asarray(values, dtype=np.uint32))


def test_matching_pixels_hit_diagonal():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[1, 1], [1, 1]]), _lm([[1, 1], [1, 1]]))
    assert cm.counts[1, 1] == 4
    assert cm.counts.sum() == 4


def test_ignore_index_skips_everything():
    cm = ConfusionMatrix(2, ignore_index=255)
    cm.accumulate(_lm([[255, 255]]), _lm([[0, 1]]))
    assert cm.counts.sum() == 0


def test_hand_counted_confusion():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[0, 0], [1, 1]]), _lm([[0, 1], [1, 1]]))
    assert cm.counts[0, 0] == 1
    assert cm.counts[0, 1] == 1
    assert cm.counts[1, 1] == 2
    assert cm.counts[1, 0] == 0
    ref = oracle.confusion([[0, 0], [1, 1]], [[0, 1], [1, 1]], 2)
    assert np.array_equal(cm.counts, ref)


def test_hand_counted_iou_and_miou():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[0, 0], [1, 1]]), _lm([[0, 1], [1, 1]]))
    vals = per_class_iou(cm)
    assert vals[0] == pytest.approx(0.5, abs=1e-9)
    assert vals[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert miou(cm) == pytest.approx(7.0 / 12.0, abs=1e-9)
    assert oracle.mean_iou(cm.counts) == pytest.approx(miou(cm), abs=1e-12)


def test_perfect_prediction():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(8, 8)).astype(np.uint32)
    cm = ConfusionMatrix(4)
    cm.accumulate(LabelMap(labels), LabelMap(labels))
    vals = per_class_iou(cm)
    assert np.allclose(vals[~np.isnan(vals)], 1.0)
    assert miou(cm) == 1.0


def test_full_swap_is_zero():
    cm = ConfusionMatrix(2)
    gt = np.zeros((4, 4), dtype=np.uint32)
    cm.accumulate(_lm(gt), _lm(gt + 1))
    gt2 = np.ones((4, 4), dtype=np.uint32)
    cm.accumulate(_lm(gt2), _lm(gt2 - 1))
    assert miou(cm) == 0.0


def test_absent_class_is_undefined():
    cm = ConfusionMatrix(3)
    cm.accumulate(_lm([[0, 1]]), _lm([[0, 1]]))
    vals = per_class_iou(cm)
    assert np.isnan(vals[2])
    assert miou(cm) == 1.0  # mean over defined classes only


def test_all_undefined_raises():
    cm = ConfusionMatrix(2, ignore_index=9)
    cm.accumulate(_lm([[9]]), _lm([[9]]))
    with pytest.raises(SegfuseError) as err:
        miou(cm)
    assert err.value.code == "all_classes_undefined"


@pytest.mark.parametrize("num_classes, ignore_index, code", [
    (0, None, "bad_class_count"),
    (-3, None, "bad_class_count"),
    (4, 2, "bad_ignore_index"),
    (4, 0, "bad_ignore_index"),
])
def test_bad_matrix_settings_carry_codes(num_classes, ignore_index, code):
    with pytest.raises(SegfuseError) as err:
        ConfusionMatrix(num_classes, ignore_index=ignore_index)
    assert err.value.code == code


def test_label_out_of_range():
    cm = ConfusionMatrix(2)
    with pytest.raises(SegfuseError) as err:
        cm.accumulate(_lm([[5]]), _lm([[0]]))
    assert err.value.code == "label_out_of_range"


def test_dim_mismatch():
    cm = ConfusionMatrix(2)
    with pytest.raises(ShapeError):
        cm.accumulate(_lm([[0, 0]]), _lm([[0], [0]]))


def test_pixel_order_irrelevant():
    rng = np.random.default_rng(7)
    gt = rng.integers(0, 3, size=36).astype(np.uint32)
    pred = rng.integers(0, 3, size=36).astype(np.uint32)
    perm = rng.permutation(36)
    a = ConfusionMatrix(3).accumulate(_lm(gt.reshape(6, 6)), _lm(pred.reshape(6, 6)))
    b = ConfusionMatrix(3).accumulate(_lm(gt[perm].reshape(6, 6)),
                                      _lm(pred[perm].reshape(6, 6)))
    assert np.array_equal(a.counts, b.counts)


def test_incremental_equals_pooled():
    rng = np.random.default_rng(11)
    images = [(rng.integers(0, 4, size=(5, 5)).astype(np.uint32),
               rng.integers(0, 4, size=(5, 5)).astype(np.uint32))
              for _ in range(6)]
    one_by_one = ConfusionMatrix(4)
    for gt, pred in images:
        one_by_one.accumulate(_lm(gt), _lm(pred))
    pooled = ConfusionMatrix(4)
    pooled.accumulate(_lm(np.concatenate([g for g, _ in images], axis=0)),
                      _lm(np.concatenate([p for _, p in images], axis=0)))
    assert np.array_equal(one_by_one.counts, pooled.counts)


def test_miou_bounds_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cm = ConfusionMatrix(3)
        cm.accumulate(_lm(rng.integers(0, 3, size=(6, 6)).astype(np.uint32)),
                      _lm(rng.integers(0, 3, size=(6, 6)).astype(np.uint32)))
        value = miou(cm)
        assert 0.0 <= value <= 1.0
        off_diag = cm.counts.sum() - np.trace(cm.counts)
        assert (value == 1.0) == (off_diag == 0)


def test_iou_report_format():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[0, 0], [1, 1]]), _lm([[0, 1], [1, 1]]))
    report = iou_report(cm)
    lines = report.strip().split("\n")
    assert lines[0] == "class_index,iou"
    assert lines[1] == "0,0.500000"
    assert lines[2] == "1,0.666667"
    assert lines[3] == "miou,0.583333"
