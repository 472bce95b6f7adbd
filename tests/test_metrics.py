"""Per-class counts, IoU and mIoU behavior."""
import numpy as np
import pytest

from segfuse import ConfusionMatrix, LabelMap, SegfuseError, iou_report, miou
from segfuse.metrics import per_class_iou

import oracle
from scenes import traced_peak


def _lm(values):
    return LabelMap(np.asarray(values, dtype=np.uint32))


def _counts(cm):
    """The counts IoU reads: intersection, gt pixels and pred pixels per class."""
    return np.stack([cm.intersection, cm.gt_pixels, cm.pred_pixels])


def _oracle_counts(gt, pred, n_classes, ignore_index=None):
    """The hand-rolled confusion matrix's diagonal, row sums and column sums."""
    counts = oracle.confusion(gt, pred, n_classes, ignore_index)
    return np.stack([np.diag(counts), counts.sum(axis=1), counts.sum(axis=0)])


def test_matching_pixels_hit_diagonal():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[1, 1], [1, 1]]), _lm([[1, 1], [1, 1]]))
    assert cm.intersection.tolist() == [0, 4]
    assert cm.gt_pixels.tolist() == [0, 4]
    assert cm.pred_pixels.tolist() == [0, 4]


def test_ignore_index_skips_everything():
    cm = ConfusionMatrix(2, ignore_index=255)
    cm.accumulate(_lm([[255, 255]]), _lm([[0, 1]]))
    assert not _counts(cm).any()


def test_hand_counted_confusion():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[0, 0], [1, 1]]), _lm([[0, 1], [1, 1]]))
    # the matrix [[1, 1], [0, 2]]: its diagonal, row sums and column sums
    assert cm.intersection.tolist() == [1, 2]
    assert cm.gt_pixels.tolist() == [2, 2]
    assert cm.pred_pixels.tolist() == [1, 3]
    ref = _oracle_counts([[0, 0], [1, 1]], [[0, 1], [1, 1]], 2)
    assert np.array_equal(_counts(cm), ref)


def test_hand_counted_iou_and_miou():
    cm = ConfusionMatrix(2)
    cm.accumulate(_lm([[0, 0], [1, 1]]), _lm([[0, 1], [1, 1]]))
    vals = per_class_iou(cm)
    assert vals[0] == pytest.approx(0.5, abs=1e-9)
    assert vals[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert miou(cm) == pytest.approx(7.0 / 12.0, abs=1e-9)
    ref = oracle.confusion([[0, 0], [1, 1]], [[0, 1], [1, 1]], 2)
    assert oracle.mean_iou(ref) == pytest.approx(miou(cm), abs=1e-12)


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
    # no uint32 label names a class past 2**32 - 1
    (2**32 + 1, None, "bad_class_count"),
    (10**10, None, "bad_class_count"),
    (4, 2, "bad_ignore_index"),
    (4, 0, "bad_ignore_index"),
    # no uint32 label equals these
    (4, -1, "bad_ignore_index"),
    (4, 2**32, "bad_ignore_index"),
    # in range, but not an integer
    (4, 4.5, "bad_ignore_index"),
    (4.5, None, "bad_class_count"),
    (True, None, "bad_class_count"),
])
def test_bad_matrix_settings_carry_codes(num_classes, ignore_index, code):
    with pytest.raises(SegfuseError) as err:
        ConfusionMatrix(num_classes, ignore_index=ignore_index)
    assert err.value.code == code


def test_numpy_integer_settings_count_alike():
    gt = LabelMap(np.array([[0, 1], [255, 3]], dtype=np.uint32))
    pred = LabelMap(np.array([[0, 2], [1, 255]], dtype=np.uint32))
    plain = ConfusionMatrix(4, ignore_index=255).accumulate(gt, pred)
    wide = ConfusionMatrix(np.int64(4), ignore_index=np.uint32(255))
    wide.accumulate(gt, pred)
    for counts in ("intersection", "gt_pixels", "pred_pixels"):
        assert np.array_equal(getattr(wide, counts), getattr(plain, counts))
    assert plain.gt_pixels.sum() == 2


def test_label_out_of_range():
    cm = ConfusionMatrix(2)
    with pytest.raises(SegfuseError) as err:
        cm.accumulate(_lm([[5]]), _lm([[0]]))
    assert err.value.code == "label_out_of_range"


def test_dim_mismatch():
    cm = ConfusionMatrix(2)
    with pytest.raises(SegfuseError) as err:
        cm.accumulate(_lm([[0, 0]]), _lm([[0], [0]]))
    assert err.value.code == "shape_mismatch"


def test_pixel_order_irrelevant():
    rng = np.random.default_rng(7)
    gt = rng.integers(0, 3, size=36).astype(np.uint32)
    pred = rng.integers(0, 3, size=36).astype(np.uint32)
    perm = rng.permutation(36)
    a = ConfusionMatrix(3).accumulate(_lm(gt.reshape(6, 6)), _lm(pred.reshape(6, 6)))
    b = ConfusionMatrix(3).accumulate(_lm(gt[perm].reshape(6, 6)),
                                      _lm(pred[perm].reshape(6, 6)))
    assert np.array_equal(_counts(a), _counts(b))
    assert np.array_equal(_counts(a), _oracle_counts(gt, pred, 3))


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
    assert np.array_equal(_counts(one_by_one), _counts(pooled))
    assert np.array_equal(_counts(pooled), _oracle_counts(
        np.concatenate([g for g, _ in images]),
        np.concatenate([p for _, p in images]), 4))


def test_miou_bounds_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cm = ConfusionMatrix(3)
        gt = rng.integers(0, 3, size=(6, 6)).astype(np.uint32)
        pred = rng.integers(0, 3, size=(6, 6)).astype(np.uint32)
        cm.accumulate(_lm(gt), _lm(pred))
        value = miou(cm)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(
            oracle.mean_iou(oracle.confusion(gt, pred, 3)), abs=1e-12)
        off_diag = cm.gt_pixels.sum() - cm.intersection.sum()
        assert (value == 1.0) == (off_diag == 0)


def test_iou_report_format():
    # class 2 is in neither map, so its IoU is NaN
    cm = ConfusionMatrix(3)
    cm.accumulate(_lm([[0, 0], [1, 1]]), _lm([[0, 1], [1, 1]]))
    report = iou_report(cm)
    assert report == ("class_index,iou\n0,0.500000\n1,0.666667\n2,nan\n"
                      "miou,0.583333\n")


def test_counts_hold_no_class_by_class_matrix():
    rng = np.random.default_rng(23)
    classes = 2048
    gt = _lm(rng.integers(0, classes, size=(64, 64)))
    pred = _lm(rng.integers(0, classes, size=(64, 64)))
    peak = traced_peak(lambda: iou_report(
        ConfusionMatrix(classes).accumulate(gt, pred)))
    # a C x C int64 matrix alone is 32 MiB here
    assert peak < 2**20, peak
