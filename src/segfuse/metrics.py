"""Per-class intersection and union counts, per-class IoU and mIoU."""
from __future__ import annotations

import numpy as np

from .errors import SegfuseError, check_equal, check_int
from .grid import _MAX_U32, LabelMap


class ConfusionMatrix:
    """Pooled per-class pixel counts in O(C) memory: the confusion matrix's
    diagonal (`intersection`), row sums (`gt_pixels`), column sums (`pred_pixels`)."""

    def __init__(self, num_classes: int, ignore_index: int | None = None):
        # no uint32 label names a class past _MAX_U32
        check_int("bad_class_count", "num_classes", num_classes, 1, _MAX_U32 + 1)
        # it must name no class, and be a label that a uint32 map can hold
        if ignore_index is not None:
            check_int("bad_ignore_index", "ignore_index", ignore_index,
                      num_classes, _MAX_U32)
        self.num_classes = num_classes
        self.ignore_index = ignore_index
        self.intersection = np.zeros(num_classes, dtype=np.int64)
        self.gt_pixels = np.zeros(num_classes, dtype=np.int64)
        self.pred_pixels = np.zeros(num_classes, dtype=np.int64)

    def accumulate(self, gt: LabelMap, pred: LabelMap) -> "ConfusionMatrix":
        """Add one image pair; pixels labeled ignore_index on either side are skipped."""
        check_equal("shape_mismatch", "dims", gt=gt.dims, pred=pred.dims)
        g = gt.data.ravel().astype(np.int64)
        p = pred.data.ravel().astype(np.int64)
        if self.ignore_index is not None:
            keep = (g != self.ignore_index) & (p != self.ignore_index)
            g, p = g[keep], p[keep]
        check_int("label_out_of_range", "counted label",
                  int(max(g.max(initial=0), p.max(initial=0))), 0, self.num_classes - 1)
        n = self.num_classes
        self.intersection += np.bincount(g[g == p], minlength=n)
        self.gt_pixels += np.bincount(g, minlength=n)
        self.pred_pixels += np.bincount(p, minlength=n)
        return self


def per_class_iou(cm: ConfusionMatrix) -> np.ndarray:
    """IoU per class; classes absent from both gt and prediction come back NaN."""
    union = cm.gt_pixels + cm.pred_pixels - cm.intersection
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN
        return cm.intersection / union


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU over defined classes only."""
    vals = per_class_iou(cm)
    defined = ~np.isnan(vals)
    if not defined.any():
        raise SegfuseError("all_classes_undefined", "no class has any counted pixel")
    return float(vals[defined].mean())


def iou_report(cm: ConfusionMatrix) -> str:
    """CSV report: one `class_index,iou` row per class, `miou` footer, 6 decimals."""
    vals = per_class_iou(cm)
    lines = ["class_index,iou"]
    for c, v in enumerate(vals):
        lines.append(f"{c},{v:.6f}")  # NaN prints as nan
    lines.append(f"miou,{miou(cm):.6f}")
    return "\n".join(lines) + "\n"
