"""Confusion-matrix accumulation, per-class IoU and mIoU."""
from __future__ import annotations

import numpy as np

from .errors import SegfuseError, ShapeError
from .grid import LabelMap


class ConfusionMatrix:
    """Pooled gt-by-prediction pixel counts; rows = ground truth, cols = prediction."""

    def __init__(self, num_classes: int, ignore_index: int | None = None):
        if num_classes < 1:
            raise SegfuseError("bad_class_count",
                               f"num_classes must be >= 1, got {num_classes}")
        if ignore_index is not None and 0 <= ignore_index < num_classes:
            raise SegfuseError(
                "bad_ignore_index",
                f"ignore_index {ignore_index} must lie outside 0..{num_classes - 1}")
        self.num_classes = num_classes
        self.ignore_index = ignore_index
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, gt: LabelMap, pred: LabelMap) -> "ConfusionMatrix":
        """Add one image pair; pixels labeled ignore_index on either side are skipped."""
        if gt.dims != pred.dims:
            raise ShapeError(f"gt dims {gt.dims} != pred dims {pred.dims}")
        g = gt.data.ravel().astype(np.int64)
        p = pred.data.ravel().astype(np.int64)
        if self.ignore_index is not None:
            keep = (g != self.ignore_index) & (p != self.ignore_index)
            g, p = g[keep], p[keep]
        if g.size and (g.max() >= self.num_classes or p.max() >= self.num_classes):
            raise SegfuseError(
                "label_out_of_range",
                f"labels must be < {self.num_classes} or == ignore_index")
        n = self.num_classes
        self.counts += np.bincount(g * n + p, minlength=n * n).reshape(n, n)
        return self


def per_class_iou(cm: ConfusionMatrix) -> np.ndarray:
    """IoU per class; classes absent from both gt and prediction come back NaN."""
    counts = cm.counts.astype(np.float64)
    inter = np.diag(counts)
    union = counts.sum(axis=1) + counts.sum(axis=0) - inter
    with np.errstate(invalid="ignore"):
        return np.where(union > 0, inter / np.where(union > 0, union, 1.0), np.nan)


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
        lines.append(f"{c},nan" if np.isnan(v) else f"{c},{v:.6f}")
    lines.append(f"miou,{miou(cm):.6f}")
    return "\n".join(lines) + "\n"
