"""Axis-aligned bounding-box arithmetic: areas, IoU, IoU matrices.

Boxes are stored as (x, y, w, h) in pixel coordinates and treated as the
continuous rectangle [x, x+w) x [y, y+h).  Boxes with w == 0 or h == 0 are
"degenerate": they have zero area and zero IoU against everything, but they
are legal values because real annotation files contain them.

All functions here are pure; inputs are immutable and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box: left edge, top edge, width, height (pixels)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError(f"box fields must be finite, got {self}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box width/height must be >= 0, got {self}")


@dataclass(frozen=True)
class IoUMatrix:
    """Pairwise IoU values, one row per predicted box, one column per annotated box."""

    values: np.ndarray  # float64, shape (rows, cols), every entry in [0, 1]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def area(b: BBox) -> float:
    """Box area in pixels^2; 0 for degenerate boxes."""
    return b.w * b.h


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Intersection uses half-open edge semantics:
    width = max(0, min(a.x+a.w, b.x+b.w) - max(a.x, b.x)), same for height.
    Returns 0.0 whenever the union has zero area, which covers every case
    with a degenerate operand.  The ratio is capped at 1.0: for
    near-identical boxes rounding can push it a few ulps past the true
    value, and the contract is a value in [0, 1].
    """
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if iw <= 0:
        return 0.0
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0:
        return 0.0
    return min(inter / union, 1.0)


def iou_matrix(preds: list[BBox], anns: list[BBox]) -> IoUMatrix:
    """Pairwise IoU of every predicted box against every annotated box.

    values[j][k] == iou(preds[j], anns[k]).  Empty inputs produce a matrix
    with the corresponding dimension equal to 0.  Cells come from
    `iou_cells`, so each is bit-identical to the scalar result.
    """
    if not preds or not anns:
        return IoUMatrix(np.zeros((len(preds), len(anns)), dtype=np.float64))

    p = np.array([(b.x, b.y, b.w, b.h) for b in preds], dtype=np.float64)
    a = np.array([(b.x, b.y, b.w, b.h) for b in anns], dtype=np.float64)
    # column vectors against row vectors broadcast to the full matrix
    return IoUMatrix(iou_cells(p[:, 0:1], p[:, 1:2], p[:, 2:3], p[:, 3:4],
                               a[:, 0], a[:, 1], a[:, 2], a[:, 3]))


def iou_cells(px: np.ndarray, py: np.ndarray, pw: np.ndarray, ph: np.ndarray,
              ax: np.ndarray, ay: np.ndarray, aw: np.ndarray, ah: np.ndarray) -> np.ndarray:
    """IoU of predicted boxes (px, py, pw, ph) against annotated boxes
    (ax, ay, aw, ah), cell by cell under numpy broadcasting.

    Equal-length vectors give one IoU per (prediction, annotation) pair;
    column vectors against row vectors give the full matrix.  The
    arithmetic mirrors the scalar `iou` operation term for term (same
    operations, same order, IEEE double throughout), so each cell is
    bit-identical to the scalar result.
    """
    iw = np.minimum(px + pw, ax + aw)
    iw -= np.maximum(px, ax)
    ih = np.minimum(py + ph, ay + ah)
    ih -= np.maximum(py, ay)
    np.clip(iw, 0.0, None, out=iw)
    np.clip(ih, 0.0, None, out=ih)
    inter = iw
    inter *= ih
    union = pw * ph + aw * ah
    union -= inter

    values = np.zeros_like(inter)
    np.divide(inter, union, out=values, where=union > 0)
    np.minimum(values, 1.0, out=values)  # same cap as the scalar path
    return values


def row_max_argmax(m: IoUMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row maximum and the column index achieving it.

    Ties break to the lowest column index, so identical inputs always give
    identical outputs.  A matrix with zero columns has no well-defined row
    maximum; callers are expected to skip images without annotations.
    """
    if m.cols == 0:
        raise ValueError("row_max_argmax needs at least one column")
    if m.rows == 0:
        return (np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64))
    # np.argmax returns the first occurrence, i.e. the lowest column index.
    return (m.values.max(axis=1), m.values.argmax(axis=1).astype(np.int64))
