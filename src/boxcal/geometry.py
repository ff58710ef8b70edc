"""Axis-aligned bounding-box arithmetic: areas and IoU, scalar and vectorised.

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
