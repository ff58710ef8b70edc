"""Axis-aligned bounding-box arithmetic: IoU, scalar and vectorised.

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
        # the far edges and the area are IoU's terms; finite ones imply finite fields
        if not (math.isfinite(self.x + self.w) and math.isfinite(self.y + self.h)
                and math.isfinite(self.w * self.h)):
            raise ValueError(f"box fields, right/bottom edges and area must be finite, got {self}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box width/height must be >= 0, got {self}")


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """BBox's conditions on each x y w h row of boxes (N, 4): finite far
    edges and area, non-negative width and height."""
    x, y, w, h = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.isfinite(x + w) & np.isfinite(y + h) & np.isfinite(w * h)
                & (w >= 0) & (h >= 0))


def check_boxes(boxes: np.ndarray) -> None:
    """Raise BBox's ValueError for the first row of boxes (N, 4) that is
    not a valid BBox."""
    bad = np.flatnonzero(~valid_boxes(boxes))
    if bad.size:
        BBox(*boxes[bad[0]].tolist())


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Intersection uses half-open edge semantics:
    width = max(0, min(a.x+a.w, b.x+b.w) - max(a.x, b.x)), same for height.
    Returns 0.0 whenever the union has zero area, which covers every case
    with a degenerate operand.  Where the two areas sum past the float
    range, the ratio is taken with every term halved, which is exact for
    normal floats and leaves every other result as it was.  The ratio is
    capped at 1.0: for near-identical boxes rounding can push it a few ulps
    past the true value, and the contract is a value in [0, 1].
    """
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if iw <= 0:
        return 0.0
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union == math.inf:
        inter, union = inter / 2, a.w * a.h / 2 + b.w * b.h / 2 - inter / 2
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
    with np.errstate(over="ignore"):  # boxes far apart: -inf, clipped to 0 below
        iw = np.minimum(px + pw, ax + aw)
        iw -= np.maximum(px, ax)
        ih = np.minimum(py + ph, ay + ah)
        ih -= np.maximum(py, ay)
    np.clip(iw, 0.0, None, out=iw)
    np.clip(ih, 0.0, None, out=ih)
    inter = iw
    inter *= ih
    with np.errstate(over="ignore"):  # an overflowing union is redone below
        union = pw * ph + aw * ah
    union -= inter
    over = np.isinf(union)
    if over.any():  # as in the scalar path: every term halved
        half = pw * ph / 2 + aw * ah / 2 - inter / 2
        np.copyto(union, half, where=over)
        np.copyto(inter, inter / 2, where=over)

    values = np.zeros_like(inter)
    np.divide(inter, union, out=values, where=union > 0)
    np.minimum(values, 1.0, out=values)  # same cap as the scalar path
    return values
