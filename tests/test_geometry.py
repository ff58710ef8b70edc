import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcal.calibrate import CalibrationConfig, calibrate_dataset
from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections)
from boxcal.geometry import BBox, iou, iou_cells
from boxcal.synth import oracle_calibrate

# Coordinate bounds keep float cancellation far below the 1e-9 tolerances:
# at |x| <= 8192 one ulp is ~1.8e-12.
coords = st.floats(min_value=-4096, max_value=4096, allow_nan=False, width=64)
sizes = st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=2048, width=64))


@st.composite
def boxes(draw):
    return BBox(draw(coords), draw(coords), draw(sizes), draw(sizes))


def test_worked_example():
    # inter = 5*10 = 50, union = 100 + 100 - 50 = 150
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == 50.0 / 150.0
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-9)


def test_identity_is_exactly_one():
    b = BBox(3.5, -2.0, 7.25, 11.0)
    assert iou(b, b) == 1.0


def test_containment():
    # inter = 25, union = 100 + 25 - 25 = 100
    assert iou(BBox(0, 0, 10, 10), BBox(2, 2, 5, 5)) == 0.25


def test_disjoint_and_touching_are_zero():
    a = BBox(0, 0, 10, 10)
    assert iou(a, BBox(20, 0, 10, 10)) == 0.0
    # Edges are half-open: sharing the x = 10 edge is no overlap.
    assert iou(a, BBox(10, 0, 10, 10)) == 0.0
    assert iou(a, BBox(0, 10, 10, 10)) == 0.0


def test_degenerate_boxes():
    a = BBox(0, 0, 10, 10)
    assert iou(a, BBox(5, 5, 0, 4)) == 0.0   # zero width, inside a
    assert iou(a, BBox(5, 5, 4, 0)) == 0.0   # zero height
    assert iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0  # union is empty
    # both areas underflow to 0, so the union is empty on every path
    tiny = BBox(0, 0, 1e-200, 1e-200)
    assert iou(tiny, tiny) == 0.0
    assert iou_cells(*([np.array([v]) for v in (0.0, 0.0, 1e-200, 1e-200)] * 2)).tolist() == [0.0]
    anns = AnnotationSet(images=[ImageAnnotations("a.jpg", [FaceAnnotation(box=tiny)])])
    dets = DetectionSet(images=[ImageDetections("a.jpg", [Detection(box=tiny, score=0.9)])])
    for impl in (calibrate_dataset, oracle_calibrate):
        assert impl(anns, dets, CalibrationConfig(adc_override=0.5)).hcdr_ious.tolist() == [0.0]


def test_bbox_rejects_bad_fields():
    with pytest.raises(ValueError):
        BBox(0, 0, -1, 5)
    with pytest.raises(ValueError):
        BBox(0, 0, 5, -0.5)
    with pytest.raises(ValueError):
        BBox(math.nan, 0, 1, 1)
    with pytest.raises(ValueError):
        BBox(0, math.inf, 1, 1)
    # finite fields whose right or bottom edge or area overflows
    for fields in [(1e308, 0, 1e308, 10), (0, 1.5e308, 1, 0.5e308), (0, 0, 1e200, 1e200),
                   (0, 0, 1e308, 2)]:
        with pytest.raises(ValueError, match="must be finite"):
            BBox(*fields)


def test_iou_paths_agree_on_boxes_near_the_float_limit():
    pairs = [(BBox(1e308, 0, 7e307, 1), BBox(1e308, 0, 7e307, 0.7)),      # IoU 0.7
             (BBox(-1.7e308, 0, 1.7e308, 0.5), BBox(-1.7e308, 0, 1.7e308, 0.25)),
             (BBox(1.7e308, 0, 1e291, 1), BBox(1.7e308, 0, 1e291, 1)),  # x + w == x
             (BBox(0, -1e308, 10, 10), BBox(0, 1e308, 10, 10)),  # y gap overflows to -inf
             # the two areas sum past the float range: the union is redone in halves
             (BBox(0, 0, 1e308, 1.5), BBox(0, 0, 1e308, 1.5)),
             (BBox(0, 0, 1e308, 1.5), BBox(0, 0, 1e308, 1.2)),
             (BBox(0, 0, 1e308, 1.5), BBox(5e307, 0, 1e308, 1.5)),
             (BBox(0, 0, 1e308, 1.5), BBox(0, 0.5, 1e308, 1.5))]
    for ann, det in pairs:
        scalar = iou(det, ann)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning
            cells = iou_cells(*_columns([det]), *_columns([ann]))
        anns = AnnotationSet(images=[ImageAnnotations(path="a.jpg", faces=[FaceAnnotation(box=ann)])])
        dets = DetectionSet(images=[ImageDetections(path="a.jpg", dets=[Detection(box=det, score=1.0)])])
        cfg = CalibrationConfig(t_m=0.0, t_c=1.0, adc_override=0.5)
        fast, slow = calibrate_dataset(anns, dets, cfg), oracle_calibrate(anns, dets, cfg)
        assert 0.0 <= scalar <= 1.0
        assert cells.tolist() == fast.hcdr_ious.tolist() == slow.hcdr_ious.tolist() == [scalar]
        assert fast.calibrated == slow.calibrated and fast.mbps == slow.mbps
    # a zero-width intersection gives 0; the overflowing unions give the true ratios
    assert [iou(*p) for p in pairs[:2]] == pytest.approx([0.7, 0.5])
    assert iou(*pairs[2]) == iou(*pairs[3]) == 0.0
    assert iou(*pairs[4]) == 1.0
    assert [iou(*p) for p in pairs[5:]] == pytest.approx([0.8, 1 / 3, 0.5], abs=1e-15)
    # cells that do not overflow are bit-identical to the unhalved arithmetic
    a, b = BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)
    assert iou(a, b) == 50.0 / (100.0 + 100.0 - 50.0)


@given(boxes(), boxes())
def test_symmetry(a, b):
    assert abs(iou(a, b) - iou(b, a)) <= 1e-9


@given(boxes(), boxes())
def test_bounds(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0


@given(boxes(), boxes(), coords, coords)
def test_translation_invariance(a, b, dx, dy):
    a2 = BBox(a.x + dx, a.y + dy, a.w, a.h)
    b2 = BBox(b.x + dx, b.y + dy, b.w, b.h)
    assert abs(iou(a2, b2) - iou(a, b)) <= 1e-9


@given(boxes(), boxes(), st.floats(min_value=0.01, max_value=100, width=64))
def test_scale_covariance(a, b, s):
    a2 = BBox(a.x * s, a.y * s, a.w * s, a.h * s)
    b2 = BBox(b.x * s, b.y * s, b.w * s, b.h * s)
    assert abs(iou(a2, b2) - iou(a, b)) <= 1e-9


def _columns(bxs: list[BBox]) -> list[np.ndarray]:
    return [np.array([getattr(b, f) for b in bxs], dtype=np.float64) for f in "xywh"]


@settings(max_examples=200)
@given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
def test_matrix_mirrors_scalar_bitwise(preds, anns):
    # column vectors against row vectors broadcast to the full matrix
    m = iou_cells(*[c[:, None] for c in _columns(preds)], *_columns(anns))
    assert m.shape == (len(preds), len(anns))
    for j, p in enumerate(preds):
        for k, a in enumerate(anns):
            # Exact equality on purpose: the matrix must be a bit-for-bit
            # vectorization of the scalar path.
            assert float(m[j, k]) == iou(p, a)
    # the same cells elementwise, one (prediction, annotation) pair each
    pairs = [(p, a) for p in preds for a in anns]
    cols = _columns([p for p, _ in pairs]) + _columns([a for _, a in pairs])
    assert iou_cells(*cols).tolist() == [iou(p, a) for p, a in pairs]


def _raster_iou(a: BBox, b: BBox) -> float:
    """Independent oracle: paint unit pixels on a grid and count."""
    grid_a = np.zeros((130, 130), dtype=bool)
    grid_b = np.zeros((130, 130), dtype=bool)
    grid_a[int(a.y):int(a.y + a.h), int(a.x):int(a.x + a.w)] = True
    grid_b[int(b.y):int(b.y + b.h), int(b.x):int(b.x + b.w)] = True
    inter = int(np.count_nonzero(grid_a & grid_b))
    union = int(np.count_nonzero(grid_a | grid_b))
    return inter / union if union else 0.0


def test_rasterization_oracle_sample():
    # Integer boxes in [0, 64]^2: intersection and union areas are integers,
    # so the continuous formula must agree with pixel counting exactly.
    rng = random.Random(424242)
    for _ in range(1000):
        ax, ay = rng.randint(0, 64), rng.randint(0, 64)
        bx, by = rng.randint(0, 64), rng.randint(0, 64)
        a = BBox(ax, ay, rng.randint(0, 64), rng.randint(0, 64))
        b = BBox(bx, by, rng.randint(0, 64), rng.randint(0, 64))
        assert iou(a, b) == _raster_iou(a, b)
