import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcal.geometry import BBox, area, iou, iou_cells, iou_matrix, row_max_argmax

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
    assert area(BBox(1, 1, 0, 5)) == 0.0


def test_bbox_rejects_bad_fields():
    with pytest.raises(ValueError):
        BBox(0, 0, -1, 5)
    with pytest.raises(ValueError):
        BBox(0, 0, 5, -0.5)
    with pytest.raises(ValueError):
        BBox(math.nan, 0, 1, 1)
    with pytest.raises(ValueError):
        BBox(0, math.inf, 1, 1)


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


@settings(max_examples=200)
@given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
def test_matrix_mirrors_scalar_bitwise(preds, anns):
    m = iou_matrix(preds, anns)
    assert m.values.shape == (len(preds), len(anns))
    for j, p in enumerate(preds):
        for k, a in enumerate(anns):
            # Exact equality on purpose: the matrix must be a bit-for-bit
            # vectorization of the scalar path.
            assert float(m.values[j, k]) == iou(p, a)
    # the same cells elementwise, one (prediction, annotation) pair each
    pairs = [(p, a) for p in preds for a in anns]
    cols = [np.array([getattr(b, f) for b in side], dtype=np.float64)
            for side in ([p for p, _ in pairs], [a for _, a in pairs]) for f in "xywh"]
    assert iou_cells(*cols).tolist() == [iou(p, a) for p, a in pairs]


def test_matrix_empty_inputs():
    assert iou_matrix([], [BBox(0, 0, 1, 1)]).values.shape == (0, 1)
    assert iou_matrix([BBox(0, 0, 1, 1)], []).values.shape == (1, 0)
    assert iou_matrix([], []).values.shape == (0, 0)


def test_row_max_argmax_tie_breaks_low():
    m = iou_matrix([BBox(0, 0, 10, 10)], [BBox(0, 0, 10, 5), BBox(0, 5, 10, 5)])
    max_o, arg_o = row_max_argmax(m)
    assert max_o[0] == 0.5  # both columns give 50/100
    assert arg_o[0] == 0


def test_row_max_argmax_edge_shapes():
    with pytest.raises(ValueError):
        row_max_argmax(iou_matrix([BBox(0, 0, 1, 1)], []))
    max_o, arg_o = row_max_argmax(iou_matrix([], [BBox(0, 0, 1, 1)]))
    assert max_o.shape == (0,) and arg_o.shape == (0,)


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
