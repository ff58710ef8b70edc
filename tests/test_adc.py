import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcal.adc import compute_adc as _compute_adc
from boxcal.calibrate import _hcdr_counts
from boxcal.formats import AnnotationSet, Detection, DetectionSet, ImageAnnotations, ImageDetections
from boxcal.geometry import BBox

BOX = BBox(0, 0, 4, 4)
FACE_BOX = BBox(0, 0, 8, 8)


def _img(n_faces):
    from boxcal.formats import FaceAnnotation
    return ImageAnnotations(path="x.jpg", faces=[FaceAnnotation(box=FACE_BOX)] * n_faces)


def _dets(scores, path="x.jpg"):
    return ImageDetections(path=path, dets=[Detection(box=BOX, score=s) for s in scores])


def compute_adc(pairs):
    """compute_adc over (annotations, detections) pairs of one image each."""
    return _compute_adc(AnnotationSet(images=[img for img, _ in pairs]),
                        DetectionSet(images=[d for _, d in pairs]))


def test_single_image_fixture():
    # 2 annotations, top-2 of [0.9, 0.8, 0.3] -> (0.9 + 0.8) / 2
    res = compute_adc([(_img(2), _dets([0.9, 0.8, 0.3]))])
    assert res.value == pytest.approx(0.85, abs=1e-9)
    assert res.denominator == 2
    assert res.numerator == pytest.approx(1.7, abs=1e-9)
    assert res.images_used == 1
    assert res.shortfall_images == 0
    # detections that are not aligned to the annotations: align(anns, dets) first
    with pytest.raises(ValueError, match="not aligned"):
        _compute_adc(AnnotationSet(images=[_img(2)]),
                     DetectionSet(images=[_dets([0.9, 0.8], path="y.jpg")]))


def test_shortfall_clamps_to_real_scores():
    res = compute_adc([(_img(3), _dets([0.6]))])
    assert res.value == 0.6
    assert res.denominator == 1
    assert res.shortfall_images == 1


def test_zero_annotations_contribute_nothing():
    res = compute_adc([(_img(0), _dets([0.9, 0.9]))])
    assert res.value == 0.0
    assert res.denominator == 0
    assert res.shortfall_images == 0  # 2 detections >= 0 annotations


def test_empty_dataset_warns_and_defaults(caplog):
    with caplog.at_level(logging.WARNING, logger="boxcal.adc"):
        res = compute_adc([])
    assert res.value == 0.0
    assert res.denominator == 0
    assert any("defaults to 0" in rec.message for rec in caplog.records)


def test_images_used_counts_contributors():
    pairs = [(_img(1), _dets([0.5])), (_img(0), _dets([0.9])), (_img(2), _dets([]))]
    res = compute_adc(pairs)
    assert res.images_used == 1
    assert res.shortfall_images == 1  # the image with 2 annotations, 0 detections


def hcdr_counts(score_lists, adc, n_faces=1):
    """calibrate._hcdr_counts at adc over images with n_faces annotations
    each and these (descending) detection scores."""
    paths = [f"{i}.jpg" for i in range(len(score_lists))]
    anns = AnnotationSet(images=[ImageAnnotations(path=p, faces=_img(n_faces).faces)
                                 for p in paths])
    dets = DetectionSet(images=[_dets(scores, p) for p, scores in zip(paths, score_lists)])
    return _hcdr_counts(anns, dets, adc).tolist()


def test_hcdr_counts_strictly_greater():
    scores = [[0.9, 0.6, 0.5]]
    assert hcdr_counts(scores, 0.6) == [1]
    assert hcdr_counts(scores, 0.59) == [2]
    assert hcdr_counts(scores, 0.95) == [0]
    assert hcdr_counts(scores, 0.0) == [3]


def test_hcdr_counts_empty():
    assert hcdr_counts([[]], 0.5) == [0]
    assert hcdr_counts([[0.9]], 0.5, n_faces=0) == [0]  # no annotation, no IoU to take


scores_lists = st.lists(st.floats(min_value=0, max_value=1, width=64), max_size=8)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6), scores_lists), max_size=6))
def test_compute_adc_matches_independent_sum(cases):
    pairs = []
    expected_scores = []
    expected_shortfall = 0
    for n_faces, scores in cases:
        ordered = sorted(scores, reverse=True)
        pairs.append((_img(n_faces), _dets(ordered)))
        used = min(n_faces, len(ordered))
        expected_scores.extend(ordered[:used])
        if len(ordered) < n_faces:
            expected_shortfall += 1
    res = compute_adc(pairs)
    assert res.denominator == len(expected_scores)
    assert res.shortfall_images == expected_shortfall
    if expected_scores:
        assert res.numerator == pytest.approx(math.fsum(expected_scores), abs=1e-12)
        assert res.value == pytest.approx(math.fsum(expected_scores) / len(expected_scores),
                                          abs=1e-12)
        assert min(expected_scores) - 1e-12 <= res.value <= max(expected_scores) + 1e-12
    else:
        assert res.value == 0.0


@given(st.lists(scores_lists, max_size=4), st.floats(min_value=0, max_value=1, width=64))
def test_hcdr_prefix_equals_filter_on_sorted(score_lists, threshold):
    ordered = [sorted(scores, reverse=True) for scores in score_lists]
    counts = hcdr_counts(ordered, threshold)
    assert [scores[:n] for scores, n in zip(ordered, counts)] == \
        [[s for s in scores if s > threshold] for scores in ordered]


# budget: used scores per block of images; at 1 every image is a block of
# its own, at 7 blocks hold a few images
@pytest.mark.parametrize("budget", [None, 1, 7])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                          st.lists(st.sampled_from([-0.0, 0.1, 1 / 3, 0.7, 1.0, 1e-17, 2e-9]),
                                   max_size=8)),
                max_size=12),
       st.booleans())
def test_numerator_is_bit_identical_to_a_plain_loop(budget, cases, negative_zeros):
    import boxcal.formats
    if negative_zeros:  # every score used is -0.0: the loop's sum is 0.0
        cases = [(n_faces, [-0.0] * len(scores)) for n_faces, scores in cases]
    ordered = [(n_faces, sorted(scores, reverse=True)) for n_faces, scores in cases]
    total = 0.0
    for n_faces, scores in ordered:
        for s in scores[:n_faces]:
            total += s
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boxcal.formats, "_ROW_BUDGET", budget or boxcal.formats._ROW_BUDGET)
        res = compute_adc([(_img(n_faces), _dets(scores)) for n_faces, scores in ordered])
    assert res.numerator.hex() == total.hex()
