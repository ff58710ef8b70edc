import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcal.calibrate import CalibrationConfig, calibrate_dataset
from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections)
from boxcal.geometry import BBox, iou
from boxcal.synth import SynthSpec, emit_detections, generate_dataset, perturb
from claims import claim_table

CFG = CalibrationConfig(adc_override=0.5)


def _ann_img(boxes, path="x.jpg", **flags):
    return ImageAnnotations(path=path, faces=[FaceAnnotation(box=b, **flags) for b in boxes])


def _det(box, score):
    return Detection(box=box, score=score)


def _run_one(ann_img, dets, cfg=CFG):
    anns = AnnotationSet(images=[ann_img])
    det_set = DetectionSet(images=[ImageDetections(path=ann_img.path, dets=dets)])
    return calibrate_dataset(anns, det_set, cfg)


def test_worked_example_replacement():
    # det (2,0,10,10) vs ann (0,0,10,10): inter 80, union 120 -> IoU 2/3,
    # inside [0.5, 0.8] -> the annotation takes the detection's box.
    ann = _ann_img([BBox(0, 0, 10, 10)])
    res = _run_one(ann, [_det(BBox(2, 0, 10, 10), 0.9)])
    assert res.calibrated.images[0].faces[0].box == BBox(2, 0, 10, 10)
    assert len(res.mbps) == 1
    r = res.mbps[0]
    assert (r.det_index, r.ann_index) == (0, 0)
    assert r.iou == pytest.approx(2 / 3, abs=1e-9)
    assert r.score == 0.9
    assert r.old_box == BBox(0, 0, 10, 10)


def test_one_annotation_cannot_be_claimed_twice():
    # D1 (score 0.9, IoU 0.7) claims the annotation; D2 (score 0.8, IoU 0.6)
    # finds it taken and is dropped, with no fallback to any other box.
    ann = _ann_img([BBox(0, 0, 10, 10)])
    d1 = _det(BBox(0, 0, 10, 7), 0.9)    # inter 70, union 100 -> 0.7
    d2 = _det(BBox(0, 0, 10, 6), 0.8)    # inter 60, union 100 -> 0.6
    res = _run_one(ann, [d1, d2])
    assert len(res.mbps) == 1
    assert res.mbps[0].score == 0.9
    assert res.calibrated.images[0].faces[0].box == BBox(0, 0, 10, 7)
    assert res.counters.skipped_already_claimed == 1
    assert res.counters.skipped_out_of_interval == 0


def test_no_fallback_to_second_best():
    # The detection's argmax annotation is out of interval (IoU 0.9); its
    # second-best (IoU 2/3) is inside, but single-assignment means the
    # detection is dropped outright.
    a0 = BBox(0, 0, 10, 9)    # IoU vs det: 90/100 = 0.9
    a1 = BBox(2, 0, 10, 10)   # IoU vs det: 80/120 = 2/3
    ann = _ann_img([a0, a1])
    res = _run_one(ann, [_det(BBox(0, 0, 10, 10), 0.9)])
    assert res.mbps == []
    assert res.calibrated.images[0].faces[0].box == a0
    assert res.calibrated.images[0].faces[1].box == a1
    assert res.counters.skipped_out_of_interval == 1


def test_interval_is_closed_at_both_edges():
    ann = _ann_img([BBox(0, 0, 10, 10)])
    at_lower = _det(BBox(0, 0, 10, 5), 0.9)    # 50/100 = 0.5 exactly
    at_upper = _det(BBox(0, 0, 10, 8), 0.9)    # 80/100 = 0.8 exactly
    assert len(_run_one(ann, [at_lower]).mbps) == 1
    assert len(_run_one(ann, [at_upper]).mbps) == 1
    just_above = _det(BBox(0, 0, 10, 8.1), 0.9)  # 81/100 = 0.81
    just_below = _det(BBox(0, 0, 10, 4.9), 0.9)  # 49/100 = 0.49
    assert _run_one(ann, [just_above]).mbps == []
    assert _run_one(ann, [just_below]).mbps == []


def test_adc_gate_is_strict():
    ann = _ann_img([BBox(0, 0, 10, 10)])
    det = _det(BBox(0, 0, 10, 7), 0.5)
    res = _run_one(ann, [det], CalibrationConfig(adc_override=0.5))
    assert res.mbps == []  # score equal to the threshold is not enough
    assert res.counters.hcdrs_considered == 0
    res = _run_one(ann, [dataclasses.replace(det, score=0.51)])
    assert len(res.mbps) == 1


def test_hcdr_ious_respect_the_confidence_gate():
    ann = _ann_img([BBox(0, 0, 10, 10), BBox(100, 0, 10, 10)])
    dets = [_det(BBox(0, 0, 10, 5.5), 0.9), _det(BBox(100, 0, 10, 6.5), 0.4)]
    assert _run_one(ann, dets).hcdr_ious.tolist() == [0.55]
    assert _run_one(ann, [d for d in dets if d.score < 0.5]).hcdr_ious.size == 0


def test_hcdr_ious_follow_image_then_score_order():
    anns = AnnotationSet(images=[_ann_img([BBox(0, 0, 10, 10)], path="a.jpg"),
                                 _ann_img([BBox(0, 0, 10, 10)], path="b.jpg")])
    dets = DetectionSet(images=[
        ImageDetections(path="b.jpg", dets=[_det(BBox(0, 0, 10, 9), 0.9)]),
        ImageDetections(path="a.jpg", dets=[_det(BBox(0, 0, 10, 6), 0.95),
                                            _det(BBox(0, 0, 10, 7), 0.6)]),
    ])
    res = calibrate_dataset(anns, dets, CFG)
    assert res.hcdr_ious.tolist() == [0.6, 0.7, 0.9]
    # out-of-interval and already-claimed detections are recorded too
    assert res.counters.hcdrs_considered == 3 == res.hcdr_ious.size


def test_argmax_tie_goes_to_lowest_index():
    b = BBox(0, 0, 10, 10)
    ann = _ann_img([b, b])
    res = _run_one(ann, [_det(BBox(0, 0, 10, 7), 0.9)])
    assert len(res.mbps) == 1
    assert res.mbps[0].ann_index == 0
    assert res.calibrated.images[0].faces[1].box == b


def test_matching_uses_original_geometry():
    # D1 replaces the annotation's box. D2's max IoU is still computed
    # against the ORIGINAL box, so it sees the annotation as claimed rather
    # than re-matching against the replaced geometry.
    ann = _ann_img([BBox(0, 0, 10, 10)])
    d1 = _det(BBox(0, 0, 10, 8), 0.9)     # 0.8, claims
    d2 = _det(BBox(0, 0, 10, 6.4), 0.8)   # 0.64 vs original -> in-interval
    res = _run_one(ann, [d1, d2])
    assert len(res.mbps) == 1
    assert res.counters.skipped_already_claimed == 1
    # vs the replaced box D2 would have been 64/80 = 0.8, also in-interval;
    # the claimed counter proves it matched the original instead.


def test_flags_and_order_preserved():
    f0 = FaceAnnotation(box=BBox(0, 0, 10, 10), blur=2, occlusion=1, pose=1)
    f1 = FaceAnnotation(box=BBox(100, 100, 10, 10), expression=1, invalid=1)
    ann = ImageAnnotations(path="x.jpg", faces=[f0, f1])
    res = _run_one(ann, [_det(BBox(0, 0, 10, 7), 0.9)])
    out = res.calibrated.images[0].faces
    assert len(out) == 2
    assert out[0].box == BBox(0, 0, 10, 7)
    assert (out[0].blur, out[0].occlusion, out[0].pose) == (2, 1, 1)
    assert out[1] == f1  # untouched face is identical, flags included


def test_exclude_invalid_annotations():
    # The detection overlaps the invalid face more (0.8) than the valid one
    # (0.75); with include_invalid=False only valid faces are matchable, so
    # the claim lands on the valid face instead.
    invalid = FaceAnnotation(box=BBox(0, 0, 10, 10), invalid=1)
    valid = FaceAnnotation(box=BBox(0, 0, 10, 6))
    ann = ImageAnnotations(path="x.jpg", faces=[invalid, valid])
    det = _det(BBox(0, 0, 10, 8), 0.9)  # vs invalid 80/100; vs valid 60/80
    cfg = CalibrationConfig(adc_override=0.5, include_invalid=False)
    res = _run_one(ann, [det], cfg)
    assert len(res.mbps) == 1
    assert res.mbps[0].ann_index == 1
    assert res.mbps[0].iou == 0.75
    assert res.calibrated.images[0].faces[0].box == BBox(0, 0, 10, 10)
    # the recorded max IoU still spans every annotation, invalid ones included
    assert res.hcdr_ious.tolist() == [0.8]
    default = _run_one(ann, [det])
    assert default.mbps[0].ann_index == 0
    assert default.hcdr_ious.tolist() == [0.8]


def test_all_invalid_faces_is_a_noop():
    ann = _ann_img([BBox(0, 0, 10, 10)], invalid=1)
    cfg = CalibrationConfig(adc_override=0.5, include_invalid=False)
    res = _run_one(ann, [_det(BBox(0, 0, 10, 7), 0.9)], cfg)
    assert res.mbps == []
    assert res.counters.hcdrs_considered == 0
    assert res.hcdr_ious.tolist() == [0.7]


def test_zero_face_images_are_skipped():
    anns = AnnotationSet(images=[ImageAnnotations(path="x.jpg", faces=[])])
    dets = DetectionSet(images=[ImageDetections(path="x.jpg",
                                                dets=[_det(BBox(0, 0, 4, 4), 0.99)])])
    res = calibrate_dataset(anns, dets, CFG)
    assert res.counters.hcdrs_considered == 0
    assert res.calibrated == anns
    assert res.hcdr_ious.size == 0  # no annotations, so no localization accuracy


def test_unsorted_detections_are_rejected():
    # A prefix scan over [0.3, 0.9] would stop at once and miss the 0.9 detection.
    ann = _ann_img([BBox(0, 0, 10, 10)])
    dets = [_det(BBox(0, 0, 10, 10), 0.3), _det(BBox(0, 0, 10, 7), 0.9)]
    with pytest.raises(ValueError, match="'x.jpg' are not sorted"):
        _run_one(ann, dets)


def test_missing_detections_is_a_noop():
    ann = _ann_img([BBox(0, 0, 10, 10)])
    res = calibrate_dataset(AnnotationSet(images=[ann]), DetectionSet(images=[]), CFG)
    assert res.mbps == []
    assert res.calibrated.images[0] == ann


def test_computed_adc_feeds_the_gate():
    # Two annotations, scores [0.9, 0.3]: ADC = 0.6, so only the 0.9
    # detection survives the strictly-greater cut.
    ann = _ann_img([BBox(0, 0, 10, 10), BBox(100, 0, 10, 10)])
    dets = [_det(BBox(0, 0, 10, 7), 0.9), _det(BBox(100, 0, 10, 7), 0.3)]
    res = _run_one(ann, dets, CalibrationConfig())
    assert res.effective_adc == pytest.approx(0.6, abs=1e-12)
    assert res.adc is not None and res.adc.denominator == 2
    assert len(res.mbps) == 1
    assert res.mbps[0].score == 0.9


def test_config_validation():
    with pytest.raises(ValueError, match="t_m < t_c required"):
        CalibrationConfig(t_m=0.9, t_c=0.5)
    with pytest.raises(ValueError, match="t_m < t_c required"):
        CalibrationConfig(t_m=0.5, t_c=0.5)
    with pytest.raises(ValueError, match="t_m < t_c required"):
        CalibrationConfig(t_m=-0.1, t_c=0.8)
    with pytest.raises(ValueError):
        CalibrationConfig(adc_override=1.5)
    with pytest.raises(ValueError):
        CalibrationConfig(adc_override=-0.1)


def test_second_pass_is_not_idempotent_by_construction():
    # Pass 1: D1 (IoU 0.8) claims the annotation; D2 (IoU 0.64) is dropped
    # as already-claimed. Pass 2 runs on the REPLACED box: D1 now scores
    # IoU 1 (skip), but D2 vs the new box is 64/80 = 0.8 -> in-interval and
    # unclaimed, so the box changes again. The procedure is single-pass.
    ann = _ann_img([BBox(0, 0, 10, 10)])
    dets = [_det(BBox(0, 0, 10, 8), 0.9), _det(BBox(0, 0, 10, 6.4), 0.8)]
    anns = AnnotationSet(images=[ann])
    det_set = DetectionSet(images=[ImageDetections(path="x.jpg", dets=dets)])
    first = calibrate_dataset(anns, det_set, CFG)
    second = calibrate_dataset(first.calibrated, det_set, CFG)
    assert first.calibrated.images[0].faces[0].box == BBox(0, 0, 10, 8)
    assert second.calibrated.images[0].faces[0].box == BBox(0, 0, 10, 6.4)
    assert second.calibrated != first.calibrated


def test_second_pass_stable_when_replacements_saturate():
    # With one detection per face and disjoint faces, every replaced box has
    # IoU 1 against its detection on a second pass: nothing moves.
    ann = _ann_img([BBox(0, 0, 10, 10), BBox(50, 0, 10, 10)])
    dets = [_det(BBox(0, 0, 10, 7), 0.9), _det(BBox(50, 0, 10, 6), 0.8)]
    anns = AnnotationSet(images=[ann])
    det_set = DetectionSet(images=[ImageDetections(path="x.jpg", dets=dets)])
    first = calibrate_dataset(anns, det_set, CFG)
    assert len(first.mbps) == 2
    second = calibrate_dataset(first.calibrated, det_set, CFG)
    assert second.calibrated == first.calibrated
    assert second.mbps == []


def test_threads_do_not_change_the_result():
    from boxcal.synth import SynthSpec, emit_detections, generate_dataset, perturb
    spec = SynthSpec(seed=55, n_images=60, faces_per_image=(0, 6),
                     aligned_score_range=(0.1, 1.0), distractors_per_image=(0, 3),
                     distractor_score_range=(0.0, 0.7))
    truth = generate_dataset(spec)
    pert, _ = perturb(truth, 55, 0.5, (0.1, 0.9), image_size=spec.image_size)
    dets = emit_detections(truth, spec)
    base = calibrate_dataset(pert, dets, threads=1)
    for n in (2, 4, 16):
        alt = calibrate_dataset(pert, dets, threads=n)
        assert alt.calibrated == base.calibrated
        assert alt.mbps == base.mbps
        assert alt.counters == base.counters
        assert alt.effective_adc == base.effective_adc
        assert alt.hcdr_ious.tolist() == base.hcdr_ious.tolist()


def test_threads_below_one_are_rejected():
    with pytest.raises(ValueError, match="threads must be >= 1"):
        calibrate_dataset(AnnotationSet(images=[]), DetectionSet(images=[]), threads=0)


# Random scenario generator for the claim-discipline properties: boxes on a
# coarse grid so IoUs hit the interval edges often.
grid = st.integers(min_value=0, max_value=6)
size = st.integers(min_value=1, max_value=8)


@st.composite
def scenario(draw):
    anns = [BBox(draw(grid) * 2, draw(grid) * 2, draw(size) * 2, draw(size) * 2)
            for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    n_dets = draw(st.integers(min_value=0, max_value=5))
    scores = sorted((round(draw(st.floats(min_value=0.55, max_value=1.0, width=64)), 3)
                     for _ in range(n_dets)), reverse=True)
    dets = [Detection(box=BBox(draw(grid) * 2, draw(grid) * 2, draw(size) * 2, draw(size) * 2),
                      score=s) for s in scores]
    return _ann_img(anns), dets


@settings(max_examples=200)
@given(scenario())
def test_claim_discipline_properties(case):
    ann_img, dets = case
    res = _run_one(ann_img, dets)
    ann_indices = [r.ann_index for r in res.mbps]
    det_indices = [r.det_index for r in res.mbps]
    assert len(set(ann_indices)) == len(ann_indices)   # one claim per annotation
    assert len(set(det_indices)) == len(det_indices)   # one claim per detection
    det_boxes = [d.box for d in dets]
    for r in res.mbps:
        assert 0.5 <= r.iou <= 0.8
        assert r.new_box in det_boxes
        assert iou(r.new_box, r.old_box) == r.iou  # matched on original geometry
    # untouched faces keep their boxes
    touched = set(ann_indices)
    for k, face in enumerate(res.calibrated.images[0].faces):
        if k not in touched:
            assert face == ann_img.faces[k]


def test_claim_table_columns_and_row_view():
    anns = AnnotationSet(images=[_ann_img([BBox(0, 0, 10, 10)], path="a.jpg"),
                                 _ann_img([], path="b.jpg"),
                                 _ann_img([BBox(0, 0, 10, 10), BBox(50, 50, 10, 10)],
                                          path="c.jpg")])
    dets = DetectionSet(images=[
        ImageDetections(path="a.jpg", dets=[_det(BBox(2, 0, 10, 10), 0.9)]),
        ImageDetections(path="c.jpg", dets=[_det(BBox(0, 0, 10, 10), 0.95),
                                            _det(BBox(52, 50, 10, 10), 0.8)])])
    res = calibrate_dataset(anns, dets, CFG)
    claims = res.claims
    assert len(claims) == 2 and claims.paths is anns.paths
    assert claims.image.tolist() == [0, 2]
    assert claims.det_index.tolist() == [0, 1]     # c.jpg's first detection is out of interval
    assert claims.ann_index.tolist() == [0, 1]
    assert claims.iou.tolist() == [2 / 3, 2 / 3] and claims.score.tolist() == [0.9, 0.8]
    assert claims.old_boxes.tolist() == [[0, 0, 10, 10], [50, 50, 10, 10]]
    assert claims.new_boxes.tolist() == [[2, 0, 10, 10], [52, 50, 10, 10]]
    assert claims.image.dtype == np.int64 and claims.new_boxes.dtype == np.float64
    assert not claims.iou.flags.writeable
    # the row view is built once, on first use
    records = res.mbps
    assert records is claims.records is res.mbps
    assert [(r.path, r.det_index, r.ann_index, r.new_box) for r in records] == [
        ("a.jpg", 0, 0, BBox(2, 0, 10, 10)), ("c.jpg", 1, 1, BBox(52, 50, 10, 10))]
    empty = claim_table([])
    assert len(empty) == 0 and empty.new_boxes.shape == (0, 4)


@pytest.mark.parametrize("side", ["old", "new"])
def test_claimed_box_that_is_not_a_bbox_is_rejected(side):
    # tables built from columns skip BBox's checks until `align` runs them,
    # before the kernel: the negative-width box is rejected with BBox's own
    # message, although t_m = 0 would let it claim at IoU 0
    bad, good = [0.0, 0.0, -5.0, 10.0], [0.0, 0.0, 10.0, 10.0]
    anns = AnnotationSet(paths=["a.jpg"], offsets=[0, 1], boxes=[bad if side == "old" else good],
                         flags=[[0] * 6])
    dets = DetectionSet(paths=["a.jpg"], offsets=[0, 1], boxes=[bad if side == "new" else good],
                        scores=[0.9])
    with pytest.raises(ValueError) as want:
        BBox(*bad)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        calibrate_dataset(anns, dets, CalibrationConfig(t_m=0.0, adc_override=0.5))


def _kernel_transient(anns, dets, cfg=None):
    """calibrate_dataset's traced peak, less the result's own arrays."""
    tracemalloc.start()
    try:
        result = calibrate_dataset(anns, dets, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = [result.calibrated.boxes, result.hcdr_ious,
           *(getattr(result.claims, name) for name, *_ in result.claims._COLUMNS)]
    return peak - sum(a.nbytes for a in own)


def test_kernel_memory_does_not_grow_with_the_dataset():
    # the kernel matches runs of images holding a bounded number of rows, so
    # with 4x the images its traced peak, less the result's own arrays, does
    # not grow (it falls, as the result outgrows one run's temporaries)
    def transient(n_images):
        spec = SynthSpec(seed=5, n_images=n_images, faces_per_image=(5, 20),
                         distractors_per_image=(0, 10))
        truth = generate_dataset(spec)
        pert, _ = perturb(truth, 5, 0.3, (0.55, 0.75), image_size=spec.image_size)
        return _kernel_transient(pert, emit_detections(truth, spec))

    small, large = transient(1000), transient(4000)  # 19k and 75k annotation and HCDR rows
    assert large - small < 512 * 1024


def test_kernel_memory_does_not_grow_with_one_crowded_image():
    # every HCDR of the image overlaps every annotation horizontally, so each
    # has all n annotations as candidates: n * n pairs, which the kernel
    # scores in runs of HCDRs holding a bounded number of pairs
    def transient(n):
        rng = np.random.default_rng(7)
        boxes = np.column_stack([rng.uniform(0, 20, n), rng.uniform(0, 4000, n),
                                 np.full(n, 30.0), np.full(n, 30.0)])
        anns = AnnotationSet(paths=["x.jpg"], offsets=[0, n], boxes=boxes, flags=np.zeros((n, 6)))
        dets = DetectionSet(paths=["x.jpg"], offsets=[0, n], boxes=boxes + [1.0, 0, 0, 0],
                            scores=np.full(n, 0.9))
        return _kernel_transient(anns, dets, CFG)

    small, large = transient(500), transient(1000)  # 250k and 1M candidate pairs
    assert large - small < 512 * 1024
