import bisect
import dataclasses
import io
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxcal.calibrate
from boxcal.calibrate import CalibrationConfig, calibrate_dataset
from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections, write_wider_gt)
from boxcal.geometry import BBox, iou
from boxcal.synth import (PerturbEntry, PerturbLedger, SynthSpec, emit_detections,
                          generate_dataset, oracle_calibrate, perturb, write_perturb_ledger)

MIXED = SynthSpec(seed=11, n_images=40, faces_per_image=(0, 8), box_size=(16, 64),
                  aligned_score_range=(0.05, 1.0), distractor_score_range=(0.0, 0.8),
                  distractors_per_image=(0, 4))


def test_generate_is_deterministic():
    assert generate_dataset(MIXED) == generate_dataset(MIXED)
    other = dataclasses.replace(MIXED, seed=12)
    assert generate_dataset(other) != generate_dataset(MIXED)


def test_generate_empty_and_range_bound():
    assert generate_dataset(dataclasses.replace(MIXED, n_images=0)).images == []
    s = generate_dataset(SynthSpec(seed=1, n_images=10, faces_per_image=(1, 5)))
    assert 10 <= s.total_faces() <= 50
    assert len(s.images) == 10


def test_generated_boxes_are_integral_and_inside():
    s = generate_dataset(MIXED)
    w, h = MIXED.image_size
    lo, hi = MIXED.box_size
    for img in s.images:
        for f in img.faces:
            b = f.box
            assert b.x == int(b.x) and b.y == int(b.y)
            assert lo <= b.w <= hi and lo <= b.h <= hi
            assert 0 <= b.x and b.x + b.w <= w
            assert 0 <= b.y and b.y + b.h <= h


def test_min_gap_separates_faces():
    spec = SynthSpec(seed=3, n_images=30, faces_per_image=(2, 6), box_size=(16, 48),
                     min_gap=20.0)
    for img in generate_dataset(spec).images:
        boxes = [f.box for f in img.faces]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert (a.x + a.w + 20 <= b.x or b.x + b.w + 20 <= a.x
                        or a.y + a.h + 20 <= b.y or b.y + b.h + 20 <= a.y)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(seed=0, n_images=-1)
    with pytest.raises(ValueError):
        SynthSpec(seed=0, n_images=1, faces_per_image=(3, 2))
    with pytest.raises(ValueError):
        SynthSpec(seed=0, n_images=1, aligned_score_range=(0.5, 1.2))
    with pytest.raises(ValueError, match="infeasible"):
        SynthSpec(seed=0, n_images=1, image_size=(256, 256), box_size=(200, 300))
    with pytest.raises(ValueError, match="image_size must be positive"):
        SynthSpec(seed=0, n_images=1, image_size=(0, 64))
    with pytest.raises(ValueError, match="box_size minimum must be >= 1"):
        SynthSpec(seed=0, n_images=1, box_size=(0, 16))
    with pytest.raises(ValueError):
        SynthSpec(seed=0, n_images=1, min_gap=-1)


def test_spec_rejects_a_nan_min_gap():
    with pytest.raises(ValueError, match="min_gap must be >= 0, got nan"):
        SynthSpec(seed=0, n_images=1, min_gap=float("nan"))


def test_infeasible_packing_raises():
    spec = SynthSpec(seed=0, n_images=1, faces_per_image=(50, 50),
                     image_size=(64, 64), box_size=(16, 16), min_gap=32.0)
    with pytest.raises(ValueError, match="could not place"):
        generate_dataset(spec)


def test_perturb_worked_example():
    # t = 0.5, w = 12 -> d = 12 * 0.5 / 1.5 = 4; IoU = 96 / 192 = 0.5
    face = FaceAnnotation(box=BBox(0, 0, 12, 12))
    annset = AnnotationSet(images=[ImageAnnotations(path="p.jpg", faces=[face])])
    out, ledger = perturb(annset, 1, 1.0, (0.5, 0.5))
    assert out.images[0].faces[0].box == BBox(4, 0, 12, 12)
    assert len(ledger.entries) == 1
    e = ledger.entries[0]
    assert e.true_box == BBox(0, 0, 12, 12)
    assert e.achieved_iou == 0.5


def test_perturb_fraction_zero_and_selection_count():
    truth = generate_dataset(MIXED)
    same, ledger = perturb(truth, 9, 0.0, (0.5, 0.7))
    assert same == truth and ledger.entries == []
    k = truth.total_faces()
    _, ledger = perturb(truth, 9, 0.5, (0.5, 0.7))
    assert len(ledger.entries) == k // 2
    _, ledger = perturb(truth, 9, 1.0, (0.5, 0.7))
    assert len(ledger.entries) == k


def test_perturb_is_deterministic_and_preserves_flags():
    truth = generate_dataset(MIXED)
    a1, l1 = perturb(truth, 9, 0.4, (0.55, 0.75), image_size=MIXED.image_size)
    a2, l2 = perturb(truth, 9, 0.4, (0.55, 0.75), image_size=MIXED.image_size)
    assert a1 == a2 and l1 == l2
    by_img = {img.path: img for img in truth.images}
    for e in l1.entries:
        orig = by_img[e.path].faces[e.ann_index]
        new = next(i for i in a1.images if i.path == e.path).faces[e.ann_index]
        assert new.box == e.perturbed_box
        # only the box moves; every attribute flag stays
        assert dataclasses.replace(new, box=orig.box) == orig


def test_perturb_ledger_invariant():
    truth = generate_dataset(MIXED)
    lo, hi = 0.55, 0.75
    _, ledger = perturb(truth, 9, 0.6, (lo, hi), image_size=MIXED.image_size)
    assert ledger.entries
    for e in ledger.entries:
        assert lo - 1e-9 <= e.achieved_iou <= hi + 1e-9
        assert iou(e.true_box, e.perturbed_box) == pytest.approx(e.achieved_iou, abs=1e-12)
        assert e.perturbed_box != e.true_box


def test_perturb_falls_back_to_negative_shift_at_the_edge():
    face = FaceAnnotation(box=BBox(10, 0, 10, 10))  # flush with the right edge
    annset = AnnotationSet(images=[ImageAnnotations(path="p.jpg", faces=[face])])
    out, ledger = perturb(annset, 1, 1.0, (0.5, 0.5), image_size=(20, 10))
    moved = out.images[0].faces[0].box
    assert moved.x < 10  # shifted left instead of exiting the image
    # w = 10 makes d inexact, so the achieved value is only 1e-9-close here
    assert ledger.entries[0].achieved_iou == pytest.approx(0.5, abs=1e-9)


def test_perturb_validation():
    annset = AnnotationSet(images=[])
    with pytest.raises(ValueError):
        perturb(annset, 1, 0.5, (0.0, 0.5))
    with pytest.raises(ValueError):
        perturb(annset, 1, 0.5, (0.7, 0.5))
    with pytest.raises(ValueError):
        perturb(annset, 1, 0.5, (0.5, 1.0))
    with pytest.raises(ValueError):
        perturb(annset, 1, 1.5, (0.5, 0.7))


def _reference_perturb(annset, seed, fraction, iou_range, image_size=None):
    """perturb one entry at a time with scalar arithmetic and geometry.iou:
    the perturbed boxes, the ledger entries and the ledger's TSV."""
    lo, hi = iou_range
    boxes = annset.boxes.tolist()
    offsets = annset.offsets.tolist()
    eligible = [k for k, (_, _, w, h) in enumerate(boxes) if w > 0 and h > 0]
    count = math.floor(fraction * len(eligible))
    rng = random.Random(f"{seed}:perturb")
    chosen = [eligible[j] for j in sorted(rng.sample(range(len(eligible)), count))]
    entries = []
    for row in chosen:
        i = bisect.bisect_right(offsets, row) - 1
        true_box = BBox(*boxes[row])
        t = rng.uniform(lo, hi)
        d = true_box.w * (1.0 - t) / (1.0 + t)
        new_x = true_box.x + d
        if image_size is not None and new_x + true_box.w > image_size[0]:
            new_x = true_box.x - d
        moved = BBox(new_x, true_box.y, true_box.w, true_box.h)
        boxes[row][0] = new_x
        entries.append(PerturbEntry(annset.paths[i], row - offsets[i], true_box, moved,
                                    iou(moved, true_box)))
    tsv = ["path\tann_index\ttrue_x\ttrue_y\ttrue_w\ttrue_h"
           "\tpert_x\tpert_y\tpert_w\tpert_h\tachieved_iou\n"]
    for e in entries:
        t, p = e.true_box, e.perturbed_box
        cells = (e.path, e.ann_index, t.x, t.y, t.w, t.h, p.x, p.y, p.w, p.h, e.achieved_iou)
        tsv.append("\t".join(repr(c) if isinstance(c, float) else str(c) for c in cells) + "\n")
    return boxes, entries, "".join(tsv)


# lengths of 0 (zero-area boxes, never eligible), whole and fractional
_LENGTHS = st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0, allow_subnormal=False))
# one face: its image (of six) and its box
_FACES = st.tuples(st.integers(0, 5), st.integers(0, 50).map(float),
                   st.integers(0, 50).map(float), _LENGTHS, _LENGTHS)


@settings(max_examples=200, deadline=None)
@given(faces=st.lists(_FACES, max_size=30), seed=st.integers(0, 2**32),
       fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       ious=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2).map(sorted),
       image_size=st.one_of(st.none(), st.tuples(st.integers(1, 60), st.integers(1, 60))))
# d = 4: the shifted box ends exactly on the right edge, which keeps the +x shift
@example(faces=[(0, 0.0, 0.0, 12.0, 12.0)], seed=1, fraction=1.0, ious=[0.5, 0.5],
         image_size=(16, 16))
def test_perturb_equals_the_per_entry_reference(faces, seed, fraction, ious, image_size):
    # a small image_size flips many shifts to -x at the right edge
    faces.sort(key=lambda face: face[0])  # stable: image after image
    counts = np.bincount([face[0] for face in faces], minlength=6)
    boxes = np.array([face[1:] for face in faces], np.float64).reshape(-1, 4)
    paths = [f"d/{i}.jpg" for i in range(len(counts))]
    annset = AnnotationSet(paths=paths, offsets=np.cumsum([0, *counts]), boxes=boxes,
                           flags=np.zeros((len(faces), 6)))
    out, ledger = perturb(annset, seed, fraction, tuple(ious), image_size=image_size)
    want_boxes, want_entries, want_tsv = _reference_perturb(annset, seed, fraction, ious,
                                                            image_size)
    assert out.boxes.tobytes() == np.array(want_boxes, np.float64).reshape(-1, 4).tobytes()
    assert out.paths == paths and out.flags.tobytes() == annset.flags.tobytes()
    assert ledger.paths is annset.paths and len(ledger) == len(want_entries)
    assert ledger.entries == want_entries
    assert ledger.image.tolist() == [paths.index(e.path) for e in want_entries]
    assert ledger.ann_index.tolist() == [e.ann_index for e in want_entries]
    for name, field in (("true_boxes", "true_box"), ("perturbed_boxes", "perturbed_box")):
        want = [dataclasses.astuple(getattr(e, field)) for e in want_entries]
        assert getattr(ledger, name).tobytes() == np.array(want, np.float64).reshape(-1, 4).tobytes()
    want_ious = np.array([e.achieved_iou for e in want_entries], np.float64)
    assert ledger.achieved_iou.tobytes() == want_ious.tobytes()
    buf = io.StringIO()
    write_perturb_ledger(ledger, buf)
    assert buf.getvalue() == want_tsv


def test_perturb_ledger_is_a_read_only_table():
    truth = generate_dataset(MIXED)
    _, ledger = perturb(truth, 9, 0.5, (0.5, 0.7))
    columns = {name: getattr(ledger, name) for name in
               ("image", "ann_index", "true_boxes", "perturbed_boxes", "achieved_iou")}
    assert PerturbLedger(paths=truth.paths, **columns) == ledger
    assert ledger.entries is ledger.entries            # the row view is built once
    for name, column in columns.items():
        assert not column.flags.writeable, name
    with pytest.raises(ValueError):
        ledger.true_boxes[0, 0] = 1.0
    missing = {k: v for k, v in columns.items() if k != "achieved_iou"}
    with pytest.raises(TypeError):
        PerturbLedger(paths=truth.paths, **missing)
    with pytest.raises(TypeError):
        PerturbLedger(paths=truth.paths, score=columns["achieved_iou"], **columns)
    with pytest.raises(ValueError):
        PerturbLedger(paths=truth.paths, **{**columns, "image": columns["image"][1:]})


def test_emit_detections_shapes_and_order():
    spec = dataclasses.replace(MIXED, distractors_per_image=(0, 0))
    truth = generate_dataset(spec)
    dets = emit_detections(truth, spec)
    assert emit_detections(truth, spec) == dets
    assert [d.path for d in dets.images] == [i.path for i in truth.images]
    for img, det_img in zip(truth.images, dets.images):
        assert len(det_img.dets) == len(img.faces)
        scores = [d.score for d in det_img.dets]
        assert scores == sorted(scores, reverse=True)
        assert {d.box for d in det_img.dets} == {f.box for f in img.faces}


def test_emit_distractors_rank_below_aligned():
    spec = SynthSpec(seed=5, n_images=20, faces_per_image=(1, 3),
                     aligned_score_range=(0.9, 1.0), distractor_score_range=(0.0, 0.2),
                     distractors_per_image=(1, 3))
    truth = generate_dataset(spec)
    dets = emit_detections(truth, spec)
    total_faces = truth.total_faces()
    assert dets.total_detections() > total_faces
    for img, det_img in zip(truth.images, dets.images):
        k = len(img.faces)
        assert all(d.score >= 0.9 for d in det_img.dets[:k])
        assert all(d.score <= 0.2 for d in det_img.dets[k:])


def test_write_perturb_ledger_format():
    truth = generate_dataset(dataclasses.replace(MIXED, n_images=5))
    _, ledger = perturb(truth, 9, 1.0, (0.6, 0.7))
    buf = io.StringIO()
    write_perturb_ledger(ledger, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("path\tann_index\ttrue_x")
    assert len(lines) == 1 + len(ledger.entries)
    assert all(len(line.split("\t")) == 11 for line in lines)


def test_oracle_empty_inputs():
    res = oracle_calibrate(AnnotationSet(images=[]), DetectionSet(images=[]))
    assert res.calibrated.images == [] and res.mbps == []


def test_oracle_single_replacement_matches_hand_trace():
    anns = AnnotationSet(images=[ImageAnnotations(
        path="x.jpg", faces=[FaceAnnotation(box=BBox(0, 0, 10, 10))])])
    dets = DetectionSet(images=[ImageDetections(
        path="x.jpg", dets=[Detection(box=BBox(2, 0, 10, 10), score=0.9)])])
    cfg = CalibrationConfig(adc_override=0.5)
    res = oracle_calibrate(anns, dets, cfg)
    assert len(res.mbps) == 1
    assert res.calibrated.images[0].faces[0].box == BBox(2, 0, 10, 10)
    fast = calibrate_dataset(anns, dets, cfg)
    assert fast.calibrated == res.calibrated and fast.mbps == res.mbps


def test_three_known_misalignments_and_nothing_else():
    # 10 one-face images, 3 perturbed into the interval: exactly those three
    # annotations are replaced (back to their true boxes) and the written
    # file is byte-identical to the truth file.
    spec = SynthSpec(seed=21, n_images=10, faces_per_image=(1, 1),
                     aligned_score_range=(0.9, 1.0))
    truth = generate_dataset(spec)
    pert, ledger = perturb(truth, 21, 0.3, (0.55, 0.75), image_size=spec.image_size)
    assert len(ledger.entries) == 3
    dets = emit_detections(truth, spec)
    cfg = CalibrationConfig(adc_override=0.5)
    for impl in (calibrate_dataset, oracle_calibrate):
        res = impl(pert, dets, cfg)
        assert len(res.mbps) == 3
        assert {(r.path, r.ann_index) for r in res.mbps} == \
               {(e.path, e.ann_index) for e in ledger.entries}
        got, want = io.StringIO(), io.StringIO()
        write_wider_gt(res.calibrated, got)
        write_wider_gt(truth, want)
        assert got.getvalue() == want.getvalue()


def _assert_equivalent(anns, dets, cfg=None):
    fast = calibrate_dataset(anns, dets, cfg)
    slow = oracle_calibrate(anns, dets, cfg)
    assert fast.calibrated == slow.calibrated
    assert fast.mbps == slow.mbps
    assert slow.claims.paths == fast.claims.paths
    for name in ("image", "det_index", "ann_index", "iou", "score", "old_boxes", "new_boxes"):
        got, want = getattr(slow.claims, name), getattr(fast.claims, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert fast.counters == slow.counters
    assert fast.effective_adc == slow.effective_adc
    assert fast.adc == slow.adc
    assert fast.hcdr_ious.dtype == slow.hcdr_ious.dtype
    assert fast.hcdr_ious.tolist() == slow.hcdr_ious.tolist()


def test_oracle_equivalence_randomized_mixed():
    for seed in (101, 202, 303):
        spec = dataclasses.replace(MIXED, seed=seed)
        truth = generate_dataset(spec)
        pert, _ = perturb(truth, seed, 0.6, (0.05, 0.95), image_size=spec.image_size)
        dets = emit_detections(truth, spec)
        _assert_equivalent(pert, dets)                                  # computed threshold
        _assert_equivalent(pert, dets, CalibrationConfig(adc_override=0.3))
        _assert_equivalent(pert, dets, CalibrationConfig(t_m=0.2, t_c=0.9))


def test_oracle_equivalence_with_invalid_faces():
    spec = dataclasses.replace(MIXED, seed=77)
    truth = generate_dataset(spec)
    flagged = AnnotationSet(images=[
        ImageAnnotations(path=img.path, faces=[
            dataclasses.replace(f, invalid=1) if k % 3 == 0 else f
            for k, f in enumerate(img.faces)])
        for img in truth.images])
    pert, _ = perturb(flagged, 77, 0.5, (0.3, 0.9), image_size=spec.image_size)
    dets = emit_detections(truth, spec)
    for include in (True, False):
        _assert_equivalent(pert, dets,
                           CalibrationConfig(adc_override=0.4, include_invalid=include))


def test_oracle_equivalence_with_structural_mismatches():
    # Detections missing for some images, extra detection-only images, and
    # zero-face images must not break the equivalence.
    spec = dataclasses.replace(MIXED, seed=88, faces_per_image=(0, 4))
    truth = generate_dataset(spec)
    dets = emit_detections(truth, spec)
    trimmed = DetectionSet(images=dets.images[::2] + [
        ImageDetections(path="ghost.jpg",
                        dets=[Detection(box=BBox(0, 0, 4, 4), score=0.9)])])
    pert, _ = perturb(truth, 88, 0.5, (0.4, 0.9), image_size=spec.image_size)
    _assert_equivalent(pert, trimmed)


def test_fast_path_and_oracle_reject_the_same_inputs():
    anns = AnnotationSet(images=[ImageAnnotations(
        path="x.jpg", faces=[FaceAnnotation(box=BBox(0, 0, 10, 10))])])
    # a prefix scan over [0.3, 0.9] would stop at once and miss the 0.9 detection
    unsorted = DetectionSet(images=[ImageDetections(path="x.jpg", dets=[
        Detection(box=BBox(0, 0, 10, 10), score=0.3),
        Detection(box=BBox(0, 0, 10, 7), score=0.9)])])
    twice = DetectionSet(images=[ImageDetections(
        path="x.jpg", dets=[Detection(box=BBox(0, 0, 10, 7), score=0.9)])] * 2)
    # a second x.jpg among the annotations: one claim or two
    anns_twice = AnnotationSet(images=anns.images * 2)
    cfg = CalibrationConfig(adc_override=0.5)
    for impl in (calibrate_dataset, oracle_calibrate):
        with pytest.raises(ValueError, match="'x.jpg' are not sorted"):
            impl(anns, unsorted, cfg)
        with pytest.raises(ValueError, match="duplicate detection image path 'x.jpg'"):
            impl(anns, twice, cfg)
        with pytest.raises(ValueError, match="duplicate annotation image path 'x.jpg'"):
            impl(anns_twice, DetectionSet(images=twice.images[:1]), cfg)

    # tables built from columns skip the parsers' rules; both paths reject
    # each value a file cannot hold, whether or not a claim reaches it
    def faces(boxes, blur=0.0):
        return AnnotationSet(paths=["x.jpg"], offsets=[0, len(boxes)], boxes=boxes,
                             flags=[[blur, 0, 0, 0, 0, 0]] * len(boxes))

    def detections(scores, boxes):
        return DetectionSet(paths=["x.jpg"], offsets=[0, len(scores)], boxes=boxes, scores=scores)

    box, near, far = [0, 0, 10, 10], [2, 0, 10, 10], [500, 0, 10, 10]
    one = detections([0.9], [near])
    bad_tables = [
        # a nan score compares as sorted, and a prefix scan of two HCDRs
        # would take it, not the 0.8 detection
        (faces([box, [100, 0, 10, 10]]),
         detections([0.9, math.nan, 0.8], [far, near, [102, 0, 10, 10]]),
         "non-finite score nan for 'x.jpg'", ValueError),
        (faces([box, [math.nan, 0, 5, 5]]), one, "must be finite", ValueError),  # never claimed
        (faces([box], blur=math.nan), one, "non-finite flag nan for 'x.jpg'", ValueError),
        (faces([box], blur=math.inf), one, "non-finite flag inf for 'x.jpg'", OverflowError),
        (faces([box]), detections([math.inf], [near]), "non-finite score inf for 'x.jpg'",
         ValueError),
        # align drops the detection-only image; the oracle's row view still sees it
        (faces([box]), DetectionSet(paths=["x.jpg", "y.jpg"], offsets=[0, 1, 2],
                                    boxes=[near, [0, 0, -5, 10]], scores=[0.9, 0.9]),
         "width/height must be >= 0", ValueError),
    ]
    for bad_anns, bad_dets, message, oracle_error in bad_tables:
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate_dataset(bad_anns, bad_dets, cfg)
        with pytest.raises(oracle_error):
            oracle_calibrate(bad_anns, bad_dets, cfg)


@pytest.mark.parametrize("budget", [1, 7, 100])
def test_pair_budget_does_not_change_the_result(monkeypatch, budget):
    # small budgets split rows across many runs, and a single row's
    # candidates can exceed the budget on their own
    monkeypatch.setattr(boxcal.calibrate, "_PAIR_BUDGET", budget)
    spec = dataclasses.replace(MIXED, seed=99, faces_per_image=(0, 12), box_size=(16, 200))
    truth = generate_dataset(spec)
    pert, _ = perturb(truth, 99, 0.5, (0.1, 0.9), image_size=spec.image_size)
    dets = emit_detections(truth, spec)
    for include in (True, False):
        _assert_equivalent(pert, dets, CalibrationConfig(include_invalid=include))


# Random datasets for the differential test.  Boxes sit on a coarse grid of
# a drawn step around a drawn origin, per axis, so edges touch and abut
# (intersection width exactly 0), sizes reach 0, annotations repeat (argmax
# ties), detections repeat annotation boxes, and large origins round the
# coordinates.  Origins reach +-1e9, or +-1e307 on at most one axis, where
# steps of 1e300 and more keep the far edges and the area finite.
_GRID = st.integers(min_value=0, max_value=8)
_SIZE = st.integers(min_value=0, max_value=4)
_SCORES = st.sampled_from([0.0, 0.2, 0.5, 0.7, 0.9, 1.0])
_AXES = {
    False: (st.sampled_from([0.0, 1e9, -1e9]) | st.floats(min_value=-1e9, max_value=1e9),
            st.sampled_from([1.0, 0.25, 2.5, 1e-7])),
    True: (st.sampled_from([1e307, -1e307]) | st.floats(min_value=-1e307, max_value=1e307),
           st.sampled_from([1e306, 1e300])),
}


@st.composite
def _image(draw, path, invalid=None, min_faces=0, scores=_SCORES):
    huge = draw(st.sampled_from([None, "x", "y"]))
    (x0, dx), (y0, dy) = ((draw(origins), draw(steps))
                          for origins, steps in (_AXES[huge == "x"], _AXES[huge == "y"]))

    def box():
        return BBox(x0 + draw(_GRID) * dx, y0 + draw(_GRID) * dy,
                    draw(_SIZE) * dx, draw(_SIZE) * dy)

    def new_or_repeated(seen):
        return draw(st.sampled_from(seen)) if seen and draw(st.booleans()) else box()

    boxes = []
    for _ in range(draw(st.integers(min_value=min_faces, max_value=6))):
        boxes.append(new_or_repeated(boxes))
    faces = [FaceAnnotation(box=b, invalid=draw(st.integers(0, 1)) if invalid is None else invalid)
             for b in boxes]
    boxes = [new_or_repeated([f.box for f in faces])
             for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    ranked = sorted((draw(scores) for _ in boxes), reverse=True)
    return (ImageAnnotations(path=path, faces=faces),
            ImageDetections(path=path, dets=[Detection(box=b, score=s)
                                             for b, s in zip(boxes, ranked)]))


def _crowded_image(seed):
    """300 detections over 40 annotations, 20 boxes twice each, packed into a
    100-pixel square."""
    rng = random.Random(seed)

    def box():
        return BBox(rng.randint(0, 160) * 0.5, rng.randint(0, 160) * 0.5,
                    rng.randint(0, 40) * 0.5, rng.randint(0, 40) * 0.5)

    boxes = [box() for _ in range(20)] * 2
    rng.shuffle(boxes)
    faces = [FaceAnnotation(box=b, invalid=rng.randint(0, 1)) for b in boxes]
    dets = [Detection(box=box() if rng.random() < 0.8 else rng.choice(faces).box,
                      score=rng.choice([0.2, 0.5, 0.7, 0.9, 1.0])) for _ in range(300)]
    dets.sort(key=lambda d: d.score, reverse=True)
    return (ImageAnnotations(path="crowd.jpg", faces=faces),
            ImageDetections(path="crowd.jpg", dets=dets))


@st.composite
def _datasets(draw):
    pairs = [draw(_image(f"r{i}.jpg")) for i in range(draw(st.integers(0, 5)))]
    pairs += [
        draw(_image("invalid.jpg", invalid=1, min_faces=1)),   # all-invalid
        draw(_image("weak.jpg", scores=st.just(0.0))),           # no HCDRs
        (ImageAnnotations(path="empty.jpg", faces=[]),           # no faces
         ImageDetections(path="empty.jpg", dets=[Detection(box=BBox(0, 0, 4, 4), score=0.9)])),
        _crowded_image(draw(st.integers(min_value=0, max_value=2**32 - 1))),
    ]
    pairs = draw(st.permutations(pairs))
    return (AnnotationSet(images=[a for a, _ in pairs]),
            DetectionSet(images=[d for _, d in pairs]))


_CONFIGS = st.builds(CalibrationConfig,
                     t_m=st.sampled_from([0.0, 0.3, 0.5]),
                     t_c=st.sampled_from([0.6, 0.8, 1.0]),
                     adc_override=st.sampled_from([None, 0.0, 0.5]),
                     include_invalid=st.booleans())


@settings(max_examples=100, deadline=None)
@given(_datasets(), _CONFIGS)
def test_fast_path_equals_oracle_on_random_datasets(dataset, cfg):
    _assert_equivalent(*dataset, cfg)
