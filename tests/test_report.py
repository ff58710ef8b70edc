import bisect
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcal.calibrate import CalibrationConfig, ClaimTable, MbpRecord, calibrate_dataset
from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections)
from boxcal.geometry import BBox
from boxcal.report import (DEFAULT_EDGES, LOSS_NOTE, MBP_EXPORT_HEADER, diou_cells, diou_loss,
                           format_histogram_table, localization_histogram, loss_delta_report,
                           mbp_export, percentage, summary_line, write_report)
from claims import claim_table


def test_percentage_reproduces_reference_table():
    # Reference row counts ship with a stated total of 87,476 even though
    # the rows themselves sum to 88,468; the expected percentages follow
    # the stated total, so that is what goes into the formatter.
    counts = (854, 4280, 17940, 41107, 24287)
    total = 87476
    expected = (0.976, 4.893, 20.508, 46.992, 27.764)
    for c, e in zip(counts, expected):
        assert percentage(c, total) == pytest.approx(e, abs=1e-3)
    assert percentage(22981, 87476) == pytest.approx(26.271, abs=1e-3)


def test_percentage_zero_total():
    assert percentage(0, 0) == 0.0


def test_histogram_bin_placement():
    hist = localization_histogram([0.55, 0.5, 0.6, 0.65, 0.8, 1.0, 0.95, 0.49])
    assert [b.count for b in hist.bins] == [2, 2, 0, 1, 2]
    assert hist.total == 7  # 0.49 is below the first edge
    assert hist.bins[0].lower == 0.5 and hist.bins[-1].upper == 1.0
    # half-open bins: 0.6 lands in [0.6, 0.7); closed final bin: 1.0 counted
    assert hist.bins[1].count == 2
    assert hist.bins[4].count == 2


def _bisect_counts(values, edges):
    """Reference binning: half-open [lo, hi) bins, the last one closed."""
    nbins = len(edges) - 1
    counts = [0] * nbins
    for v in values:
        if v < edges[0] or v > edges[-1]:
            continue
        counts[min(bisect.bisect_right(edges, v) - 1, nbins - 1)] += 1
    return counts


@pytest.mark.parametrize("edges", [DEFAULT_EDGES, (0.0, 0.25, 0.5, 0.75, 1.0),
                                   (0.3, 0.45, 0.7)])
def test_histogram_matches_half_open_reference(edges):
    rng = np.random.default_rng(7)
    at_edges = [v for e in edges for v in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0))]
    values = np.concatenate([rng.random(100_000), at_edges])
    hist = localization_histogram(values, edges, aggregate_upper=None)
    assert [b.count for b in hist.bins] == _bisect_counts(values.tolist(), list(edges))


def test_histogram_aggregates_are_partition_sums():
    hist = localization_histogram([0.55, 0.5, 0.6, 0.65, 0.8, 1.0, 0.95])
    agg = {(b.lower, b.upper): b for b in hist.aggregates}
    assert agg[(0.5, 0.8)].count == sum(b.count for b in hist.bins[:3]) == 4
    assert agg[(0.5, 1.0)].count == hist.total == 7
    assert agg[(0.5, 1.0)].percentage == 100.0
    assert sum(b.count for b in hist.bins) == hist.total


def test_histogram_percentages_three_decimals():
    hist = localization_histogram([0.55, 0.65, 0.75])
    assert hist.bins[0].percentage == pytest.approx(33.333, abs=1e-9)
    table = format_histogram_table(hist)
    assert "33.333" in table
    assert table.endswith("\n")


def test_histogram_of_nothing_is_all_zero():
    hist = localization_histogram(np.zeros(0))
    assert hist.total == 0
    assert all(b.count == 0 and b.percentage == 0.0 for b in hist.bins + hist.aggregates)


def test_histogram_skips_images_without_annotations():
    det_img = ImageDetections(path="x.jpg", dets=[Detection(box=BBox(0, 0, 4, 4), score=0.9)])
    img = ImageAnnotations(path="x.jpg", faces=[])
    result = calibrate_dataset(AnnotationSet(images=[img]), DetectionSet(images=[det_img]),
                               CalibrationConfig(adc_override=0.5))
    hist = localization_histogram(result.hcdr_ious)
    assert hist.total == 0
    assert all(b.count == 0 for b in hist.bins)


def test_histogram_edge_validation():
    with pytest.raises(ValueError):
        localization_histogram([], edges=(0.5, 0.5, 0.6))
    with pytest.raises(ValueError):
        localization_histogram([], edges=(0.6, 0.5))
    with pytest.raises(ValueError):
        localization_histogram([], edges=(0.9,))
    with pytest.raises(ValueError):
        localization_histogram([], edges=(0.5, 1.5))


def test_histogram_custom_edges_skip_missing_aggregate():
    hist = localization_histogram([0.3, 0.6], edges=(0.25, 0.5, 0.75, 1.0))
    assert [b.count for b in hist.bins] == [1, 1, 0]
    # 0.8 is not an edge here, so only the full-range aggregate appears
    assert len(hist.aggregates) == 1


def test_diou_worked_example():
    # 1 - 2/3, center distance^2 = 4, enclosing diagonal^2 = 144 + 100
    old = BBox(0, 0, 10, 10)
    new = BBox(2, 0, 10, 10)
    assert diou_loss(new, old) == pytest.approx(1 / 3 + 4 / 244, abs=1e-9)


def test_diou_identity_and_degenerate():
    b = BBox(5, 7, 10, 12)
    assert diou_loss(b, b) == 0.0
    # two coincident degenerate points are identical boxes too
    p = BBox(3, 3, 0, 0)
    assert diou_loss(p, p) == 0.0


@pytest.mark.parametrize("box", [BBox(100, 100, 0, 5), BBox(4, 9, 7, 0), BBox(-2, 0, 0, 0)])
def test_diou_zero_area_box_against_itself_is_zero(box):
    assert diou_loss(box, box) == 0.0
    # against any other box it is still a full loss: IoU 0 plus the center term
    assert diou_loss(box, BBox(0, 0, 20, 20)) > 1.0


# the two boxes of the overflow case: a centre distance of 2e159, whose
# square passes the float range
BIG_OLD, BIG_NEW = BBox(0, 0, 1e160, 1e-160), BBox(2e159, 0, 1e160, 1e-160)


def test_diou_stays_finite_where_squares_overflow():
    # IoU 2/3, centre distance 2e159, enclosing diagonal about 1.2e160
    assert diou_loss(BIG_NEW, BIG_OLD) == pytest.approx(1 / 3 + 1 / 36, rel=1e-12)
    far = diou_loss(BBox(-1.7e308, -1.7e308, 0, 0), BBox(1.7e308, 1.7e308, 0, 0))
    assert far == pytest.approx(2.0, rel=1e-12)  # IoU 0, centres at the diagonal's ends


_LENGTHS = st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e-160, 2e159, 1e160, 1e300, 1.7e308])
_COORD = st.one_of(_LENGTHS, _LENGTHS.map(lambda v: -v), st.floats(-1e4, 1e4),
                   st.floats(allow_nan=False, allow_infinity=False))
_SIZE = st.one_of(_LENGTHS, st.floats(0, 1e4), st.floats(0, allow_infinity=False))


def _bbox_or_none(values):
    try:
        return BBox(*values)
    except ValueError:
        return None


_BOX = st.tuples(_COORD, _COORD, _SIZE, _SIZE).map(_bbox_or_none).filter(bool)


@st.composite
def _box_pairs(draw):
    pred = draw(_BOX)
    target = draw(st.one_of(
        _BOX,
        st.just(pred),                                          # identical
        st.just(BBox(*(-v if v == 0 else v for v in dataclasses.astuple(pred)))),  # signed zeros
        st.tuples(_COORD, _COORD).map(lambda d: _bbox_or_none(
            (pred.x + d[0], pred.y + d[1], pred.w, pred.h))).filter(bool)))
    return pred, target


@settings(max_examples=300, deadline=None)
@given(st.lists(_box_pairs(), min_size=1, max_size=12))
@example([(BIG_NEW, BIG_OLD), (BBox(3, 3, 0, 0), BBox(3, 3, 0, 0)),
          (BBox(-0.0, 0, 0, 5), BBox(0.0, 0, 0, 5)), (BBox(1, 1, 0, 5), BBox(0, 0, 10, 10))])
def test_diou_cells_equal_the_scalar_loss_bitwise(pairs):
    scalar = np.array([diou_loss(p, t) for p, t in pairs])
    columns = np.array([dataclasses.astuple(p) + dataclasses.astuple(t) for p, t in pairs],
                       float).T
    cells = diou_cells(*columns)
    assert np.isfinite(cells).all()
    assert cells.view(np.int64).tolist() == scalar.view(np.int64).tolist()


def test_report_loss_of_a_zero_area_replacement():
    # t_m = 0 lets a non-overlapping zero-width detection claim the face
    old, new = BBox(0, 0, 20, 20), BBox(100, 100, 0, 5)
    anns = AnnotationSet(images=[ImageAnnotations(path="z.jpg", faces=[FaceAnnotation(box=old)])])
    dets = DetectionSet(images=[ImageDetections(path="z.jpg", dets=[Detection(box=new, score=0.9)])])
    result = calibrate_dataset(anns, dets, CalibrationConfig(t_m=0.0, adc_override=0.5))
    assert [r.new_box for r in result.mbps] == [new]
    assert loss_delta_report(result.claims).l_calib.tolist() == [0.0]
    buf = io.StringIO()
    write_report(result, buf)
    doc = json.loads(buf.getvalue())
    assert doc["loss"]["mean_delta"] == doc["loss"]["max_delta"] == diou_loss(new, old)


def _mbps():
    return [
        MbpRecord(path="b.jpg", det_index=0, ann_index=1, iou=0.75, score=0.95,
                  old_box=BBox(0, 0, 10, 10), new_box=BBox(2, 0, 10, 10)),
        MbpRecord(path="a.jpg", det_index=1, ann_index=0, iou=0.5, score=0.9,
                  old_box=BBox(0, 0, 10, 10), new_box=BBox(0, 0, 10, 5)),
    ]


def _claims():
    return claim_table(_mbps())


def test_loss_delta_report():
    losses = loss_delta_report(_claims())
    assert len(losses.delta) == 2
    assert losses.l_calib.tolist() == [0.0, 0.0]
    assert all(losses.l_orig > 0)
    assert losses.delta.tolist() == losses.l_orig.tolist()
    # claim order: b.jpg's replacement first
    assert losses.l_orig.tolist() == [diou_loss(r.new_box, r.old_box) for r in _mbps()]


def test_mbp_export_tsv_sorted_by_iou():
    buf = io.StringIO()
    mbp_export(_claims(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split("\t") == ["path", "ann_index", "old_x", "old_y", "old_w",
                                    "old_h", "new_x", "new_y", "new_w", "new_h",
                                    "iou", "score"]
    assert len(lines) == 3
    first, second = lines[1].split("\t"), lines[2].split("\t")
    assert first[0] == "a.jpg" and second[0] == "b.jpg"  # ascending by iou
    assert float(first[10]) == 0.5


def test_mbp_export_json():
    buf = io.StringIO()
    mbp_export(_claims(), buf, fmt="json")
    rows = json.loads(buf.getvalue())
    assert [r["iou"] for r in rows] == [0.5, 0.75]
    with pytest.raises(ValueError):
        mbp_export(_claims(), io.StringIO(), fmt="xml")


_LEDGER_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.1, 1e16, 1e300, 5e-324, float("inf"), float("nan")]))


@settings(max_examples=100, deadline=None)
@given(paths=st.lists(st.one_of(st.text(max_size=8),
                                st.sampled_from(['a"b.jpg', "c\\d.jpg", "é/ü.jpg", "x\ty\n", "😀"])),
                      min_size=1, max_size=4, unique=True),
       data=st.data())
def test_mbp_export_json_equals_json_dump(paths, data):
    n = data.draw(st.integers(0, 6))

    def floats(*shape):
        size = int(np.prod(shape))
        return np.reshape(data.draw(st.lists(_LEDGER_FLOATS, min_size=size, max_size=size)), shape)

    claims = ClaimTable(
        paths=paths, image=data.draw(st.lists(st.integers(0, len(paths) - 1), min_size=n, max_size=n)),
        det_index=[0] * n, ann_index=data.draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n)),
        iou=floats(n), score=floats(n), old_boxes=floats(n, 4), new_boxes=floats(n, 4))
    order = np.argsort(claims.iou, kind="stable").tolist()
    rows = [dict(zip(MBP_EXPORT_HEADER, (
        paths[claims.image[i]], int(claims.ann_index[i]), *claims.old_boxes[i].tolist(),
        *claims.new_boxes[i].tolist(), float(claims.iou[i]), float(claims.score[i]))))
        for i in order]
    expected = io.StringIO()
    json.dump(rows, expected, indent=2)
    expected.write("\n")
    buf = io.StringIO()
    mbp_export(claims, buf, fmt="json")
    assert buf.getvalue() == expected.getvalue()
    if not n:
        assert buf.getvalue() == "[]\n"


# as test_formats' writer differentials draw them: signed zero, halves, the
# edges of the cached texts, values past int64, a subnormal
_LEDGER_EDGES = st.sampled_from([-0.0, 0.5, -0.5, 2.5, -2.5, 16383.0, 16383.5, 16384.0, -1.0,
                                 1e16, 1e300, 2.0**63, 5e-324])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mbp_export_tsv_equals_the_per_row_template(data):
    n = data.draw(st.integers(0, 6))
    values = st.one_of(_LEDGER_FLOATS, _LEDGER_EDGES, st.integers(0, 20).map(float))

    def floats(*shape):
        size = int(np.prod(shape))
        return np.reshape(data.draw(st.lists(values, min_size=size, max_size=size)), shape)

    paths = ["a.jpg", "b/c.jpg"]
    claims = ClaimTable(
        paths=paths, image=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        det_index=[0] * n, ann_index=data.draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n)),
        iou=floats(n), score=floats(n), old_boxes=floats(n, 4), new_boxes=floats(n, 4))
    row = "%s\t%d" + "\t%r" * 10 + "\n"
    expected = "\t".join(MBP_EXPORT_HEADER) + "\n" + "".join(
        row % (paths[claims.image[i]], claims.ann_index[i], *claims.old_boxes[i].tolist(),
               *claims.new_boxes[i].tolist(), float(claims.iou[i]), float(claims.score[i]))
        for i in np.argsort(claims.iou, kind="stable").tolist())
    buf = io.StringIO()
    mbp_export(claims, buf)
    assert buf.getvalue() == expected


def _small_result():
    anns = AnnotationSet(images=[ImageAnnotations(
        path="x.jpg", faces=[FaceAnnotation(box=BBox(0, 0, 10, 10))])])
    dets = DetectionSet(images=[ImageDetections(
        path="x.jpg", dets=[Detection(box=BBox(0, 0, 10, 7), score=0.9)])])
    return calibrate_dataset(anns, dets, CalibrationConfig(adc_override=0.5))


def test_summary_line():
    result = _small_result()
    line = summary_line(result, predictor="toy")
    assert "calibrated=1" in line and "predictor=toy" in line
    assert "interval=[0.5, 0.8]" in line
    assert "adc=0.500000" in line
    buf = io.StringIO()
    write_report(result, buf)
    assert json.loads(buf.getvalue())["counters"]["hcdrs_considered"] == 1


def test_write_report_schema():
    result = _small_result()
    buf = io.StringIO()
    write_report(result, buf, predictor="toy")
    doc = json.loads(buf.getvalue())
    assert doc["predictor"] == "toy"
    assert doc["adc"] == {"value": 0.5, "overridden": True}
    assert doc["interval"] == [0.5, 0.8]
    assert doc["calibrated"] == 1
    assert doc["counters"]["images_processed"] == 1
    assert doc["histogram"]["total"] == 1
    assert doc["histogram"]["bins"][2]["count"] == 1  # IoU 0.7 -> [0.7, 0.8)
    assert doc["loss"]["name"] == "diou"
    assert doc["loss"]["note"] == LOSS_NOTE
    assert doc["loss"]["count"] == 1
    assert doc["loss"]["mean_delta"] > 0
    assert isinstance(doc["wall_time_s"], float)


def test_write_report_with_computed_adc():
    anns = AnnotationSet(images=[ImageAnnotations(
        path="x.jpg", faces=[FaceAnnotation(box=BBox(0, 0, 10, 10))])])
    dets = DetectionSet(images=[ImageDetections(
        path="x.jpg", dets=[Detection(box=BBox(0, 0, 10, 7), score=0.9)])])
    result = calibrate_dataset(anns, dets)
    buf = io.StringIO()
    write_report(result, buf)
    doc = json.loads(buf.getvalue())
    assert doc["adc"]["value"] == 0.9
    assert doc["adc"]["denominator"] == 1


def test_report_and_summary_line_bytes_are_pinned():
    # one claim (IoU 0.7) and one out-of-interval HCDR (IoU 1.0) in a.jpg;
    # b.jpg's weak detection only lowers the computed threshold to 2/3
    anns = AnnotationSet(images=[
        ImageAnnotations(path="a.jpg", faces=[FaceAnnotation(box=BBox(0, 0, 10, 10)),
                                              FaceAnnotation(box=BBox(100, 100, 10, 10))]),
        ImageAnnotations(path="b.jpg", faces=[FaceAnnotation(box=BBox(0, 0, 4, 4))])])
    dets = DetectionSet(images=[
        ImageDetections(path="a.jpg", dets=[Detection(box=BBox(0, 0, 10, 7), score=0.9),
                                            Detection(box=BBox(100, 100, 10, 10), score=0.8)]),
        ImageDetections(path="b.jpg", dets=[Detection(box=BBox(0, 0, 4, 4), score=0.3)])])
    result = calibrate_dataset(anns, dets)
    buf = io.StringIO()
    write_report(result, buf, predictor="toy")
    text, n = re.subn(r'  "wall_time_s": [^\n]*\n', "", buf.getvalue())
    assert n == 1
    expected = (Path(__file__).parent / "data" / "report_one_claim.json").read_bytes()
    assert text.encode("utf-8") == expected
    line, n = re.subn(r" time=\S*$", "", summary_line(result, predictor="toy"))
    assert n == 1
    assert line == "predictor=toy adc=0.666667 interval=[0.5, 0.8] calibrated=1"
