import decimal
import io
import logging
import math
import os
import subprocess
import sys
import tempfile
from contextlib import suppress
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import boxcal
from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections, ParseError, _segment_rows, align,
                            format_coord, load_detections, load_wider_gt, parse_detections_dir,
                            parse_detections_file, parse_wider_gt, save_wider_gt,
                            write_detections_dir, write_detections_file,
                            write_wider_gt)
from boxcal.geometry import BBox, valid_boxes

GT_SAMPLE = """a/img1.jpg
2
10 20 30 40 0 0 0 0 0 0
5 5 12 18 2 1 0 1 2 1
b/img2.jpg
1
0 0 10.50 10 0 0 0 0 0 0
"""


def _write(annset, policy="decimal"):
    buf = io.StringIO()
    write_wider_gt(annset, buf, policy)
    return buf.getvalue()


def test_parse_basic_fields():
    s = parse_wider_gt(GT_SAMPLE)
    assert [img.path for img in s.images] == ["a/img1.jpg", "b/img2.jpg"]
    f = s.images[0].faces[1]
    assert f.box == BBox(5, 5, 12, 18)
    assert (f.blur, f.expression, f.illumination, f.invalid, f.occlusion, f.pose) == (2, 1, 0, 1, 2, 1)
    assert s.images[1].faces[0].box.w == 10.5
    assert s.total_faces() == 3


def test_zero_count_consumes_dummy_line():
    s = parse_wider_gt("b.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
    assert len(s.images) == 1
    assert s.images[0].faces == []


def test_zero_count_without_dummy():
    s = parse_wider_gt("b.jpg\n0\nc.jpg\n1\n1 2 3 4 0 0 0 0 0 0\n")
    assert [len(img.faces) for img in s.images] == [0, 1]
    # ten tokens, one of them not a number: no dummy row, but the next name
    s = parse_wider_gt("b.jpg\n0\nx 0 0 0 0 0 0 0 0 0\n1\n1 2 3 4 0 0 0 0 0 0\n")
    assert s.paths == ["b.jpg", "x 0 0 0 0 0 0 0 0 0"] and s.offsets.tolist() == [0, 0, 1]


def test_crlf_and_blank_lines_tolerated():
    text = GT_SAMPLE.replace("\n", "\r\n")
    assert parse_wider_gt(text) == parse_wider_gt(GT_SAMPLE)
    spaced = "a.jpg\n1\n1 2 3 4 0 0 0 0 0 0\n\n\nb.jpg\n0\n"
    assert len(parse_wider_gt(spaced).images) == 2


def test_error_nonnumeric_count():
    with pytest.raises(ParseError) as exc:
        parse_wider_gt("c.jpg\nxyz\n", name="c-fixture")
    assert exc.value.line == 2
    assert "c-fixture:2:" in str(exc.value)


def test_error_truncated_record():
    with pytest.raises(ParseError) as exc:
        parse_wider_gt("a.jpg\n2\n1 2 3 4 0 0 0 0 0 0\n")
    assert exc.value.line == 4


def test_error_wrong_field_count():
    with pytest.raises(ParseError) as exc:
        parse_wider_gt("a.jpg\n1\n1 2 3 4 0 0 0 0 0\n")
    assert exc.value.line == 3


def test_error_negative_size():
    with pytest.raises(ParseError):
        parse_wider_gt("a.jpg\n1\n1 2 -3 4 0 0 0 0 0 0\n")


@pytest.mark.parametrize("row", ["1e308 0 1e308 10", "0 0 1e200 1e200"])
def test_error_overflowing_edge_or_area(row):
    with pytest.raises(ParseError) as exc:
        parse_wider_gt(f"a.jpg\n0\nb.jpg\n1\n{row} 0 0 0 0 0 0\n", name="gt.txt")
    assert str(exc.value).startswith("gt.txt:5: ")
    with pytest.raises(ParseError) as exc:
        parse_detections_file(f"a.jpg\n2\n0 0 4 4 0.9\n{row} 0.5\n", name="d.txt")
    assert str(exc.value).startswith("d.txt:4: ")


def test_error_negative_count():
    with pytest.raises(ParseError):
        parse_wider_gt("a.jpg\n-1\n")


def test_error_duplicate_path():
    with pytest.raises(ParseError):
        parse_wider_gt("a.jpg\n0\na.jpg\n0\n")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_error_non_finite_flag(value):
    with pytest.raises(ParseError) as exc:
        parse_wider_gt(f"a.jpg\n1\n1 2 3 4 0 0 {value} 0 0 0\n", name="gt.txt")
    assert exc.value.line == 3
    assert str(exc.value).startswith("gt.txt:3: ")
    assert "illumination" in str(exc.value)


def test_out_of_range_flag_warns_but_parses(caplog):
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        s = parse_wider_gt("a.jpg\n1\n1 2 3 4 9 0 0 0 0 0\n")
    assert s.images[0].faces[0].blur == 9
    assert any("blur" in rec.message for rec in caplog.records)


def test_negative_x_is_legal():
    # Real annotation files contain boxes that poke past the left edge.
    s = parse_wider_gt("a.jpg\n1\n-3 2 10 4 0 0 0 0 0 0\n")
    assert s.images[0].faces[0].box.x == -3


def test_write_round_trips_sample_bytes():
    assert _write(parse_wider_gt(GT_SAMPLE)) == GT_SAMPLE


def test_write_emits_dummy_for_empty_image():
    s = AnnotationSet(images=[ImageAnnotations(path="e.jpg", faces=[])])
    assert _write(s) == "e.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"


def test_format_coord_decimal():
    assert format_coord(2.0) == "2"
    assert format_coord(0.0) == "0"
    assert format_coord(10.5) == "10.50"
    assert format_coord(-3.25) == "-3.25"


def test_format_coord_integer_halves_away_from_zero():
    assert format_coord(10.5, "integer") == "11"
    assert format_coord(-10.5, "integer") == "-11"
    assert format_coord(2.4, "integer") == "2"
    assert format_coord(2.5, "integer") == "3"
    assert format_coord(-2.5, "integer") == "-3"
    assert format_coord(7.0, "integer") == "7"


# full-range finite floats, the largest doubles below a half-integer, and
# the values where v + 0.5 itself rounds: the largest double below 0.5 and
# odd whole numbers from 2**52, where the doubles are the integers
_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**53, 2**53).map(lambda k: math.nextafter(k + 0.5, 0)),
    st.integers(-2**53, 2**53).map(lambda k: k + 0.5),
    st.sampled_from([0.49999999999999994, -0.49999999999999994, 2.0**52 + 1, -(2.0**52 + 1),
                     2.0**53 - 1, 0.5, -0.5, 1.5, 2.5, -0.0, 0.005, 0.015, 2.675, 5e-324,
                     -5e-324, 1.7976931348623157e308]))
_WIDE = decimal.Context(prec=400)  # every finite double, exactly


@settings(max_examples=500, deadline=None)
@given(_COORDS)
def test_format_coord_integer_equals_decimal_half_up(v):
    want = str(int(Decimal(v).quantize(Decimal(1), decimal.ROUND_HALF_UP, context=_WIDE)))
    assert format_coord(v, "integer") == want


@settings(max_examples=500, deadline=None)
@given(_COORDS)
def test_format_coord_decimal_equals_decimal_half_even(v):
    d = Decimal(v)
    want = (str(int(d)) if d == d.to_integral_value() else
            str(d.quantize(Decimal("0.01"), decimal.ROUND_HALF_EVEN, context=_WIDE)))
    assert format_coord(v) == want


def test_format_coord_rejects_unknown_policy():
    with pytest.raises(ValueError):
        format_coord(1.0, "nope")
    for images in ([], [ImageAnnotations(path="e.jpg", faces=[])]):  # the writer, with no rows
        with pytest.raises(ValueError, match="unknown rounding policy 'nope'"):
            _write(AnnotationSet(images=images), "nope")


def test_write_policies_worked_example():
    face = FaceAnnotation(box=BBox(2.0, 0.0, 10.5, 10.0))
    s = AnnotationSet(images=[ImageAnnotations(path="p.jpg", faces=[face])])
    assert _write(s) == "p.jpg\n1\n2 0 10.50 10 0 0 0 0 0 0\n"
    assert _write(s, "integer") == "p.jpg\n1\n2 0 11 10 0 0 0 0 0 0\n"


# --- the writers against their per-row reference -------------------------------

# the values where cached cell texts and the scalar formatters could part:
# signed zero, halves, the edges of the cache, values past int64, a subnormal
_WRITER_EDGES = [-0.0, 0.5, -0.5, 2.5, -2.5, 16383.0, 16383.5, 16384.0, -1.0,
                 1e16, 1e300, 2.0**63, 5e-324]
_WRITER_FLOATS = st.one_of(st.sampled_from(_WRITER_EDGES), st.integers(0, 20).map(float),
                           st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _table_rows(draw, width: int):
    """Per-image row counts (zero included) and an (N, width) value array."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    n = sum(counts)
    vals = draw(st.lists(_WRITER_FLOATS, min_size=n * width, max_size=n * width))
    return counts, np.array(vals, np.float64).reshape(n, width)


def _record_lines(paths, counts, rows, empty=()):
    """Each record's name line, count line and rows (`empty` if it has none)."""
    out, k = [], 0
    for path, n in zip(paths, counts):
        out += [path, str(n), *(rows[k:k + n] if n else empty)]
        k += n
    return out


def _outcome(fn, *args):
    """("ok", fn's result) or (exception type, its text)."""
    try:
        return "ok", fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_table_rows(10), st.sampled_from(["decimal", "integer"]), st.data())
def test_write_wider_gt_equals_the_per_row_reference(table, policy, data):
    counts, values = table
    for _ in range(data.draw(st.integers(0, 2)) if len(values) else 0):  # non-finite box cells
        cell = data.draw(st.integers(0, len(values) - 1)), data.draw(st.integers(0, 3))
        values[cell] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    paths = [f"d/{i}.jpg" for i in range(len(counts))]
    boxes, flags = values[:, :4], np.trunc(values[:, 4:])  # flags are integer parts
    annset = AnnotationSet(paths=paths, offsets=np.cumsum([0, *counts]), boxes=boxes, flags=flags)
    cells = [_outcome(format_coord, v, policy) for v in boxes.ravel().tolist()]
    errors = {cell for cell in cells if cell[0] != "ok"}
    if errors:  # the writer raises what format_coord raises on one of the cells
        assert _outcome(_write, annset, policy) in errors
        return
    texts = iter(text for _, text in cells)
    rows = [" ".join([*(next(texts) for _ in range(4)), *(str(int(f)) for f in fl)])
            for fl in flags.tolist()]
    expected = "".join(line + "\n" for line in _record_lines(
        paths, counts, rows, empty=["0 0 0 0 0 0 0 0 0 0"]))
    assert _write(annset, policy) == expected


@settings(max_examples=100, deadline=None)
@given(_table_rows(4), st.data())
def test_detection_writers_equal_the_per_row_reference(table, data):
    counts, boxes = table
    scores = data.draw(st.lists(st.one_of(_WRITER_FLOATS, st.floats()),
                                min_size=len(boxes), max_size=len(boxes)))
    keys = [f"{'ab'[i % 2]}/img{i}.jpg" for i in range(len(counts))]
    rows = [" ".join([*map(format_coord, b), repr(s)]) for b, s in zip(boxes.tolist(), scores)]
    detset = DetectionSet(paths=keys, offsets=np.cumsum([0, *counts]), boxes=boxes, scores=scores)

    buf = io.StringIO()
    write_detections_file(detset, buf)
    assert buf.getvalue() == "".join(line + "\n" for line in _record_lines(keys, counts, rows))

    # an empty image_ext keeps the whole key and appends ".txt"
    for image_ext, files in [(".jpg", [k[:-4] + ".txt" for k in keys]),
                             ("", [k + ".txt" for k in keys])]:
        with tempfile.TemporaryDirectory() as tmp:
            write_detections_dir(detset, tmp, image_ext=image_ext)
            k = 0
            for i, (rel, n) in enumerate(zip(files, counts)):
                lines = _record_lines([f"img{i}"], [n], rows[k:k + n])
                expected = "".join(line + "\n" for line in lines)
                assert (Path(tmp) / rel).read_text(encoding="utf-8") == expected
                k += n
            assert sorted(p.relative_to(tmp).as_posix()
                          for p in Path(tmp).rglob("*") if p.is_file()) == sorted(files)
            written = np.array([row.split()[:4] for row in rows], np.float64).reshape(-1, 4)
            if image_ext == "" and np.isfinite(scores).all() and valid_boxes(written).all():
                assert sorted(parse_detections_dir(tmp, image_ext="").paths) == sorted(keys)


def test_writers_build_their_cached_texts_on_first_use():
    # a run that writes nothing (`boxcal stats`) must not hold the tables
    code = ("import boxcal.cli, boxcal.formats as f; "
            "assert f._text_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(boxcal.__file__).parents[1])})


def test_a_hand_built_integer_score_is_written_as_a_float():
    dets = DetectionSet(images=[ImageDetections("a.jpg", [Detection(BBox(1, 2, 3, 4), 1)])])
    buf = io.StringIO()
    write_detections_file(dets, buf)
    assert buf.getvalue() == "a.jpg\n1\n1 2 3 4 1.0\n"
    assert parse_detections_file(buf.getvalue()) == dets


DETS_ONE = "img1\n2\n1 2 3 4 0.9\n5 6 7 8 0.4\n"
DETS_TWO_IMAGES = "a/img1.jpg\n2\n1 2 3 4 0.9\n5 6 7 8 0.4\nb/img2.jpg\n0\n"


def test_detection_dir_round_trip(tmp_path):
    dets = DetectionSet(images=[
        ImageDetections(path="a/img1.jpg", dets=[
            Detection(box=BBox(1, 2, 3, 4), score=0.9),
            Detection(box=BBox(5, 6, 7, 8), score=0.4),
        ]),
        ImageDetections(path="b/img2.jpg", dets=[]),
    ])
    write_detections_dir(dets, tmp_path / "d")
    assert (tmp_path / "d" / "a" / "img1.txt").exists()
    back = parse_detections_dir(tmp_path / "d")
    assert back == dets


def test_detection_dir_rejects_two_keys_that_share_a_file(tmp_path):
    # "a" and "a.jpg" both map to a.txt: writing both would lose an image
    dets = DetectionSet(paths=["a", "b.jpg", "a.jpg"], offsets=[0, 1, 1, 3],
                        boxes=[[0, 0, 1, 1]] * 3, scores=[0.5, 0.9, 0.4])
    with pytest.raises(ValueError, match=r"'a' and 'a\.jpg' would both be written to .*a\.txt"):
        write_detections_dir(dets, tmp_path / "d")
    assert not (tmp_path / "d").exists()  # nothing is written


@pytest.mark.parametrize("keys, message", [
    (["a.jpg", "x/../a.jpg"], "would both be written to"),
    (["a//b.jpg", "a/b.jpg"], "would both be written to"),
    (["/tmp/x.jpg"], "would be written outside"),
    (["../x.jpg"], "would be written outside"),
    (["a.jpg", "a.txt/b.jpg"], r"'a\.jpg' would be written to .*a\.txt, a directory of 'a\.txt/b"),
    (["a.txt/b.jpg", "a.jpg"], r"'a\.jpg' would be written to .*a\.txt, a directory of 'a\.txt/b"),
    (["a.jpg", "x/../a.txt/b.jpg"], r"'a\.jpg' would be written to .*, a directory of 'x/\.\./a")])
def test_detection_dir_rejects_keys_that_share_a_normalised_file_or_leave_the_root(
        tmp_path, keys, message):
    dets = DetectionSet(paths=keys, offsets=range(len(keys) + 1),
                        boxes=[[0, 0, 1, 1]] * len(keys), scores=[0.5] * len(keys))
    with pytest.raises(ValueError, match=message):
        write_detections_dir(dets, tmp_path / "d")
    assert not (tmp_path / "d").exists()  # nothing is made


def test_detection_dir_writes_an_empty_set_as_an_empty_root(tmp_path):
    write_detections_dir(DetectionSet(paths=[], offsets=[0], boxes=[], scores=[]), tmp_path / "d")
    assert list((tmp_path / "d").iterdir()) == []
    assert len(parse_detections_dir(tmp_path / "d").paths) == 0


def test_every_write_mode_open_ends_lines_in_lf(tmp_path, monkeypatch):
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        if "r" not in mode:
            opened.append((mode, kwargs.get("encoding"), kwargs.get("newline")))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(boxcal.formats, "open", spy, raising=False)
    save_wider_gt(parse_wider_gt(GT_SAMPLE), tmp_path / "gt.txt")
    write_detections_dir(parse_detections_file(DETS_TWO_IMAGES), tmp_path / "d")
    assert opened == [("w", "utf-8", "\n")] * 3


def test_detection_dir_key_mapping(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "x.txt").write_text(DETS_ONE, encoding="utf-8")
    s = parse_detections_dir(tmp_path)
    assert s.images[0].path == "sub/x.jpg"
    s2 = parse_detections_dir(tmp_path, image_ext=".png")
    assert s2.images[0].path == "sub/x.png"


def test_detection_dir_rejects_extra_record(tmp_path):
    (tmp_path / "x.txt").write_text(DETS_ONE + "img2\n0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_detections_dir(tmp_path)


def test_detection_dir_missing_root():
    with pytest.raises(NotADirectoryError):
        parse_detections_dir("/nonexistent/detections")


def test_detection_file_keys_are_verbatim():
    text = "a/img1.jpg\n1\n0 0 4 4 0.7\nb/img2.jpg\n0\n"
    s = parse_detections_file(text)
    assert [img.path for img in s.images] == ["a/img1.jpg", "b/img2.jpg"]
    buf = io.StringIO()
    write_detections_file(s, buf)
    assert buf.getvalue() == text


def test_detection_file_duplicate_key():
    with pytest.raises(ParseError):
        parse_detections_file("a.jpg\n0\na.jpg\n0\n")


def test_detection_count_mismatch():
    with pytest.raises(ParseError):
        parse_detections_file("a.jpg\n3\n0 0 4 4 0.7\n")


def test_detections_sorted_descending_stable():
    text = "a.jpg\n3\n1 0 4 4 0.5\n2 0 4 4 0.9\n3 0 4 4 0.5\n"
    dets = parse_detections_file(text).images[0].dets
    assert [d.score for d in dets] == [0.9, 0.5, 0.5]
    # stable: the two 0.5 detections keep their file order
    assert dets[1].box.x == 1 and dets[2].box.x == 3


def test_unsorted_detections_sort_stably_and_sorted_ones_are_not_sorted_again(
        tmp_path, monkeypatch):
    # a.jpg rises twice, b.jpg once; equal scores keep file order, and the
    # last pair of a.jpg against b.jpg's first row is not a rise
    records = {"a": "a.jpg\n4\n0 0 1 1 0.5\n1 0 1 1 0.9\n2 0 1 1 0.5\n3 0 1 1 0.9\n",
               "b": "b.jpg\n2\n4 0 1 1 0.2\n5 0 1 1 0.3\n"}
    unsorted = records["a"] + records["b"]
    want = {"a.jpg": [(1.0, 0.9), (3.0, 0.9), (0.0, 0.5), (2.0, 0.5)],
            "b.jpg": [(5.0, 0.3), (4.0, 0.2)]}
    (tmp_path / "d").mkdir()
    for name, text in records.items():
        (tmp_path / "d" / f"{name}.txt").write_text(text, encoding="utf-8")
    for parsed in (parse_detections_file(unsorted), parse_detections_dir(tmp_path / "d")):
        assert {img.path: [(d.box.x, d.score) for d in img.dets] for img in parsed.images} == want

    def refuse(*args, **kwargs):
        raise AssertionError("sorted detections were sorted again")

    monkeypatch.setattr(np, "lexsort", refuse)
    # descending within each image; -0 before 0 is not a rise and stays put
    ordered = ("a.jpg\n3\n0 0 1 1 0.9\n1 0 1 1 -0\n2 0 1 1 0\n"
               "b.jpg\n2\n3 0 1 1 0.95\n4 0 1 1 0.95\n")
    dets = parse_detections_file(ordered)
    assert dets.boxes[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert [math.copysign(1.0, s) for s in dets.scores.tolist()] == [1.0, -1.0, 1.0, 1.0, 1.0]


def test_load_detections_auto_layout(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "x.txt").write_text(DETS_ONE, encoding="utf-8")
    consolidated = tmp_path / "all.txt"
    consolidated.write_text("x.jpg\n1\n0 0 4 4 0.7\n", encoding="utf-8")
    assert load_detections(tmp_path / "d").images[0].path == "x.jpg"
    assert load_detections(consolidated).images[0].path == "x.jpg"
    with pytest.raises(ValueError):
        load_detections(consolidated, layout="bogus")


def test_align_pairs_in_annotation_order(caplog):
    anns = AnnotationSet(images=[
        ImageAnnotations(path="a.jpg", faces=[]),
        ImageAnnotations(path="b.jpg", faces=[]),
    ])
    dets = DetectionSet(images=[
        ImageDetections(path="c.jpg", dets=[]),  # extra, dropped
        ImageDetections(path="b.jpg", dets=[Detection(box=BBox(0, 0, 1, 1), score=0.5)]),
    ])
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        aligned = align(anns, dets)
    assert aligned.paths == ["a.jpg", "b.jpg"]
    assert aligned.images[0].dets == []      # a.jpg had no detections
    assert len(aligned.images[1].dets) == 1
    messages = " ".join(rec.message for rec in caplog.records)
    assert "no detections" in messages and "ignored" in messages


def test_align_rejects_duplicate_detection_paths():
    anns = AnnotationSet(images=[ImageAnnotations(path="a.jpg", faces=[])])
    det = Detection(box=BBox(0, 0, 1, 1), score=0.5)
    dets = DetectionSet(images=[ImageDetections(path="a.jpg", dets=[det]),
                                ImageDetections(path="a.jpg", dets=[])])
    with pytest.raises(ValueError, match="duplicate detection image path 'a.jpg'"):
        align(anns, dets)


def test_align_rejects_unsorted_detections():
    anns = AnnotationSet(images=[ImageAnnotations(path="a.jpg", faces=[])])
    low, high = (Detection(box=BBox(0, 0, 1, 1), score=s) for s in (0.3, 0.9))
    dets = DetectionSet(images=[ImageDetections(path="b.jpg", dets=[low, high])])
    with pytest.raises(ValueError, match="'b.jpg' are not sorted by descending score"):
        align(anns, dets)
    # equal scores are sorted
    align(anns, DetectionSet(images=[ImageDetections(path="b.jpg", dets=[low, low])]))


# Canonical coordinate values: integers or exact 2-decimal fractions, the two
# shapes the writer produces.
coord_vals = st.one_of(
    st.integers(min_value=0, max_value=2000).map(float),
    st.integers(min_value=0, max_value=200000).map(lambda n: n / 100),
)
flag_vals = st.integers(min_value=0, max_value=1)


@st.composite
def annotation_sets(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    images = []
    for i in range(n):
        faces = [FaceAnnotation(
            box=BBox(draw(coord_vals), draw(coord_vals),
                     draw(coord_vals), draw(coord_vals)),
            blur=draw(st.integers(min_value=0, max_value=2)),
            expression=draw(flag_vals), illumination=draw(flag_vals),
            invalid=draw(flag_vals),
            occlusion=draw(st.integers(min_value=0, max_value=2)),
            pose=draw(flag_vals),
        ) for _ in range(draw(st.integers(min_value=0, max_value=4)))]
        images.append(ImageAnnotations(path=f"g{i:02d}/img{i:04d}.jpg", faces=faces))
    return AnnotationSet(images=images)


@settings(max_examples=150)
@given(annotation_sets())
def test_round_trip_value_and_byte_identity(annset):
    text = _write(annset)
    parsed = parse_wider_gt(text)
    assert parsed == annset
    assert _write(parsed) == text


def test_detection_truncation_reports_the_line_after_the_last():
    # as for annotations: the missing row would have been line n + 1
    with pytest.raises(ParseError) as exc:
        parse_detections_file("a.jpg\n3\n0 0 4 4 0.7\n", name="d.txt")
    assert exc.value.line == 4
    assert str(exc.value).startswith("d.txt:4: ")


# Characters str.splitlines breaks at although they are no newline.
NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NOT_NEWLINES)
def test_only_lf_crlf_and_cr_break_lines(sep):
    face = "1 2 3 4 0 0 0 0 0 0"
    s = parse_wider_gt(f"a{sep}b.jpg\n1\n{face}\rc.jpg\r\n0\n")
    assert [img.path for img in s.images] == [f"a{sep}b.jpg", "c.jpg"]
    d = parse_detections_file(f"a{sep}b.jpg\n1\n0 0 4 4 0.7{sep}\n")
    assert d.images[0].path == f"a{sep}b.jpg"
    # a separator trailing a row is whitespace: later line numbers stay put
    with pytest.raises(ParseError) as exc:
        parse_wider_gt(f"a.jpg\n1\n{face}{sep}\nb.jpg\n1\n1 2 3 4 0 0 0 0 0\n", name="gt.txt")
    assert exc.value.line == 6


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_undecodable_byte_raises_parse_error_on_its_line(tmp_path, newline):
    # each input holds one 0xff byte, on line 4
    gt = tmp_path / "gt.txt"
    gt.write_bytes(newline.join([b"a.jpg", b"0", b"0 0 0 0 0 0 0 0 0 0", b"b\xff.jpg", b"0", b""]))
    dets = tmp_path / "dets.txt"
    dets.write_bytes(newline.join([b"a.jpg", b"1", b"0 0 4 4 0.7", b"b\xff.jpg", b"0", b""]))
    root = tmp_path / "dets"
    root.mkdir()
    per_image = root / "x.txt"
    per_image.write_bytes(newline.join([b"x", b"2", b"0 0 4 4 0.7", b"1 1 4 4 0.5 \xff", b""]))

    def streamed(parse):
        def load(path):
            with open(path, encoding="utf-8") as fh:
                return parse(fh, name=str(path))
        return load

    for load, path, shown in ((load_wider_gt, gt, gt),
                              (lambda p: load_detections(p, layout="file"), dets, dets),
                              (parse_detections_dir, root, per_image),
                              (streamed(parse_wider_gt), gt, gt),
                              (streamed(parse_detections_file), dets, dets)):
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{shown}:4: "), str(exc.value)


# Fuzzing: text shaped like records, with the grammar's edge cases among the
# tokens, plus arbitrary text and bytes.  Anything but a result or a
# ParseError fails the test.
_tokens = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1e400", "nan", "-inf", "1_0",
                     "x.jpg", "0x1", "\u2028", "\x0c", "\xa0"]),
    st.text(max_size=3))
_record_text = st.tuples(
    st.lists(st.lists(_tokens, max_size=11).map(" ".join), max_size=14),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda t: t[1].join(t[0]))
_any_text = st.one_of(_record_text, st.text())


@settings(max_examples=300)
@given(_any_text)
def test_fuzz_text_parses_or_raises_parse_error(text):
    with suppress(ParseError):
        parse_wider_gt(text)
    with suppress(ParseError):
        parse_detections_file(text)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # files rewritten per example
@given(data=st.one_of(st.binary(), _any_text.map(str.encode),
                      st.tuples(_record_text, st.binary(min_size=1, max_size=2)).map(
                          lambda t: t[0].encode() + t[1] + t[0].encode())))
def test_fuzz_bytes_parse_or_raise_parse_error(tmp_path, data):
    gt = tmp_path / "gt.txt"
    gt.write_bytes(data)
    root = tmp_path / "dets"
    root.mkdir(exist_ok=True)
    (root / "x.txt").write_bytes(data)
    with suppress(ParseError):
        load_wider_gt(gt)
    with suppress(ParseError):
        load_detections(gt, layout="file")
    with suppress(ParseError):
        parse_detections_dir(root)


# --- the columnar tables -------------------------------------------------------

def test_tables_and_row_views():
    parsed = parse_wider_gt(GT_SAMPLE)
    assert parsed.paths == ["a/img1.jpg", "b/img2.jpg"]
    assert parsed.offsets.tolist() == [0, 2, 3]
    assert parsed.boxes.tolist() == [[10, 20, 30, 40], [5, 5, 12, 18], [0, 0, 10.5, 10]]
    assert parsed.flags.tolist()[1] == [2, 1, 0, 1, 2, 1]
    assert parsed.images is parsed.images                # the row view is built once
    faces = [FaceAnnotation(box=BBox(10, 20, 30, 40)),
             FaceAnnotation(box=BBox(5, 5, 12, 18), blur=2, expression=1, invalid=1,
                            occlusion=2, pose=1)]
    images = [ImageAnnotations("a/img1.jpg", faces),
              ImageAnnotations("b/img2.jpg", [FaceAnnotation(box=BBox(0, 0, 10.5, 10))])]
    built = AnnotationSet(images=images)
    assert built.images == images and built.images[0] is images[0]  # objects are kept
    assert built == parsed and parsed.images == images                # == compares tables
    moved = AnnotationSet(paths=parsed.paths, offsets=parsed.offsets,
                          boxes=parsed.boxes + 1, flags=parsed.flags)
    assert moved != parsed
    with pytest.raises(ValueError):
        parsed.boxes[0, 0] = 1.0                                       # tables are read-only
    with pytest.raises(ValueError, match="offsets"):
        AnnotationSet(paths=["a.jpg"], offsets=[0, 2, 3], boxes=parsed.boxes, flags=parsed.flags)
    with pytest.raises(TypeError, match="pass images or the table columns, not both"):
        AnnotationSet(images, paths=parsed.paths)
    dets = parse_detections_file("b.jpg\n2\n1 1 2 2 0.25\n3 3 2 2 0.75\na.jpg\n0\n")
    assert dets.paths == ["b.jpg", "a.jpg"] and dets.offsets.tolist() == [0, 2, 2]
    assert dets.scores.tolist() == [0.75, 0.25] and dets.boxes[0].tolist() == [3, 3, 2, 2]


def test_align_reindexes_the_detection_table():
    anns = parse_wider_gt("a.jpg\n0\nb.jpg\n1\n0 0 4 4 0 0 0 0 0 0\nc.jpg\n0\n")
    dets = parse_detections_file("c.jpg\n1\n5 5 1 1 0.5\nghost.jpg\n1\n0 0 1 1 0.9\n"
                                 "b.jpg\n2\n1 1 1 1 0.25\n2 2 1 1 0.75\n")
    aligned = align(anns, dets)
    assert aligned.paths == anns.paths
    assert aligned.offsets.tolist() == [0, 0, 2, 3]               # a.jpg gets an empty run
    assert aligned.scores.tolist() == [0.75, 0.25, 0.5]
    assert aligned.boxes.tolist() == [[2, 2, 1, 1], [1, 1, 1, 1], [5, 5, 1, 1]]


def test_align_rejects_duplicate_annotation_paths():
    anns = AnnotationSet(images=[ImageAnnotations(path="a.jpg"), ImageAnnotations(path="b.jpg"),
                                 ImageAnnotations(path="a.jpg")])
    with pytest.raises(ValueError, match="duplicate annotation image path 'a.jpg'"):
        align(anns, DetectionSet(images=[]))


def test_flag_beyond_int64_round_trips(caplog):
    text = "a.jpg\n1\n0 0 1 1 1e300 0 0 0 -2.5 0\n"
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        s = parse_wider_gt(text, name="gt.txt")
    assert [r.getMessage() for r in caplog.records] == [
        "gt.txt:3: blur flag 1e+300 outside documented range [0, 2]",
        "gt.txt:3: occlusion flag -2.5 outside documented range [0, 2]"]
    assert s.images[0].faces[0].blur == int(1e300)
    assert _write(s) == f"a.jpg\n1\n0 0 1 1 {int(1e300)} 0 0 0 -2 0\n"


def test_detection_dir_walk_orders_by_path_parts(tmp_path):
    # Path order compares part by part: a/x.txt before a-b/x.txt, although
    # the string "a-b/x.txt" sorts before "a/x.txt"
    for rel in ["a-b/x.txt", "a/x.txt", "a/b/y.txt", "a/c.txt", "ab.txt", "a0/z.txt",
                "a/skip.TXT", "a/notes.md"]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("n\n1\n0 0 1 1 0.5\n", encoding="utf-8")
    (tmp_path / "b").symlink_to(tmp_path / "a", target_is_directory=True)  # not followed
    paths = parse_detections_dir(tmp_path).paths
    assert paths == ["a/b/y.jpg", "a/c.jpg", "a/x.jpg", "a-b/x.jpg", "a0/z.jpg", "ab.jpg"]
    assert paths == [p.relative_to(tmp_path).as_posix()[:-4] + ".jpg"
                     for p in sorted(tmp_path.rglob("*.txt"))]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), max_size=8))
@example([])
@example([(3, 0), (0, 2), (7, 0)])
def test_segment_rows_concatenates_the_ranges(segments):
    starts = np.array([s for s, _ in segments], np.int64)
    counts = np.array([c for _, c in segments], np.int64)
    expected = np.concatenate([np.arange(s, s + c) for s, c in segments] + [np.arange(0)])
    rows = _segment_rows(starts, counts)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, expected)


def test_detection_dir_reports_the_first_fault_in_file_order(tmp_path, caplog):
    # a.txt's bad row comes before b.txt's bad count and c.txt's bad byte
    (tmp_path / "a.txt").write_text("a\n2\n0 0 1 1 1.5\n0 0 1 1 x\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("b\nmany\n", encoding="utf-8")
    (tmp_path / "c.txt").write_bytes(b"c\xff\n0\n")
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        with pytest.raises(ParseError) as exc:
            parse_detections_dir(tmp_path)
    a = tmp_path / "a.txt"
    assert str(exc.value) == f"{a}:4: non-numeric field in ['0', '0', '1', '1', 'x']"
    assert [r.getMessage() for r in caplog.records] == [f"{a}:3: score 1.5 outside [0, 1]"]


_BOX_ERROR = "box width/height must be >= 0, got BBox(x=0.0, y=0.0, w=-1.0, h=1.0)"


# Within a row, faces check the box, then each flag in turn; detections the
# score's finiteness, then its range, then the box.  Warnings before the
# first fault are logged, none after it.
@pytest.mark.parametrize("parse, rows, warned, error", [
    (parse_wider_gt, ["0 0 -1 1 nan 0 0 0 0 0"], [], f"f.txt:3: {_BOX_ERROR}"),
    (parse_wider_gt, ["0 0 1 1 3 0 nan 0 0 0"],
     ["f.txt:3: blur flag 3.0 outside documented range [0, 2]"],
     "f.txt:3: non-finite illumination flag nan"),
    (parse_wider_gt, ["0 0 1 1 3 0 0 0 0 0", "0 0 1 1 x 0 0 0 0 0"],
     ["f.txt:3: blur flag 3.0 outside documented range [0, 2]"],
     "f.txt:4: non-numeric field in ['0', '0', '1', '1', 'x', '0', '0', '0', '0', '0']"),
    (parse_wider_gt, ["0 0 -1 1 0 0 0 0 0 0", "0 0 1 1 x 0 0 0 0 0"], [], f"f.txt:3: {_BOX_ERROR}"),
    # 1_0 is read by `float` only: the row walker's path
    (parse_wider_gt, ["0 0 1 1 0 0 0 0 0 0", "0 0 -1 1 1_0 0 0 0 0 0"], [],
     f"f.txt:4: {_BOX_ERROR}"),
    (parse_detections_file, ["0 0 -1 1 nan"], [], "f.txt:3: non-finite score nan"),
    (parse_detections_file, ["0 0 -1 1 1.5"], ["f.txt:3: score 1.5 outside [0, 1]"],
     f"f.txt:3: {_BOX_ERROR}")])
def test_row_rules_report_in_check_order(caplog, parse, rows, warned, error):
    text = "".join(f"{line}\n" for line in ["a.jpg", str(len(rows)), *rows])
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        with pytest.raises(ParseError) as exc:
            parse(text, name="f.txt")
    assert [r.getMessage() for r in caplog.records] == warned
    assert str(exc.value) == error


def test_detection_dir_reads_each_file_once(tmp_path, monkeypatch):
    # 0.9_0 is a token only `float` reads, so the row walker runs as well
    import boxcal.formats as formats
    reads = []

    def read(path, real=formats._read_file):
        reads.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(formats, "_read_file", read)
    for name, score in [("a", "0.5"), ("b", "0.9_0"), ("c", "0.7")]:
        (tmp_path / f"{name}.txt").write_text(f"{name}\n1\n0 0 1 1 {score}\n", encoding="utf-8")
    assert parse_detections_dir(tmp_path).scores.tolist() == [0.5, 0.9, 0.7]
    assert reads == ["a.txt", "b.txt", "c.txt"]


# Differential: the bulk parse against the row walker.  Files shaped like
# records, mostly valid, with the tokens whose float conversion is unusual
# (underscores, non-ASCII digits, overflow, underflow, signs, bare points),
# tokens numpy's text reader or `float` refuses, out-of-range flags and
# scores, broken counts and field counts, blank rows inside a record,
# repeated names, zero-face dummies, blank lines and all three line ends.
# Fields are separated and surrounded by the whitespace `str.split` knows,
# ASCII and not.  The row walker is forced by making the bulk conversion
# report a failure.
_CLEAN_TOKENS = st.one_of(
    st.integers(min_value=0, max_value=30).map(str),
    st.sampled_from(["-0", "-1", "0.5", "1.005", "1e2", "12.25", "1_0", "١٢", "1e300",
                     "+1", ".5", "5.", "1E5", "1e-400", "4.9e-324"]))
_BAD_TOKENS = st.sampled_from(["1e308", "1e400", "-1e400", "nan", "-inf", "0x1", "x",
                               "infinity", "#", '"1"', "1d5"])
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", "\x0c", "\x1c", "\u2028", "\u3000"])


@st.composite
def _record_files(draw, fields):
    """(line ending, records): records are lists of lines, one record each."""
    records = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        rows = []
        for n in draw(st.lists(st.sampled_from([fields] * 12 + [fields - 1, fields + 1]),
                               max_size=3)):
            tokens = draw(st.lists(_CLEAN_TOKENS, min_size=n, max_size=n))
            if tokens and draw(st.integers(0, 5)) == 0:  # one bad token in a row
                tokens[draw(st.integers(0, n - 1))] = draw(_BAD_TOKENS)
            row = tokens[0] + "".join(draw(_SEPARATORS) + tok for tok in tokens[1:])
            if draw(st.integers(0, 3)) == 0:
                row = draw(_SEPARATORS) + row + draw(_SEPARATORS)
            rows.append(row)
            if draw(st.integers(0, 15)) == 0:  # a blank row, counted in the record
                rows.append(draw(st.sampled_from(["", " ", "\t"])))
        name = "r0.jpg" if i and draw(st.integers(0, 9)) == 0 else f"r{i}.jpg"
        count = draw(st.sampled_from([str(len(rows))] * 12 + [str(len(rows) + 1), "x", "-1"]))
        lines = [name, count] + rows
        if fields == 10 and not rows and draw(st.booleans()):
            lines.append("0 0 0 0 0 0 0 0 0 0")
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        records.append(lines)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])), records


def _parse_outcome(parse, arg, caplog, walk_only):
    """(table columns or None, ParseError text or None, warnings, whether
    the row walker ran, and what each call of numpy's C text reader gave:
    None where it raised, else (rows passed, shape returned))."""
    import boxcal.formats as formats
    walked, loaded = [], []
    real_walk, real_loadtxt = formats._walk, np.loadtxt

    def walk(*args):
        walked.append(True)
        return real_walk(*args)

    def loadtxt(rows, *args, **kwargs):
        try:
            values = real_loadtxt(rows, *args, **kwargs)
        except ValueError:
            loaded.append(None)
            raise
        loaded.append((len(rows), values.shape))
        return values

    caplog.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_walk", walk)
        mp.setattr(np, "loadtxt", loadtxt)
        if walk_only:
            mp.setattr(formats, "_bulk", lambda records, fields: None)
        try:
            table = parse(arg)
            cols = (table.paths, table.offsets.tobytes(),
                    *(getattr(table, name).tobytes() for name, *_ in table._COLUMNS))
            error = None
        except ParseError as exc:
            cols, error = None, str(exc)
    return (cols, error, [(r.levelname, r.getMessage()) for r in caplog.records],
            bool(walked), loaded)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(gt=_record_files(10), dets=_record_files(5))
def test_bulk_parse_equals_the_row_walker(tmp_path, caplog, gt, dets):
    def text(case):
        newline, records = case
        return newline.join(line for lines in records for line in lines) + newline

    root = tmp_path / "dets"
    root.mkdir(exist_ok=True)
    for old in root.iterdir():
        old.unlink()
    for i, lines in enumerate(dets[1]):
        (root / f"{i:02d}.txt").write_text(dets[0].join(lines) + dets[0], encoding="utf-8",
                                           newline="")
    cases = [(lambda t: parse_wider_gt(t, name="gt.txt"), text(gt), 10),
             (lambda t: parse_detections_file(t, name="d.txt"), text(dets), 5),
             (parse_detections_dir, root, 5)]
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        for parse, arg, fields in cases:
            bulk = _parse_outcome(parse, arg, caplog, walk_only=False)
            walker = _parse_outcome(parse, arg, caplog, walk_only=True)
            assert bulk[:3] == walker[:3]          # same arrays, error text and warnings
            # the walker runs if and only if loadtxt raised or returned a
            # shape other than (rows, fields)
            assert bulk[3] == any(r is None or r[1] != (r[0], fields) for r in bulk[4])


# Which path runs: numpy's C text reader on every row, the row walker only
# where that reader refuses a row or misses one.
@pytest.mark.filterwarnings("error")
def test_canonical_files_never_reach_the_row_walker(tmp_path, monkeypatch):
    import boxcal.formats as formats

    def refuse(*args):
        raise AssertionError("row walker ran")

    monkeypatch.setattr(formats, "_walk", refuse)
    dets = "a/img1.jpg\n2\n10 20 30 40 0.9\n5 5 12 18 0.25\n\nb/img2.jpg\n0\n"
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "img1.txt").write_text("img1\n1\n10 20 30 40 0.9\n", encoding="utf-8")
    assert parse_wider_gt(GT_SAMPLE).boxes.tolist() == [[10, 20, 30, 40], [5, 5, 12, 18],
                                                        [0, 0, 10.5, 10]]
    assert parse_detections_file(dets).scores.tolist() == [0.9, 0.25]
    assert parse_detections_dir(tmp_path).scores.tolist() == [0.9]
    assert parse_wider_gt("a.jpg\n0\n").paths == ["a.jpg"]  # no rows, and no warning


def test_tokens_the_c_reader_refuses_fall_back_to_the_row_walker(monkeypatch):
    import boxcal.formats as formats
    walked = []

    def walk(*args, real=formats._walk):
        walked.append(True)
        return real(*args)

    monkeypatch.setattr(formats, "_walk", walk)
    tokens = ["1_0", "١٢", "0.1", "4.9e-324", "1e-400", "+.5", "1E5", "-0"]
    s = parse_detections_file("a.jpg\n2\n" + " ".join(tokens[:4]) + " 0.5\n"
                              + "\u3000".join(tokens[4:]) + "\x1c0.5\n")
    assert walked == [True]
    assert s.boxes.tobytes() == np.array([float(t) for t in tokens]).tobytes()


@pytest.mark.filterwarnings("error")  # numpy warns when every row it reads is blank
@pytest.mark.parametrize("text,line", [
    ("a.jpg\n3\n0 0 1 1 0 0 0 0 0 0\n{}\n0 0 1 1 0 0 0 0 0 0\n", 4),
    ("a.jpg\n1\n{}\n", 3)])
@pytest.mark.parametrize("blank", ["", "  ", "\t"])
def test_blank_row_inside_a_record_raises_the_walker_error(text, line, blank):
    with pytest.raises(ParseError) as exc:
        parse_wider_gt(text.format(blank), name="gt.txt")
    assert str(exc.value) == f"gt.txt:{line}: expected 10 fields on face line, got 0"
