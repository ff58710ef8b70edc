import io
import logging
from contextlib import suppress

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections, ParseError, align,
                            format_coord, load_detections, load_wider_gt, parse_detections_dir,
                            parse_detections_file, parse_wider_gt,
                            write_detections_dir, write_detections_file,
                            write_wider_gt)
from boxcal.geometry import BBox

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


def test_format_coord_rejects_unknown_policy():
    with pytest.raises(ValueError):
        format_coord(1.0, "nope")


def test_write_policies_worked_example():
    face = FaceAnnotation(box=BBox(2.0, 0.0, 10.5, 10.0))
    s = AnnotationSet(images=[ImageAnnotations(path="p.jpg", faces=[face])])
    assert _write(s) == "p.jpg\n1\n2 0 10.50 10 0 0 0 0 0 0\n"
    assert _write(s, "integer") == "p.jpg\n1\n2 0 11 10 0 0 0 0 0 0\n"


DETS_ONE = "img1\n2\n1 2 3 4 0.9\n5 6 7 8 0.4\n"


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
        pairs = align(anns, dets)
    assert [img.path for img, _ in pairs] == ["a.jpg", "b.jpg"]
    assert pairs[0][1].dets == []            # a.jpg had no detections
    assert len(pairs[1][1].dets) == 1
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
