import decimal
import errno
import gc
import io
import logging
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import suppress
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import boxcal
from boxcal.formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                            ImageAnnotations, ImageDetections, ParseError, _FLAG_RANGES,
                            _offsets, _segment_rows, align, format_coord, load_detections,
                            load_wider_gt, parse_detections_dir, parse_detections_file, parse_wider_gt,
                            save_wider_gt,
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


# flags a hand-built table may hold besides the documented ones: signed
# zero, a fraction, 2.0 (out of range on a 0-1 flag), negatives, a huge
# value, nan and the infinities
_WRITER_FLAG_ODDS = [-0.0, 0.5, 2.0, -1.0, -3.0, 1e300, math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@given(_table_rows(10), st.sampled_from(["decimal", "integer"]), st.booleans(), st.data())
def test_write_wider_gt_equals_the_per_row_reference(table, policy, documented, data):
    import boxcal.formats as formats
    counts, values = table
    for _ in range(data.draw(st.integers(0, 2)) if len(values) else 0):  # non-finite box cells
        cell = data.draw(st.integers(0, len(values) - 1)), data.draw(st.integers(0, 3))
        values[cell] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    paths = [f"d/{i}.jpg" for i in range(len(counts))]
    boxes, flags = values[:, :4], np.trunc(values[:, 4:])  # flags are integer parts
    if documented:  # flags in their documented ranges, one odd cell in about a row in four
        for row in flags:
            row[:] = [data.draw(st.integers(lo, hi)) for _, lo, hi in _FLAG_RANGES]
            if data.draw(st.integers(0, 3)) == 0:
                row[data.draw(st.integers(0, 5))] = data.draw(st.sampled_from(_WRITER_FLAG_ODDS))
    annset = AnnotationSet(paths=paths, offsets=np.cumsum([0, *counts]), boxes=boxes, flags=flags)
    cells = [_outcome(format_coord, v, policy) for v in boxes.ravel().tolist()]
    errors = {cell for cell in cells if cell[0] != "ok"}
    texts = iter(text for _, text in cells)
    rows = [" ".join([*(next(texts) for _ in range(4)), *map(format_coord, fl)])
            for fl in flags.tolist()]
    expected = "".join(line + "\n" for line in _record_lines(
        paths, counts, rows, empty=["0 0 0 0 0 0 0 0 0 0"]))
    # rows per run: at 1 and 3, most runs are one record
    for block in (formats._ROW_BLOCK, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_ROW_BLOCK", block)
            if errors:  # the writer raises what format_coord raises on one of the cells
                assert _outcome(_write, annset, policy) in errors
            else:
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


# each suffix's table of whole numbers grows to the power of two above the
# largest whole number a block holds, at least 2**8 and at most 2**14, and
# never shrinks; every cell's text is still what its formatter writes
def test_cached_texts_equal_the_formatters_as_their_table_grows(monkeypatch):
    import boxcal.formats as formats
    monkeypatch.setattr(formats, "_text_tables", {})
    odd = [-0.0, -1.0, -2048.0, 0.5, 255.5, 2.0**14 + 0.5, math.inf, -math.inf, math.nan, 1e300]
    for top, size in [(3, 256), (255, 256), (256, 512), (100, 512), (2047, 2048),
                      (2048, 4096), (2**14 - 1, 2**14), (2**14, 2**14)]:
        column = np.array([*odd, 0.0, 1.0, float(top // 2), float(top)])
        for suffix, rest in (("", format_coord), (".0", repr)):
            assert formats._texts(column, suffix, rest) == [rest(v) for v in column.tolist()]
            assert len(formats._text_tables[suffix]) == size


def test_writers_build_their_cached_texts_on_first_use(tmp_path):
    # a run that writes nothing (`boxcal stats`) must not hold the tables;
    # the GT writer builds both, the whole numbers' only as large as its
    # values need
    gt, dets = tmp_path / "gt.txt", tmp_path / "dets.txt"
    gt.write_text(GT_SAMPLE, encoding="utf-8")
    dets.write_text("a/img1.jpg\n1\n10 20 30 40 0.9\n", encoding="utf-8")
    code = ("import io, sys, boxcal.cli, boxcal.formats as f\n"
            "assert boxcal.cli.main(['stats', '--gt', sys.argv[1], '--dets', sys.argv[2]]) == 0\n"
            "assert f._text_tables == {} and f._flag_table.cache_info().currsize == 0\n"
            "f.write_wider_gt(f.load_wider_gt(sys.argv[1]), io.StringIO())\n"
            "assert {k: len(t) for k, t in f._text_tables.items()} == {'': 256}\n"
            "assert f._flag_table.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code, str(gt), str(dets)], check=True,
                   stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": str(Path(boxcal.__file__).parents[1])})


def test_a_hand_built_integer_score_is_written_as_a_float():
    dets = DetectionSet(images=[ImageDetections("a.jpg", [Detection(BBox(1, 2, 3, 4), 1)])])
    buf = io.StringIO()
    write_detections_file(dets, buf)
    assert buf.getvalue() == "a.jpg\n1\n1 2 3 4 1.0\n"
    assert parse_detections_file(buf.getvalue()) == dets


@pytest.mark.parametrize("block", [1, 3])
def test_writers_give_the_same_bytes_at_every_block_size(tmp_path, monkeypatch, block):
    # at 1 and 3 rows a block, most record runs are one record, and the
    # ledgers' rows are cut into blocks of 1 and 3
    import boxcal.formats as formats
    from boxcal.calibrate import calibrate_dataset
    from boxcal.report import mbp_export
    from boxcal.synth import (SynthSpec, emit_detections, generate_dataset, perturb,
                              write_perturb_ledger)
    spec = SynthSpec(seed=3, n_images=20, faces_per_image=(0, 5), distractors_per_image=(0, 3))
    truth = generate_dataset(spec)
    pert, ledger = perturb(truth, 3, 0.5, (0.55, 0.75), image_size=spec.image_size)
    dets = emit_detections(truth, spec)
    claims = calibrate_dataset(pert, dets).claims
    assert min(len(ledger), len(claims)) > block and 0 in np.diff(pert.offsets)

    def written(tag):
        bufs = [io.StringIO() for _ in range(5)]
        write_wider_gt(pert, bufs[0])
        write_wider_gt(pert, bufs[1], "integer")
        write_detections_file(dets, bufs[2])
        write_perturb_ledger(ledger, bufs[3])
        mbp_export(claims, bufs[4])
        write_detections_dir(dets, tmp_path / tag)
        files = sorted((p.relative_to(tmp_path / tag).as_posix(), p.read_bytes())
                       for p in (tmp_path / tag).rglob("*.txt"))
        return [buf.getvalue() for buf in bufs], files

    default = written("default")
    monkeypatch.setattr(formats, "_ROW_BLOCK", block)
    assert written("blocked") == default


def _long_record_tables(counts):
    """An annotation and a detection table whose records hold counts rows:
    whole-number boxes, a fraction in every seventh row, no flags set and
    descending scores."""
    n = sum(counts)
    rng = np.random.default_rng(5)
    boxes = rng.integers(1, 1000, (n, 4)).astype(float)
    boxes[::7, 0] += 0.25
    paths, offsets = [f"r{i}.jpg" for i in range(len(counts))], np.cumsum([0, *counts])
    return (AnnotationSet(paths=paths, offsets=offsets, boxes=boxes, flags=np.zeros((n, 6))),
            DetectionSet(paths=paths, offsets=offsets, boxes=boxes,
                         scores=np.repeat(0.5, n) - np.arange(n) * 1e-6))


class _Discard(io.TextIOBase):
    """A text stream that keeps only the count of characters written."""

    def __init__(self):
        super().__init__()
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


# a record of 100,000 rows is written a run of _ROW_BLOCK rows at a time:
# the writer holds one run's texts, never the record's.  Holding every row
# text of the record peaks near 7 times the bytes written, and even one
# joined text of the whole record at the bytes written; one run's texts
# peak near 0.4 times them here (numpy 2.4)
def test_a_long_record_is_written_in_runs_of_rows():
    anns, dets = _long_record_tables([100_000])
    for write, table in [(write_wider_gt, anns), (write_detections_file, dets)]:
        write(table, _Discard())  # the cached texts are built here, not below
        sink = _Discard()
        tracemalloc.start()
        try:
            write(table, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 2_500_000 and peak < sink.chars, (write.__name__, peak, sink.chars)


# records longer than a run, an empty one between them and one at the end:
# every writer gives the same bytes whichever rows the runs cut; a
# per-image file gets its whole record however many runs it spans
@pytest.mark.parametrize("block", [1, 3])
def test_records_longer_than_a_run_give_the_same_bytes(tmp_path, monkeypatch, block):
    import boxcal.formats as formats
    anns, dets = _long_record_tables([2, 4100, 0, 5, 4097, 0])
    assert max(np.diff(anns.offsets)) > formats._ROW_BLOCK

    def written(tag):
        bufs = [io.StringIO() for _ in range(3)]
        write_wider_gt(anns, bufs[0])
        write_wider_gt(anns, bufs[1], "integer")
        write_detections_file(dets, bufs[2])
        write_detections_dir(dets, tmp_path / tag)
        files = sorted((p.relative_to(tmp_path / tag).as_posix(), p.read_bytes())
                       for p in (tmp_path / tag).rglob("*.txt"))
        return [buf.getvalue() for buf in bufs], files

    default = written("default")
    records = iter(default[0][2].split("\n"))  # each file holds its whole record
    expected = []
    for key, n in zip(dets.paths, np.diff(dets.offsets).tolist()):
        lines = [next(records) for _ in range(n + 2)]
        expected.append((key[:-4] + ".txt", "\n".join([key[:-4], *lines[1:], ""]).encode()))
    assert default[1] == sorted(expected)
    monkeypatch.setattr(formats, "_ROW_BLOCK", block)
    assert written("blocked") == default


def _gt_parse_excess(tmp_path, n_images):
    """The tracemalloc peak of load_wider_gt on a synthetic GT of n_images
    images of 5 to 20 faces, less the table's arrays and the file's size,
    and the row count."""
    from boxcal.synth import SynthSpec, generate_dataset
    truth = generate_dataset(SynthSpec(seed=11, n_images=n_images, faces_per_image=(5, 20)))
    path = tmp_path / f"gt{n_images}.txt"
    save_wider_gt(truth, path)
    tracemalloc.start()
    try:
        parsed = load_wider_gt(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == truth
    table = sum(a.nbytes for a in (parsed.offsets, parsed.boxes, parsed.flags))
    return peak - (table + path.stat().st_size), len(parsed)


def test_gt_parse_memory_is_bounded_by_the_table_and_the_file(tmp_path):
    # no Python object per line: the parse holds the file's bytes, its line
    # index, the table's one array and one run of rows at a time.  The
    # excess over the table and the file is bounded per row, so that no
    # temporary of the whole table's size fits: a float copy of all the
    # flags alone is 48 bytes a row (on numpy 2.4 the parse holds about 61
    # bytes a row, and about 103 with such a copy in the check)
    excess, rows = _gt_parse_excess(tmp_path, 1600)
    assert rows > 19_000
    assert excess < 80 * rows


def test_gt_parse_memory_grows_by_less_than_a_whole_table_check(tmp_path):
    # what the parse holds beyond the table and the file grows per added row
    # by the line index and the records, not by any check temporary, which
    # covers one run: from 1,600 to 6,400 images, on numpy 2.4, it grows by
    # about 22.5 bytes a row, and by about 41.5 where the rules' masks span
    # the whole table
    (small, small_rows), (large, large_rows) = (_gt_parse_excess(tmp_path, n)
                                                for n in (1600, 6400))
    assert large - small < 30 * (large_rows - small_rows)


def test_a_token_the_c_reader_refuses_costs_one_block_of_memory(tmp_path):
    # the row walker reads only the run of records holding the token, at
    # most _ROW_BLOCK rows here: the peak stays within one walked run of the
    # clean file's, a Python float (24 bytes) and its list slot (8 bytes)
    # per value, where walking the whole file would hold 32 bytes for every
    # value in it
    import boxcal.formats as formats
    from boxcal.synth import SynthSpec, generate_dataset
    truth = generate_dataset(SynthSpec(seed=11, n_images=1600, faces_per_image=(5, 20)))
    clean = tmp_path / "clean.txt"
    save_wider_gt(truth, clean)
    lines = clean.read_text(encoding="utf-8").split("\n")
    k = len(lines) // 2 + next(i for i, line in enumerate(lines[len(lines) // 2:])
                               if len(line.split()) == 10)
    lines[k] = " ".join(["0_" + tok if i == 4 else tok for i, tok in enumerate(lines[k].split())])
    odd = tmp_path / "odd.txt"
    odd.write_text("\n".join(lines), encoding="utf-8")

    def peak(path):
        tracemalloc.start()
        try:
            parsed = load_wider_gt(path)
            return parsed, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (parsed, clean_peak), (odd_parsed, odd_peak) = peak(clean), peak(odd)
    assert parsed == truth and odd_parsed == truth and len(truth) > 19_000
    assert odd_peak < clean_peak + formats._ROW_BLOCK * 10 * 32


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


def test_every_write_mode_open_ends_lines_in_lf(tmp_path):
    # the file writers write bytes with plain OS calls: no newline
    # translation on any platform, so no CR, and every file ends in LF
    save_wider_gt(parse_wider_gt(GT_SAMPLE), tmp_path / "gt.txt")
    write_detections_dir(parse_detections_file(DETS_TWO_IMAGES), tmp_path / "d")
    files = [tmp_path / "gt.txt", *sorted((tmp_path / "d").rglob("*.txt"))]
    assert len(files) == 3
    for path in files:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), (path, data)


# the file writers rewrite a file in place and cut it to the bytes written:
# over an older tree whose files are longer, shorter or the same length,
# and over a longer GT, they leave the bytes of a fresh write
def test_a_rewrite_over_other_files_equals_a_fresh_write(tmp_path):
    def tree(sizes):
        return DetectionSet(paths=[f"{d}/img{i}.jpg" for i, d in enumerate("aab")],
                            offsets=_offsets(sizes), boxes=[[1, 2, 3, 4]] * sum(sizes),
                            scores=np.linspace(0.9, 0.1, sum(sizes)))

    old, new = tree([5, 1, 2]), tree([1, 4, 2])  # img0 shrinks, img1 grows, img2 stays
    write_detections_dir(old, tmp_path / "over")
    write_detections_dir(new, tmp_path / "over")
    write_detections_dir(new, tmp_path / "fresh")
    for rel in ("a/img0.txt", "a/img1.txt", "b/img2.txt"):
        assert (tmp_path / "over" / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes()
    assert parse_detections_dir(tmp_path / "over") == new
    gt = parse_wider_gt(GT_SAMPLE)
    (tmp_path / "gt.txt").write_text(GT_SAMPLE * 3, encoding="utf-8")
    save_wider_gt(gt, tmp_path / "gt.txt")
    assert (tmp_path / "gt.txt").read_bytes() == _write(gt).encode()


def test_a_short_write_is_written_on(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
    boxcal.formats._write_file(tmp_path / "f.txt", ["abcdefgh\n", "", "é\n"])
    assert (tmp_path / "f.txt").read_bytes() == "abcdefgh\né\n".encode()


# a write that fails in the first text (after a short write of 4 bytes) or
# in a later one leaves only the bytes written, no old byte after them
@pytest.mark.parametrize("texts", [["new\nmore\n"], ["new\n", "more\n"]])
def test_a_failed_write_leaves_only_the_bytes_written(tmp_path, monkeypatch, texts):
    path = tmp_path / "f.txt"
    path.write_bytes(b"0123456789" * 10)  # older and longer than the new bytes
    real_write, calls = os.write, []

    def write(fd, data):
        calls.append(len(data))
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:4])

    monkeypatch.setattr(os, "write", write)
    with pytest.raises(OSError) as exc:
        boxcal.formats._write_file(path, texts)
    assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, str(path))
    assert path.read_bytes() == b"new\n"


def test_a_file_is_cut_once_its_first_text_is_written(tmp_path):
    # later texts only append, so a process killed while it writes them
    # leaves a prefix of the new file and none of the old one
    path = tmp_path / "f.txt"
    path.write_bytes(b"0123456789" * 10)

    def texts():
        yield "new\n"
        assert path.read_bytes() == b"new\n"
        yield "more\n"

    boxcal.formats._write_file(path, texts())
    assert path.read_bytes() == b"new\nmore\n"


def test_an_unknown_policy_leaves_the_gt_file_as_it_was(tmp_path):
    gt, path = parse_wider_gt(GT_SAMPLE), tmp_path / "gt.txt"
    with pytest.raises(ValueError, match="unknown rounding policy 'bogus'"):
        save_wider_gt(gt, path, policy="bogus")
    assert not path.exists()
    path.write_text(GT_SAMPLE, encoding="utf-8")
    with pytest.raises(ValueError, match="unknown rounding policy 'bogus'"):
        save_wider_gt(gt, path, policy="bogus")
    assert path.read_text(encoding="utf-8") == GT_SAMPLE


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


def test_detection_dir_files_without_a_final_newline(tmp_path):
    # the files share one buffer: each still starts a line of its own
    texts = {"a.txt": "a\n1\n0 0 1 1 0.5", "b.txt": "b\r1\r0 0 2 2 0.25\r",
             "c.txt": "c\r\n0", "d.txt": "\n\nd\n2\n0 0 3 3 0.75\n0 0 4 4 0.5\n\n"}
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode())
    dets = parse_detections_dir(tmp_path)
    assert dets == parse_detections_file("a.jpg\n1\n0 0 1 1 0.5\nb.jpg\n1\n0 0 2 2 0.25\n"
                                         "c.jpg\n0\nd.jpg\n2\n0 0 3 3 0.75\n0 0 4 4 0.5\n")
    (tmp_path / "c.txt").write_bytes(b"c\n1")
    with pytest.raises(ParseError) as exc:
        parse_detections_dir(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'c.txt'}:3: record 'c' ends before its 1 detections"


@pytest.mark.parametrize("text", [b"", b"\n\n", b"  \r\n\t"])
def test_a_detection_file_without_a_record_raises_on_line_1(tmp_path, text):
    (tmp_path / "a.txt").write_text("a\n0\n", encoding="utf-8")
    (tmp_path / "b.txt").write_bytes(text)
    with pytest.raises(ParseError) as exc:
        parse_detections_dir(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'b.txt'}:1: per-image detection file holds no record"


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


def test_a_lone_surrogate_in_a_text_source_parses():
    # a text is read as UTF-8 bytes, its lone surrogates passed through
    name = "a\udc80\ud83d.jpg"
    assert parse_wider_gt(f"{name}\r\n1\r\n0 0 4 4 0 0 0 0 0 0\r\n").paths == [name]
    assert parse_detections_file(io.StringIO(f"{name}\n1\n0 0 4 4 0.5\n")).paths == [name]
    with pytest.raises(ParseError) as exc:
        parse_wider_gt(f"{name}\n1\n0 0 4 4 0 0 0 0 0\n", name="gt.txt")
    assert str(exc.value) == "gt.txt:3: expected 10 fields on face line, got 9"


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
    assert parsed != dets                      # tables of different types never compare equal
    assert repr(parsed) == "AnnotationSet(2 images, 3 rows)"


def test_align_reindexes_the_detection_table():
    anns = parse_wider_gt("a.jpg\n0\nb.jpg\n1\n0 0 4 4 0 0 0 0 0 0\nc.jpg\n0\n")
    dets = parse_detections_file("c.jpg\n1\n5 5 1 1 0.5\nghost.jpg\n1\n0 0 1 1 0.9\n"
                                 "b.jpg\n2\n1 1 1 1 0.25\n2 2 1 1 0.75\n")
    aligned = align(anns, dets)
    assert aligned.paths == anns.paths
    assert aligned.offsets.tolist() == [0, 0, 2, 3]               # a.jpg gets an empty run
    assert aligned.scores.tolist() == [0.75, 0.25, 0.5]
    assert aligned.boxes.tolist() == [[2, 2, 1, 1], [1, 1, 1, 1], [5, 5, 1, 1]]
    assert align(anns, aligned) is aligned      # already aligned: checked, not rebuilt
    # a table in the annotations' order is checked all the same
    one, twice = ([ImageAnnotations("a.jpg")] * n for n in (1, 2))
    low, high = (Detection(box=BBox(0, 0, 1, 1), score=s) for s in (0.25, 0.75))
    for faces, dets, message in [
            (one, [ImageDetections("a.jpg", [Detection(box=BBox(0, 0, 1, 1), score=math.nan)])],
             "non-finite score nan for 'a.jpg'"),
            (one, [ImageDetections("a.jpg", [low, high])],
             "detections for 'a.jpg' are not sorted by descending score"),
            (twice, [ImageDetections("a.jpg")] * 2, "duplicate detection image path 'a.jpg'")]:
        with pytest.raises(ValueError) as exc:
            align(AnnotationSet(images=faces), DetectionSet(images=dets))
        assert str(exc.value) == message


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


def test_detection_dir_walk_orders_by_path_parts(tmp_path, monkeypatch):
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

    # a directory that cannot be listed is skipped, as rglob skips it
    scandir = os.scandir

    def refuse_a0(folder):
        if os.path.basename(folder) == "a0":
            raise PermissionError(13, "Permission denied", folder)
        return scandir(folder)
    monkeypatch.setattr(os, "scandir", refuse_a0)
    assert parse_detections_dir(tmp_path).paths == [p for p in paths if p != "a0/z.jpg"]


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
    opened, walked = [], []

    def open_(path, *args, real=os.open):
        opened.append(os.path.basename(path))
        return real(path, *args)

    def walk(*args, real=formats._walk):
        walked.append(True)
        return real(*args)

    monkeypatch.setattr(os, "open", open_)
    monkeypatch.setattr(formats, "_walk", walk)
    for name, score in [("a", "0.5"), ("b", "0.9_0"), ("c", "0.7")]:
        (tmp_path / f"{name}.txt").write_text(f"{name}\n1\n0 0 1 1 {score}\n", encoding="utf-8")
    opened.clear()
    assert parse_detections_dir(tmp_path).scores.tolist() == [0.5, 0.9, 0.7]
    assert opened == ["a.txt", "b.txt", "c.txt"]
    assert walked


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_read_leaves_a_file_descriptor_open(tmp_path):
    # raw descriptors raise no ResourceWarning, so a leak shows only here
    def undecodable(root):
        (root / "b.txt").write_bytes(b"b\xff\n0\n")

    def txt_directory(root):
        (root / "b.txt").mkdir()

    gt = tmp_path / "gt.txt"
    gt.write_text("a.jpg\n1\n0 0 1 1 0 0 0 0 0 0\n", encoding="utf-8")
    for k, (make, error) in enumerate([(undecodable, ParseError),
                                       (txt_directory, IsADirectoryError), (None, None)]):
        root = tmp_path / f"tree{k}"
        root.mkdir()
        (root / "a.txt").write_text("a\n1\n0 0 1 1 0.5\n", encoding="utf-8")
        (root / "c.txt").write_text("c\n0\n", encoding="utf-8")
        if make is not None:
            make(root)
        before = os.listdir("/proc/self/fd")
        if error is None:
            assert len(parse_detections_dir(root)) == 1
            assert len(load_wider_gt(gt)) == 1
            assert len(load_detections(root / "a.txt", layout="file")) == 1
        else:
            with pytest.raises(error):
                parse_detections_dir(root)
        assert os.listdir("/proc/self/fd") == before
    before = os.listdir("/proc/self/fd")
    with pytest.raises(IsADirectoryError) as exc:
        load_wider_gt(tmp_path)  # a GT path that is a directory
    assert exc.value.filename == str(tmp_path)
    assert os.listdir("/proc/self/fd") == before


@pytest.mark.parametrize("directory", ["0.txt", "b.txt"])
def test_a_directory_named_like_a_detection_file_raises_naming_it(tmp_path, directory):
    # os.read on a directory raises EISDIR without a file name; the reader
    # names the path as open() did, first file or after the files before it
    (tmp_path / "a.txt").write_text("a\n1\n0 0 1 1 0.5\n", encoding="utf-8")
    (tmp_path / directory).mkdir()
    (tmp_path / directory / "c.txt").write_text("c\n0\n", encoding="utf-8")
    with pytest.raises(IsADirectoryError) as exc:
        parse_detections_dir(tmp_path)
    shown = tmp_path / directory
    assert exc.value.filename == str(shown)
    assert str(exc.value) == f"[Errno {exc.value.errno}] {exc.value.strerror}: '{shown}'"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_gt_read_from_a_pipe_is_read_to_its_end(tmp_path):
    # a pipe has no size to read at once: it is read in pieces and joined
    import threading
    text = "".join(f"d{i}.jpg\n1\n0 0 {i + 1} 1 0 0 0 0 0 0\n" for i in range(6000))
    assert len(text) > 3 * (1 << 16)
    r, w = os.pipe()

    def write():
        data = text.encode()
        with suppress(BrokenPipeError):  # a reader that stopped early
            while data:
                data = data[os.write(w, data):]
        os.close(w)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        anns = load_wider_gt(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert anns == parse_wider_gt(text)


# Differential: the tree reader against each file parsed alone, in a tree of
# its own, in path order.  Files with LF, CRLF or CR ends, with and without
# a final line end, trailing blank lines, empty files, non-ASCII names and
# name lines, rows that warn or fault, a second record, and a byte that is
# not UTF-8 at a random spot.
_TREE_FILES = ["a.txt", "b.txt", "é.txt", "日本.txt", "sub/ü.txt", "sub/a.txt", "sub-b/x.txt",
               "ñ/ø/y.txt"]
_TREE_ROWS = st.sampled_from(["0 0 1 1 0.5"] * 6 + [
    "1 2 3 4 0.25", "0 0 1 1 1.5", "0 0 -1 1 0.5", "0 0 1 1 x", "0 0 1 1", "0 0 1 1 0_5",
    "0 0 1 1 nan"])


@st.composite
def _detection_trees(draw):
    """{path relative to the root: file bytes}."""
    files = {}
    for rel in draw(st.lists(st.sampled_from(_TREE_FILES), unique=True, max_size=6)):
        if draw(st.integers(0, 7)) == 0:
            files[rel] = b""
            continue
        rows = draw(st.lists(_TREE_ROWS, max_size=3))
        count = draw(st.sampled_from([str(len(rows))] * 8 + [str(len(rows) + 1), "x"]))
        name = draw(st.sampled_from(["n", "ñame", "x y"]))
        lines = [""] * draw(st.integers(0, 1)) + [name, count, *rows]
        lines += draw(st.sampled_from([[], [], [""], ["", "  "], ["extra"]]))
        newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
        data = (newline.join(lines) + newline * draw(st.integers(0, 1))).encode()
        if draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
        files[rel] = data
    return files


def _tree_outcome(root, caplog):
    """(table or None, ParseError text or None, warnings) of the tree."""
    caplog.clear()
    try:
        table, error = parse_detections_dir(root), None
    except ParseError as exc:
        table, error = None, str(exc)
    return table, error, [r.getMessage() for r in caplog.records]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_detection_trees())
def test_tree_parse_equals_each_file_parsed_alone(caplog, files):
    with tempfile.TemporaryDirectory() as work, \
            caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        root = Path(work) / "tree"
        root.mkdir()
        for rel, data in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        table, error, warned = _tree_outcome(root, caplog)

        paths, counts, boxes, scores, ref_error, ref_warned = [], [], [], [], None, []
        for k, path in enumerate(sorted(root.rglob("*.txt"))):
            alone = Path(work) / f"alone{k}"
            (alone / path.relative_to(root)).parent.mkdir(parents=True)
            (alone / path.relative_to(root)).write_bytes(path.read_bytes())
            one, one_error, one_warned = _tree_outcome(alone, caplog)
            ref_warned += [w.replace(str(alone), str(root)) for w in one_warned]
            if one_error is not None:
                ref_error = one_error.replace(str(alone), str(root))
                break
            paths += one.paths
            counts += np.diff(one.offsets).tolist()
            boxes.append(one.boxes)
            scores.append(one.scores)
    assert (error, warned) == (ref_error, ref_warned)
    if ref_error is None:
        assert table == DetectionSet(paths=paths, offsets=_offsets(counts),
                                     boxes=np.concatenate([np.zeros((0, 4)), *boxes]),
                                     scores=np.concatenate([np.zeros(0), *scores]))


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
# GT rows shaped like real ones: box cells the C reader reads, flags that
# are in-range integers, which it reads as int64, and in about one row in
# four one of the flag tokens an int64 field reads as `float` does (`-0`,
# `01`, past 2**53) or refuses (`1.0`, `1e300`, `nan`, past int64, `1_0`,
# `١`), sending its run to the walker
_READ_TOKENS = _CLEAN_TOKENS.filter(lambda tok: tok not in ("1_0", "١٢"))
_FLAG_TOKENS = st.integers(0, 2).map(str)
_ODD_FLAG_TOKENS = st.sampled_from(["1.0", "-0", "+1", "01", "9007199254740993",
                                    "99999999999999999999", "1e300", "nan", "1_0", "١"])


@st.composite
def _record_files(draw, fields):
    """(line ending, records): records are lists of lines, one record each.
    About half the GT files hold only rows shaped like real ones."""
    records = []
    real_rows = fields == 10 and draw(st.booleans())
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        rows = []
        if real_rows:
            for _ in range(draw(st.integers(0, 3))):
                tokens = (draw(st.lists(_READ_TOKENS, min_size=4, max_size=4))
                          + draw(st.lists(_FLAG_TOKENS, min_size=6, max_size=6)))
                if draw(st.integers(0, 3)) == 0:
                    tokens[draw(st.integers(4, 9))] = draw(_ODD_FLAG_TOKENS)
                rows.append(" ".join(tokens))
        else:
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
    (whether it read a structured dtype, rows passed, None where it raised,
    else the shape returned))."""
    import boxcal.formats as formats
    walked, loaded = [], []
    real_walk, real_loadtxt = formats._walk, np.loadtxt

    def walk(*args):
        walked.append(True)
        return real_walk(*args)

    def loadtxt(rows, dtype, *args, **kwargs):
        typed = np.dtype(dtype).names is not None
        try:
            values = real_loadtxt(rows, dtype, *args, **kwargs)
        except (ValueError, Warning):
            loaded.append((typed, len(rows), None))
            raise
        loaded.append((typed, len(rows), values.shape))
        return values

    caplog.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_walk", walk)
        mp.setattr(np, "loadtxt", loadtxt)
        if walk_only:
            mp.setattr(formats, "_bulk", lambda *args: False)
        try:
            table = parse(arg)
            cols = (table.paths, table.offsets.tobytes(),
                    *(getattr(table, name).tobytes() for name, *_ in table._COLUMNS))
            error = None
        except ParseError as exc:
            cols, error = None, str(exc)
    return (cols, error, [(r.levelname, r.getMessage()) for r in caplog.records],
            bool(walked), loaded)


def _run_reads(loaded):
    """The C reader's calls of `_parse_outcome`, one per run of rows:
    (rows, whether the call read the run).  Every call reads a structured
    dtype, and reads its run when it returns one row per row passed; a
    run whose one call refused it is walked."""
    assert all(typed for typed, _, _ in loaded)
    return [(n, shape == (n,)) for _, n, shape in loaded]


def _row_runs(counts, block):
    """The row counts of the runs of a table whose records hold counts
    rows: block rows each, the last one fewer, wherever the record bounds
    fall."""
    total = sum(counts)
    return [min(block, total - lo) for lo in range(0, total, block)]


# block: the rows per C read, the last read fewer; at 1 and 3 a run cuts
# most records, at the default most records are whole within a run
@pytest.mark.parametrize("block", [None, 1, 3])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(gt=_record_files(10), dets=_record_files(5))
def test_bulk_parse_equals_the_row_walker(tmp_path, caplog, block, gt, dets):
    import boxcal.formats as formats
    block = block or formats._ROW_BLOCK
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
    cases = [(lambda t: parse_wider_gt(t, name="gt.txt"), text(gt)),
             (lambda t: parse_detections_file(t, name="d.txt"), text(dets)),
             (parse_detections_dir, root)]
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_ROW_BLOCK", block)
        spans = []  # (source, first row's line, row count) of each record the grammar walk yields

        def records(text, sources, bounds, *args, real=formats._records, **kwargs):
            for record in real(text, sources, bounds, *args, **kwargs):
                _, line, count = record  # line: the record's first row's line in text
                k = np.searchsorted(bounds, line - 1, side="right") - 1  # its count line's file
                spans.append((sources[k], line - bounds[k] + 1, count))
                yield record

        mp.setattr(formats, "_records", records)
        for parse, arg in cases:
            spans.clear()
            bulk = _parse_outcome(parse, arg, caplog, walk_only=False)
            runs = _row_runs([n for _, _, n in spans], block)
            walker = _parse_outcome(parse, arg, caplog, walk_only=True)
            assert bulk[:3] == walker[:3]          # same arrays, error text and warnings
            reads = _run_reads(bulk[4])
            # the walker runs if and only if a run's one C read refused it
            assert bulk[3] == any(not read for _, read in reads)
            # one C read per run of block rows, in order, up to and
            # including the run holding the faulty row, whose walk or check
            # ended the read, or every run where no row is at fault
            error, firsts = bulk[1] or "", np.cumsum([0, *(n for _, _, n in spans)]).tolist()
            faulty = [first + k for (source, lineno, n), first in zip(spans, firsts)
                      for k in range(n) if error.startswith(f"{source}:{lineno + k}: ")]
            ends = np.cumsum(runs).tolist()
            read = runs[:int(np.searchsorted(ends, faulty[0], side="right")) + 1] if faulty else runs
            assert [n for n, _ in reads] == read


# A token only `float` reads (`0_1`) sends only the run of rows holding it
# to the row walker; the C reader reads every other run, the runs after it
# too.  Records of 8 rows and an empty one: at the default block 2.5 runs,
# the token in the middle one; at 1 and 3 runs of block rows cut the 8-row
# records, and the walked run is the block rows holding the token.  fault
# adds a non-numeric token in the last row or a negative width in the
# first, whose rule fault comes first in the file and ends the read after
# run 0.
@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("fault", [None, "later", "earlier"])
def test_a_refused_token_walks_only_its_block(tmp_path, caplog, block, fault):
    import boxcal.formats as formats
    block = block or formats._ROW_BLOCK
    n_rows = max(24, 5 * block // 2)
    odd = n_rows // 2
    counts = [min(8, n_rows - a) for a in range(0, n_rows, 8)]
    counts.insert(len(counts) // 3, 0)
    runs = _row_runs(counts, block)
    cases = []
    for fields, parse in [(10, lambda t: parse_wider_gt(t, name="gt.txt")),
                          (5, lambda t: parse_detections_file(t, name="d.txt"))]:
        rows = [[str(k % 50), "2", "3", "4", *(["1"] * (fields - 4))] for k in range(n_rows)]
        rows[odd][4] = "0_1"
        if fault == "later":
            rows[-1][0] = "x"
        elif fault == "earlier":
            rows[0][2] = "-1"
        rows = [" ".join(row) for row in rows]
        records = [[f"r{i}.jpg", str(len(rows[a:a + 8])), *rows[a:a + 8]]
                   for i, a in enumerate(range(0, n_rows, 8))]
        records.insert(len(records) // 3, ["empty.jpg", "0"])
        cases.append((parse, "\n".join(line for lines in records for line in lines) + "\n"))
        if fields == 5:  # the same records, one file each
            root = tmp_path / "dets"
            root.mkdir()
            for i, lines in enumerate(records):
                (root / f"{i:05d}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            cases.append((parse_detections_dir, root))
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_ROW_BLOCK", block)
        for parse, arg in cases:
            bulk = _parse_outcome(parse, arg, caplog, walk_only=False)
            assert bulk[:3] == _parse_outcome(parse, arg, caplog, walk_only=True)[:3]
            assert (bulk[0] is None) == (fault is not None)
            reads = _run_reads(bulk[4])
            walked = [k for k, (_, read) in enumerate(reads) if not read]
            holding = int(np.searchsorted(np.cumsum(runs), odd, side="right"))
            if fault == "earlier":  # run 0's negative width ends the read
                assert [n for n, _ in reads] == runs[:1] and holding > 0
                holding = None
            else:
                assert [n for n, _ in reads] == runs  # one C read per run
            assert walked == ([] if holding is None else [holding]) + (
                [len(reads) - 1] if fault == "later" else [])
            if holding is not None:  # the walked run is block rows, wherever records end
                assert reads[holding][0] == block and len(runs) == -(-n_rows // block)


# A record of more rows than _ROW_BLOCK spans runs of _ROW_BLOCK rows, the
# way any record may: a token only `float` reads (`0_1`) in it sends only
# its run to the row walker, and a fault in a later run names its own line.
@pytest.mark.parametrize("odd", [None, "token", "fault"])
def test_a_record_longer_than_a_block_is_read_in_parts(tmp_path, caplog, monkeypatch, odd):
    import boxcal.formats as formats
    monkeypatch.setattr(formats, "_ROW_BLOCK", 3)
    counts = [2, 10, 1]  # runs of 2 + 1, 3, 3, 3 and 1 rows
    cases = []
    for fields, parse, name in [(10, lambda t: parse_wider_gt(t, name="gt.txt"), "gt.txt"),
                                (5, lambda t: parse_detections_file(t, name="d.txt"), "d.txt")]:
        rows = [" ".join([str(k), "2", "3", "4", *(["1"] * (fields - 4))])
                for k in range(sum(counts))]
        if odd == "token":  # a flag or the score of the long record's row 5, in run 2
            rows[6] = rows[6].replace(" 1", " 0_1", 1)
        elif odd == "fault":  # a negative width in the long record's row 7, in run 3
            rows[9] = rows[9].replace(" 3 ", " -3 ", 1)
        bounds = np.cumsum([0, *counts]).tolist()
        records = [[f"r{i}.jpg", str(n), *rows[a:a + n]]
                   for i, (a, n) in enumerate(zip(bounds, counts))]
        # that row's line in the file, past 4 lines of record 0 and 2 of its own
        cases.append((parse, "".join(line + "\n" for lines in records for line in lines),
                      f"{name}:14: "))
        if fields == 5:  # the same records, one file each
            root = tmp_path / "dets"
            root.mkdir()
            for i, lines in enumerate(records):
                (root / f"{i}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            cases.append((parse_detections_dir, root, f"{root / '1.txt'}:10: "))
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        for parse, arg, where in cases:
            bulk = _parse_outcome(parse, arg, caplog, walk_only=False)
            assert bulk[:3] == _parse_outcome(parse, arg, caplog, walk_only=True)[:3]
            reads = _run_reads(bulk[4])
            if odd == "fault":  # the read ends at run 3, naming the row's line
                assert bulk[0] is None and bulk[1].startswith(where)
                assert [n for n, _ in reads] == [3, 3, 3, 3]
                continue
            assert bulk[0] is not None
            assert [n for n, _ in reads] == [3, 3, 3, 3, 1]
            assert [not read for _, read in reads] == [False, False, odd == "token", False, False]
            assert bulk[3] == (odd == "token")


# Each run is checked as it is read: a fault ends the read at its run.  Runs
# of one 3-row record each; a negative width in the first row is read with
# run 0 alone, and an out-of-range value in run 0 is warned about before the
# fault in run 1 is raised, run 2, which holds a non-numeric token, unread.
@pytest.mark.parametrize("walk_only", [False, True])
def test_the_first_fault_ends_the_read_at_its_run(caplog, monkeypatch, walk_only):
    import boxcal.formats as formats
    monkeypatch.setattr(formats, "_ROW_BLOCK", 3)
    walks = []  # the rows of each walk of the row walker

    def walk(rows, *args, real=formats._walk):
        walks.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(formats, "_walk", walk)
    box_error = "box width/height must be >= 0, got BBox(x=0.0, y=0.0, w=-1.0, h=1.0)"
    for fields, parse, name, off_range, warning in [
            (10, parse_wider_gt, "gt.txt", "0 0 1 1 3 0 0 0 0 0",
             "blur flag 3.0 outside documented range [0, 2]"),
            (5, parse_detections_file, "d.txt", "0 0 1 1 1.5", "score 1.5 outside [0, 1]")]:
        clean, negative = "0 0 1 1" + " 1" * (fields - 4), "0 0 -1 1" + " 1" * (fields - 4)
        first = [negative, *[clean] * 8]
        later = [clean, off_range, clean, negative, clean, clean, "x" + clean[1:], clean, clean]
        for rows, line, warned, n_runs in [(first, 3, [], 1),
                                           (later, 8, [("WARNING", f"{name}:4: {warning}")], 2)]:
            text = "".join(f"r{i}.jpg\n3\n" + "".join(f"{row}\n" for row in rows[3 * i:3 * i + 3])
                           for i in range(3))
            walks.clear()
            with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
                outcome = _parse_outcome(lambda t: parse(t, name=name), text, caplog, walk_only)
            assert outcome[1:3] == (f"{name}:{line}: {box_error}", warned)
            reads = _run_reads(outcome[4])
            assert [n for n, _ in reads] == ([] if walk_only else [3] * n_runs)
            assert walks == ([3] * n_runs if walk_only else [])


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


def test_integer_flag_tokens_are_read_typed_as_float_reads_them(caplog):
    # one typed read of the run, giving the doubles `float` gives: -0 is
    # read as 0, which the table keeps as `float` would after truncation
    tokens = ["-0", "+1", "01", "9007199254740993", "9223372036854775807", "2"]
    text = "a.jpg\n1\n0 0 1 1 " + " ".join(tokens) + "\n"
    parse = lambda t: parse_wider_gt(t, name="gt.txt")
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
        bulk = _parse_outcome(parse, text, caplog, walk_only=False)
        assert bulk[:3] == _parse_outcome(parse, text, caplog, walk_only=True)[:3]
    assert bulk[3:] == (False, [(True, 1, (1,))])
    assert parse(text).flags.tolist() == [[float(t) for t in tokens]]


# numpy 1.23 to 1.x read a float token into an int field with a
# DeprecationWarning and truncate it, where numpy 2 raises ValueError.  A
# typed read that warns must be refused whatever the warning filters say,
# or `1.5` would be read as 1 and its range warning lost.
def test_a_typed_read_that_warns_is_refused(caplog, monkeypatch):
    real_loadtxt = np.loadtxt

    def old_loadtxt(rows, dtype, *args, **kwargs):
        try:
            return real_loadtxt(rows, dtype, *args, **kwargs)
        except ValueError:
            pass
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        cells = [row.split() for row in rows]
        return np.array([(list(map(float, c[:4])), [int(float(t)) for t in c[4:]])
                         for c in cells], dtype)

    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    text = "a.jpg\n2\n0 0 1 1 1.5 0 0 0 0 0\n0 0 1 1 2 1 1 1 2 1\n"
    parse = lambda t: parse_wider_gt(t, name="gt.txt")
    with caplog.at_level(logging.WARNING, logger="boxcal.formats"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as where DeprecationWarning is not shown
        bulk = _parse_outcome(parse, text, caplog, walk_only=False)
        walker = _parse_outcome(parse, text, caplog, walk_only=True)
    assert bulk[:3] == walker[:3]
    assert bulk[2] == [("WARNING", "gt.txt:3: blur flag 1.5 outside documented range [0, 2]")]
    assert bulk[3:] == (True, [(True, 2, None)])  # the one refused call, then the walker


# A flag spelled as a float (`1.0`, `1e300`) is no int64 token: each run
# of such a GT is one refused C read and then a row walk, and it reads as
# its integer-spelled twin does, to the same table, warnings and
# calibrated file.  The twin's runs are read by the C reader, bar the run
# holding 10**300, which no int64 holds.
def test_float_spelled_flags_walk_each_run_and_read_as_integer_ones(
        tmp_path, caplog, capsys, monkeypatch):
    import boxcal.formats as formats
    from boxcal.cli import main
    monkeypatch.setattr(formats, "_ROW_BLOCK", 4)  # runs of 4, 4 and 2 rows
    walks = []  # the rows of each walk of the row walker

    def walk(rows, *args, real=formats._walk):
        walks.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(formats, "_walk", walk)
    flags = [[k % 3, k % 2, (k + 1) % 2, 0, k % 3, 1] for k in range(10)]
    flags[6][0] = 10 ** 300  # the blur flag of line 21, in run 1
    gts = ["".join(f"r{k}.jpg\n1\n{10 * k} 5 20 20 {' '.join(map(spell, row))}\n"
                   for k, row in enumerate(flags))
           for spell in [str, lambda v: "1e300" if v == 10 ** 300 else f"{v}.0"]]
    outcomes = []
    for gt in gts:
        walks.clear()
        with caplog.at_level(logging.WARNING, logger="boxcal.formats"):
            outcome = _parse_outcome(lambda t: parse_wider_gt(t, name="gt.txt"), gt, caplog,
                                     walk_only=False)
        outcomes.append((outcome[:3], _run_reads(outcome[4]), list(walks)))
    (twin, twin_reads, twin_walks), (floats, float_reads, float_walks) = outcomes
    assert floats == twin
    assert floats[2] == [("WARNING", "gt.txt:21: blur flag 1e+300 outside documented range [0, 2]")]
    assert (twin_reads, twin_walks) == ([(4, True), (4, False), (2, True)], [4])
    assert (float_reads, float_walks) == ([(4, False), (4, False), (2, False)], [4, 4, 2])
    # each face is claimed by the detection 4 px to its right (IoU 2/3)
    (tmp_path / "dets.txt").write_text(
        "".join(f"r{k}.jpg\n1\n{10 * k + 4} 5 20 20 0.9\n" for k in range(10)), encoding="utf-8")
    written = []
    for gt in gts:
        (tmp_path / "gt.txt").write_text(gt, encoding="utf-8")
        assert main(["calibrate", "--gt", str(tmp_path / "gt.txt"), "--dets",
                     str(tmp_path / "dets.txt"), "--out", str(tmp_path / "out.txt"),
                     "--adc", "0.5"]) == 0
        written.append(((tmp_path / "out.txt").read_bytes(), capsys.readouterr().err))
    assert written[0] == written[1]
    out, err = written[0]
    assert [row.split()[0] for row in out.splitlines()[2::3]] == [b"%d" % (10 * k + 4)
                                                                 for k in range(10)]
    assert err.endswith("gt.txt:21: blur flag 1e+300 outside documented range [0, 2]\n")


@pytest.mark.filterwarnings("error")  # numpy warns when every row it reads is blank
@pytest.mark.parametrize("text,line", [
    ("a.jpg\n3\n0 0 1 1 0 0 0 0 0 0\n{}\n0 0 1 1 0 0 0 0 0 0\n", 4),
    ("a.jpg\n1\n{}\n", 3)])
@pytest.mark.parametrize("blank", ["", "  ", "\t"])
def test_blank_row_inside_a_record_raises_the_walker_error(text, line, blank):
    with pytest.raises(ParseError) as exc:
        parse_wider_gt(text.format(blank), name="gt.txt")
    assert str(exc.value) == f"gt.txt:{line}: expected 10 fields on face line, got 0"


# --- the row views ---------------------------------------------------------------
# Every row view is built by one builder, `formats._row_objects`.  The
# reference is the per-row construction it replaced: one dataclass call per
# row (and per box), which runs BBox's check on each box and `int` on each
# flag, the annotations' row by row, the base view's column by column.

def _reference_view(table):
    if isinstance(table, AnnotationSet):
        faces = [FaceAnnotation(BBox(*b), *map(int, f))
                 for b, f in zip(table.boxes.tolist(), table.flags.tolist())]
        rows, image = faces, ImageAnnotations
    elif isinstance(table, DetectionSet):
        rows = [Detection(BBox(*b), s)
                for b, s in zip(table.boxes.tolist(), table.scores.tolist())]
        image = ImageDetections
    else:
        fields = [[BBox(*b) for b in c.tolist()] if c.ndim == 2 else c.tolist()
                  for c in (getattr(table, name) for name, *_ in table._COLUMNS[1:])]
        return list(map(table._ROW, [table.paths[i] for i in table.image.tolist()], *fields))
    bounds = table.offsets.tolist()
    return [image(p, rows[a:b]) for p, a, b in zip(table.paths, bounds, bounds[1:])]


def _view_name(table):
    from boxcal.calibrate import ClaimTable
    return {AnnotationSet: "images", DetectionSet: "images", ClaimTable: "records"}.get(
        type(table), "entries")


_GOOD_BOXES = st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e300])] * 2,
                        *[st.sampled_from([0.0, 1.0, 2.5, 1e-300])] * 2)
_BAD_BOXES = st.sampled_from([(0, 0, -1, 1), (0, 0, 1, -0.5), (math.nan, 0, 1, 1),
                              (0, math.inf, 1, 1), (1e308, 0, 1e308, 1), (0, 0, 1e200, 1e200)])
_GOOD_FLAGS = st.sampled_from([0.0, 1.0, 2.0, -0.0, 2.5, -2.5, 1e300, -1e300, 2.0 ** 63,
                               -(2.0 ** 63), 9.5e18])
_BAD_FLAGS = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _view_tables(draw):
    """A table of one of the four types, valid or, one time in three, with
    invalid boxes and non-finite flags among its rows."""
    from boxcal.calibrate import ClaimTable
    from boxcal.synth import PerturbLedger
    faulty = draw(st.integers(0, 2)) == 0
    boxes_of = st.one_of(_GOOD_BOXES, _BAD_BOXES) if faulty else _GOOD_BOXES
    flags_of = st.one_of(_GOOD_FLAGS, _BAD_FLAGS) if faulty else _GOOD_FLAGS
    paths = [f"i{k}.jpg" for k in range(draw(st.integers(0, 4)))]
    counts = draw(st.lists(st.integers(0, 3), min_size=len(paths), max_size=len(paths)))
    kind = draw(st.sampled_from([AnnotationSet, DetectionSet, ClaimTable, PerturbLedger]))
    n = sum(counts) if kind in (AnnotationSet, DetectionSet) else draw(st.integers(0, 5))

    def column(values, width=None):
        rows = draw(st.lists(values, min_size=n, max_size=n))
        return np.array(rows, np.float64).reshape(n, *([width] if width else []))

    boxes = lambda: column(boxes_of, 4)  # noqa: E731
    scores = lambda: column(st.sampled_from([0.0, -0.0, 0.5, 1.5, math.nan]))  # noqa: E731
    if kind is AnnotationSet:
        return kind(paths=paths, offsets=np.cumsum([0, *counts]), boxes=boxes(),
                    flags=column(st.tuples(*[flags_of] * 6), 6))
    if kind is DetectionSet:
        return kind(paths=paths, offsets=np.cumsum([0, *counts]), boxes=boxes(),
                    scores=scores())
    # an image index outside the paths raises the list's IndexError
    image = draw(st.lists(st.integers(-len(paths) - 1, len(paths)), min_size=n, max_size=n))
    ints = lambda: draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))  # noqa: E731
    if kind is ClaimTable:
        return kind(paths=paths, image=image, det_index=ints(), ann_index=ints(), iou=scores(),
                    score=scores(), old_boxes=boxes(), new_boxes=boxes())
    return kind(paths=paths, image=image, ann_index=ints(), true_boxes=boxes(),
                perturbed_boxes=boxes(), achieved_iou=scores())


def _view_outcome(build, table):
    """repr of the view (it shows every field, -0.0, nan and int or float
    as they are), or the type and text of what building it raised."""
    try:
        return repr(build(table))
    except (ValueError, OverflowError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_view_tables())
@example(AnnotationSet(paths=["a.jpg", "b.jpg", "c.jpg"], offsets=[0, 0, 2, 2],
                       boxes=[[0, 0, 1, 1], [-0.0, 0, 0, 0]],
                       flags=[[1e300, -0.0, -0.5, 2.0 ** 63, -1e300, 2.5]] * 2))
@example(AnnotationSet(paths=[], offsets=[0], boxes=np.zeros((0, 4)), flags=np.zeros((0, 6))))
@example(AnnotationSet(paths=["a.jpg"], offsets=[0, 3],  # a later row's box, an earlier flag
                       boxes=[[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, -1, 1]],
                       flags=[[0] * 6, [0, 0, math.inf, math.nan, 0, 0], [0] * 6]))
@example(AnnotationSet(paths=["a.jpg"], offsets=[0, 1],  # one row: its box before its flags
                       boxes=[[0, 0, -1, 1]], flags=[[math.nan] * 6]))
def test_row_views_equal_the_per_row_reference(table):
    view = _view_name(table)
    assert _view_outcome(lambda t: getattr(t, view), table) == _view_outcome(_reference_view, table)


def test_row_views_are_built_once():
    from boxcal.synth import SynthSpec, emit_detections, generate_dataset, perturb
    spec = SynthSpec(seed=3, n_images=4)
    truth = generate_dataset(spec)
    _, ledger = perturb(truth, 3, 0.5, (0.6, 0.7))
    dets = emit_detections(truth, spec)
    claims = boxcal.calibrate_dataset(truth, dets).claims
    for table in (truth, dets, claims, ledger):
        view = _view_name(table)
        assert getattr(table, view) is getattr(table, view)
        assert getattr(table, view) == _reference_view(table)


def test_a_row_view_leaves_the_collector_as_it_found_it():
    # built with the collector paused; on or off, it is as before after a
    # build, one that raises on an invalid box too
    def table(w):
        return AnnotationSet(paths=["a.jpg"], offsets=[0, 1], boxes=[[0, 0, w, 1]],
                             flags=[[0] * 6])
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            assert table(1).images[0].faces[0].box == BBox(0, 0, 1, 1)
            assert gc.isenabled() is state
            with pytest.raises(ValueError):
                table(-1).images
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()


def test_row_classes_have_no_check_to_skip():
    # the builder runs no __init__: the row classes have no __post_init__
    # to skip, and BBox's is the check `valid_boxes` mirrors (below)
    from boxcal.calibrate import MbpRecord
    from boxcal.synth import PerturbEntry
    for cls in (FaceAnnotation, Detection, MbpRecord, PerturbEntry):
        assert not hasattr(cls, "__post_init__")


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.one_of(st.floats(), st.sampled_from([0.0, 1e154, 1e308, -1.0]))] * 4))
def test_bbox_checks_what_valid_boxes_tests(fields):
    from boxcal.geometry import check_boxes
    boxes = np.array([fields], np.float64)
    try:
        BBox(*fields)
        error = None
    except ValueError as exc:
        error = str(exc)
    assert valid_boxes(boxes).tolist() == [error is None]
    if error is not None:
        with pytest.raises(ValueError) as exc:
            check_boxes(boxes)
        assert str(exc.value) == error
