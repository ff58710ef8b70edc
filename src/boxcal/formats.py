"""Parsing and writing of WIDER-style annotation and detection files, and the
columnar tables they load into.

Ground-truth grammar (repeated records):

    <image path>
    <face count K>
    K lines of: x y w h blur expression illumination invalid occlusion pose

A record with K == 0 may be followed by a single all-zero dummy line
("0 0 0 0 0 0 0 0 0 0"); real files contain it, so the parser consumes and
discards it, and the writer emits it back for byte-compatibility.

Detection files (one per image, mirroring the image directory tree):

    <image name>
    <detection count>
    count lines of: x y w h score

The image key of a per-image file is its path relative to the root with the
".txt" suffix swapped for the image extension; the writer normalises that
path, refuses one outside the root and always makes the root.  A single-file
variant concatenates the same records, each named by its key verbatim.

Input is UTF-8 with lines ended by LF, CRLF or CR; output is always LF.
Malformed input raises ParseError naming the file and line.  Parsers keep
face order exactly as found in the file, so the in-memory index k of a face
is meaningful.

Parsed data lands in two tables, AnnotationSet and DetectionSet: image
paths, per-image row offsets and one array per column.  With the claims
and the perturbation ledger they are the four tables of the one table
type, `_Columns`, and its one construction path.  `_records` is the
one walk of the record grammar.  Rows are read on one of two paths.  The
fast path gathers every row span and reads them with one call of numpy's
C text reader (`np.loadtxt`, correctly rounded like `float`).  Where that
reader refuses a row or misses one, the row walker (`_walk`) reads the
same lines again with Python's `float`, which also reads `1_0` and `١٢`;
it is the reference the fast path is tested against.  Either path's array
goes through the one check of the row rules (`_check`), which logs the
range warnings and raises the first fault in file order, naming its file
and line.  The columns are a table's only state.  The per-face objects
(`ImageAnnotations`, `FaceAnnotation`, `ImageDetections`, `Detection`) are
its row view, built on first use of `.images`; a table built from such
objects converts them to columns at once and keeps them as that view.

The writers work from the columns: small non-negative whole numbers take
cached texts, every other value goes through `format_coord` or `repr`, the
one copy of each rule.  Every record file streams the one record emitter,
`_record_text`; both TSV ledgers, the claims' and the perturbations', are
written by the one TSV emitter, `_ledger_text`.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .geometry import BBox, check_boxes, valid_boxes

log = logging.getLogger(__name__)

# Documented WIDER attribute ranges; out-of-range values are warned about,
# never rejected, because real files contain noise.
_FLAG_RANGES = (
    ("blur", 0, 2),
    ("expression", 0, 1),
    ("illumination", 0, 1),
    ("invalid", 0, 1),
    ("occlusion", 0, 2),
    ("pose", 0, 1),
)


class ParseError(ValueError):
    """Malformed input file, with the source name and 1-based line number."""

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        self.message = message
        super().__init__(f"{source}:{line}: {message}")


@dataclass(frozen=True, slots=True)
class FaceAnnotation:
    box: BBox
    blur: int = 0
    expression: int = 0
    illumination: int = 0
    invalid: int = 0
    occlusion: int = 0
    pose: int = 0


@dataclass(frozen=True)
class ImageAnnotations:
    path: str
    faces: list[FaceAnnotation] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class Detection:
    box: BBox
    score: float


@dataclass(frozen=True)
class ImageDetections:
    path: str
    dets: list[Detection] = field(default_factory=list)  # sorted descending by score


def _frozen(values, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """values as a read-only array of dtype, reshaped; the caller's array
    itself stays writeable."""
    arr = np.asarray(values, dtype).reshape(shape).view()
    arr.flags.writeable = False
    return arr


class _Columns:
    """The one table type: image paths and one read-only array per column,
    each declared once in `_COLUMNS` as (name, dtype, trailing shape) and
    read through a property of its name; the first axis counts rows.  The
    row view is built on first use and kept: by default one `_ROW` per row,
    from the path its `image` column points at, then each column's value,
    a box's as a BBox.  `==` compares the tables, which are not hashable."""

    __slots__ = ("_view", "_cols")
    _COLUMNS: tuple[tuple[str, type, tuple[int, ...]], ...]
    _ROW: type

    def __init_subclass__(cls) -> None:
        for k, (name, _, _) in enumerate(cls.__dict__.get("_COLUMNS", ()), 1):
            setattr(cls, name, property(lambda self, k=k: self._cols[k]))

    def __init__(self, *, paths: list[str], **columns) -> None:
        names = [name for name, _, _ in self._COLUMNS]
        if set(columns) != set(names):
            raise TypeError(f"{type(self).__name__} columns are paths and {', '.join(names)}")
        self._view = None
        self._cols = (paths, *(_frozen(columns[name], dtype, (-1, *shape))
                               for name, dtype, shape in self._COLUMNS))
        self._check()

    @property
    def paths(self) -> list[str]:
        return self._cols[0]

    def _check(self) -> None:
        if len({len(c) for c in self._cols[1:]}) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    def _cached_view(self) -> list:
        if self._view is None:
            self._view = self._row_view()
        return self._view

    def _row_view(self) -> list:
        paths, image, *cols = self._cols
        fields = [[BBox(*b) for b in c.tolist()] if c.ndim == 2 else c.tolist() for c in cols]
        return list(map(self._ROW, [paths[i] for i in image.tolist()], *fields))

    def __len__(self) -> int:
        return len(self._cols[-1])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        (p, *a), (q, *b) = self._cols, other._cols
        return p == q and all(np.array_equal(x, y) for x, y in zip(a, b))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.paths)} images, {len(self)} rows)"


class _Table(_Columns):
    """A dataset table: its first column, `offsets`, rises from 0 to the
    row count, one more than there are paths; image i owns rows
    offsets[i]:offsets[i+1].  Row objects passed as `images` are converted
    to columns at once and kept as the row view."""

    __slots__ = ()
    _ROWS: str                 # the attribute of an image object holding its rows
    _FIELDS: tuple[str, ...]   # the attributes of a row object, column after column

    def __init__(self, images: Iterable | None = None, *,
                 paths: Iterable[str] | None = None, **columns) -> None:
        if images is not None:
            if paths is not None or columns:
                raise TypeError("pass images or the table columns, not both")
            images = list(images)
            paths, columns = self._from_rows(images)
        super().__init__(paths=list(paths), **columns)  # a missing paths: list(None) raises
        self._view = images

    images = property(_Columns._cached_view)

    def _check(self) -> None:
        paths, offsets, *cols = self._cols
        if (len(offsets) != len(paths) + 1 or offsets[0] != 0
                or np.any(offsets[1:] < offsets[:-1]) or any(len(c) != offsets[-1] for c in cols)):
            raise ValueError("offsets must rise from 0 to the row count, one more than the paths")

    @classmethod
    def _from_rows(cls, images: list) -> tuple[list[str], dict[str, np.ndarray]]:
        """The paths and columns of a list of row objects: the offsets, the
        boxes, then the row's other fields."""
        rows = [row for img in images for row in getattr(img, cls._ROWS)]
        n_fields = len(cls._FIELDS)
        values = np.fromiter(chain.from_iterable(map(attrgetter(*cls._FIELDS), rows)),
                             np.float64, count=len(rows) * n_fields).reshape(-1, n_fields)
        (offsets, _, _), (boxes, _, _), (rest, _, _) = cls._COLUMNS
        return [img.path for img in images], {
            offsets: _offsets([len(getattr(img, cls._ROWS)) for img in images]),
            boxes: values[:, :4], rest: values[:, 4:]}


def _offsets(counts) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _segment_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The row numbers of the segments starts[i] .. starts[i] + counts[i] - 1,
    one segment after another; starts is an int64 array."""
    offsets = _offsets(counts)
    return np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])


class AnnotationSet(_Table):
    """A dataset's annotations: per face, `boxes` (x y w h) and `flags`, the
    integer parts of blur, expression, illumination, invalid, occlusion and
    pose (held as floats, so a finite flag of any size round-trips; a parsed
    flag is never -0.0).  `images` is the row view, a list of
    ImageAnnotations."""

    __slots__ = ()
    _COLUMNS = (("offsets", np.int64, ()), ("boxes", np.float64, (4,)),
                ("flags", np.float64, (6,)))
    _ROWS = "faces"
    _FIELDS = ("box.x", "box.y", "box.w", "box.h",
               "blur", "expression", "illumination", "invalid", "occlusion", "pose")

    def total_faces(self) -> int:
        return len(self.boxes)

    def _row_view(self) -> list[ImageAnnotations]:
        paths, offsets, boxes, flags = self._cols
        faces = [FaceAnnotation(BBox(*b), *map(int, f))
                 for b, f in zip(boxes.tolist(), flags.tolist())]
        bounds = offsets.tolist()
        return [ImageAnnotations(p, faces[a:b]) for p, a, b in zip(paths, bounds, bounds[1:])]


class DetectionSet(_Table):
    """A dataset's detections: per detection, `boxes` (x y w h) and
    `scores`.  The parsers sort each image's rows by descending score,
    keeping file order among equal scores; `align` rejects a set that is
    not sorted so.  `images` is the row view, a list of ImageDetections."""

    __slots__ = ()
    _COLUMNS = (("offsets", np.int64, ()), ("boxes", np.float64, (4,)), ("scores", np.float64, ()))
    _ROWS = "dets"
    _FIELDS = ("box.x", "box.y", "box.w", "box.h", "score")

    def total_detections(self) -> int:
        return len(self.scores)

    def _row_view(self) -> list[ImageDetections]:
        paths, offsets, boxes, scores = self._cols
        dets = [Detection(BBox(*b), s) for b, s in zip(boxes.tolist(), scores.tolist())]
        bounds = offsets.tolist()
        return [ImageDetections(p, dets[a:b]) for p, a, b in zip(paths, bounds, bounds[1:])]


def _decode_error(source: str, exc: UnicodeDecodeError) -> ParseError:
    """ParseError on the line of the byte that failed to decode; exc.object
    holds the bytes from where decoding started."""
    head = exc.object[:exc.start]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return ParseError(source, line,
                      f"not {exc.encoding.upper()}: {exc.reason} 0x{exc.object[exc.start]:02x}")


def _read_file(path: str | Path) -> str:
    """The file's text; a byte that is not UTF-8 raises ParseError on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _decode_error(str(path), exc) from None


def _lines(source: str | TextIO, name: str) -> list[str]:
    """The text's lines, ended by LF, CRLF or CR: the newlines text-mode
    reading knows.  str.splitlines would also break at form feeds, vertical
    tabs, U+2028 and other separators, which may stand inside an image path
    or trail a row.  A stream that fails to decode raises ParseError on the
    line of the bad byte, counted from where reading started."""
    try:
        text = source if isinstance(source, str) else source.read()
    except UnicodeDecodeError as exc:
        raise _decode_error(name, exc) from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # a final newline ends the last line; it starts no new one
    return lines


def _records(lines: list[str], source: str, noun: str,
             zero_dummy: bool = False) -> Iterator[_Record]:
    """Walk the records of an annotation or detection file: the one copy of
    their grammar.

    Yields one _Record (source, lines, name, lineno, count) per record: its
    count rows sit on 1-based lines lineno to lineno + count - 1.  Rows are
    not read; the generator resumes past them.  Blank lines between records
    are skipped.  With zero_dummy, an all-zero row after a zero-count record
    is consumed and dropped.  Raises ParseError on a name without a count
    line, a non-numeric or negative count, a record cut short by the end of
    the file, and a repeated name.
    """
    seen: set[str] = set()
    n = len(lines)
    i = 0
    while i < n:
        name = lines[i].strip()
        i += 1
        if not name:
            continue
        if i == n:
            raise ParseError(source, i, f"record {name!r} has no {noun} count line")
        count_tok = lines[i].strip()
        i += 1
        try:
            count = int(count_tok)
        except ValueError:
            raise ParseError(source, i, f"invalid {noun} count {count_tok!r}") from None
        if count < 0:
            raise ParseError(source, i, f"negative {noun} count {count}")
        if name in seen:
            raise ParseError(source, i - 1, f"duplicate image path {name!r}")
        seen.add(name)
        if i + count > n:
            raise ParseError(source, n + 1, f"record {name!r} ends before its {count} {noun}s")
        yield source, lines, name, i + 1, count
        i += count
        if zero_dummy and count == 0 and i < n and _is_zero_dummy_line(lines[i]):
            i += 1  # the WIDER zero-face placeholder row


def _is_zero_dummy_line(line: str) -> bool:
    tokens = line.split()
    if len(tokens) != 10:
        return False
    try:
        return all(float(t) == 0.0 for t in tokens)
    except ValueError:
        return False


# One record as `_records` yields it: source name, the source's lines, image
# key, 1-based line of its first row, row count.
_Record = tuple[str, list[str], str, int, int]


def _bulk(records: list[_Record], fields: int) -> np.ndarray | None:
    """The fast path: every record's rows as one (N, fields) float64 array
    read by one call of numpy's C text reader, or None when the reader
    refuses a token or a row has another number of fields (the reader skips
    blank rows, so the shape shows those too).

    Where the reader and `float` both read a token, both give the same
    double; the tokens only `float` reads (`1_0`, `١٢`) are refused here
    and left to the row walker."""
    rows = list(chain.from_iterable(lines[i - 1:i - 1 + n] for _, lines, _, i, n in records))
    if not rows:
        return np.empty((0, fields))  # loadtxt would warn that it read no data
    try:
        with warnings.catch_warnings():
            # every row blank: the shape check below rejects the result
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(rows, np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rows), fields) else None


def _walk(records: list[_Record], noun: str, fields: int) -> tuple[np.ndarray, ParseError | None]:
    """The row walker: the records' rows read one at a time with Python's
    `float` up to the first row with the wrong number of fields or a
    non-numeric one, as an (N, fields) array, with that row's ParseError or
    None.  It checks no value and never raises."""
    vals: list[float] = []
    try:
        for source, lines, _, lineno, count in records:
            for k, line in enumerate(lines[lineno - 1:lineno - 1 + count], lineno):
                tokens = line.split()
                if len(tokens) != fields:
                    raise ParseError(source, k,
                                     f"expected {fields} fields on {noun} line, got {len(tokens)}")
                try:
                    vals.extend(list(map(float, tokens)))
                except ValueError:
                    raise ParseError(source, k, f"non-numeric field in {tokens!r}") from None
        fault = None
    except ParseError as exc:
        fault = exc
    return np.array(vals, np.float64).reshape(-1, fields), fault


def _parse(records: Iterator[_Record], noun: str, fields: int,
           check: Callable[[list[_Record], np.ndarray, Exception | None], None]
           ) -> tuple[list[_Record], np.ndarray]:
    """The records and their checked rows, read by the fast path, or by the
    row walker where the C reader refuses a row or misses one.

    records is walked once.  Where the walk raises (a grammar fault, a file
    with extra lines, an OSError), the rows of the records before the fault
    are read and checked all the same: check(records, values, fault) raises
    the first fault in file order, a rule's, else the walker's, whose row
    comes first, else the walk's.
    """
    recs: list[_Record] = []
    fault: Exception | None = None
    try:
        recs.extend(records)  # keeps the records before a fault
    except (ParseError, OSError) as exc:
        fault = exc
    values = _bulk(recs, fields)
    if values is None:
        values, row_fault = _walk(recs, noun, fields)
        fault = row_fault or fault
    check(recs, values, fault)
    return recs, values


def _check(records: list[_Record], values: np.ndarray, fault: Exception | None,
           rules: list[tuple[np.ndarray, int | slice, Callable[..., str], bool]]) -> None:
    """The one check of the row rules, on the array of either parse path.

    values holds the rows read from records before fault, the error that
    ended the input, or None.  rules lists each row's rules in its check
    order, each as (mask of the rows it fires on, the column of its value,
    its message on that value, whether it is a fault or a warning).  Logs
    every warning before the first fault in file order, then raises that
    fault: a rule's, else the given one.  Only the rows a rule fires on are
    put in that order, by row and then by rule, so a clean file costs one
    mask per rule."""
    rows = np.flatnonzero(functools.reduce(np.logical_or, [mask for mask, *_ in rules]))
    at, rule = np.nonzero(np.column_stack([mask[rows] for mask, *_ in rules]))
    starts = _offsets([n for *_, n in records])
    rec = np.searchsorted(starts, rows[at], side="right") - 1
    for i, row, r in zip(rec.tolist(), rows[at].tolist(), rule.tolist()):
        source, lineno = records[i][0], records[i][3] + row - int(starts[i])
        _, column, message, is_fault = rules[r]
        text = message(values[row, column].tolist())
        if is_fault:
            fault = ParseError(source, lineno, text)
            break
        log.warning("%s:%d: %s", source, lineno, text)
    if fault is not None:
        raise fault


def _box_error(box: list[float]) -> str:
    """BBox's error on an invalid box."""
    try:
        BBox(*box)
    except ValueError as exc:
        return str(exc)


def _check_faces(records: list[_Record], values: np.ndarray, fault: Exception | None) -> None:
    """A face row's rules: a valid box, then each flag in turn finite (a
    fault) and a whole number in its documented range (a warning)."""
    rules = [(~valid_boxes(values[:, :4]), slice(0, 4), _box_error, True)]
    for k, (name, lo, hi) in enumerate(_FLAG_RANGES, 4):
        flag = values[:, k]
        whole = np.trunc(flag)
        rules += [(~np.isfinite(flag), k, f"non-finite {name} flag {{!r}}".format, True),
                  ((whole != flag) | (whole < lo) | (whole > hi), k,
                   f"{name} flag {{!r}} outside documented range [{lo}, {hi}]".format, False)]
    _check(records, values, fault, rules)


def _check_detections(records: list[_Record], values: np.ndarray,
                      fault: Exception | None) -> None:
    """A detection row's rules: a finite score, a score in [0, 1] (a
    warning), then a valid box."""
    scores = values[:, 4]
    _check(records, values, fault, [
        (~np.isfinite(scores), 4, "non-finite score {!r}".format, True),
        (~((0.0 <= scores) & (scores <= 1.0)), 4, "score {!r} outside [0, 1]".format, False),
        (~valid_boxes(values[:, :4]), slice(0, 4), _box_error, True)])


def _annotations(records: list[_Record], values: np.ndarray) -> AnnotationSet:
    # a copy of the boxes, so that the (N, 10) array of raw values is freed;
    # + 0.0 turns the -0.0 that trunc gives for -0 and -0.5 into 0
    return AnnotationSet(paths=[name for _, _, name, _, _ in records],
                         offsets=_offsets([n for *_, n in records]),
                         boxes=values[:, :4].copy(), flags=np.trunc(values[:, 4:]) + 0.0)


def _first_unsorted(offsets: np.ndarray, scores: np.ndarray) -> int | None:
    """The first image with a row scoring higher than the row before it,
    or None when every image's rows are in descending score order."""
    rising = scores[1:] > scores[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(scores))] - 1] = False  # pairs across images
    first = np.flatnonzero(rising)[:1]
    return int(np.searchsorted(offsets, first[0], side="right")) - 1 if first.size else None


def _detections(records: list[_Record], values: np.ndarray) -> DetectionSet:
    """The detection table, each image's rows sorted by descending score;
    the sort is stable, so equal scores keep file order.  Files already in
    that order, as boxcal writes them, are not sorted again."""
    offsets = _offsets([n for *_, n in records])
    if _first_unsorted(offsets, values[:, 4]) is not None:
        image = np.repeat(np.arange(len(records)), np.diff(offsets))
        values = values[np.lexsort((-values[:, 4], image))]
    return DetectionSet(paths=[name for _, _, name, _, _ in records], offsets=offsets,
                        boxes=values[:, :4], scores=values[:, 4])


def parse_wider_gt(source: str | TextIO, name: str = "<gt>") -> AnnotationSet:
    """Parse a WIDER ground-truth annotation file.

    Raises ParseError (with line number) on bytes the stream cannot decode,
    a non-numeric or negative face count, a truncated record, a malformed
    attribute line, a duplicate image path, box values that are non-finite,
    negative-size or whose far edge or area overflows, or a non-finite
    attribute flag.  Out-of-range attribute flags only produce a warning.
    """
    records = _records(_lines(source, name), name, "face", zero_dummy=True)
    return _annotations(*_parse(records, "face", 10, _check_faces))


def format_coord(v: float, policy: str = "decimal") -> str:
    """Canonical coordinate text: integral values bare, others per policy.

    "decimal" writes non-integral values with exactly 2 decimal places;
    "integer" rounds the exact value to the nearest integer, halves away
    from zero, and raises on inf (OverflowError) and nan (ValueError).
    This is the one copy of both rules and the cell-for-cell reference of
    every writer: the GT and detection files write each coordinate (and
    each flag, an integral value) as this does, and raise as it does.
    """
    fv = float(v)
    if policy == "integer":
        whole = math.trunc(fv)
        if abs(fv - whole) >= 0.5:  # exact, where fv + 0.5 itself may round
            whole += 1 if fv > 0 else -1
        return str(whole)
    if policy != "decimal":
        raise ValueError(f"unknown rounding policy {policy!r}")
    if fv.is_integer():
        return str(int(fv))
    return f"{fv:.2f}"


@functools.cache
def _text_table(suffix: str) -> np.ndarray:
    """The texts of 0 .. 2**14 - 1, each followed by suffix, as an object
    array; built on first use, so a run that writes nothing never holds it.
    Read-only, since every caller shares it."""
    table = np.array([f"{i}{suffix}" for i in range(1 << 14)], object)
    table.flags.writeable = False
    return table


def _texts(column: np.ndarray, table: np.ndarray, rest: Callable[[float], str]) -> list[str]:
    """The text of each value of a float column: table[v] where v is a hit,
    rest(v) for every other value.

    A hit is a whole number from 0 to len(table) - 1 whose sign bit is
    clear; most cells of the files boxcal writes are.  -0.0 is no hit,
    though it equals 0: `repr` writes it "-0.0", and only rest knows how it
    is written.  Fractions, negatives, values at or past the table, inf and
    nan go to rest as well.
    """
    hit = ~np.signbit(column) & (column < len(table)) & (column == np.trunc(column))
    out = table[np.where(hit, column, 0).astype(np.intp)].tolist()
    miss = np.flatnonzero(~hit)
    for i, v in zip(miss.tolist(), column[miss].tolist()):
        out[i] = rest(v)
    return out


def _record_text(names: list[str], offsets: np.ndarray, rows: list[str],
                 empty: tuple[str, ...] = ()) -> Iterator[str]:
    """The one emitter of records: per record, the text of its name line,
    its row count and its rows, offsets[i]:offsets[i+1] of rows, or the
    lines of empty where it has none; every line ends in LF."""
    bounds = offsets.tolist()
    for name, lo, hi in zip(names, bounds, bounds[1:]):
        yield "\n".join([name, str(hi - lo), *(rows[lo:hi] if lo < hi else empty), ""])


def _ledger_text(header: tuple[str, ...], paths: list[str], index: list[int],
                 boxes: list[np.ndarray], ratios: list[np.ndarray]) -> str:
    """A TSV ledger: the header, then per row its path, its index, its box
    cells and its ratios, every float as `repr` writes it.  Box cells are
    mostly small whole numbers, which take cached texts; ratios rarely are."""
    cols = [paths, map(str, index), *(_texts(c, _text_table(".0"), repr) for c in boxes),
            *(map(repr, c.tolist()) for c in ratios)]
    return "\n".join(["\t".join(header), *map("\t".join, zip(*cols)), ""])


def write_wider_gt(annset: AnnotationSet, stream: TextIO, policy: str = "decimal") -> None:
    """Write records in input order; see format_coord for the number policy.

    Zero-face images emit the all-zero dummy line so that parse -> write is
    byte-identical on canonical files.  An unknown policy raises ValueError
    before anything is written, whether or not the set has rows.
    """
    format_coord(0.0, policy)  # raises on an unknown policy
    # a table hit is a whole number, which every policy writes bare
    coord = functools.partial(format_coord, policy=policy)
    cols = [_texts(c, _text_table(""), coord) for c in annset.boxes.T]
    cols += [_texts(c, _text_table(""), format_coord) for c in annset.flags.T]
    rows = list(map(" ".join, zip(*cols)))
    stream.writelines(_record_text(annset.paths, annset.offsets, rows,
                                   empty=("0 0 0 0 0 0 0 0 0 0",)))


def load_wider_gt(path: str | Path) -> AnnotationSet:
    p = Path(path)
    return parse_wider_gt(_read_file(p), name=str(p))


def save_wider_gt(annset: AnnotationSet, path: str | Path, policy: str = "decimal") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_wider_gt(annset, fh, policy)


def _txt_entries(root: str) -> Iterator[str]:
    """'/'-joined paths, relative to root, of every entry below it whose
    name ends in ".txt", in the order of their Path objects: by parts, so
    a/x.txt comes before a-b/x.txt.  The entries are those of
    Path.rglob("*.txt"): symlinks to directories are not followed, a
    directory that cannot be listed is skipped, and a directory whose name
    matches is listed too.  The walk keeps its own stack, so no depth of
    tree reaches the interpreter's recursion limit."""
    stack = [("", root)]  # (path relative to root, directory to list or None); next is last
    while stack:
        rel, folder = stack.pop()
        if rel.endswith(".txt"):
            yield rel
        if folder is None:
            continue
        try:
            with os.scandir(folder) as it:
                entries = sorted(it, key=attrgetter("name"), reverse=True)
        except PermissionError:
            continue
        prefix = rel + "/" if rel else ""
        stack += [(prefix + e.name, e.path if e.is_dir(follow_symlinks=False) else None)
                  for e in entries]


def parse_detections_dir(root: str | Path, image_ext: str = ".jpg") -> DetectionSet:
    """Load a mirrored directory tree of per-image detection files.

    Image key = file path relative to root, ".txt" replaced by image_ext.
    Detections are sorted descending by score after loading.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise NotADirectoryError(f"detection root {rootp} is not a directory")
    base = "" if str(rootp) == "." else str(rootp)  # Path(".") / rel prints as rel
    files = [(os.path.join(base, rel), rel[:-4] + image_ext) for rel in _txt_entries(str(rootp))]

    def records() -> Iterator[_Record]:
        for source, key in files:
            lines = _lines(_read_file(source), source)
            record = next(_records(lines, source, "detection"), None)
            if record is None:
                raise ParseError(source, 1, "per-image detection file holds no record")
            *_, lineno, count = record
            yield source, lines, key, lineno, count
            extra = next((k for k in range(lineno - 1 + count, len(lines)) if lines[k].strip()),
                         None)
            if extra is not None:
                raise ParseError(source, extra + 1,
                                 f"file lists more than the declared {count} detections")

    return _detections(*_parse(records(), "detection", 5, _check_detections))


def parse_detections_file(source: str | TextIO, name: str = "<dets>") -> DetectionSet:
    """Load the consolidated single-file detection format.

    Records use the same layout as per-image files concatenated; the name
    line is the image key verbatim (e.g. "0--Parade/x.jpg").
    """
    records = _records(_lines(source, name), name, "detection")
    return _detections(*_parse(records, "detection", 5, _check_detections))


def load_detections(path: str | Path, layout: str = "auto", image_ext: str = ".jpg") -> DetectionSet:
    """Dispatch between the directory tree and single-file layouts."""
    p = Path(path)
    if layout == "auto":
        layout = "dir" if p.is_dir() else "file"
    if layout == "dir":
        return parse_detections_dir(p, image_ext=image_ext)
    if layout == "file":
        return parse_detections_file(_read_file(p), name=str(p))
    raise ValueError(f"unknown detection layout {layout!r}")


def _detection_rows(detset: DetectionSet) -> list[str]:
    """Each detection's row: its box as format_coord writes it, its score
    as repr does."""
    cols = [_texts(c, _text_table(""), format_coord) for c in detset.boxes.T]
    cols.append(list(map(repr, detset.scores.tolist())))
    return list(map(" ".join, zip(*cols)))


def write_detections_dir(detset: DetectionSet, root: str | Path, image_ext: str = ".jpg") -> None:
    """Write one detection file per image under root, its name line the
    key's stem.  The file is the key, its image_ext suffix (if any) swapped
    for ".txt", normalised: "x/../a.jpg" writes a.txt.  A file outside root
    (absolute, on a drive or under ".."), two keys sharing one file ("a"
    and "a.jpg"), and a key whose file is a directory of another key's
    ("a.jpg" and "a.txt/b.jpg"), raise ValueError naming the keys before
    anything is made.  root is always made, so an empty set writes an
    empty tree."""
    files: dict[str, str] = {}  # normalised file, relative to root -> image key
    for key in detset.paths:
        stem = key[:len(key) - len(image_ext)] if key.endswith(image_ext) else key
        rel = os.path.normpath(stem + ".txt")
        if os.path.isabs(rel) or os.path.splitdrive(rel)[0] or rel.startswith(os.pardir + os.sep):
            raise ValueError(f"detection image {key!r} would be written outside {root}")
        if rel in files:
            raise ValueError(f"detection images {files[rel]!r} and {key!r} "
                             f"would both be written to {os.path.join(root, rel)}")
        files[rel] = key
    folders = {str(folder): key for rel, key in files.items() for folder in Path(rel).parents}
    clash = next((rel for rel in files if rel in folders), None)
    if clash is not None:
        raise ValueError(f"detection image {files[clash]!r} would be written to "
                         f"{os.path.join(root, clash)}, a directory of {folders[clash]!r}")
    for folder in {".", *folders}:
        os.makedirs(os.path.join(root, folder), exist_ok=True)
    records = _record_text([Path(key).stem for key in files.values()], detset.offsets,
                           _detection_rows(detset))
    for rel, text in zip(files, records):
        with open(os.path.join(root, rel), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_detections_file(detset: DetectionSet, stream: TextIO) -> None:
    """Write the consolidated single-file layout; name lines are the keys."""
    stream.writelines(_record_text(detset.paths, detset.offsets, _detection_rows(detset)))


def check_aligned(anns: AnnotationSet, dets: DetectionSet) -> None:
    """Raise ValueError unless dets lists anns' images in anns' order, as
    `align` returns it."""
    if dets.paths != anns.paths:
        raise ValueError("detections are not aligned to the annotations; pass align(anns, dets)")


def _first_duplicate(paths: list[str]) -> int | None:
    seen: set[str] = set()
    for i, p in enumerate(paths):
        if p in seen:
            return i
        seen.add(p)
    return None


def align(anns: AnnotationSet, dets: DetectionSet) -> DetectionSet:
    """The detection table reindexed to the annotation images: image i of
    the result holds the detections whose path is anns.paths[i], an empty
    run when there are none.

    Annotation images with no detections and detection images absent from
    the annotations (dropped) are only warned about, so partial prediction
    runs stay usable.

    The one gate of the kernel's inputs: the parsers' fault rules, then
    the rules threshold selection relies on, detections checked first.  A
    box that is not a valid BBox raises BBox's ValueError; a non-finite
    score or flag, two images sharing a path, or detections not sorted by
    descending score raise ValueError naming the image path.
    """
    paths, offsets, scores = dets.paths, dets.offsets, dets.scores
    for table, values, noun in ((dets, scores, "score"), (anns, anns.flags, "flag")):
        check_boxes(table.boxes)
        if not np.isfinite(values).all():
            at = np.argwhere(~np.isfinite(values))[0]  # the first in row order
            path = table.paths[np.searchsorted(table.offsets, at[0], side="right") - 1]
            raise ValueError(f"non-finite {noun} {float(values[tuple(at)])} for {path!r}")
    dup = _first_duplicate(paths)
    unsorted = _first_unsorted(offsets, scores)
    if dup is not None and (unsorted is None or dup <= unsorted):
        raise ValueError(f"duplicate detection image path {paths[dup]!r}")
    if unsorted is not None:
        raise ValueError(f"detections for {paths[unsorted]!r} are not sorted by descending score")
    dup = _first_duplicate(anns.paths)
    if dup is not None:
        raise ValueError(f"duplicate annotation image path {anns.paths[dup]!r}")

    by_path = dict(zip(paths, range(len(paths))))
    idx = np.fromiter((by_path.get(p, -1) for p in anns.paths), np.int64, count=len(anns.paths))
    matched = int(np.count_nonzero(idx >= 0))
    if matched < len(idx):
        log.warning("%d annotation image(s) have no detections", len(idx) - matched)
    if matched < len(paths):
        log.warning("%d detection image(s) missing from the annotations were ignored",
                    len(paths) - matched)
    counts = np.append(np.diff(offsets), 0)[idx]  # index -1: no detections
    rows = _segment_rows(offsets[idx], counts)
    return DetectionSet(paths=anns.paths, offsets=_offsets(counts),
                        boxes=dets.boxes[rows], scores=scores[rows])
