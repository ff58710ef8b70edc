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
".txt" suffix swapped for the image extension.  A consolidated single-file
variant concatenates the same records; there the name line is the image key
verbatim.

Input is UTF-8 with lines ended by LF, CRLF or CR; output is always LF.
Malformed input raises ParseError naming the file and line.  Parsers keep
face order exactly as found in the file, so the in-memory index k of a face
is meaningful.

Parsed data lands in two tables, AnnotationSet and DetectionSet: image
paths, per-image row offsets and one array per column.  `_records` is the
one walk of the record grammar.  The parsers gather its row spans and
convert them in two tiers: one call of numpy's C text reader
(`np.loadtxt`, correctly rounded like `float`) over all rows and, only
where that reader refuses a row, Python's `float` over every row in
chunks, so the tokens only `float` reads (`1_0`, `١٢`) still parse.  The
results are checked with array operations.  If any check fails, the row
walker (`_walk`) parses the same lines again row by row: it raises the
first fault in file order, with the same message and line as it always
has, and is the reference the bulk path is tested against.  The per-face
objects (`ImageAnnotations`, `FaceAnnotation`, `ImageDetections`,
`Detection`) are a row view of a table, built on first use of `.images`.
"""

from __future__ import annotations

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

from .geometry import BBox, valid_boxes

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
_FLAG_LO = np.array([lo for _, lo, _ in _FLAG_RANGES], np.float64)
_FLAG_HI = np.array([hi for _, _, hi in _FLAG_RANGES], np.float64)

# Rows reach Python's `float` (the fallback tier, for rows numpy's C reader
# refuses) this many at a time, which bounds the token lists held at once
# (about 60 bytes a token) however large the file is.
_CHUNK_ROWS = 1 << 14


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


class _Table:
    """A dataset table: image paths, per-image row offsets and one array per
    column, rows stored image after image.  Image i owns rows
    offsets[i]:offsets[i+1].

    Built either from the columns or from row objects (`images=`); each form
    is derived from the other at most once, on first use, and a set built
    from objects keeps them as its `images`.  `==` compares the tables.
    """

    __slots__ = ("_images", "_cols")
    _COLUMNS: tuple[tuple[str, tuple[int, ...]], ...]  # name and trailing shape
    _ROWS: str                 # the attribute of an image object holding its rows
    _FIELDS: tuple[str, ...]   # the attributes of a row object, column after column

    def __init__(self, images: Iterable | None = None, *,
                 paths: Iterable[str] | None = None, offsets=None, **columns) -> None:
        if paths is None:
            if offsets is not None or columns:
                raise TypeError("table columns need paths")
            self._images = [] if images is None else list(images)
            self._cols = None
            return
        if images is not None:
            raise TypeError("pass images or the table columns, not both")
        if set(columns) != {name for name, _ in self._COLUMNS}:
            raise TypeError(f"table columns are paths, offsets and "
                            f"{', '.join(name for name, _ in self._COLUMNS)}")
        paths = list(paths)
        offsets = _frozen(offsets, np.int64, (-1,))
        n = int(offsets[-1]) if len(offsets) else -1
        if (len(offsets) != len(paths) + 1 or offsets[0] != 0
                or np.any(offsets[1:] < offsets[:-1])):
            raise ValueError("offsets must rise from 0, one more than there are paths")
        cols = tuple(_frozen(columns[name], np.float64, (n, *shape))
                     for name, shape in self._COLUMNS)
        self._images = None
        self._cols = (paths, offsets, *cols)

    def _columns(self) -> tuple:
        if self._cols is None:
            self._cols = self._table(self._images)
        return self._cols

    @property
    def paths(self) -> list[str]:
        return self._columns()[0]

    @property
    def offsets(self) -> np.ndarray:
        return self._columns()[1]

    @property
    def images(self) -> list:
        """The row view: one object per image holding one object per row."""
        if self._images is None:
            self._images = self._row_view()
        return self._images

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        (p, *a), (q, *b) = self._columns(), other._columns()
        return p == q and all(np.array_equal(x, y) for x, y in zip(a, b))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.paths)} images, {int(self.offsets[-1])} rows)"

    @classmethod
    def _table(cls, images: list) -> tuple:
        rows = [row for img in images for row in getattr(img, cls._ROWS)]
        n_fields = len(cls._FIELDS)
        values = np.fromiter(chain.from_iterable(map(attrgetter(*cls._FIELDS), rows)),
                             np.float64, count=len(rows) * n_fields).reshape(-1, n_fields)
        columns, k = {}, 0
        for name, shape in cls._COLUMNS:
            width = shape[0] if shape else 1
            columns[name] = values[:, k:k + width]
            k += width
        return cls(paths=[img.path for img in images],
                   offsets=_offsets([len(getattr(img, cls._ROWS)) for img in images]),
                   **columns)._cols

    def _row_view(self) -> list:
        raise NotImplementedError


def _offsets(counts) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class AnnotationSet(_Table):
    """A dataset's annotations.

    paths: image paths; offsets: int64 (n+1,); boxes: float64 (N, 4), one
    x y w h row per face; flags: float64 (N, 6), the integer parts of blur,
    expression, illumination, invalid, occlusion and pose (held as floats,
    so a finite flag of any size round-trips).  `images` is the row view, a
    list of ImageAnnotations.
    """

    __slots__ = ()
    _COLUMNS = (("boxes", (4,)), ("flags", (6,)))
    _ROWS = "faces"
    _FIELDS = ("box.x", "box.y", "box.w", "box.h",
               "blur", "expression", "illumination", "invalid", "occlusion", "pose")

    @property
    def boxes(self) -> np.ndarray:
        return self._columns()[2]

    @property
    def flags(self) -> np.ndarray:
        return self._columns()[3]

    def total_faces(self) -> int:
        return len(self.boxes)

    def _row_view(self) -> list[ImageAnnotations]:
        paths, offsets, boxes, flags = self._cols
        faces = [FaceAnnotation(BBox(*b), *map(int, f))
                 for b, f in zip(boxes.tolist(), flags.tolist())]
        bounds = offsets.tolist()
        return [ImageAnnotations(p, faces[a:b]) for p, a, b in zip(paths, bounds, bounds[1:])]


class DetectionSet(_Table):
    """A dataset's detections.

    paths: image paths; offsets: int64 (n+1,); boxes: float64 (N, 4);
    scores: float64 (N,).  The parsers sort each image's rows by descending
    score, keeping file order among equal scores; `align` rejects a set
    that is not sorted so.  `images` is the row view, a list of
    ImageDetections.
    """

    __slots__ = ()
    _COLUMNS = (("boxes", (4,)), ("scores", ()))
    _ROWS = "dets"
    _FIELDS = ("box.x", "box.y", "box.w", "box.h", "score")

    @property
    def boxes(self) -> np.ndarray:
        return self._columns()[2]

    @property
    def scores(self) -> np.ndarray:
        return self._columns()[3]

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
             zero_dummy: bool = False) -> Iterator[tuple[str, int, int]]:
    """Walk the records of an annotation or detection file: the one copy of
    their grammar.

    Yields (name, lineno, count) per record: its count rows sit on 1-based
    lines lineno to lineno + count - 1.  Rows are not read; the generator
    resumes past them.  Blank lines between records are skipped.  With
    zero_dummy, an all-zero row after a zero-count record is consumed and
    dropped.  Raises ParseError on a name without a count line, a
    non-numeric or negative count, a record cut short by the end of the
    file, and a repeated name.
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
        yield name, i + 1, count
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


# One record as the parsers see it: source name, the source's lines, image
# key, 1-based line of its first row, row count.
_Record = tuple[str, list[str], str, int, int]


def _c_floats(rows: list[str], fields: int) -> np.ndarray | None:
    """The rows as an (N, fields) float64 array read by numpy's C text
    reader, or None where it refuses a token, finds a row of another width
    or skips a blank row."""
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


def _py_floats(rows: list[str], fields: int) -> np.ndarray | None:
    """The rows as an (N, fields) float64 array converted with Python's
    `float`, or None when a row has another number of fields or a field is
    not a number."""
    values = np.empty((len(rows), fields))
    flat = values.reshape(-1)
    for r0 in range(0, len(rows), _CHUNK_ROWS):
        split = [row.split() for row in rows[r0:r0 + _CHUNK_ROWS]]
        if set(map(len, split)) != {fields}:
            return None
        try:
            flat[r0 * fields:(r0 + len(split)) * fields] = np.fromiter(
                map(float, chain.from_iterable(split)), np.float64, count=len(split) * fields)
        except ValueError:
            return None
    return values


def _bulk(records: list[_Record], fields: int) -> np.ndarray | None:
    """Every record's rows as one (N, fields) float64 array, or None when a
    row has the wrong number of fields, a field is not a number, a box is
    not a valid BBox, or a value after the box is not finite.

    numpy's C reader converts the rows; where it refuses any, Python's
    `float` converts them all, so tokens only `float` reads (`1_0`, `١٢`)
    still parse.  Where both read a token, both give the same double."""
    rows = list(chain.from_iterable(lines[i - 1:i - 1 + n] for _, lines, _, i, n in records))
    values = _c_floats(rows, fields)
    if values is None:
        values = _py_floats(rows, fields)
    if values is None:
        return None
    ok = valid_boxes(values[:, :4]).all() and np.isfinite(values[:, 4:]).all()
    return values if ok else None


def _walk(records: Iterable[_Record], noun: str, fields: int,
          check_row: Callable[[list[float], str, int], None]) -> tuple[list[_Record], np.ndarray]:
    """The row walker: the records and their rows, read one row at a time.

    Consumes records lazily, so a fault in one record's rows is raised
    before anything `records` would raise later.  Raises ParseError on a row
    with the wrong number of fields or a non-numeric one; check_row(values,
    source, lineno) raises on the rest and logs the range warnings.
    """
    done: list[_Record] = []
    vals: list[float] = []
    for rec in records:
        source, lines, _, lineno, count = rec
        for k, line in enumerate(lines[lineno - 1:lineno - 1 + count], lineno):
            tokens = line.split()
            if len(tokens) != fields:
                raise ParseError(source, k,
                                 f"expected {fields} fields on {noun} line, got {len(tokens)}")
            try:
                row = list(map(float, tokens))
            except ValueError:
                raise ParseError(source, k, f"non-numeric field in {tokens!r}") from None
            check_row(row, source, k)
            vals.extend(row)
        done.append(rec)
    return done, np.array(vals, np.float64).reshape(-1, fields)


def _parse(records: Callable[[], Iterator[_Record]], noun: str, fields: int,
           check_row: Callable[[list[float], str, int], None],
           warn: Callable[[list[_Record], np.ndarray], None]) -> tuple[list[_Record], np.ndarray]:
    """The records and their rows: the bulk path, or the row walker when
    any check fails.  records() starts a fresh walk of the input."""
    try:
        recs = list(records())
        values = _bulk(recs, fields)
    except (ParseError, OSError):
        # the walk may fail on a later record or file than the first bad
        # row; the row walker finds whichever comes first in file order
        values = None
    if values is None:
        return _walk(records(), noun, fields, check_row)
    warn(recs, values)
    return recs, values


def _locate(records: list[_Record], rows: np.ndarray) -> list[tuple[str, int]]:
    """(source, line) of each of the given rows."""
    starts = _offsets([n for *_, n in records])
    rec = np.searchsorted(starts, rows, side="right") - 1
    return [(records[r][0], records[r][3] + k - int(starts[r]))
            for r, k in zip(rec.tolist(), rows.tolist())]


def _flag_warning(source: str, lineno: int, k: int, v: float) -> None:
    flag_name, lo, hi = _FLAG_RANGES[k]
    log.warning("%s:%d: %s flag %r outside documented range [%d, %d]",
                source, lineno, flag_name, v, lo, hi)


def _check_face(vals: list[float], source: str, lineno: int) -> None:
    try:
        BBox(vals[0], vals[1], vals[2], vals[3])
    except ValueError as exc:
        raise ParseError(source, lineno, str(exc)) from None
    for k, ((flag_name, lo, hi), v) in enumerate(zip(_FLAG_RANGES, vals[4:])):
        if not math.isfinite(v):
            raise ParseError(source, lineno, f"non-finite {flag_name} flag {v!r}")
        f = int(v)
        if f != v or not lo <= f <= hi:
            _flag_warning(source, lineno, k, v)


def _warn_flags(records: list[_Record], values: np.ndarray) -> None:
    flags = values[:, 4:]
    whole = np.trunc(flags)
    rows, cols = np.nonzero((whole != flags) | (whole < _FLAG_LO) | (whole > _FLAG_HI))
    for (source, lineno), k, v in zip(_locate(records, rows), cols.tolist(),
                                      flags[rows, cols].tolist()):
        _flag_warning(source, lineno, k, v)


def _score_warning(source: str, lineno: int, score: float) -> None:
    log.warning("%s:%d: score %r outside [0, 1]", source, lineno, score)


def _check_detection(vals: list[float], source: str, lineno: int) -> None:
    x, y, w, h, score = vals
    if not math.isfinite(score):
        raise ParseError(source, lineno, f"non-finite score {score!r}")
    if not 0.0 <= score <= 1.0:
        _score_warning(source, lineno, score)
    try:
        BBox(x, y, w, h)
    except ValueError as exc:
        raise ParseError(source, lineno, str(exc)) from None


def _warn_scores(records: list[_Record], values: np.ndarray) -> None:
    scores = values[:, 4]
    rows = np.flatnonzero(~((0.0 <= scores) & (scores <= 1.0)))
    for (source, lineno), v in zip(_locate(records, rows), scores[rows].tolist()):
        _score_warning(source, lineno, v)


def _annotations(records: list[_Record], values: np.ndarray) -> AnnotationSet:
    # a copy of the boxes, so that the (N, 10) array of raw values is freed
    return AnnotationSet(paths=[name for _, _, name, _, _ in records],
                         offsets=_offsets([n for *_, n in records]),
                         boxes=values[:, :4].copy(), flags=np.trunc(values[:, 4:]))


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


def _file_records(lines: list[str], source: str, noun: str,
                  zero_dummy: bool = False) -> Callable[[], Iterator[_Record]]:
    return lambda: ((source, lines, name, i, n)
                    for name, i, n in _records(lines, source, noun, zero_dummy))


def parse_wider_gt(source: str | TextIO, name: str = "<gt>") -> AnnotationSet:
    """Parse a WIDER ground-truth annotation file.

    Raises ParseError (with line number) on bytes the stream cannot decode,
    a non-numeric or negative face count, a truncated record, a malformed
    attribute line, a duplicate image path, box values that are non-finite,
    negative-size or whose far edge or area overflows, or a non-finite
    attribute flag.  Out-of-range attribute flags only produce a warning.
    """
    records = _file_records(_lines(source, name), name, "face", zero_dummy=True)
    return _annotations(*_parse(records, "face", 10, _check_face, _warn_flags))


def format_coord(v: float, policy: str = "decimal") -> str:
    """Canonical coordinate text: integral values bare, others per policy.

    "decimal" writes non-integral values with exactly 2 decimal places;
    "integer" rounds to the nearest integer, halves away from zero.
    """
    fv = float(v)
    if policy == "integer":
        r = math.floor(fv + 0.5) if fv >= 0 else math.ceil(fv - 0.5)
        return str(int(r))
    if policy != "decimal":
        raise ValueError(f"unknown rounding policy {policy!r}")
    if fv.is_integer():
        return str(int(fv))
    return f"{fv:.2f}"


def _ints(column: np.ndarray) -> list[int]:
    """A column of integral floats as Python ints, exact at any size."""
    with np.errstate(invalid="ignore"):  # values past int64 are redone below
        out = column.astype(np.int64).tolist()
    for i in np.flatnonzero(np.abs(column) >= 2.0**63).tolist():
        out[i] = int(column[i])
    return out


def _coord_texts(column: np.ndarray, policy: str) -> list:
    """format_coord over a column: ints for the values written bare (their
    str is the text), strings for the rest."""
    if policy == "integer":
        return _ints(np.where(column >= 0, np.floor(column + 0.5), np.ceil(column - 0.5)))
    if policy != "decimal":
        raise ValueError(f"unknown rounding policy {policy!r}")
    out: list = _ints(column)
    frac = np.flatnonzero(column != np.trunc(column))
    for i, v in zip(frac.tolist(), column[frac].tolist()):
        out[i] = f"{v:.2f}"
    return out


def write_wider_gt(annset: AnnotationSet, stream: TextIO, policy: str = "decimal") -> None:
    """Write records in input order; see format_coord for the number policy.

    Zero-face images emit the all-zero dummy line so that parse -> write is
    byte-identical on canonical files.
    """
    coords = [_coord_texts(c, policy) for c in annset.boxes.T]
    flags = [_ints(c) for c in annset.flags.T]
    face_line = " ".join(["%s"] * 10)  # faster than an f-string over ten names
    rows = [face_line % fields for fields in zip(*coords, *flags)]
    bounds = annset.offsets.tolist()
    out: list[str] = []
    for path, lo, hi in zip(annset.paths, bounds, bounds[1:]):
        out.append(path)
        out.append(str(hi - lo))
        if lo == hi:
            out.append("0 0 0 0 0 0 0 0 0 0")
        else:
            out.extend(rows[lo:hi])
    out.append("")  # trailing newline
    stream.write("\n".join(out))


def load_wider_gt(path: str | Path) -> AnnotationSet:
    p = Path(path)
    return parse_wider_gt(_read_file(p), name=str(p))


def save_wider_gt(annset: AnnotationSet, path: str | Path, policy: str = "decimal") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_wider_gt(annset, fh, policy)


def _txt_entries(root: str, prefix: str = "") -> Iterator[str]:
    """'/'-joined paths, relative to root, of every entry below it whose
    name ends in ".txt", in the order of their Path objects: by parts, so
    a/x.txt comes before a-b/x.txt.  The entries are those of
    Path.rglob("*.txt"): symlinks to directories are not followed, a
    directory that cannot be listed is skipped, and a directory whose name
    matches is listed too."""
    try:
        with os.scandir(root) as it:
            entries = sorted(it, key=attrgetter("name"))
    except PermissionError:
        return
    for entry in entries:
        rel = prefix + entry.name
        if entry.name.endswith(".txt"):
            yield rel
        if entry.is_dir(follow_symlinks=False):
            yield from _txt_entries(entry.path, rel + "/")


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
            _, lineno, count = record
            yield source, lines, key, lineno, count
            extra = next((k for k in range(lineno - 1 + count, len(lines)) if lines[k].strip()),
                         None)
            if extra is not None:
                raise ParseError(source, extra + 1,
                                 f"file lists more than the declared {count} detections")

    return _detections(*_parse(records, "detection", 5, _check_detection, _warn_scores))


def parse_detections_file(source: str | TextIO, name: str = "<dets>") -> DetectionSet:
    """Load the consolidated single-file detection format.

    Records use the same layout as per-image files concatenated; the name
    line is the image key verbatim (e.g. "0--Parade/x.jpg").
    """
    records = _file_records(_lines(source, name), name, "detection")
    return _detections(*_parse(records, "detection", 5, _check_detection, _warn_scores))


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


def _detection_record_lines(name: str, dets: list[Detection]) -> list[str]:
    out = [name, str(len(dets))]
    for d in dets:
        b = d.box
        out.append(f"{format_coord(b.x)} {format_coord(b.y)} "
                   f"{format_coord(b.w)} {format_coord(b.h)} {d.score!r}")
    return out


def write_detections_dir(detset: DetectionSet, root: str | Path, image_ext: str = ".jpg") -> None:
    """Write one detection file per image under root, mirroring the key paths."""
    rootp = Path(root)
    for img in detset.images:
        key = img.path
        rel = key[:-len(image_ext)] + ".txt" if key.endswith(image_ext) else key + ".txt"
        target = rootp / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        stem = Path(key).stem
        lines = _detection_record_lines(stem, img.dets)
        lines.append("")
        target.write_text("\n".join(lines), encoding="utf-8")


def write_detections_file(detset: DetectionSet, stream: TextIO) -> None:
    """Write the consolidated single-file layout; name lines are the keys."""
    out: list[str] = []
    for img in detset.images:
        out.extend(_detection_record_lines(img.path, img.dets))
    out.append("")
    stream.write("\n".join(out))


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

    Raises ValueError, naming the image path, when two detection images or
    two annotation images share a path, or an image's detections are not
    sorted by descending score: threshold selection relies on all three.
    Detection images are checked first, in order.
    """
    paths, offsets, scores = dets.paths, dets.offsets, dets.scores
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
    new_offsets = _offsets(counts)
    rows = np.repeat(offsets[idx] - new_offsets[:-1], counts) + np.arange(new_offsets[-1])
    return DetectionSet(paths=anns.paths, offsets=new_offsets,
                        boxes=dets.boxes[rows], scores=scores[rows])
