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
type, `_Columns`, and its one construction path.  Every input file is
read by one helper, `_read_bytes`, with plain OS calls (`os.open`,
`os.read` until a read comes back empty, `os.close`), and a directory's
files go into one buffer with one int64 index of its line ends (`_Text`)
and each file's line bounds (`_read_tree`); a buffer of ASCII bytes is
checked as UTF-8 at once.  `_records` is the one walk of the record
grammar, for all three parsers: it walks the files' line ranges of that
index, a directory's files in one pass, and does its Python work per
record, never per line: it decodes each record's name and count, and a
record carries the line span of its rows in those bytes, not a list of
lines.  Rows are read on one of two paths.  The fast path
fills one (N, fields) array with numpy's C text reader (`np.loadtxt`,
correctly rounded like `float`), in blocks of at most `_ROW_BLOCK` rows
whose texts are cut from the spans and dropped after the call.  A GT
block is read first with its six flags as int64 (`_FACE_ROW`), which
nearly every flag token is and which the reader reads faster than a
float, and as floats only where that read refuses a token or warns.  Where
that reader refuses a row of a block or misses one, the row walker
(`_walk`) reads that block's spans again with Python's `float`, which
also reads `1_0` and `١٢`, into the same array, and the C reader goes on
with the next block; the walker is the reference the fast path is tested
against.  The array goes through the one check of the row rules
(`_check`), which logs the range warnings and raises the first fault in
file order, naming its file and line.  The columns are a table's only
state.  The per-face objects (`ImageAnnotations`, `FaceAnnotation`,
`ImageDetections`, `Detection`) are its row view, built on first use of
`.images`; a table built from such objects converts them to columns at
once and keeps them as that view.  All four tables' row views come from
one builder, `_row_objects`: it checks the columns once with the array
rules, raising what the per-row construction raises first, then sets
each field of all rows from its column, with no constructor call per row.
A view is built with the cyclic garbage collector paused
(`_Columns._cached_view`): its objects form no cycle, and the passes
their allocation would set off find nothing to free.  The collector's
state is restored after the build, also when the build raises.

The writers work from the columns: small non-negative whole numbers take
cached texts, and a face row whose six flags are all whole and in their
documented ranges takes one text of the 144 such tuples (`_flag_table`);
every other value goes through `format_coord` or `repr`, the one copy of
each rule.  Both tables are built on first use.  Every record file
streams the one record emitter, `_record_text`; both TSV ledgers, the
claims' and the perturbations', are written by the one TSV emitter,
`_ledger_text`.  Both build the texts of one block of records or rows at
a time, so a write holds no per-row text for the whole table.
"""

from __future__ import annotations

import functools
import gc
import logging
import math
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, product, repeat
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
_FLAG_LO = np.array([lo for _, lo, _ in _FLAG_RANGES], np.float64)
_FLAG_HI = np.array([hi for _, _, hi in _FLAG_RANGES], np.float64)


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


def _new_objects(cls: type, n: int, fields: Iterable[list]) -> list:
    """n new objects of the slotted class cls, the k-th slot of each set
    from the k-th list of fields: one `object.__new__` per object, then
    each slot's descriptor mapped over its list, so no `__init__` or
    `__post_init__` and no Python frame runs per object."""
    objects = list(map(object.__new__, repeat(cls, n)))
    for slot, values in zip(cls.__slots__, fields):
        deque(map(getattr(cls, slot).__set__, objects, values), maxlen=0)
    return objects


def _row_objects(cls: type, columns: list[tuple[np.ndarray, Callable | None]],
                 by_row: bool = False) -> list:
    """The one builder of the row views: one cls object per row, its
    fields in order from the (column, convert) pairs.  BBox makes a BBox of
    each row of an (N, 4) column, None keeps the values as they are, any
    other callable is applied to each value; int is exact at any
    magnitude, 1e300 too.

    It checks once, then builds.  The first box that is not a valid BBox
    (`valid_boxes`) or non-finite value of an int column raises what the
    per-row construction raises on it, by running that on it alone: BBox's
    ValueError, or int's ValueError for nan and OverflowError for an
    infinity.  First is in column order, each column's rows before the
    next column, as the base view is built, or with by_row in row order,
    each row's fields in column order, as the annotations' view is."""
    checked = [(c, convert) for c, convert in columns if convert in (BBox, int)]
    if checked:
        bad = np.column_stack([~valid_boxes(c) if convert is BBox else ~np.isfinite(c)
                               for c, convert in checked])
        first = np.argwhere(bad if by_row else bad.T)[:1].tolist()
        if first:
            row, k = first[0] if by_row else first[0][::-1]
            c, convert = checked[k]
            convert(*c[row].reshape(-1).tolist())  # raises
    return _new_objects(cls, len(columns[0][0]), [_field(*column) for column in columns])


def _field(column: np.ndarray, convert: Callable | None) -> list:
    """`_row_objects`' list of one field's values."""
    if convert is BBox:
        return _new_objects(BBox, len(column), column.T.tolist())
    if convert is int and np.all(np.abs(column) < 2.0 ** 63):
        return column.astype(np.int64).tolist()  # truncates as int does, without a call each
    values = column.tolist()
    return values if convert is None else list(map(convert, values))


def _grouped(cls: type, paths: list[str], offsets: np.ndarray, rows: list) -> list:
    """One cls(path, rows) per image: image i gets rows offsets[i]:offsets[i+1]."""
    bounds = offsets.tolist()
    return list(map(cls, paths, map(rows.__getitem__, map(slice, bounds, bounds[1:]))))


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
        if self._view is None:  # its objects form no cycle: no collector pass frees any
            enabled = gc.isenabled()
            gc.disable()
            try:
                self._view = self._row_view()
            finally:
                if enabled:
                    gc.enable()
        return self._view

    def _row_view(self) -> list:
        paths, image, *cols = self._cols
        return _row_objects(self._ROW, [(image, paths.__getitem__),
                                        *((c, BBox if c.ndim == 2 else None) for c in cols)])

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


# Images are matched, and their scores averaged, in runs of consecutive
# images holding at most this many rows, or one image, which bounds the
# temporaries of the kernel's candidate search (about 100 bytes a row) and
# of the confidence average however large the dataset.
_ROW_BUDGET = 1 << 14


def _blocks(offsets: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive runs [i, j) of the segments offsets bounds, segment i
    holding rows offsets[i]:offsets[i+1]: each run the most segments whose
    rows fit in budget, and at least one."""
    i, n = 0, len(offsets) - 1
    while i < n:
        j = max(int(np.searchsorted(offsets, offsets[i] + budget, side="right")) - 1, i + 1)
        yield i, j
        i = j


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
        faces = _row_objects(FaceAnnotation, [(boxes, BBox), *((f, int) for f in flags.T)],
                             by_row=True)
        return _grouped(ImageAnnotations, paths, offsets, faces)


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
        dets = _row_objects(Detection, [(boxes, BBox), (scores, None)])
        return _grouped(ImageDetections, paths, offsets, dets)


def _decode_error(source: str, exc: UnicodeDecodeError) -> ParseError:
    """ParseError on the line of the byte that failed to decode; exc.object
    holds the bytes from where decoding started."""
    head = exc.object[:exc.start]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return ParseError(source, line,
                      f"not {exc.encoding.upper()}: {exc.reason} 0x{exc.object[exc.start]:02x}")


def _lf(data: bytes) -> bytes:
    """data with its CRLF and CR line ends turned into LF: the newlines
    text-mode reading knows.  Both are ASCII, so no UTF-8 sequence holds
    one."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


# The size of every read after a file's first, and of the first read of a
# tree's file: a per-image detection file fits in one.
_CHUNK = 1 << 16
_O_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # no newline translation on Windows


def _read_bytes(path: str | Path, first: int = 0) -> bytes:
    """The bytes of the file at path, read with plain OS calls until a read
    comes back empty.  The first read asks for first bytes, by default for
    the file's size (`os.fstat`), so that a large file is read in one piece
    and never held twice; a file that grew, or a pipe, is read on in pieces
    of _CHUNK, then joined.  Every OSError names path as open() names it,
    though os.read on a directory raises EISDIR without a name, and the
    file is closed whatever happens."""
    fd = os.open(path, _O_READ)
    try:
        chunks = [os.read(fd, first or os.fstat(fd).st_size or _CHUNK)]
        while chunks[-1]:
            chunks.append(os.read(fd, _CHUNK))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return chunks[0] if len(chunks) <= 2 else b"".join(chunks)


def _source_bytes(source: str | TextIO, name: str) -> bytes:
    """A text or text stream as UTF-8 bytes with LF line ends; a lone
    surrogate in the text passes through (`surrogatepass`) and decodes
    back unchanged.  A stream that fails to decode raises ParseError on the
    line of the bad byte, counted from where reading started."""
    try:
        text = source if isinstance(source, str) else source.read()
    except UnicodeDecodeError as exc:
        raise _decode_error(name, exc) from None
    return _lf(text.encode("utf-8", "surrogatepass"))


def _line_ends(data: bytes) -> np.ndarray:
    """The int64 offset in data of each line's end: its LF, or len(data)
    for a last line without one."""
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
    return np.append(ends, len(data)) if data and data[-1] != 10 else ends


class _Text:
    """n lines of UTF-8 bytes ended by LF, cut and decoded only when read:
    line i of data ends at ends[i] and starts just past the line before.
    Only LF ends a line; a form feed, vertical tab, U+2028 or other
    separator str.splitlines knows may stand inside an image path or trail
    a row.  The index is read through a memoryview, whose items are Python
    ints, about three times cheaper to read than numpy scalars.  One text
    holds every file of a parse, each a range of its lines."""

    __slots__ = ("data", "ends", "n")

    def __init__(self, data: bytes, ends: np.ndarray | None = None) -> None:
        ends = _line_ends(data) if ends is None else ends
        self.data, self.ends, self.n = data, memoryview(ends), len(ends)

    def rows(self, i: int, count: int) -> list[str]:
        """Lines i to i + count - 1, one text each."""
        if not count:
            return []
        start = self.ends[i - 1] + 1 if i else 0
        text = self.data[start:self.ends[i + count - 1]].decode("utf-8", "surrogatepass")
        return text.split("\n")

    def line(self, i: int) -> str:
        return self.rows(i, 1)[0]


def _read_tree(sources: list[str], first: int = _CHUNK
               ) -> tuple[_Text, list[int], Exception | None]:
    """The files' lines in one text, up to the first file that cannot be
    read or decoded; the line bounds of the files before it, file k holding
    the text's lines bounds[k]:bounds[k + 1]; and that file's error or None.

    Each file is read in turn with plain OS calls (`_read_bytes`, its first
    read asking for first bytes), up to the first OSError, and the bytes
    are joined into one buffer with one line index, with no Python object
    per file but its bytes until the join.  A buffer of ASCII bytes is
    valid UTF-8 at once; any other is decoded file by file to find the
    first that fails, whose error is a ParseError on the line of its bad
    byte, and the files from it on are dropped.  A file whose last line
    has no LF gets one, so that the next file starts a line of its own,
    and CRLF and CR become LF; both are rare, and rebuild the buffer."""
    blobs, fault = [], None
    try:
        for source in sources:
            blobs.append(_read_bytes(source, first))
    except OSError as exc:
        fault = exc
    data = b"".join(blobs)
    if not data.isascii():
        for k, blob in enumerate(blobs):
            try:
                blob.decode("utf-8")
            except UnicodeDecodeError as exc:
                del blobs[k:]
                data, fault = b"".join(blobs), _decode_error(str(sources[k]), exc)
                break
    files = len(blobs)
    cuts = np.cumsum(np.fromiter(map(len, blobs), np.int64, files))[:-1]  # where files 1.. start
    if b"\r" in data or np.any(np.frombuffer(data, np.uint8)[cuts[cuts > 0] - 1] != 10):
        blobs = [blob + b"\n" if blob[-1:] not in (b"", b"\n") else blob
                 for blob in map(_lf, blobs)]
        data = b"".join(blobs)
        cuts = np.cumsum(np.fromiter(map(len, blobs), np.int64, files))[:-1]
    del blobs
    ends = _line_ends(data)
    bounds = [0, *np.searchsorted(ends, cuts).tolist(), len(ends)]
    return _Text(data, ends), bounds[:files + 1], fault


def _read_file(path: str | Path) -> _Text:
    """The file's lines, read in one piece; a file that cannot be read or
    decoded raises its error."""
    text, _, fault = _read_tree([path], first=0)
    if fault is not None:
        raise fault
    return text


def _records(text: _Text, sources: list[str], bounds: list[int], noun: str,
             zero_dummy: bool = False, keys: list[str] | None = None) -> Iterator[_Record]:
    """Walk the records of annotation or detection files: the one copy of
    their grammar.

    The files are ranges of one text: source k holds lines bounds[k] to
    bounds[k + 1] - 1, its line 1 the text's line bounds[k].  Yields one
    _Record (source, text, base, name, lineno, count) per record: its count
    rows sit on the source's 1-based lines lineno to lineno + count - 1,
    the text's lines base + lineno - 1 onwards.  Only a record's name and
    count lines are decoded; its rows are not read, and the walk resumes
    past them.  Blank lines between records are skipped.  With zero_dummy,
    an all-zero row after a zero-count record is consumed and dropped.
    With keys, each source is a per-image file: it holds one record, named
    keys[k] whatever its name line says, then only blank lines.  Raises
    ParseError on a name without a count line, a non-numeric or negative
    count, a record cut short by the end of its file, a repeated name, and
    a per-image file with no record or with more lines than its record.
    """
    seen: set[str] = set()
    for k, (source, base, n) in enumerate(zip(sources, bounds, bounds[1:])):
        i = base
        while i < n:
            head = text.rows(i, 2 if i + 1 < n else 1)  # the name line and the count line
            name = head[0].strip()
            i += 1
            if not name:
                continue
            if i == n:
                raise ParseError(source, i - base, f"record {name!r} has no {noun} count line")
            count_tok = head[1].strip()
            i += 1
            try:
                count = int(count_tok)
            except ValueError:
                raise ParseError(source, i - base, f"invalid {noun} count {count_tok!r}") from None
            if count < 0:
                raise ParseError(source, i - base, f"negative {noun} count {count}")
            if keys is None:
                if name in seen:
                    raise ParseError(source, i - base - 1, f"duplicate image path {name!r}")
                seen.add(name)
            if i + count > n:
                raise ParseError(source, n - base + 1,
                                 f"record {name!r} ends before its {count} {noun}s")
            yield source, text, base, name if keys is None else keys[k], i - base + 1, count
            i += count
            if keys is not None:
                if i < n:
                    for j, line in enumerate(text.rows(i, n - i), i - base + 1):
                        if line.strip():
                            raise ParseError(source, j,
                                             f"file lists more than the declared {count} {noun}s")
                break
            if zero_dummy and count == 0 and i < n and _is_zero_dummy_line(text.line(i)):
                i += 1  # the WIDER zero-face placeholder row
        else:
            if keys is not None:
                raise ParseError(source, 1, f"per-image {noun} file holds no record")


def _is_zero_dummy_line(line: str) -> bool:
    tokens = line.split()
    if len(tokens) != 10:
        return False
    try:
        return all(float(t) == 0.0 for t in tokens)
    except ValueError:
        return False


# One record as `_records` yields it: source name, the `_Text` holding it,
# the text's 0-based line number of the source's line 1, image key, 1-based
# line of its first row in the source, row count.
_Record = tuple[str, _Text, int, str, int, int]

# Rows per call of numpy's C text reader or walk of the row walker, and per
# block of the writers: the texts and walked values of one block are all
# that is held of them at a time.
_ROW_BLOCK = 1 << 12


def _record_blocks(records: list[_Record]) -> Iterator[list[_Record]]:
    """The records' rows in file order, in blocks of _ROW_BLOCK rows but
    the last, each block the records or parts of records it holds: a
    record straddling blocks is cut, each part keeping its own first line
    and row count."""
    block: list[_Record] = []
    size = 0
    for source, text, base, name, lineno, count in records:
        k = 0
        while k < count:
            take = min(count - k, _ROW_BLOCK - size)
            block.append((source, text, base, name, lineno + k, take))
            size += take
            k += take
            if size == _ROW_BLOCK:
                yield block
                block, size = [], 0
    if block:
        yield block


# A face row as the C reader first reads it: the box cells as floats, the
# six flags as int64, which nearly every flag token is.
_FACE_ROW = np.dtype([("boxes", np.float64, 4), ("flags", np.int64, 6)])


def _bulk(block: list[_Record], out: np.ndarray, typed: np.dtype | None = None) -> bool:
    """The fast path: fill out, an (n, fields) float64 array, with one
    block's rows as numpy's C text reader reads them, whose texts are cut
    from the spans and dropped after the call.  False, with out left as it
    was, when the reader refuses a token or a row has another number of
    fields (the reader skips blank rows, so the row count shows those too).

    With typed, a structured dtype whose subarray fields, side by side,
    are out's columns, the reader first reads the block as that, and as
    floats only if it refuses: an int64 token converts to the double
    `float` gives it, past 2**53 too, and a token no int64 field reads
    (`1.0`, `1e300`, `nan`, `99999999999999999999`) is read as a float.
    Any warning of the typed read refuses the block: a numpy that warns
    and truncates `1.5` into an int field must not hide the flag's range
    warning.

    Where the reader and `float` both read a token, both give the same
    double; the tokens only `float` reads (`1_0`, `١٢`) are refused here
    and left to the row walker."""
    rows: list[str] = []
    for _, text, base, _, lineno, count in block:
        rows += text.rows(base + lineno - 1, count)
    if typed is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cells = np.loadtxt(rows, typed, comments=None, ndmin=1)
        except (ValueError, Warning):
            cells = None
        if cells is not None and cells.shape == (len(rows),):
            np.concatenate([cells[name] for name in typed.names], axis=1, out=out)
            return True
    try:
        values = np.loadtxt(rows, np.float64, comments=None, ndmin=2)
    except ValueError:
        return False
    if values.shape != out.shape:
        return False
    out[:] = values
    return True


def _walk(records: list[_Record], noun: str, fields: int) -> tuple[np.ndarray, ParseError | None]:
    """The row walker: the records' rows read one at a time with Python's
    `float` up to the first row with the wrong number of fields or a
    non-numeric one, as an (N, fields) array, with that row's ParseError or
    None.  It checks no value and never raises."""
    vals: list[float] = []
    try:
        for source, text, base, _, lineno, count in records:
            for k, line in enumerate(text.rows(base + lineno - 1, count), lineno):
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
           check: Callable[[list[_Record], np.ndarray, Exception | None], None],
           typed: np.dtype | None = None) -> tuple[list[_Record], np.ndarray]:
    """The records and their checked rows, in one preallocated (N, fields)
    array filled block by block (`_record_blocks`): by the C reader
    (`_bulk`, reading typed first where given), or by the row walker where
    that reader refuses the block, and then on with the C reader.

    records is walked once.  Where the walk raises (a grammar fault, a file
    with extra lines, an OSError), the rows of the records before the fault
    are read and checked all the same: check(records, values, fault) raises
    the first fault in file order, a rule's, else the walker's, whose row
    comes first and ends the read, else the walk's.
    """
    recs: list[_Record] = []
    fault: Exception | None = None
    try:
        recs.extend(records)  # keeps the records before a fault
    except (ParseError, OSError) as exc:
        fault = exc
    values = np.empty((sum(n for *_, n in recs), fields))
    done = 0
    with warnings.catch_warnings():
        # every row of a block blank: `_bulk`'s shape check rejects the result
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for block in _record_blocks(recs):
            out = values[done:done + _ROW_BLOCK]  # every block but the last is full
            if _bulk(block, out, typed):
                done += len(out)
                continue
            rows, row_fault = _walk(block, noun, fields)
            values[done:done + len(rows)] = rows
            done += len(rows)
            if row_fault is not None:
                values, fault = values[:done], row_fault
                break
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
        source, lineno = records[i][0], records[i][4] + row - int(starts[i])
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
    fault) and a whole number in its documented range (a warning).  The
    flags' masks are columns of two (N, 6) masks, one of each kind, filled
    a block of _ROW_BLOCK rows at a time: a float temporary of all the
    flags would raise the parse's peak memory by 48 bytes a row."""
    flags = values[:, 4:]
    non_finite, off_range = np.empty(flags.shape, bool), np.empty(flags.shape, bool)
    for lo in range(0, len(flags), _ROW_BLOCK):
        part = flags[lo:lo + _ROW_BLOCK]
        whole = np.trunc(part)
        np.logical_not(np.isfinite(part), out=non_finite[lo:lo + _ROW_BLOCK])
        off_range[lo:lo + _ROW_BLOCK] = (whole != part) | (whole < _FLAG_LO) | (whole > _FLAG_HI)
    rules = [(~valid_boxes(values[:, :4]), slice(0, 4), _box_error, True)]
    for k, (name, lo, hi) in enumerate(_FLAG_RANGES):
        rules += [(non_finite[:, k], 4 + k, f"non-finite {name} flag {{!r}}".format, True),
                  (off_range[:, k], 4 + k,
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
    """The annotation table, its boxes and flags views of values: the flags
    are truncated in place, and + 0.0 turns the -0.0 that trunc gives for
    -0 and -0.5 into 0."""
    flags = values[:, 4:]
    np.trunc(flags, out=flags)
    flags += 0.0
    return AnnotationSet(paths=[name for _, _, _, name, _, _ in records],
                         offsets=_offsets([n for *_, n in records]),
                         boxes=values[:, :4], flags=flags)


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
    return DetectionSet(paths=[name for _, _, _, name, _, _ in records], offsets=offsets,
                        boxes=values[:, :4], scores=values[:, 4])


def parse_wider_gt(source: str | TextIO, name: str = "<gt>") -> AnnotationSet:
    """Parse a WIDER ground-truth annotation file.

    Raises ParseError (with line number) on bytes the stream cannot decode,
    a non-numeric or negative face count, a truncated record, a malformed
    attribute line, a duplicate image path, box values that are non-finite,
    negative-size or whose far edge or area overflows, or a non-finite
    attribute flag.  Out-of-range attribute flags only produce a warning.
    """
    return _parse_gt(_Text(_source_bytes(source, name)), name)


def _parse_gt(text: _Text, name: str) -> AnnotationSet:
    records = _records(text, [name], [0, text.n], "face", zero_dummy=True)
    return _annotations(*_parse(records, "face", 10, _check_faces, _FACE_ROW))


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


_FLAG_SHAPE = tuple(hi - lo + 1 for _, lo, hi in _FLAG_RANGES)


@functools.cache
def _flag_table() -> np.ndarray:
    """The texts of the documented flag tuples, "0 0 0 0 0 0" to "2 1 1 1
    2 1", as an object array indexed by each tuple's offsets from the
    ranges' lows, raveled over _FLAG_SHAPE; built on first use, and
    read-only, like `_text_table`."""
    table = np.array([" ".join(map(str, flags)) for flags in
                      product(*(range(lo, hi + 1) for _, lo, hi in _FLAG_RANGES))], object)
    table.flags.writeable = False
    return table


def _flag_texts(flags: np.ndarray) -> list[str]:
    """The text of each row of an (n, 6) flag block, its six cells as
    format_coord writes them.  A row whose flags are all whole numbers in
    their documented ranges, as nearly all are, takes its tuple's text from
    `_flag_table`; any other row is written cell by cell.  The masks are
    taken of a (6, n) copy: reducing them over the flags is some four
    times faster there than over the rows of the (n, 6) block."""
    cols, lo, hi = np.ascontiguousarray(flags.T), _FLAG_LO[:, None], _FLAG_HI[:, None]
    hit = ((cols >= lo) & (cols <= hi) & (cols == np.trunc(cols))).all(axis=0)
    offsets = np.where(hit, cols - lo, 0).astype(np.intp)
    out = _flag_table()[np.ravel_multi_index(offsets, _FLAG_SHAPE)].tolist()
    miss = np.flatnonzero(~hit)
    for i, row in zip(miss.tolist(), flags[miss].tolist()):
        out[i] = " ".join(map(format_coord, row))
    return out


def _record_text(names: list[str], offsets: np.ndarray, rows: Callable[[int, int], list[str]],
                 empty: tuple[str, ...] = ()) -> Iterator[str]:
    """The one emitter of records: per record, the text of its name line,
    its row count and its rows, offsets[i]:offsets[i+1] of the table, or
    the lines of empty where it has none; every line ends in LF.  rows(lo,
    hi) gives the texts of rows lo:hi; it is called once per block of
    records holding at most _ROW_BLOCK rows, or one record, so only one
    block's texts are held at a time."""
    for i, j in _blocks(offsets, _ROW_BLOCK):
        lo = int(offsets[i])
        texts = rows(lo, int(offsets[j]))
        bounds = (offsets[i:j + 1] - lo).tolist()
        for name, a, b in zip(names[i:j], bounds, bounds[1:]):
            yield "\n".join([name, str(b - a), *(texts[a:b] if a < b else empty), ""])


def _ledger_text(header: tuple[str, ...], names: list[str], image: np.ndarray,
                 index: np.ndarray, boxes: list[np.ndarray], ratios: list[np.ndarray]
                 ) -> Iterator[str]:
    """A TSV ledger: the header, then per row its path, names[image[r]],
    its index, its box cells and its ratios, every float as `repr` writes
    it, in blocks of _ROW_BLOCK rows.  Box cells are mostly small whole
    numbers, which take cached texts; ratios rarely are."""
    yield "\t".join(header) + "\n"
    for lo in range(0, len(index), _ROW_BLOCK):
        part = slice(lo, lo + _ROW_BLOCK)
        cols = [[names[i] for i in image[part].tolist()], map(str, index[part].tolist()),
                *(_texts(c[part], _text_table(".0"), repr) for c in boxes),
                *(map(repr, c[part].tolist()) for c in ratios)]
        yield "\n".join(map("\t".join, zip(*cols))) + "\n"


def write_wider_gt(annset: AnnotationSet, stream: TextIO, policy: str = "decimal") -> None:
    """Write records in input order; see format_coord for the number policy.

    Zero-face images emit the all-zero dummy line so that parse -> write is
    byte-identical on canonical files.  An unknown policy raises ValueError
    before anything is written, whether or not the set has rows.
    """
    format_coord(0.0, policy)  # raises on an unknown policy
    # a table hit is a whole number, which every policy writes bare
    coord = functools.partial(format_coord, policy=policy)
    boxes, flags = annset.boxes, annset.flags

    def rows(lo: int, hi: int) -> list[str]:
        cols = [_texts(c, _text_table(""), coord) for c in boxes[lo:hi].T]
        cols.append(_flag_texts(flags[lo:hi]))
        return list(map(" ".join, zip(*cols)))

    stream.writelines(_record_text(annset.paths, annset.offsets, rows,
                                   empty=("0 0 0 0 0 0 0 0 0 0",)))


def load_wider_gt(path: str | Path) -> AnnotationSet:
    p = Path(path)
    return _parse_gt(_read_file(p), str(p))


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
    # Path(".") / rel prints as rel; os.path.join(root, rel) as root + this + rel
    prefix = os.path.join("" if str(rootp) == "." else str(rootp), "")
    rels = list(_txt_entries(str(rootp)))
    sources, keys = [prefix + rel for rel in rels], [rel[:-4] + image_ext for rel in rels]
    del rels  # a string per file, not needed while the tree is read
    text, bounds, fault = _read_tree(sources)

    def records() -> Iterator[_Record]:
        yield from _records(text, sources, bounds, "detection", keys=keys)
        if fault is not None:
            raise fault  # after the records of the files read before it

    return _detections(*_parse(records(), "detection", 5, _check_detections))


def parse_detections_file(source: str | TextIO, name: str = "<dets>") -> DetectionSet:
    """Load the consolidated single-file detection format.

    Records use the same layout as per-image files concatenated; the name
    line is the image key verbatim (e.g. "0--Parade/x.jpg").
    """
    return _parse_detections(_Text(_source_bytes(source, name)), name)


def _parse_detections(text: _Text, name: str) -> DetectionSet:
    records = _records(text, [name], [0, text.n], "detection")
    return _detections(*_parse(records, "detection", 5, _check_detections))


def load_detections(path: str | Path, layout: str = "auto", image_ext: str = ".jpg") -> DetectionSet:
    """Dispatch between the directory tree and single-file layouts."""
    p = Path(path)
    if layout == "auto":
        layout = "dir" if p.is_dir() else "file"
    if layout == "dir":
        return parse_detections_dir(p, image_ext=image_ext)
    if layout == "file":
        return _parse_detections(_read_file(p), str(p))
    raise ValueError(f"unknown detection layout {layout!r}")


def _detection_rows(detset: DetectionSet, lo: int, hi: int) -> list[str]:
    """Rows lo:hi of the detections: each one's box as format_coord writes
    it, its score as repr does."""
    cols = [_texts(c, _text_table(""), format_coord) for c in detset.boxes[lo:hi].T]
    cols.append(list(map(repr, detset.scores[lo:hi].tolist())))
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
                           functools.partial(_detection_rows, detset))
    for rel, text in zip(files, records):
        with open(os.path.join(root, rel), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_detections_file(detset: DetectionSet, stream: TextIO) -> None:
    """Write the consolidated single-file layout; name lines are the keys."""
    stream.writelines(_record_text(detset.paths, detset.offsets,
                                   functools.partial(_detection_rows, detset)))


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
    run when there are none.  A table that lists anns' images in anns'
    order already is returned itself, once checked.

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
    if paths == anns.paths:
        return dets  # the reindex would rebuild the same table

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
