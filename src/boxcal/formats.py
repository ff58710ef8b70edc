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
record, never per line, yielding each record's key, the text line of its
first row and its row count.  Rows are read and written in runs, each the
next `_ROW_BLOCK` (4,096) table rows, wherever the record bounds fall.
The fast path fills one (N, fields) array with numpy's C text reader
(`np.loadtxt`, correctly rounded like `float`), one call per run, as
`_FACE_ROW` (int64 flags, which nearly every flag token is) or
`_DETECTION_ROW`.  Where that call refuses a token (a flag spelled
`1.0`, say), warns or misses a row, the row walker (`_walk`) reads that
run's texts again with Python's `float`, which also reads `1_0` and
`١٢`, and the C reader goes on with the next run; the walker is the
reference the fast path is tested against.  Each run is checked as it is
read, and the first fault stops the read: the one check of the row rules
(`_check`) logs the range warnings and raises the first fault in file
order, naming the file and line that one locator finds for its row.

The columns are a table's only state.  The per-face objects
(`ImageAnnotations`, `FaceAnnotation`, `ImageDetections`, `Detection`)
are its row view, built on first use of `.images`; a table built from
such objects converts them to columns at once and keeps them as that
view.  All four tables' row views come from one builder, `_row_objects`:
it checks the columns once with the array rules, raising what the
per-row construction raises first, then sets each field of all rows from
its column, with no constructor call per row.  A view is built with the
cyclic garbage collector paused (`_Columns._cached_view`): its objects
form no cycle, and the passes their allocation would set off find
nothing to free.  The collector's state is restored after the build,
also when the build raises.

The writers work from the columns: small non-negative whole numbers take
cached texts, and a face row whose six flags are all whole and in their
documented ranges takes one text of the 144 such tuples (`_flag_table`);
every other value goes through `format_coord` or `repr`, the one copy of
each rule.  The flag table is built on first use; the table of whole
numbers is built per suffix on first use too, only up to the power of two
above the largest whole number written (at least 2**8, at most 2**14
entries), and built again, larger, when a later block needs more.  Every
record file streams the one record emitter, `_record_text`; both TSV
ledgers, the claims' and the perturbations', are written by the one TSV
emitter, `_ledger_text`.  Both build the texts of one run of rows at a
time, so a write holds no per-row text for the whole table, nor for the
whole of a long record.  Each format has one producer of its texts
(`_gt_texts`, say), which raises every error of its inputs when called.
Every output file is written from them by one helper, `_write_file`, the
mirror of `_read_bytes`, with plain OS calls: `os.open` without O_TRUNC,
`os.write`, and `os.ftruncate` of a regular file to the bytes written as
soon as its first text is written (or a write fails).  A file is so
rewritten in place and then cut, its old data not freed first, the
costly step of rewriting a tree (ext4).  Later texts only append, so an
error or interrupt leaves no old byte after the new ones; a process
killed by a signal while a file's first text is written can leave the
old file's tail after it.
"""

from __future__ import annotations

import functools
import gc
import logging
import math
import os
import stat
import warnings
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice, product, repeat
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
# images holding at most this many rows, or one image, and a run's candidate
# pairs are scored in runs of HCDRs holding at most this many pairs, or one
# HCDR.  This bounds the temporaries of the kernel (about 100 bytes a row and
# 150 a pair) and of the confidence average, however large the dataset and
# however crowded an image.
_ROW_BUDGET = 1 << 14


def _blocks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive runs [i, j) of the segments offsets bounds, segment i
    holding rows offsets[i]:offsets[i+1]: each run the most segments whose
    rows fit in _ROW_BUDGET, and at least one: the kernel's rule for blocks
    of whole images, not the row I/O's (`_ROW_BLOCK`)."""
    i, n = 0, len(offsets) - 1
    while i < n:
        j = max(int(np.searchsorted(offsets, offsets[i] + _ROW_BUDGET, side="right")) - 1, i + 1)
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
_O_WRITE = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)  # no O_TRUNC: see _write_file


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


def _cut(fd: int, size: int) -> bool:
    """Cut the file at fd to size where it is a regular file longer than that."""
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode) and st.st_size > size:
        os.ftruncate(fd, size)
    return True


def _write_file(path: str | Path, texts: Iterable[str]) -> None:
    """The texts, UTF-8-encoded, written over the file at path, which is
    cut to the bytes written once the first text is written or a write
    fails; every OSError names path.  See the module doc."""
    fd, size, cut = os.open(path, _O_WRITE, 0o666), 0, False
    try:
        try:
            for data in map(memoryview, map(str.encode, texts)):
                while data:
                    n = os.write(fd, data)
                    data, size = data[n:], size + n
                if not cut:  # later texts only append: no old byte follows them
                    cut = _cut(fd, size)
        finally:
            if not cut:  # the first text failed, or there was none
                _cut(fd, size)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


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
             zero_dummy: bool = False, keys: list[str] | None = None
             ) -> Iterator[tuple[str, int, int]]:
    """Walk the records of annotation or detection files: the one copy of
    their grammar.

    The files are ranges of one text: source k holds lines bounds[k] to
    bounds[k + 1] - 1, its line 1 the text's line bounds[k].  Yields one
    (image key, text line of its first row, row count) per record.  Only
    a record's name and count lines are decoded; its rows are not read,
    and the walk resumes past them.  Blank lines between records are skipped.  With zero_dummy,
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
            yield name if keys is None else keys[k], i, count
            i += count
            if keys is not None:
                if i < n:
                    for j, line in enumerate(text.rows(i, n - i), i - base + 1):
                        if line.strip():
                            raise ParseError(source, j,
                                             f"file lists more than the declared {count} {noun}s")
                break
            if zero_dummy and count == 0 and i < n and _is_zero_dummy_line(text.rows(i, 1)[0]):
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


# The one run rule of the row I/O: the parsers, the record writers and the
# TSV ledgers take a table's rows this many at a time, the last run fewer,
# wherever the record bounds fall.  The texts, walked values and rule masks
# of one run are all that is held of them at a time.
_ROW_BLOCK = 1 << 12


# The row dtypes the C reader reads a run as, their subarray fields side by
# side the table's columns: a face row's flags as int64, which nearly every
# flag token is and which the reader reads faster than a float.
_FACE_ROW = np.dtype([("boxes", np.float64, 4), ("flags", np.int64, 6)])
_DETECTION_ROW = np.dtype([("cells", np.float64, 5)])


def _bulk(rows: list[str], out: np.ndarray, row: np.dtype) -> bool:
    """The fast path: fill out, an (n, fields) float64 array, with the
    texts of one run's rows as one call of numpy's C text reader reads
    them as row.  False, with out left as it was, where the reader refuses
    a token or a row's field count, warns, or skips a (blank) row.

    Where the reader and `float` both read a token, both give the same
    double, an int64 token past 2**53 too.  Any other token of an int64
    field (`1.0`, `1e300`, `nan`, `99999999999999999999`) refuses the run,
    as the tokens only `float` reads (`1_0`, `١٢`) do.  So does a warning:
    a numpy that warns and truncates `1.5` into an int field must not hide
    the flag's range warning."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = np.loadtxt(rows, row, comments=None, ndmin=1)
    except (ValueError, Warning):
        return False
    if cells.shape != (len(rows),):
        return False
    np.concatenate([cells[name] for name in row.names], axis=1, out=out)
    return True


def _walk(rows: list[str], noun: str, fields: int) -> tuple[np.ndarray, str | None]:
    """The row walker: the rows read one at a time with Python's `float` up
    to the first row with the wrong number of fields or a non-numeric one,
    as an (n, fields) array, with that row's fault text or None.  It checks
    no value and never raises."""
    vals: list[float] = []
    fault = None
    for line in rows:
        tokens = line.split()
        if len(tokens) != fields:
            fault = f"expected {fields} fields on {noun} line, got {len(tokens)}"
            break
        try:
            vals.extend(list(map(float, tokens)))
        except ValueError:
            fault = f"non-numeric field in {tokens!r}"
            break
    return np.array(vals, np.float64).reshape(-1, fields), fault


def _parse(text: _Text, sources: list[str], bounds: list[int], noun: str, row: np.dtype,
           rules: Callable[[np.ndarray], list[tuple]], *, fault: Exception | None = None,
           **grammar) -> tuple[list, np.ndarray, np.ndarray]:
    """The image keys of the files' records (`_records`, given grammar's
    keywords), their row offsets (record i holds rows starts[i] to
    starts[i + 1] - 1) and their checked rows, in one (N, fields) array
    of row's fields side by side, filled run by run, each run the next
    _ROW_BLOCK rows, whose texts are cut from the records' spans: by one
    call of the C reader (`_bulk`), or by the row walker where it refuses.

    Each run is checked as it is read; the first fault stops the read:
    `_check` of rules(run) raises a rule's fault, else the walker's fault,
    whose row ends the run, is raised.  The records are walked first; where
    that walk raises a grammar fault, or fault is given (the error of the
    file a tree's read stopped at), the records before it are read and
    checked, and then that fault is raised."""
    names, lines, counts = [], [], []  # each record's key, first row's line and row count
    try:
        for name, line, count in _records(text, sources, bounds, noun, **grammar):
            names.append(name)
            lines.append(line)
            counts.append(count)
    except ParseError as exc:
        fault = exc  # in a file before the one the read stopped at
    starts = _offsets(counts)
    first = memoryview(starts)  # Python ints, read only where a run or a fault needs them

    def where(row: int) -> tuple[str, int]:
        """The source and 1-based line of a table row: the one locator."""
        r = bisect_right(first, row) - 1
        line = lines[r] + row - first[r]
        k = bisect_right(bounds, line) - 1
        return sources[k], line - bounds[k] + 1

    total, fields = first[-1], sum(row[name].shape[0] for name in row.names)
    values = np.empty((total, fields))
    for lo in range(0, total, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, total)
        i = bisect_right(first, lo) - 1  # the records from i to j - 1 hold rows lo:hi
        j = bisect_left(first, hi, i)
        rows = text.rows(lines[i] + lo - first[i], min(first[i + 1], hi) - lo)
        for line, count in zip(lines[i + 1:j - 1], counts[i + 1:j - 1]):
            rows += text.rows(line, count)
        if j > i + 1:
            rows += text.rows(lines[j - 1], hi - first[j - 1])
        run, row_fault = values[lo:hi], None
        if not _bulk(rows, run, row):
            walked, row_fault = _walk(rows, noun, fields)
            run = run[:len(walked)]
            run[:] = walked
        del rows
        _check(run, rules(run), lo, where)
        if row_fault is not None:
            raise ParseError(*where(lo + len(run)), row_fault)
    if fault is not None:
        raise fault
    return names, starts, values


def _check(values: np.ndarray, rules: list[tuple], lo: int,
           where: Callable[[int], tuple[str, int]]) -> None:
    """The one check of the row rules, on each run of either parse path as
    it is read; the first fault stops the read.  values holds the run's
    rows, table rows lo onwards, where(row) the source and line of a table
    row; rules lists each row's rules in its check order, each as (mask of
    the rows it fires on, the column of its value, its message on that
    value, whether it is a fault or a warning).  Logs every warning before
    the first fault in file order, then raises that fault.  Only the rows a
    rule fires on are put in that order, by row and then by rule, so a
    clean run costs one mask per rule and their one reduction."""
    rows = np.flatnonzero(functools.reduce(np.logical_or, [mask for mask, *_ in rules]))
    if not rows.size:
        return
    at, rule = np.nonzero(np.column_stack([mask[rows] for mask, *_ in rules]))
    for row, r in zip(rows[at].tolist(), rule.tolist()):
        _, column, message, is_fault = rules[r]
        text = message(values[row, column].tolist())
        if is_fault:
            raise ParseError(*where(lo + row), text)
        log.warning("%s:%d: %s", *where(lo + row), text)


def _box_error(box: list[float]) -> str:
    """BBox's error on an invalid box."""
    try:
        BBox(*box)
    except ValueError as exc:
        return str(exc)


def _face_rules(values: np.ndarray) -> list[tuple]:
    """The rules of a run of face rows: a valid box, then each flag in turn
    finite (a fault) and a whole number in its documented range (a
    warning)."""
    flags = values[:, 4:]
    whole = np.trunc(flags)
    non_finite = ~np.isfinite(flags)
    off_range = (whole != flags) | (whole < _FLAG_LO) | (whole > _FLAG_HI)
    rules = [(~valid_boxes(values[:, :4]), slice(0, 4), _box_error, True)]
    for k, (name, lo, hi) in enumerate(_FLAG_RANGES):
        rules += [(non_finite[:, k], 4 + k, f"non-finite {name} flag {{!r}}".format, True),
                  (off_range[:, k], 4 + k,
                   f"{name} flag {{!r}} outside documented range [{lo}, {hi}]".format, False)]
    return rules


def _detection_rules(values: np.ndarray) -> list[tuple]:
    """The rules of a run of detection rows: a finite score, a score in
    [0, 1] (a warning), then a valid box."""
    scores = values[:, 4]
    return [(~np.isfinite(scores), 4, "non-finite score {!r}".format, True),
            (~((0.0 <= scores) & (scores <= 1.0)), 4, "score {!r} outside [0, 1]".format, False),
            (~valid_boxes(values[:, :4]), slice(0, 4), _box_error, True)]


def _annotations(names: list[str], offsets: np.ndarray, values: np.ndarray) -> AnnotationSet:
    """The annotation table, its boxes and flags views of values: the flags
    are truncated in place, and + 0.0 turns the -0.0 that trunc gives for
    -0 and -0.5 into 0."""
    flags = values[:, 4:]
    np.trunc(flags, out=flags)
    flags += 0.0
    return AnnotationSet(paths=names, offsets=offsets, boxes=values[:, :4], flags=flags)


def _first_unsorted(offsets: np.ndarray, scores: np.ndarray) -> int | None:
    """The first image with a row scoring higher than the row before it,
    or None when every image's rows are in descending score order."""
    rising = scores[1:] > scores[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(scores))] - 1] = False  # pairs across images
    first = np.flatnonzero(rising)[:1]
    return int(np.searchsorted(offsets, first[0], side="right")) - 1 if first.size else None


def _detections(names: list[str], offsets: np.ndarray, values: np.ndarray) -> DetectionSet:
    """The detection table, each image's rows sorted by descending score;
    the sort is stable, so equal scores keep file order.  Files already in
    that order, as boxcal writes them, are not sorted again."""
    if _first_unsorted(offsets, values[:, 4]) is not None:
        image = np.repeat(np.arange(len(names)), np.diff(offsets))
        values = values[np.lexsort((-values[:, 4], image))]
    return DetectionSet(paths=names, offsets=offsets, boxes=values[:, :4], scores=values[:, 4])


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
    return _annotations(*_parse(text, [name], [0, text.n], "face", _FACE_ROW, _face_rules,
                                zero_dummy=True))


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


_TEXT_LIMIT = 1 << 14  # whole numbers below this take cached texts
_text_tables: dict[str, np.ndarray] = {}


def _text_table(suffix: str, top: int) -> np.ndarray:
    """The texts of 0 .. n - 1, each followed by suffix, as a read-only
    object array every caller shares: n is the power of two above top, a
    whole number below _TEXT_LIMIT, and at least 2**8.  The table is kept
    per suffix, and built again, larger, only when a later call's top is
    past it; so a run holds the texts of the values it writes, rounded up,
    and a run that writes nothing holds none."""
    table = _text_tables.get(suffix)
    if table is None or top >= len(table):
        table = np.array([f"{i}{suffix}" for i in range(max(1 << 8, 1 << top.bit_length()))],
                         object)
        table.flags.writeable = False
        _text_tables[suffix] = table
    return table


def _texts(column: np.ndarray, suffix: str, rest: Callable[[float], str]) -> list[str]:
    """The text of each value of a float column: the cached text
    (`_text_table`) of the value and suffix where v is a hit, rest(v) for
    every other value.

    A hit is a whole number from 0 to _TEXT_LIMIT - 1 whose sign bit is
    clear; most cells of the files boxcal writes are.  -0.0 is no hit,
    though it equals 0: `repr` writes it "-0.0", and only rest knows how it
    is written.  Fractions, negatives, values at or past the limit, inf and
    nan go to rest as well.
    """
    hit = ~np.signbit(column) & (column < _TEXT_LIMIT) & (column == np.trunc(column))
    index = np.where(hit, column, 0).astype(np.intp)
    out = _text_table(suffix, int(index.max(initial=0)))[index].tolist()
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
    read-only, like the `_text_table` tables."""
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
                 empty: tuple[str, ...] = ()) -> Iterator[list[str]]:
    """The one emitter of records: per record, the text of its name line,
    its row count and its rows, offsets[i]:offsets[i+1] of the table, or
    the lines of empty where it has none; every line ends in LF.  rows(lo,
    hi) gives the texts of rows lo:hi; it is called once per run of
    _ROW_BLOCK rows, whose texts come as one list, so only one run's are
    held at a time, and a record spanning runs comes as one text per run."""
    bounds = memoryview(offsets)  # Python ints, read only where a run needs them
    total, i = bounds[-1], 0
    for lo in range(0, max(total, 1), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, total)
        texts, run = rows(lo, hi), []
        if bounds[i] < lo:  # record i began in an earlier run
            run.append("\n".join([*texts[:bounds[i + 1] - lo], ""]))
            i += 1
        j = len(names) if hi == total else bisect_left(bounds, hi, i)  # records i:j start here
        starts = (offsets[i:j + 1] - lo).tolist()
        yield run + ["\n".join([name, str(b - a), *(texts[a:b] if a < b else empty), ""])
                     for name, a, b in zip(names[i:j], starts, starts[1:])]
        i = j - 1 if bounds[j] > hi else j


def _ledger_text(header: tuple[str, ...], names: list[str], image: np.ndarray,
                 index: np.ndarray, boxes: list[np.ndarray], ratios: list[np.ndarray],
                 by: np.ndarray | None = None) -> Iterator[str]:
    """A TSV ledger's texts: the header, then per row r its path,
    names[image[r]], its index, its box cells (mostly small whole numbers,
    which take cached texts) and its ratios, every float as `repr` writes
    it, in the stable ascending order of by (table order where None), in
    blocks of _ROW_BLOCK rows gathered one at a time.  A path holding a tab,
    CR or LF raises ValueError here, at once, naming the first in order."""
    joined = "".join(names)
    if "\t" in joined or "\n" in joined or "\r" in joined:
        breaking = np.array(["\t" in name or "\n" in name or "\r" in name for name in names], bool)
        rows = image if by is None else image[np.argsort(by, kind="stable")]
        first = np.flatnonzero(breaking[rows])[:1].tolist()
        if first:
            raise ValueError(f"image path {names[rows[first[0]]]!r} holds a tab or line end, "
                             "which a TSV ledger cannot hold; export the ledger as .json")

    def texts() -> Iterator[str]:
        order = None if by is None else np.argsort(by, kind="stable")
        yield "\t".join(header) + "\n"
        for lo in range(0, len(index), _ROW_BLOCK):
            part = slice(lo, lo + _ROW_BLOCK) if order is None else order[lo:lo + _ROW_BLOCK]
            cols = [[names[i] for i in image[part].tolist()], map(str, index[part].tolist()),
                    *(_texts(c[part], ".0", repr) for c in boxes),
                    *(map(repr, c[part].tolist()) for c in ratios)]
            yield "\n".join(map("\t".join, zip(*cols))) + "\n"

    return texts()


def _gt_texts(annset: AnnotationSet, policy: str) -> Iterator[str]:
    """The GT file's texts, one per run; a bad policy raises here, at once."""
    format_coord(0.0, policy)  # raises on an unknown policy
    # a table hit is a whole number, which every policy writes bare
    coord = functools.partial(format_coord, policy=policy)
    boxes, flags = annset.boxes, annset.flags

    def rows(lo: int, hi: int) -> list[str]:
        cols = [_texts(c, "", coord) for c in boxes[lo:hi].T]
        cols.append(_flag_texts(flags[lo:hi]))
        return list(map(" ".join, zip(*cols)))

    return map("".join, _record_text(annset.paths, annset.offsets, rows,
                                     empty=("0 0 0 0 0 0 0 0 0 0",)))


def write_wider_gt(annset: AnnotationSet, stream: TextIO, policy: str = "decimal") -> None:
    """Write records in input order; see format_coord for the number policy.

    Zero-face images emit the all-zero dummy line so that parse -> write is
    byte-identical on canonical files.  An unknown policy raises ValueError
    before anything is written, whether or not the set has rows.
    """
    stream.writelines(_gt_texts(annset, policy))


def load_wider_gt(path: str | Path) -> AnnotationSet:
    p = Path(path)
    return _parse_gt(_read_file(p), str(p))


def save_wider_gt(annset: AnnotationSet, path: str | Path, policy: str = "decimal") -> None:
    """write_wider_gt over the file at path, opened once the policy is checked."""
    _write_file(path, _gt_texts(annset, policy))


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
    return _detections(*_parse(text, sources, bounds, "detection", _DETECTION_ROW,
                               _detection_rules, fault=fault, keys=keys))


def parse_detections_file(source: str | TextIO, name: str = "<dets>") -> DetectionSet:
    """Load the consolidated single-file detection format.

    Records use the same layout as per-image files concatenated; the name
    line is the image key verbatim (e.g. "0--Parade/x.jpg").
    """
    return _parse_detections(_Text(_source_bytes(source, name)), name)


def _parse_detections(text: _Text, name: str) -> DetectionSet:
    return _detections(*_parse(text, [name], [0, text.n], "detection", _DETECTION_ROW,
                               _detection_rules))


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
    cols = [_texts(c, "", format_coord) for c in detset.boxes[lo:hi].T]
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
    folders = {os.sep.join(parts[:k]) or ".": key for rel, key in files.items()  # Path.parents
               for parts in [rel.split(os.sep)] for k in range(len(parts) - 1, -1, -1)}
    clash = next((rel for rel in files if rel in folders), None)
    if clash is not None:
        raise ValueError(f"detection image {files[clash]!r} would be written to "
                         f"{os.path.join(root, clash)}, a directory of {folders[clash]!r}")
    for folder in {".", *folders}:
        os.makedirs(os.path.join(root, folder), exist_ok=True)
    offsets = detset.offsets
    texts = chain.from_iterable(_record_text([Path(key).stem for key in files.values()], offsets,
                                             functools.partial(_detection_rows, detset)))
    # a record comes in one text per run of _ROW_BLOCK rows it spans, at least one
    spans = (offsets[1:] - 1) // _ROW_BLOCK - offsets[:-1] // _ROW_BLOCK + 1
    prefix = os.path.join(root, "")
    for rel, parts in zip(files, np.maximum(spans, 1).tolist()):
        _write_file(prefix + rel, islice(texts, parts))


def _detection_file_texts(detset: DetectionSet) -> Iterator[str]:
    """The single-file layout's texts, one per run; name lines are the keys."""
    return map("".join, _record_text(detset.paths, detset.offsets,
                                     functools.partial(_detection_rows, detset)))


def write_detections_file(detset: DetectionSet, stream: TextIO) -> None:
    """Write the consolidated single-file layout; name lines are the keys."""
    stream.writelines(_detection_file_texts(detset))


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
