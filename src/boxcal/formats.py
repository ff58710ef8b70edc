"""Parsing and writing of WIDER-style annotation and detection files.

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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO

from .geometry import BBox

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


@dataclass(frozen=True)
class AnnotationSet:
    images: list[ImageAnnotations] = field(default_factory=list)

    def total_faces(self) -> int:
        return sum(len(img.faces) for img in self.images)


@dataclass(frozen=True, slots=True)
class Detection:
    box: BBox
    score: float


@dataclass(frozen=True)
class ImageDetections:
    path: str
    dets: list[Detection] = field(default_factory=list)  # sorted descending by score


@dataclass(frozen=True)
class DetectionSet:
    images: list[ImageDetections] = field(default_factory=list)

    def total_detections(self) -> int:
        return sum(len(img.dets) for img in self.images)


def _decode_error(source: str, exc: UnicodeDecodeError) -> ParseError:
    """ParseError on the line of the byte that failed to decode; exc.object
    holds the bytes from where decoding started."""
    head = exc.object[:exc.start]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return ParseError(source, line,
                      f"not {exc.encoding.upper()}: {exc.reason} 0x{exc.object[exc.start]:02x}")


def _read_file(path: Path) -> str:
    """The file's text; a byte that is not UTF-8 raises ParseError on its line."""
    try:
        return path.read_bytes().decode("utf-8")
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


def _records(lines: list[str], source: str, noun: str, fields: int,
             zero_dummy: bool = False) -> Iterator[tuple[str, int, Iterator[tuple[float, ...]]]]:
    """Walk the records of an annotation or detection file: the one copy of
    their grammar.

    Yields (name, lineno, rows) per record: rows iterates over the record's
    rows as tuples of `fields` floats, and row k sits on 1-based line
    lineno + k.  Blank lines between records are skipped.  With zero_dummy,
    an all-zero row after a zero-count record is consumed and dropped.
    Raises ParseError on a name without a count line, a non-numeric or
    negative count, a record cut short by the end of the file, a row with
    the wrong number of fields or a non-numeric one, and a repeated name.
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
        vals: list[float] = []  # flat: a list per row costs the GC more on large records
        for lineno, line in enumerate(lines[i:i + count], i + 1):
            tokens = line.split()
            if len(tokens) != fields:
                raise ParseError(source, lineno,
                                 f"expected {fields} fields on {noun} line, got {len(tokens)}")
            try:
                vals.extend(map(float, tokens))
            except ValueError:
                raise ParseError(source, lineno, f"non-numeric field in {tokens!r}") from None
        start = i + 1
        i += count
        if zero_dummy and count == 0 and i < n and _is_zero_dummy_line(lines[i]):
            i += 1  # the WIDER zero-face placeholder row
        yield name, start, zip(*[iter(vals)] * fields)


def parse_wider_gt(source: str | TextIO, name: str = "<gt>") -> AnnotationSet:
    """Parse a WIDER ground-truth annotation file.

    Raises ParseError (with line number) on bytes the stream cannot decode,
    a non-numeric or negative face count, a truncated record, a malformed
    attribute line, a duplicate image path, box values that are non-finite,
    negative-size or whose far edge or area overflows, or a non-finite
    attribute flag.  Out-of-range attribute flags only produce a warning.
    """
    records = _records(_lines(source, name), name, "face", 10, zero_dummy=True)
    return AnnotationSet(images=[
        ImageAnnotations(path=path, faces=[_face(vals, name, k) for k, vals in enumerate(rows, lineno)])
        for path, lineno, rows in records])


def _face(vals: tuple[float, ...], source: str, lineno: int) -> FaceAnnotation:
    try:
        box = BBox(vals[0], vals[1], vals[2], vals[3])
    except ValueError as exc:
        raise ParseError(source, lineno, str(exc)) from None
    flags = []
    for (flag_name, lo, hi), v in zip(_FLAG_RANGES, vals[4:]):
        if not math.isfinite(v):
            raise ParseError(source, lineno, f"non-finite {flag_name} flag {v!r}")
        f = int(v)
        if f != v or not lo <= f <= hi:
            log.warning("%s:%d: %s flag %r outside documented range [%d, %d]",
                        source, lineno, flag_name, v, lo, hi)
        flags.append(f)
    return FaceAnnotation(box, *flags)


def _is_zero_dummy_line(line: str) -> bool:
    tokens = line.split()
    if len(tokens) != 10:
        return False
    try:
        return all(float(t) == 0.0 for t in tokens)
    except ValueError:
        return False


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


def write_wider_gt(annset: AnnotationSet, stream: TextIO, policy: str = "decimal") -> None:
    """Write records in input order; see format_coord for the number policy.

    Zero-face images emit the all-zero dummy line so that parse -> write is
    byte-identical on canonical files.
    """
    out: list[str] = []
    for img in annset.images:
        out.append(img.path)
        out.append(str(len(img.faces)))
        if not img.faces:
            out.append("0 0 0 0 0 0 0 0 0 0")
        for f in img.faces:
            b = f.box
            out.append(" ".join((
                format_coord(b.x, policy), format_coord(b.y, policy),
                format_coord(b.w, policy), format_coord(b.h, policy),
                str(f.blur), str(f.expression), str(f.illumination),
                str(f.invalid), str(f.occlusion), str(f.pose),
            )))
    out.append("")  # trailing newline
    stream.write("\n".join(out))


def load_wider_gt(path: str | Path) -> AnnotationSet:
    p = Path(path)
    return parse_wider_gt(_read_file(p), name=str(p))


def save_wider_gt(annset: AnnotationSet, path: str | Path, policy: str = "decimal") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_wider_gt(annset, fh, policy)


def _detections(rows: Iterator[tuple[float, ...]], source: str, lineno: int) -> list[Detection]:
    """One record's rows as detections, sorted descending by score."""
    dets = []
    for k, (x, y, w, h, score) in enumerate(rows, lineno):
        if not math.isfinite(score):
            raise ParseError(source, k, f"non-finite score {score!r}")
        if not 0.0 <= score <= 1.0:
            log.warning("%s:%d: score %r outside [0, 1]", source, k, score)
        try:
            dets.append(Detection(BBox(x, y, w, h), score))
        except ValueError as exc:
            raise ParseError(source, k, str(exc)) from None
    # stable, so equal scores keep file order
    return sorted(dets, key=lambda d: d.score, reverse=True)


def parse_detections_dir(root: str | Path, image_ext: str = ".jpg") -> DetectionSet:
    """Load a mirrored directory tree of per-image detection files.

    Image key = file path relative to root, ".txt" replaced by image_ext.
    Detections are sorted descending by score after loading.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise NotADirectoryError(f"detection root {rootp} is not a directory")
    images: list[ImageDetections] = []
    for file in sorted(rootp.rglob("*.txt")):
        source = str(file)
        lines = _lines(_read_file(file), source)
        record = next(_records(lines, source, "detection", 5), None)
        if record is None:
            raise ParseError(source, 1, "per-image detection file holds no record")
        _, lineno, rows = record
        dets = _detections(rows, source, lineno)
        extra = next((k for k in range(lineno - 1 + len(dets), len(lines)) if lines[k].strip()), None)
        if extra is not None:
            raise ParseError(source, extra + 1,
                             f"file lists more than the declared {len(dets)} detections")
        rel = file.relative_to(rootp).as_posix()
        images.append(ImageDetections(path=rel[:-4] + image_ext, dets=dets))
    return DetectionSet(images=images)


def parse_detections_file(source: str | TextIO, name: str = "<dets>") -> DetectionSet:
    """Load the consolidated single-file detection format.

    Records use the same layout as per-image files concatenated; the name
    line is the image key verbatim (e.g. "0--Parade/x.jpg").
    """
    records = _records(_lines(source, name), name, "detection", 5)
    return DetectionSet(images=[ImageDetections(path=key, dets=_detections(rows, name, lineno))
                                for key, lineno, rows in records])


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


def align(anns: AnnotationSet, dets: DetectionSet) -> list[tuple[ImageAnnotations, ImageDetections]]:
    """Pair annotation and detection images by exact path key.

    Annotation images with no detection file get an empty detection list;
    detection images absent from the annotations are dropped.  Both cases are
    only warned about, so partial prediction runs stay usable.  Output order
    follows the annotation set.

    Raises ValueError, naming the image path, when two detection images share
    a path or an image's detections are not sorted by descending score:
    threshold selection relies on both.
    """
    by_path: dict[str, ImageDetections] = {}
    for d in dets.images:
        if d.path in by_path:
            raise ValueError(f"duplicate detection image path {d.path!r}")
        if any(a.score < b.score for a, b in zip(d.dets, d.dets[1:])):
            raise ValueError(f"detections for {d.path!r} are not sorted by descending score")
        by_path[d.path] = d
    pairs: list[tuple[ImageAnnotations, ImageDetections]] = []
    missing = 0
    for img in anns.images:
        d = by_path.pop(img.path, None)
        if d is None:
            d = ImageDetections(path=img.path, dets=[])
            missing += 1
        pairs.append((img, d))
    if missing:
        log.warning("%d annotation image(s) have no detections", missing)
    if by_path:
        log.warning("%d detection image(s) missing from the annotations were ignored", len(by_path))
    return pairs
