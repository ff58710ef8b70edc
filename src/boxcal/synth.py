"""Seeded synthetic datasets, controlled misalignment, and a brute-force oracle.

Everything here is a pure function of (inputs, seed).  Randomness comes from
random.Random seeded with strings like "7:gt"; string seeding is hashed with
SHA-512 by the interpreter, so the streams reproduce across platforms and
interpreter versions.

Misalignment is injected by shifting a box along one axis.  For two
equal-size boxes of width w offset by d on that axis, IoU = (w - d)/(w + d),
so d = w * (1 - t)/(1 + t) hits a target IoU of t in closed form.  No
search, no tolerance juggling: recovery tests can demand exact box equality.
The shifts are taken on the columns, and recorded in a PerturbLedger, a
table of the same type as the annotations; `ledger.tsv` is its TSV.

oracle_calibrate is a deliberately naive re-implementation of the
calibration scan.  It enumerates every (detection, annotation) pair with a
quadratic loop and its own scalar IoU arithmetic, sharing no matrix,
sorting, or early-exit code with the calibrate module.  Agreement between
the two is the point; keep them independent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter
from typing import TextIO

import numpy as np

from .adc import AdcResult
from .calibrate import CalibrationConfig, CalibrationCounters, CalibrationResult, ClaimTable
from .formats import AnnotationSet, Detection, DetectionSet, _Columns, _ledger_text, _offsets
from .geometry import BBox, check_boxes, iou_cells

_PLACEMENT_TRIES = 1000


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Shape of a generated dataset.  Ranges are inclusive (min, max) pairs."""

    seed: int
    n_images: int
    faces_per_image: tuple[int, int] = (1, 5)
    image_size: tuple[int, int] = (1024, 1024)
    box_size: tuple[int, int] = (16, 64)
    aligned_score_range: tuple[float, float] = (0.9, 1.0)
    distractor_score_range: tuple[float, float] = (0.0, 0.2)
    distractors_per_image: tuple[int, int] = (0, 0)
    min_gap: float = 0.0  # 0 disables the separation constraint; faces may overlap

    def __post_init__(self) -> None:
        if self.n_images < 0:
            raise ValueError(f"n_images must be >= 0, got {self.n_images}")
        for name in ("faces_per_image", "box_size", "distractors_per_image"):
            lo, hi = getattr(self, name)
            if lo < 0 or lo > hi:
                raise ValueError(f"{name} needs 0 <= min <= max, got ({lo}, {hi})")
        for name in ("aligned_score_range", "distractor_score_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} needs 0 <= min <= max <= 1, got ({lo}, {hi})")
        w, h = self.image_size
        if w < 1 or h < 1:
            raise ValueError(f"image_size must be positive, got {self.image_size}")
        if self.box_size[0] < 1:
            raise ValueError(f"box_size minimum must be >= 1, got {self.box_size[0]}")
        if self.box_size[1] > min(w, h):
            raise ValueError(
                f"infeasible: boxes up to {self.box_size[1]} px cannot fit a "
                f"{w}x{h} image")
        if not self.min_gap >= 0:  # nan as well
            raise ValueError(f"min_gap must be >= 0, got {self.min_gap}")


@dataclass(frozen=True, slots=True)
class PerturbEntry:
    path: str
    ann_index: int
    true_box: BBox
    perturbed_box: BBox
    achieved_iou: float


class PerturbLedger(_Columns):
    """The shifted boxes, one row per box, in table order: `image` (a
    position in `paths`, the set's image paths), `ann_index` (the box's
    position in its image), `true_boxes` and `perturbed_boxes` (x y w h,
    before and after the shift) and `achieved_iou`, the IoU of the two.
    `entries` is the row view, one PerturbEntry per box."""

    __slots__ = ()
    _COLUMNS = (("image", np.int64, ()), ("ann_index", np.int64, ()),
                ("true_boxes", np.float64, (4,)), ("perturbed_boxes", np.float64, (4,)),
                ("achieved_iou", np.float64, ()))
    _ROW = PerturbEntry

    entries = property(_Columns._cached_view)


def _xywh(b: BBox) -> tuple[float, float, float, float]:
    return b.x, b.y, b.w, b.h


def _separated(a: BBox, b: BBox, gap: float) -> bool:
    return (a.x + a.w + gap <= b.x or b.x + b.w + gap <= a.x
            or a.y + a.h + gap <= b.y or b.y + b.h + gap <= a.y)


def _random_box(rng: random.Random, spec: SynthSpec) -> BBox:
    bw = rng.randint(spec.box_size[0], spec.box_size[1])
    bh = rng.randint(spec.box_size[0], spec.box_size[1])
    x = rng.randint(0, spec.image_size[0] - bw)
    y = rng.randint(0, spec.image_size[1] - bh)
    return BBox(float(x), float(y), float(bw), float(bh))


def _place_box(rng: random.Random, spec: SynthSpec, placed: list[BBox]) -> BBox:
    if spec.min_gap == 0:
        return _random_box(rng, spec)
    for _ in range(_PLACEMENT_TRIES):
        box = _random_box(rng, spec)
        if all(_separated(box, other, spec.min_gap) for other in placed):
            return box
    raise ValueError(
        f"could not place a face with min_gap={spec.min_gap} after "
        f"{_PLACEMENT_TRIES} tries; enlarge the image or reduce faces/gap")


def generate_dataset(spec: SynthSpec) -> AnnotationSet:
    """Deterministic annotation set: integer-coordinate boxes, seeded flags.

    With min_gap = 0 faces may overlap freely; a positive min_gap keeps every
    pair of faces separated by at least that many pixels on some axis
    (rejection-sampled, raising ValueError for infeasible specs).
    """
    rng = random.Random(f"{spec.seed}:gt")
    paths: list[str] = []
    counts: list[int] = []
    rows: list[float] = []  # x y w h blur expression illumination invalid occlusion pose
    for i in range(spec.n_images):
        paths.append(f"d{i // 1000:03d}/img{i:06d}.jpg")
        n_faces = rng.randint(spec.faces_per_image[0], spec.faces_per_image[1])
        placed: list[BBox] = []
        for _ in range(n_faces):
            box = _place_box(rng, spec, placed)
            placed.append(box)
            rows += (*_xywh(box), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1), 0,
                     rng.randint(0, 2), rng.randint(0, 1))
        counts.append(n_faces)
    values = np.array(rows, np.float64).reshape(-1, 10)
    return AnnotationSet(paths=paths, offsets=_offsets(counts),
                         boxes=values[:, :4], flags=values[:, 4:])


def check_perturbation(fraction: float, iou_range: tuple[float, float]) -> None:
    """Raise ValueError for the values `perturb` rejects."""
    lo, hi = iou_range
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError(f"iou_range needs 0 < lo <= hi < 1, got ({lo}, {hi})")
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")


def perturb(annset: AnnotationSet, seed: int, fraction: float,
            iou_range: tuple[float, float], *,
            image_size: tuple[int, int] | None = None) -> tuple[AnnotationSet, PerturbLedger]:
    """Shift a seeded floor(fraction * K) of the boxes to an exact target IoU.

    Each selected box of width w moves along +x by d = w * (1 - t)/(1 + t)
    for a seeded target t drawn uniformly from iou_range; the shift flips to
    -x when image_size is given and +x would push the box past the right
    edge (no further fallback).  Flags are untouched.  Zero-area boxes are
    not eligible: they have no IoU to target.
    """
    check_perturbation(fraction, iou_range)
    boxes = annset.boxes
    eligible = np.flatnonzero((boxes[:, 2] > 0) & (boxes[:, 3] > 0))
    count = math.floor(fraction * len(eligible))
    rng = random.Random(f"{seed}:perturb")
    chosen = eligible[sorted(rng.sample(range(len(eligible)), count))]
    t = np.array([rng.uniform(*iou_range) for _ in range(count)], np.float64)
    true_boxes = boxes[chosen]
    x, y, w, h = true_boxes.T
    d = w * (1.0 - t) / (1.0 + t)
    new_x = x + d
    if image_size is not None:
        new_x = np.where(new_x + w > image_size[0], x - d, new_x)
    moved = np.column_stack((new_x, y, w, h))
    check_boxes(np.hstack((true_boxes, moved)).reshape(-1, 4))  # true, then moved, per row
    out = boxes.copy()
    out[chosen] = moved
    image = np.searchsorted(annset.offsets, chosen, side="right") - 1
    return (AnnotationSet(paths=annset.paths, offsets=annset.offsets, boxes=out,
                          flags=annset.flags),
            PerturbLedger(paths=annset.paths, image=image,
                          ann_index=chosen - annset.offsets[image], true_boxes=true_boxes,
                          perturbed_boxes=moved,
                          achieved_iou=iou_cells(new_x, y, w, h, x, y, w, h)))


def emit_detections(truth: AnnotationSet, spec: SynthSpec) -> DetectionSet:
    """One true-box detection per face plus seeded distractors, sorted per image.

    Aligned detections carry the TRUE (pre-perturbation) boxes, so feed this
    the unperturbed set.  Scores come from ``spec.aligned_score_range``;
    distractors get random boxes and scores from the distractor range.
    """
    rng = random.Random(f"{spec.seed}:detections")
    boxes = truth.boxes.tolist()
    bounds = truth.offsets.tolist()
    counts: list[int] = []
    rows: list[tuple] = []  # score, x, y, w, h
    for lo, hi in zip(bounds, bounds[1:]):
        dets = [(rng.uniform(spec.aligned_score_range[0], spec.aligned_score_range[1]), *b)
                for b in boxes[lo:hi]]
        n_extra = rng.randint(spec.distractors_per_image[0], spec.distractors_per_image[1])
        for _ in range(n_extra):
            box = _random_box(rng, spec)
            dets.append((rng.uniform(spec.distractor_score_range[0],
                                     spec.distractor_score_range[1]), *_xywh(box)))
        dets.sort(key=itemgetter(0), reverse=True)
        rows += dets
        counts.append(len(dets))
    values = np.array(rows, np.float64).reshape(-1, 5)
    return DetectionSet(paths=truth.paths, offsets=_offsets(counts),
                        boxes=values[:, 1:], scores=values[:, 0])


def write_perturb_ledger(ledger: PerturbLedger, stream: TextIO) -> None:
    names = ledger.paths  # read once: each read of the column is a call
    stream.write(_ledger_text(
        ("path", "ann_index", "true_x", "true_y", "true_w", "true_h",
         "pert_x", "pert_y", "pert_w", "pert_h", "achieved_iou"),
        [names[i] for i in ledger.image.tolist()], ledger.ann_index.tolist(),
        [*ledger.true_boxes.T, *ledger.perturbed_boxes.T], [ledger.achieved_iou]))


def _plain_iou(a: BBox, b: BBox) -> float:
    # Same operation order as the geometry module so results agree bit for
    # bit, but written out independently on purpose.
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    overlap = ix * iy
    combined = a.w * a.h + b.w * b.h - overlap
    if math.isinf(combined):
        # the areas' sum overflowed: the same ratio from halves, each exact
        overlap, combined = overlap / 2, a.w * a.h / 2 + b.w * b.h / 2 - overlap / 2
    if combined <= 0:
        return 0.0
    ratio = overlap / combined
    return ratio if ratio < 1.0 else 1.0


def oracle_calibrate(anns: AnnotationSet, dets: DetectionSet,
                     cfg: CalibrationConfig | None = None) -> CalibrationResult:
    """Reference calibration by exhaustive enumeration.

    Joins annotations to detections itself, without `align`, raising for
    the inputs calibrate_dataset rejects: its row view rejects an invalid
    box or a non-finite flag, its own checks a non-finite score, a repeated
    image path and detections out of score order.  It recomputes the
    confidence average with its own accumulator, filters high-confidence
    detections by plain comparison instead of a prefix scan, and finds each
    detection's best annotation with a quadratic loop over all pairs.  Claims resolve in
    descending-score order against an explicit taken-set.  Each strong
    detection's max IoU over all annotations (hcdr_ious) comes from a
    separate loop that ignores the candidate set.  It walks the row view
    of its inputs and returns column tables whose paths are anns.paths, as
    calibrate_dataset's are.  Intended for equivalence testing against
    calibrate_dataset, not for large datasets.
    """
    if cfg is None:
        cfg = CalibrationConfig()
    t0 = perf_counter()

    by_path: dict[str, list[Detection]] = {}
    for det_img in dets.images:
        if det_img.path in by_path:
            raise ValueError(f"duplicate detection image path {det_img.path!r}")
        scores = [d.score for d in det_img.dets]
        if not all(map(math.isfinite, scores)):
            raise ValueError(f"detections for {det_img.path!r} hold a non-finite score")
        if any(later > earlier for earlier, later in zip(scores, scores[1:])):
            raise ValueError(f"detections for {det_img.path!r} are not sorted by descending score")
        by_path[det_img.path] = det_img.dets
    ann_paths: set[str] = set()
    for img in anns.images:
        if img.path in ann_paths:
            raise ValueError(f"duplicate annotation image path {img.path!r}")
        ann_paths.add(img.path)
    joined = [(img, by_path.get(img.path, [])) for img in anns.images]

    adc_result: AdcResult | None
    if cfg.adc_override is not None:
        adc_result = None
        threshold = cfg.adc_override
    else:
        total = 0.0
        used_total = 0
        images_used = 0
        shortfall = 0
        for img, dlist in joined:
            if len(dlist) < len(img.faces):
                shortfall += 1
            used = min(len(img.faces), len(dlist))
            if used == 0:
                continue
            for det in dlist[:used]:  # loaders keep detections score-sorted
                total += det.score
            used_total += used
            images_used += 1
        if used_total == 0:
            adc_result = AdcResult(0.0, 0.0, 0, 0, shortfall)
        else:
            adc_result = AdcResult(total / used_total, total, used_total,
                                   images_used, shortfall)
        threshold = adc_result.value

    counters = CalibrationCounters(images_processed=len(joined))
    out_boxes: list[tuple[float, float, float, float]] = []
    claims: list[tuple] = []  # image, det_index, ann_index, iou, score, old box, new box
    hcdr_ious: list[float] = []
    for i, (img, dlist) in enumerate(joined):
        first = len(out_boxes)
        out_boxes += [_xywh(f.box) for f in img.faces]
        if not img.faces:
            continue
        strong = [d for d in dlist if d.score > threshold]
        for det in strong:
            hcdr_ious.append(max(_plain_iou(det.box, f.box) for f in img.faces))
        if cfg.include_invalid:
            candidates = list(range(len(img.faces)))
        else:
            candidates = [k for k, f in enumerate(img.faces) if not f.invalid]
        if not strong or not candidates:
            continue
        counters.hcdrs_considered += len(strong)

        taken: set[int] = set()
        for j, det in enumerate(strong):
            best = -1.0
            best_k = -1
            for k in candidates:
                v = _plain_iou(det.box, img.faces[k].box)
                if v > best:  # strict: ties keep the lowest annotation index
                    best = v
                    best_k = k
            if cfg.t_m <= best <= cfg.t_c:
                if best_k in taken:
                    counters.skipped_already_claimed += 1
                else:
                    taken.add(best_k)
                    claims.append((i, j, best_k, best, det.score,
                                   _xywh(img.faces[best_k].box), _xywh(det.box)))
                    out_boxes[first + best_k] = _xywh(det.box)
            else:
                counters.skipped_out_of_interval += 1

    image, det_index, ann_index, ious, scores, old_boxes, new_boxes = (
        [list(column) for column in zip(*claims)] or [[]] * 7)
    return CalibrationResult(
        calibrated=AnnotationSet(paths=anns.paths, offsets=anns.offsets, boxes=out_boxes,
                                 flags=anns.flags),
        claims=ClaimTable(paths=anns.paths, image=image, det_index=det_index,
                          ann_index=ann_index, iou=ious, score=scores,
                          old_boxes=old_boxes, new_boxes=new_boxes),
        counters=counters,
        wall_time=perf_counter() - t0,
        effective_adc=threshold,
        hcdr_ious=np.array(hcdr_ious, dtype=np.float64),
        adc=adc_result,
        config=cfg,
    )
