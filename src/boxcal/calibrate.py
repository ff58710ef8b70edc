"""Replacement of misaligned annotation boxes with high-confidence detections.

Per image the procedure is:

1. Keep the prefix of score-sorted detections whose scores strictly exceed
   the dataset's average detection confidence (the HCDRs).
2. Take each HCDR's max IoU against the ORIGINAL annotation boxes and the
   lowest-indexed annotation reaching it.  Only candidate pairs are
   computed: with the annotations sorted by left edge, an HCDR's candidates
   form one contiguous run, and every pair outside it has no horizontal
   overlap, so its IoU is exactly 0.  This is the only IoU pass: each
   HCDR's max over all annotations is kept as `CalibrationResult.hcdr_ious`,
   which the report's histogram and `boxcal stats` bin.
3. A detection claims its argmax annotation when the max IoU lies inside
   the closed calibration interval [t_m, t_c] and no stronger detection
   claimed it already; otherwise the detection is dropped (no fallback to
   its second-best annotation).  Without fallback, an annotation's claimer
   is simply the first in-interval detection, in descending-score order,
   whose argmax it is.
4. Each claimed annotation's box is replaced by its detection's box.
   Attribute flags are untouched.

One vectorised kernel runs these steps on the columnar tables the parsers
build: `align` checks them and reindexes the detection table to the
annotation images (a table already in their order is kept as it is),
step 1 (`_hcdr_counts`) is a per-image count of scores above the
threshold, step 2 (`_match`) runs over blocks of consecutive images
holding at most `_ROW_BUDGET` annotation and HCDR rows, scores candidate
pairs in runs of HCDRs holding at most `_ROW_BUDGET` pairs and never reads
the interval, step 3 (`_resolve`) applies it and is a single `np.unique`
over annotation rows for the whole dataset, since claims never cross
images, and step 4 is one indexed assignment into a copy of the box
column.  Only the per-HCDR outputs of step 2 grow with the dataset; its
temporaries are bounded by that one budget.  The claims come out as
columns too, a `ClaimTable`, the tables' type built only from columns;
their `MbpRecord` objects are a read-only row view, built only when
something reads them.

Every matching decision uses the original geometry; replacements never feed
back into the same pass.  The procedure is single-pass: a second application
to its own output is a different (and not generally idempotent) operation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .adc import AdcResult, compute_adc
from .formats import (_FLAG_RANGES, AnnotationSet, DetectionSet, _blocks, _Columns, _offsets,
                      _segment_rows, align)
from .geometry import BBox, iou_cells

log = logging.getLogger(__name__)

DEFAULT_T_M = 0.5
DEFAULT_T_C = 0.8

# the invalid flag's column in AnnotationSet.flags
_INVALID = [name for name, _, _ in _FLAG_RANGES].index("invalid")


@dataclass(frozen=True, slots=True)
class CalibrationConfig:
    t_m: float = DEFAULT_T_M            # matching threshold (interval lower edge)
    t_c: float = DEFAULT_T_C            # calibration threshold (interval upper edge)
    adc_override: float | None = None   # fixed confidence threshold, skips the average
    include_invalid: bool = True        # let invalid-flagged annotations be matched/replaced

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_m < self.t_c <= 1.0:
            raise ValueError(
                f"t_m < t_c required, with 0 <= t_m and t_c <= 1 "
                f"(got t_m={self.t_m}, t_c={self.t_c})")
        if self.adc_override is not None and not 0.0 <= self.adc_override <= 1.0:
            raise ValueError(f"adc override must lie in [0, 1], got {self.adc_override}")


@dataclass(frozen=True, slots=True)
class MbpRecord:
    """One replaced annotation: which detection claimed which annotation."""

    path: str
    det_index: int      # position in the image's score-sorted detection list
    ann_index: int      # position k in the image's annotation list
    iou: float          # max IoU of the detection vs the original annotations
    score: float
    old_box: BBox
    new_box: BBox


class ClaimTable(_Columns):
    """The replaced annotations, one row per claim, in image order, then
    score order: `image` (a position in `paths`, the dataset's image paths),
    `det_index` (the claiming detection's position in its image's
    score-sorted detections), `ann_index` (the claimed annotation's position
    in its image), `iou` (the detection's max IoU against the original
    annotations), `score`, and `old_boxes` and `new_boxes` (x y w h: the box
    replaced and the detection box put in its place).  `records` is the row
    view, one MbpRecord per claim."""

    __slots__ = ()
    _COLUMNS = (("image", np.int64, ()), ("det_index", np.int64, ()),
                ("ann_index", np.int64, ()), ("iou", np.float64, ()), ("score", np.float64, ()),
                ("old_boxes", np.float64, (4,)), ("new_boxes", np.float64, (4,)))
    _ROW = MbpRecord

    records = property(_Columns._cached_view)


@dataclass(slots=True)
class CalibrationCounters:
    images_processed: int = 0
    hcdrs_considered: int = 0
    skipped_out_of_interval: int = 0
    skipped_already_claimed: int = 0


@dataclass(frozen=True)
class CalibrationResult:
    calibrated: AnnotationSet
    claims: ClaimTable
    counters: CalibrationCounters
    wall_time: float
    effective_adc: float
    # each HCDR's max IoU over ALL its image's annotations (invalid ones
    # included), in image order, then score order; images without
    # annotations contribute nothing
    hcdr_ious: np.ndarray
    adc: AdcResult | None = None  # None when the threshold was overridden
    config: CalibrationConfig = field(default_factory=CalibrationConfig)

    @property
    def mbps(self) -> list[MbpRecord]:
        """The claims' row view, one MbpRecord per claim."""
        return self.claims.records


def _keys(img: np.ndarray, coord: np.ndarray) -> np.ndarray:
    """(image, coordinate) pairs as complex numbers, which numpy sorts,
    searches and takes maxima of lexicographically; `align` keeps coord finite."""
    return img + 1j * coord


def _candidate_runs(n_faces: np.ndarray, ax: np.ndarray, aw: np.ndarray,
                    n_rows: np.ndarray, px: np.ndarray, pw: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the annotations by (image, left edge) and give each HCDR the run
    [lo, hi) of that order outside of which no annotation can overlap it.
    n_faces and n_rows count each image's annotations and HCDRs.

    The run ends at the image's first annotation with ax >= px+pw and starts
    at the first position where the image's running max of ax+aw exceeds
    px.  These are the sums `iou_cells` forms, so every pair left out has
    intersection width <= 0 and IoU exactly 0.  The searches run on
    (image, coordinate) keys, so each stays inside its own image.
    """
    ann_img = np.repeat(np.arange(len(n_faces)), n_faces)
    row_img = np.repeat(np.arange(len(n_rows)), n_rows)
    left = _keys(ann_img, ax)
    order = np.argsort(left, kind="stable")   # ann_img is nondecreasing: it stays put
    hi = np.searchsorted(left[order], _keys(row_img, px + pw), side="left")
    right_max = np.maximum.accumulate(_keys(ann_img, (ax + aw)[order]))
    lo = np.searchsorted(right_max, _keys(row_img, px), side="right")
    return order, lo, np.maximum(lo, hi)


def _hcdr_counts(anns: AnnotationSet, dets: DetectionSet, adc: float) -> np.ndarray:
    """Each image's HCDR count: its detections scoring strictly above adc,
    a prefix of its score-sorted run; none for an image without
    annotations, which has no IoU to take."""
    above = _offsets(dets.scores > adc)
    counts = above[dets.offsets[1:]] - above[dets.offsets[:-1]]
    return np.where(anns.offsets[1:] > anns.offsets[:-1], counts, 0)


def _match(anns: AnnotationSet, dets: DetectionSet, n_rows: np.ndarray, include_invalid: bool
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each HCDR's IoU maxima against its image's annotations.

    dets is aligned to anns, and image i's HCDRs are the first n_rows[i] of
    its detections.  Returns, per HCDR in (image, score) order: the max over
    all annotations; the max over eligible ones (valid ones only unless
    include_invalid; the same array when every annotation is eligible) and
    the table row of its lowest annotation, or of the image's first
    eligible one when that max is 0; and whether the image has an eligible
    annotation at all.  Images are matched in runs of at most _ROW_BUDGET
    annotation and HCDR rows; in each, IoU is computed only on each HCDR's
    candidate run (every other cell is exactly 0), in runs of HCDRs holding
    at most _ROW_BUDGET pairs.  Only the outputs grow with the dataset.
    """
    hcdr_off = _offsets(n_rows)
    n = int(hcdr_off[-1])
    max_all, arg, has_eligible = np.zeros(n), np.zeros(n, np.int64), np.zeros(n, bool)
    best = max_all if include_invalid else np.zeros(n)
    for i, j in _blocks(anns.offsets + hcdr_off):
        ann_off, rows = anns.offsets[i:j + 1], n_rows[i:j]
        a, b, h = int(ann_off[0]), int(ann_off[-1]), int(hcdr_off[i])
        eligible = include_invalid | (anns.flags[a:b, _INVALID] == 0)
        eligible_at = np.append(np.flatnonzero(eligible) + a, b)
        first_col = eligible_at[np.searchsorted(eligible_at, ann_off[:-1])]
        out = slice(h, int(hcdr_off[j]))
        has_eligible[out] = np.repeat(first_col < ann_off[1:], rows)
        arg[out] = np.repeat(first_col, rows)

        ax, ay, aw, ah = anns.boxes[a:b].T
        px, py, pw, ph = dets.boxes[_segment_rows(dets.offsets[i:j], rows)].T
        order, lo, hi = _candidate_runs(np.diff(ann_off), ax, aw, rows, px, pw)
        counts = hi - lo
        pair_off = _offsets(counts)
        for r0, r1 in _blocks(pair_off):
            hit = np.flatnonzero(counts[r0:r1]) + r0     # rows with candidates
            if hit.size:
                c = counts[hit]
                seg = pair_off[hit] - pair_off[r0]
                row = np.repeat(hit, c)
                col = order[_segment_rows(lo[hit], c)]   # numbered within the run
                ious = iou_cells(px[row], py[row], pw[row], ph[row],
                                 ax[col], ay[col], aw[col], ah[col])
                hit += h
                max_all[hit] = np.maximum.reduceat(ious, seg)
                if not include_invalid:
                    ious[~eligible[col]] = -1.0
                    best[hit] = np.maximum(np.maximum.reduceat(ious, seg), 0.0)
                # ties go to the lowest column among the cells equal to a positive max
                top = (ious == np.repeat(best[hit], c)) & (ious > 0)
                low = np.minimum.reduceat(np.where(top, col, len(ax)), seg)
                found = low < len(ax)
                arg[hit[found]] = low[found] + a
    return max_all, best, arg, has_eligible


def _resolve(best: np.ndarray, arg: np.ndarray, considered: np.ndarray,
             t_m: float, t_c: float) -> tuple[np.ndarray, np.ndarray]:
    """The claim rule on `_match`'s outputs: the rows whose eligible max IoU
    lies in the closed interval [t_m, t_c], and those of them that claim
    their argmax annotation, in (image, score) order.  Claims never fall
    back, so an annotation's claimer is the first in-interval row pointing at it."""
    inside = np.flatnonzero(considered & (t_m <= best) & (best <= t_c))
    claimed = np.sort(inside[np.unique(arg[inside], return_index=True)[1]])
    return inside, claimed


def calibrate_dataset(anns: AnnotationSet, dets: DetectionSet,
                      cfg: CalibrationConfig | None = None, *,
                      threads: int = 1) -> CalibrationResult:
    """Calibrate a whole dataset: `align`, the threshold, each image's HCDR
    count, one `_match` and one `_resolve`, then the claims applied.

    The confidence threshold is the computed dataset average unless
    cfg.adc_override pins it.  threads must be >= 1 and is kept for
    compatibility only: the kernel is a single vectorised pass, so the
    value changes neither speed nor output.  `align` raises ValueError on
    the tables the kernel does not take.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if cfg is None:
        cfg = CalibrationConfig()
    t0 = perf_counter()
    if not anns.paths:
        log.warning("empty annotation set; nothing to calibrate")
    aligned = align(anns, dets)

    adc_result: AdcResult | None
    if cfg.adc_override is not None:
        adc_result = None
        effective_adc = cfg.adc_override
    else:
        adc_result = compute_adc(anns, aligned)
        effective_adc = adc_result.value

    n_rows = _hcdr_counts(anns, aligned, effective_adc)
    max_all, best, arg, considered = _match(anns, aligned, n_rows, cfg.include_invalid)
    inside, claimed = _resolve(best, arg, considered, cfg.t_m, cfg.t_c)

    hcdr_off = _offsets(n_rows)
    img = np.searchsorted(hcdr_off, claimed, side="right") - 1
    det_index = claimed - hcdr_off[img]
    ann, det = arg[claimed], aligned.offsets[img] + det_index
    boxes = anns.boxes.copy()
    boxes[ann] = aligned.boxes[det]
    n_considered = int(considered.sum())
    return CalibrationResult(
        calibrated=AnnotationSet(paths=anns.paths, offsets=anns.offsets, boxes=boxes,
                                 flags=anns.flags),
        claims=ClaimTable(paths=anns.paths, image=img, det_index=det_index,
                          ann_index=ann - anns.offsets[img], iou=best[claimed],
                          score=aligned.scores[det], old_boxes=anns.boxes[ann],
                          new_boxes=boxes[ann]),
        counters=CalibrationCounters(
            images_processed=len(n_rows),
            hcdrs_considered=n_considered,
            skipped_out_of_interval=n_considered - len(inside),
            skipped_already_claimed=len(inside) - len(claimed),
        ),
        wall_time=perf_counter() - t0,
        effective_adc=effective_adc,
        hcdr_ious=max_all,
        adc=adc_result,
        config=cfg,
    )
