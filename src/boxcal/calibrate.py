"""Replacement of misaligned annotation boxes with high-confidence detections.

Per image the procedure is:

1. Keep the prefix of score-sorted detections whose scores strictly exceed
   the dataset's average detection confidence (the HCDRs).
2. Compute the IoU matrix of HCDR boxes against the ORIGINAL annotation
   boxes and take each detection's max/argmax over annotations.  This is
   the only IoU pass: each HCDR's max over all annotations is kept as
   `CalibrationResult.hcdr_ious`, which the report's histogram bins.
3. Scan detections in descending-score order.  A detection claims its argmax
   annotation when the max IoU lies inside the closed calibration interval
   [t_m, t_c] and that annotation is still unclaimed; otherwise the
   detection is dropped (no fallback to its second-best annotation).
4. After the scan, each claimed annotation's box is replaced by its
   detection's box.  Attribute flags are untouched.

Every matching decision uses the original geometry; replacements never feed
back into the same pass.  The procedure is single-pass: a second application
to its own output is a different (and not generally idempotent) operation.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .adc import AdcResult, compute_adc, select_hcdrs
from .formats import (AnnotationSet, Detection, DetectionSet, ImageAnnotations,
                      ImageDetections, align)
from .geometry import BBox, IoUMatrix, iou_matrix, row_max_argmax

log = logging.getLogger(__name__)

DEFAULT_T_M = 0.5
DEFAULT_T_C = 0.8


@dataclass(frozen=True, slots=True)
class CalibrationConfig:
    t_m: float = DEFAULT_T_M            # matching threshold (interval lower edge)
    t_c: float = DEFAULT_T_C            # calibration threshold (interval upper edge)
    adc_override: float | None = None   # fixed confidence threshold, skips the average
    rounding: str = "decimal"           # output box number policy, see formats.format_coord
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


@dataclass(slots=True)
class CalibrationCounters:
    images_processed: int = 0
    hcdrs_considered: int = 0
    skipped_out_of_interval: int = 0
    skipped_already_claimed: int = 0


@dataclass(frozen=True)
class CalibrationResult:
    calibrated: AnnotationSet
    mbps: list[MbpRecord]
    counters: CalibrationCounters
    wall_time: float
    effective_adc: float
    # each HCDR's max IoU over ALL its image's annotations (invalid ones
    # included), in image order, then score order; images without
    # annotations contribute nothing
    hcdr_ious: np.ndarray
    adc: AdcResult | None = None  # None when the threshold was overridden
    config: CalibrationConfig = field(default_factory=CalibrationConfig)


def _iou_against_all(hcdrs: list[Detection], anns: ImageAnnotations) -> IoUMatrix | None:
    """HCDRs (rows, score order) against every annotation (columns, file
    order); None when either side is empty."""
    if not hcdrs or not anns.faces:
        return None
    return iou_matrix([d.box for d in hcdrs], [f.box for f in anns.faces])


def hcdr_iou_matrix(anns: ImageAnnotations, dets: ImageDetections,
                    adc: float) -> tuple[list[Detection], IoUMatrix | None]:
    """An image's HCDRs and their IoU matrix against all its annotations.

    This is the one IoU computation behind calibration, the report's
    histogram and `boxcal stats`.  The matrix is None when the image has no
    annotations or no detection scores above adc.
    """
    hcdrs = select_hcdrs(dets, adc) if anns.faces else []
    return hcdrs, _iou_against_all(hcdrs, anns)


_NO_IOUS = np.zeros(0, dtype=np.float64)


def _calibrate_image(anns: ImageAnnotations, hcdrs: list[Detection], m: IoUMatrix | None,
                     cfg: CalibrationConfig
                     ) -> tuple[ImageAnnotations, list[MbpRecord], np.ndarray, int, int, int]:
    """Single-image scan over m, the HCDR x all-annotations matrix.

    Returns (annotations, records, each HCDR's max IoU over all annotations,
    considered, skipped counts).
    """
    if m is None:
        return anns, [], _NO_IOUS, 0, 0, 0
    faces = anns.faces
    if cfg.include_invalid:
        col_map = None
        max_o, arg_o = row_max_argmax(m)
        max_all = max_o
    else:
        max_all = m.values.max(axis=1)
        col_map = [k for k, f in enumerate(faces) if not f.invalid]
        if not col_map:
            return anns, [], max_all, 0, 0, 0
        max_o, arg_o = row_max_argmax(IoUMatrix(m.values[:, col_map]))

    claimed = bytearray(len(faces))  # 0 = still calibratable
    records: list[MbpRecord] = []
    out_of_interval = 0
    already_claimed = 0
    t_m, t_c = cfg.t_m, cfg.t_c
    for j, det in enumerate(hcdrs):
        mo = max_o[j]
        if t_m <= mo <= t_c:
            col = int(arg_o[j])
            k = col if col_map is None else col_map[col]
            if not claimed[k]:
                claimed[k] = 1
                records.append(MbpRecord(
                    path=anns.path, det_index=j, ann_index=k, iou=float(mo),
                    score=det.score, old_box=faces[k].box, new_box=det.box))
            else:
                already_claimed += 1
        else:
            out_of_interval += 1

    if records:
        new_faces = list(faces)
        for r in records:
            new_faces[r.ann_index] = replace(faces[r.ann_index], box=r.new_box)
        anns = ImageAnnotations(path=anns.path, faces=new_faces)
    return anns, records, max_all, len(hcdrs), out_of_interval, already_claimed


def calibrate_image(anns: ImageAnnotations, hcdrs: list[Detection],
                    cfg: CalibrationConfig) -> tuple[ImageAnnotations, list[MbpRecord]]:
    """Calibrate one image against its high-confidence detection prefix.

    hcdrs must be sorted descending by score.  Matching runs entirely on the
    original annotation geometry; box replacements are applied only after the
    scan.  Annotation count, order, and attribute flags are preserved.
    """
    out, records, *_ = _calibrate_image(anns, hcdrs, _iou_against_all(hcdrs, anns), cfg)
    return out, records


def calibrate_dataset(anns: AnnotationSet, dets: DetectionSet,
                      cfg: CalibrationConfig | None = None, *,
                      threads: int = 1) -> CalibrationResult:
    """Calibrate a whole dataset: align, threshold, scan each image.

    The confidence threshold is the computed dataset average unless
    cfg.adc_override pins it.  Per-image work may run on a thread pool;
    results are reassembled in the original image order, so the output is
    identical for any thread count.
    """
    if cfg is None:
        cfg = CalibrationConfig()
    t0 = perf_counter()
    if not anns.images:
        log.warning("empty annotation set; nothing to calibrate")
    pairs = align(anns, dets)

    adc_result: AdcResult | None
    if cfg.adc_override is not None:
        adc_result = None
        effective_adc = cfg.adc_override
    else:
        adc_result = compute_adc(pairs)
        effective_adc = adc_result.value

    def work(pair):
        img, det_img = pair
        hcdrs, m = hcdr_iou_matrix(img, det_img, effective_adc)
        return _calibrate_image(img, hcdrs, m, cfg)

    if threads <= 1:
        per_image = [work(p) for p in pairs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_image = list(pool.map(work, pairs))

    counters = CalibrationCounters(images_processed=len(pairs))
    images: list[ImageAnnotations] = []
    mbps: list[MbpRecord] = []
    ious: list[np.ndarray] = [_NO_IOUS]  # so that an empty dataset concatenates
    for img, records, max_all, considered, out_of_interval, claimed in per_image:
        images.append(img)
        mbps.extend(records)
        ious.append(max_all)
        counters.hcdrs_considered += considered
        counters.skipped_out_of_interval += out_of_interval
        counters.skipped_already_claimed += claimed

    return CalibrationResult(
        calibrated=AnnotationSet(images=images),
        mbps=mbps,
        counters=counters,
        wall_time=perf_counter() - t0,
        effective_adc=effective_adc,
        hcdr_ious=np.concatenate(ious),
        adc=adc_result,
        config=cfg,
    )
