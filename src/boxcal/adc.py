"""Dataset-level average detection confidence.

The average is the global ratio of summed scores to the number of scores
used, where each image contributes its top min(K_a, K_p) detection scores
(K_a annotations, K_p detections).  The clamp matters: an image can have
fewer detections than annotations, and padding with zeros would drag the
average down by an arbitrary amount, so only real scores are averaged and
the shortfall is reported.

The scores are summed one after another in dataset order (a cumulative
sum, never numpy's pairwise `sum`), so the reported numerator is bit-for-bit
the one a plain loop gives.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .formats import AnnotationSet, DetectionSet, _segment_rows, check_aligned

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class AdcResult:
    value: float            # numerator / denominator, or 0.0 when nothing was usable
    numerator: float        # sum of the scores used
    denominator: int        # number of scores used
    images_used: int        # images contributing at least one score
    shortfall_images: int   # images with fewer detections than annotations


def compute_adc(anns: AnnotationSet, dets: DetectionSet) -> AdcResult:
    """Average the top min(K_a, K_p) detection scores over the whole dataset.

    dets must be aligned to anns, as `align(anns, dets)` returns them, so
    that image i of both is the same image with its detections sorted
    descending by score.  A dataset with no usable score yields value 0.0
    and a warning, since every detection would then count as
    high-confidence.
    """
    check_aligned(anns, dets)
    k_a = np.diff(anns.offsets)
    k_p = np.diff(dets.offsets)
    shortfall = int(np.count_nonzero(k_p < k_a))
    used = np.minimum(k_a, k_p)
    denominator = int(used.sum())
    if denominator == 0:
        log.warning("no detection scores usable for the confidence average; value defaults to 0")
        return AdcResult(0.0, 0.0, 0, 0, shortfall)
    rows = _segment_rows(dets.offsets[:-1], used)
    # cumsum adds in order, like a loop from 0.0; adding 0.0 gives such a
    # loop's 0.0 where every score used is -0.0
    numerator = float(np.cumsum(dets.scores[rows])[-1]) + 0.0
    return AdcResult(numerator / denominator, numerator, denominator,
                     int(np.count_nonzero(used)), shortfall)
