"""Views of a calibration result: histograms, the run report and summary
line, replacement exports.

The localization-accuracy histogram bins each high-confidence detection by
its max IoU against its image's annotations, a vector the calibration scan
already computed (`CalibrationResult.hcdr_ious`).  Displayed tables of
touching closed intervals double-count boundary values, so the bins here
are half-open [lo, hi) with a closed final bin; that makes the partition
exact and lets the aggregate rows be plain sums.

The regression-loss delta report is a post-hoc diagnostic.  A training-time
regression loss depends on the detector being trained; this report instead
uses the replacing detection box as a stand-in prediction, which makes every
calibrated-side loss exactly zero and every delta the full loss against the
old box.  The report header carries this note.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np
from numpy.typing import ArrayLike

from .calibrate import CalibrationResult, ClaimTable
from .formats import _ledger_text
from .geometry import BBox, iou, iou_cells

DEFAULT_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

LOSS_NOTE = ("deltas use the replacing detection box as a stand-in for the training "
             "detector's prediction, so every calibrated-side loss is exactly 0")

MBP_EXPORT_HEADER = ("path", "ann_index", "old_x", "old_y", "old_w", "old_h",
                     "new_x", "new_y", "new_w", "new_h", "iou", "score")


def percentage(count: int, total: int) -> float:
    """Share of total as a percentage rounded to 3 decimals; 0.0 when total is 0."""
    if total == 0:
        return 0.0
    return round(100.0 * count / total, 3)


@dataclass(frozen=True, slots=True)
class HistogramBin:
    lower: float
    upper: float
    count: int
    percentage: float


@dataclass(frozen=True)
class LocalizationHistogram:
    bins: list[HistogramBin]        # the partition: half-open, closed last bin
    aggregates: list[HistogramBin]  # sums of partition bins, e.g. [0.5,0.8] and [0.5,1.0]
    total: int                      # equals the sum of the partition bin counts


def check_edges(edges: tuple[float, ...]) -> list[float]:
    """The bin edges as a list; ValueError unless there are at least two,
    strictly increasing, within [0, 1] (which rules out nan)."""
    edge_list = list(edges)
    if len(edge_list) < 2 or not all(a < b for a, b in zip(edge_list, edge_list[1:])):
        raise ValueError(f"bin edges must be strictly increasing, got {edges}")
    if not 0 <= edge_list[0] <= edge_list[-1] <= 1:
        raise ValueError(f"bin edges must lie within [0, 1], got {edges}")
    return edge_list


def localization_histogram(ious: ArrayLike,
                           edges: tuple[float, ...] = DEFAULT_EDGES,
                           aggregate_upper: float | None = 0.8) -> LocalizationHistogram:
    """Histogram of max-IoU localization accuracy for high-confidence detections.

    ious holds one max IoU per high-confidence detection; values outside
    [edges[0], edges[-1]] are not counted.  An aggregate row
    [edges[0], aggregate_upper] is added when aggregate_upper is one of the
    edges; the full-range row [edges[0], edges[-1]] is always added.
    """
    edge_list = check_edges(edges)
    nbins = len(edge_list) - 1
    # explicit edges: bins are [lo, hi) except the last, which is closed
    counts = np.histogram(ious, bins=edge_list)[0].tolist()
    total = sum(counts)
    bins = [HistogramBin(edge_list[i], edge_list[i + 1], counts[i], percentage(counts[i], total))
            for i in range(nbins)]
    aggregates: list[HistogramBin] = []
    if aggregate_upper is not None and aggregate_upper in edge_list[1:-1]:
        upto = edge_list.index(aggregate_upper)
        agg = sum(counts[:upto])
        aggregates.append(HistogramBin(edge_list[0], aggregate_upper, agg, percentage(agg, total)))
    aggregates.append(HistogramBin(edge_list[0], edge_list[-1], total, percentage(total, total)))
    return LocalizationHistogram(bins=bins, aggregates=aggregates, total=total)


# Where a square overflows, DIoU's terms are taken again with every length
# scaled by this power of two.  A length (at most a far edge minus a near
# edge) is below 2**1025, so scaled it is below 2**511 and a sum of two
# squares stays below 2**1023; scaling is exact down to the subnormals.
_DIOU_SCALE = math.ldexp(1.0, -514)


def _diou_terms(px, py, pw, ph, tx, ty, tw, th, hi=max, lo=min):
    """DIoU's squared centre distance and squared enclosing-box diagonal,
    for floats (hi, lo = max, min) or arrays (np.maximum, np.minimum)."""
    dx = (px + pw / 2.0) - (tx + tw / 2.0)
    dy = (py + ph / 2.0) - (ty + th / 2.0)
    ex = hi(px + pw, tx + tw) - lo(px, tx)
    ey = hi(py + ph, ty + th) - lo(py, ty)
    return dx * dx + dy * dy, ex * ex + ey * ey


def diou_loss(pred: BBox, target: BBox) -> float:
    """Distance-IoU loss: 1 - IoU plus squared center distance over squared
    enclosing-box diagonal.  Zero for identical boxes.  Where a square
    overflows, the ratio is taken with every length scaled by a power of
    two, so the loss stays finite; nothing is scaled anywhere else."""
    if pred == target:
        return 0.0  # iou() is 0 for a zero-area box, even against itself
    lengths = (pred.x, pred.y, pred.w, pred.h, target.x, target.y, target.w, target.h)
    rho2, c2 = _diou_terms(*lengths)
    if not (math.isfinite(rho2) and math.isfinite(c2)):
        rho2, c2 = _diou_terms(*(v * _DIOU_SCALE for v in lengths))
    center_term = rho2 / c2 if c2 > 0 else 0.0
    return 1.0 - iou(pred, target) + center_term


def diou_cells(px: np.ndarray, py: np.ndarray, pw: np.ndarray, ph: np.ndarray,
               tx: np.ndarray, ty: np.ndarray, tw: np.ndarray, th: np.ndarray) -> np.ndarray:
    """DIoU loss of predicted boxes (px, py, pw, ph) against target boxes
    (tx, ty, tw, th), given as equal-length vectors, one loss per pair.

    The arithmetic mirrors the scalar `diou_loss` term for term (same
    operations, same order, IEEE double throughout, `iou_cells` for the
    IoU), so each cell is bit-identical to the scalar result.
    """
    lengths = (px, py, pw, ph, tx, ty, tw, th)
    with np.errstate(over="ignore"):  # an overflowing square is redone below
        rho2, c2 = _diou_terms(*lengths, hi=np.maximum, lo=np.minimum)
    over = ~(np.isfinite(rho2) & np.isfinite(c2))
    if over.any():  # as in the scalar path: every length scaled
        rho2[over], c2[over] = _diou_terms(*(v[over] * _DIOU_SCALE for v in lengths),
                                           hi=np.maximum, lo=np.minimum)
    center_term = np.zeros_like(rho2)
    np.divide(rho2, c2, out=center_term, where=c2 > 0)
    loss = 1.0 - iou_cells(*lengths) + center_term
    loss[(px == tx) & (py == ty) & (pw == tw) & (ph == th)] = 0.0
    return loss


@dataclass(frozen=True)
class LossDeltas:
    """Per claim, in claim order: the DIoU loss of the replacing detection
    box against the original annotation box (l_orig) and against the
    calibrated box, which is that detection box (l_calib, so 0), and their
    difference (delta = l_orig - l_calib = l_orig, >= 0)."""

    l_orig: np.ndarray
    l_calib: np.ndarray
    delta: np.ndarray


def loss_delta_report(claims: ClaimTable) -> LossDeltas:
    new, old = claims.new_boxes.T, claims.old_boxes.T
    l_orig = diou_cells(*new, *old)
    return LossDeltas(l_orig, np.zeros_like(l_orig), l_orig.copy())


# one element of json.dump(rows, indent=2), every field through %s: the str of
# an int or a finite float is its repr, which is what json writes; the path
# and non-finite floats come already encoded
_MBP_JSON_ROW = ("  {\n" + ",\n".join(f"    {json.dumps(k)}: %s" for k in MBP_EXPORT_HEADER)
                 + "\n  }")


def _json_floats(column: np.ndarray) -> list:
    """A float column as json writes it: floats where finite, json's
    spelling (NaN, Infinity, -Infinity) for the rest."""
    out = column.tolist()
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        out[i] = json.dumps(out[i])
    return out


def mbp_export(claims: ClaimTable, stream: TextIO, fmt: str = "tsv") -> None:
    """Write the replacement ledger, worst misalignments (lowest IoU) first;
    claims with equal IoUs keep their order.  The JSON form is the bytes
    json.dump(rows, indent=2) writes, one object per claim, and a newline."""
    if fmt not in ("tsv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    order = np.argsort(claims.iou, kind="stable")
    names = claims.paths  # read once: each read of the column is a call
    paths = [names[i] for i in claims.image[order].tolist()]
    ann_index = claims.ann_index[order].tolist()
    boxes = [*claims.old_boxes[order].T, *claims.new_boxes[order].T]
    ratios = [claims.iou[order], claims.score[order]]
    if fmt == "tsv":
        stream.write(_ledger_text(MBP_EXPORT_HEADER, paths, ann_index, boxes, ratios))
    else:
        rows = [_MBP_JSON_ROW % row for row in zip(
            map(json.dumps, paths), ann_index, *map(_json_floats, boxes + ratios))]
        stream.write("[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n")


def write_report(result: CalibrationResult, stream: TextIO, predictor: str = "external") -> None:
    """Serialize a finished run as a key-value tree (JSON); the histogram
    bins the run's own HCDR max IoUs."""
    t_c = result.config.t_c
    hist = localization_histogram(result.hcdr_ious, DEFAULT_EDGES, t_c)
    deltas = loss_delta_report(result.claims).delta
    n = len(deltas)
    doc = {
        "predictor": predictor,
        "adc": (asdict(result.adc) if result.adc is not None
                else {"value": result.effective_adc, "overridden": True}),
        "interval": [result.config.t_m, t_c],
        "calibrated": len(result.claims),
        "counters": asdict(result.counters),
        "wall_time_s": result.wall_time,
        "histogram": {
            "bins": [asdict(b) for b in hist.bins],
            "aggregates": [asdict(b) for b in hist.aggregates],
            "total": hist.total,
        },
        "loss": {
            "name": "diou",
            "note": LOSS_NOTE,
            "count": n,
            # summed in claim order, as a loop would, never pairwise
            "mean_delta": float(np.cumsum(deltas)[-1]) / n if n else 0.0,
            "max_delta": float(deltas.max()) if n else 0.0,
        },
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def summary_line(result: CalibrationResult, predictor: str = "external") -> str:
    """The one-line run summary `boxcal calibrate` prints."""
    return (f"predictor={predictor} adc={result.effective_adc:.6f} "
            f"interval=[{result.config.t_m:g}, {result.config.t_c:g}] "
            f"calibrated={len(result.claims)} time={result.wall_time:.2f}s")


def format_histogram_table(hist: LocalizationHistogram) -> str:
    """Plain-text table with counts and 3-decimal percentages."""
    lines = ["index\tinterval\tcount\tpercentage"]
    for i, b in enumerate(hist.bins, start=1):
        close = "]" if i == len(hist.bins) else ")"  # final partition bin is closed
        lines.append(f"{i}\t[{b.lower:g}, {b.upper:g}{close}\t{b.count}\t{b.percentage:.3f}")
    for j, b in enumerate(hist.aggregates, start=len(hist.bins) + 1):
        lines.append(f"{j}\t[{b.lower:g}, {b.upper:g}]\t{b.count}\t{b.percentage:.3f}")
    return "\n".join(lines) + "\n"
