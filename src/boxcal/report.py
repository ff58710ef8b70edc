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
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np
from numpy.typing import ArrayLike

from .calibrate import CalibrationResult, MbpRecord
from .geometry import BBox, iou

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


def diou_loss(pred: BBox, target: BBox) -> float:
    """Distance-IoU loss: 1 - IoU plus squared center distance over squared
    enclosing-box diagonal.  Zero for identical boxes."""
    if pred == target:
        return 0.0  # iou() is 0 for a zero-area box, even against itself
    pcx, pcy = pred.x + pred.w / 2.0, pred.y + pred.h / 2.0
    tcx, tcy = target.x + target.w / 2.0, target.y + target.h / 2.0
    rho2 = (pcx - tcx) ** 2 + (pcy - tcy) ** 2
    ex = max(pred.x + pred.w, target.x + target.w) - min(pred.x, target.x)
    ey = max(pred.y + pred.h, target.y + target.h) - min(pred.y, target.y)
    c2 = ex * ex + ey * ey
    center_term = rho2 / c2 if c2 > 0 else 0.0
    return 1.0 - iou(pred, target) + center_term


@dataclass(frozen=True, slots=True)
class LossDeltaRecord:
    path: str
    ann_index: int
    l_orig: float   # loss of the detection box against the original annotation box
    l_calib: float  # loss against the calibrated box; 0 for every replacement
    delta: float    # l_orig - l_calib, >= 0


def loss_delta_report(mbps: list[MbpRecord]) -> list[LossDeltaRecord]:
    records = []
    for r in mbps:
        l_orig = diou_loss(r.new_box, r.old_box)
        l_calib = diou_loss(r.new_box, r.new_box)
        records.append(LossDeltaRecord(r.path, r.ann_index, l_orig, l_calib, l_orig - l_calib))
    return records


def _mbp_row(r: MbpRecord) -> tuple:
    o, n = r.old_box, r.new_box
    return (r.path, r.ann_index, o.x, o.y, o.w, o.h, n.x, n.y, n.w, n.h, r.iou, r.score)


def mbp_export(mbps: list[MbpRecord], stream: TextIO, fmt: str = "tsv") -> None:
    """Write the replacement ledger, worst misalignments (lowest IoU) first."""
    ordered = sorted(mbps, key=lambda r: r.iou)
    if fmt == "tsv":
        stream.write("\t".join(MBP_EXPORT_HEADER) + "\n")
        for r in ordered:
            stream.write("\t".join(repr(v) if isinstance(v, float) else str(v)
                                   for v in _mbp_row(r)) + "\n")
    elif fmt == "json":
        rows = [dict(zip(MBP_EXPORT_HEADER, _mbp_row(r))) for r in ordered]
        json.dump(rows, stream, indent=2)
        stream.write("\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def write_report(result: CalibrationResult, stream: TextIO, predictor: str = "external") -> None:
    """Serialize a finished run as a key-value tree (JSON); the histogram
    bins the run's own HCDR max IoUs."""
    t_c = result.config.t_c
    hist = localization_histogram(result.hcdr_ious, DEFAULT_EDGES,
                                  t_c if t_c in DEFAULT_EDGES else None)
    deltas = [r.delta for r in loss_delta_report(result.mbps)]
    doc = {
        "predictor": predictor,
        "adc": (asdict(result.adc) if result.adc is not None
                else {"value": result.effective_adc, "overridden": True}),
        "interval": [result.config.t_m, t_c],
        "calibrated": len(result.mbps),
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
            "count": len(deltas),
            "mean_delta": sum(deltas) / len(deltas) if deltas else 0.0,
            "max_delta": max(deltas) if deltas else 0.0,
        },
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def summary_line(result: CalibrationResult, predictor: str = "external") -> str:
    """The one-line run summary `boxcal calibrate` prints."""
    return (f"predictor={predictor} adc={result.effective_adc:.6f} "
            f"interval=[{result.config.t_m:g}, {result.config.t_c:g}] "
            f"calibrated={len(result.mbps)} time={result.wall_time:.2f}s")


def format_histogram_table(hist: LocalizationHistogram) -> str:
    """Plain-text table with counts and 3-decimal percentages."""
    lines = ["index\tinterval\tcount\tpercentage"]
    for i, b in enumerate(hist.bins, start=1):
        close = "]" if i == len(hist.bins) else ")"  # final partition bin is closed
        lines.append(f"{i}\t[{b.lower:g}, {b.upper:g}{close}\t{b.count}\t{b.percentage:.3f}")
    for j, b in enumerate(hist.aggregates, start=len(hist.bins) + 1):
        lines.append(f"{j}\t[{b.lower:g}, {b.upper:g}]\t{b.count}\t{b.percentage:.3f}")
    return "\n".join(lines) + "\n"
