"""boxcal: calibrate misaligned bounding-box annotations with detector output.

The pipeline: parse WIDER-style annotations and detections, compute the
dataset's average detection confidence, keep each image's strictly-stronger
detection prefix, match those against the original annotation boxes by IoU,
and replace every annotation claimed inside the calibration interval with
its detection's box.  Reporting, a synthetic-data harness, and a brute-force
reference implementation round out the toolkit.
"""

from .adc import AdcResult, compute_adc
from .calibrate import (CalibrationConfig, CalibrationCounters, CalibrationResult,
                        ClaimTable, MbpRecord, calibrate_dataset)
from .formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                      ImageAnnotations, ImageDetections, ParseError, align,
                      format_coord, load_detections, load_wider_gt,
                      parse_detections_dir, parse_detections_file, parse_wider_gt,
                      save_wider_gt, write_detections_dir, write_detections_file,
                      write_wider_gt)
from .geometry import BBox, iou
from .report import (HistogramBin, LocalizationHistogram, LossDeltas, diou_loss,
                     format_histogram_table, localization_histogram,
                     loss_delta_report, mbp_export, summary_line, write_report)

# synth's names, imported on first use: of the commands only `boxcal synth` needs them
_SYNTH = ("PerturbEntry", "PerturbLedger", "SynthSpec", "emit_detections",
          "generate_dataset", "oracle_calibrate", "perturb")


def __getattr__(name: str):
    if name in _SYNTH:
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AdcResult", "compute_adc",
    "CalibrationConfig", "CalibrationCounters", "CalibrationResult",
    "ClaimTable", "MbpRecord", "calibrate_dataset",
    "AnnotationSet", "Detection", "DetectionSet", "FaceAnnotation",
    "ImageAnnotations", "ImageDetections", "ParseError", "align",
    "format_coord", "load_detections", "load_wider_gt",
    "parse_detections_dir", "parse_detections_file", "parse_wider_gt",
    "save_wider_gt", "write_detections_dir", "write_detections_file",
    "write_wider_gt",
    "BBox", "iou",
    "HistogramBin", "LocalizationHistogram", "LossDeltas", "diou_loss",
    "format_histogram_table", "localization_histogram", "loss_delta_report",
    "mbp_export", "summary_line", "write_report",
    "PerturbEntry", "PerturbLedger", "SynthSpec", "emit_detections",
    "generate_dataset", "oracle_calibrate", "perturb",
    "__version__",
]
