"""boxcal: calibrate misaligned bounding-box annotations with detector output.

The pipeline: parse WIDER-style annotations and detections, compute the
dataset's average detection confidence, keep each image's strictly-stronger
detection prefix, match those against the original annotation boxes by IoU,
and replace every annotation claimed inside the calibration interval with
its detection's box.  Reporting, a synthetic-data harness, and a brute-force
reference implementation round out the toolkit.
"""

from .adc import AdcResult, compute_adc, select_hcdrs
from .calibrate import (CalibrationConfig, CalibrationCounters, CalibrationResult,
                        MbpRecord, calibrate_dataset, calibrate_image)
from .formats import (AnnotationSet, Detection, DetectionSet, FaceAnnotation,
                      ImageAnnotations, ImageDetections, ParseError, align,
                      format_coord, load_detections, load_wider_gt,
                      parse_detections_dir, parse_detections_file, parse_wider_gt,
                      save_wider_gt, write_detections_dir, write_detections_file,
                      write_wider_gt)
from .geometry import BBox, area, iou
from .report import (HistogramBin, LocalizationHistogram, LossDeltaRecord,
                     ReportBundle, RunSummary, build_report, diou_loss,
                     format_histogram_table, localization_histogram,
                     loss_delta_report, mbp_export, run_summary, write_report)
from .synth import (PerturbEntry, PerturbLedger, SynthSpec, emit_detections,
                    generate_dataset, oracle_calibrate, perturb)

__version__ = "0.1.0"

__all__ = [
    "AdcResult", "compute_adc", "select_hcdrs",
    "CalibrationConfig", "CalibrationCounters", "CalibrationResult",
    "MbpRecord", "calibrate_dataset", "calibrate_image",
    "AnnotationSet", "Detection", "DetectionSet", "FaceAnnotation",
    "ImageAnnotations", "ImageDetections", "ParseError", "align",
    "format_coord", "load_detections", "load_wider_gt",
    "parse_detections_dir", "parse_detections_file", "parse_wider_gt",
    "save_wider_gt", "write_detections_dir", "write_detections_file",
    "write_wider_gt",
    "BBox", "area", "iou",
    "HistogramBin", "LocalizationHistogram", "LossDeltaRecord",
    "ReportBundle", "RunSummary", "build_report", "diou_loss",
    "format_histogram_table", "localization_histogram", "loss_delta_report",
    "mbp_export", "run_summary", "write_report",
    "PerturbEntry", "PerturbLedger", "SynthSpec", "emit_detections",
    "generate_dataset", "oracle_calibrate", "perturb",
    "__version__",
]
