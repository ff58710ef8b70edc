"""boxcal: calibrate misaligned bounding-box annotations with detector output.

The pipeline: parse WIDER-style annotations and detections, compute the
dataset's average detection confidence, keep each image's strictly-stronger
detection prefix, match those against the original annotation boxes by IoU,
and replace every annotation claimed inside the calibration interval with
its detection's box.  Reporting, a synthetic-data harness, and a brute-force
reference implementation round out the toolkit.

The package is a lazy facade: `import boxcal` loads no submodule and no
numpy.  Each public name is imported from its home module (``_HOMES``) on
first use, so a caller pays only for the modules it touches.
"""

from importlib import import_module

# each public name's home module, resolved by __getattr__ on first use
_HOMES = {
    "adc": ("AdcResult", "compute_adc"),
    "calibrate": ("CalibrationConfig", "CalibrationCounters", "CalibrationResult",
                  "ClaimTable", "MbpRecord", "calibrate_dataset"),
    "formats": ("AnnotationSet", "Detection", "DetectionSet", "FaceAnnotation",
                "ImageAnnotations", "ImageDetections", "ParseError", "align",
                "format_coord", "load_detections", "load_wider_gt",
                "parse_detections_dir", "parse_detections_file", "parse_wider_gt",
                "save_wider_gt", "write_detections_dir", "write_detections_file",
                "write_wider_gt"),
    "geometry": ("BBox", "iou"),
    "report": ("HistogramBin", "LocalizationHistogram", "LossDeltas", "diou_loss",
               "format_histogram_table", "localization_histogram", "loss_delta_report",
               "mbp_export", "summary_line", "write_report"),
    "synth": ("PerturbEntry", "PerturbLedger", "SynthSpec", "emit_detections",
              "generate_dataset", "oracle_calibrate", "perturb"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
