"""Command-line front end: calibrate, stats, adc, synth, diff.

Exit codes are a stable scripting contract: 0 success, 1 usage or
validation or parse error, 2 I/O error.  Diagnostics go to stderr; data
(tables, summaries, file payloads) goes to stdout or the named output
files, never interleaved.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

from .adc import compute_adc
from .calibrate import CalibrationConfig, calibrate_dataset, hcdr_ious
from .formats import align, load_detections, load_wider_gt, save_wider_gt, write_detections_file, write_detections_dir
from .report import (DEFAULT_EDGES, check_edges, format_histogram_table, localization_histogram,
                     mbp_export, summary_line, write_report)
from .synth import SynthSpec, emit_detections, generate_dataset, perturb, write_perturb_ledger

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _pair_int(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(","))
        return lo, hi
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN,MAX integers, got {text!r}") from None


def _pair_float(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
        return lo, hi
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO,HI numbers, got {text!r}") from None


def _size(text: str) -> tuple[int, int]:
    try:
        w, h = (int(part) for part in text.lower().split("x"))
        return w, h
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boxcal",
                     description="Calibrate misaligned bounding-box annotations "
                                 "against high-confidence detections.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cal = sub.add_parser("calibrate", help="replace misaligned annotation boxes")
    cal.add_argument("--gt", required=True, help="ground-truth annotation file")
    cal.add_argument("--dets", required=True, help="detection directory or file")
    cal.add_argument("--out", required=True, help="calibrated annotation file to write")
    cal.add_argument("--tm", type=float, default=0.5, help="interval lower edge (default 0.5)")
    cal.add_argument("--tc", type=float, default=0.8, help="interval upper edge (default 0.8)")
    cal.add_argument("--adc", type=float, default=None,
                     help="fixed confidence threshold; skips computing the average")
    cal.add_argument("--round-int", action="store_true",
                     help="write integer coordinates (halves round away from zero)")
    cal.add_argument("--include-invalid", type=_bool, default=True, metavar="BOOL",
                     help="let invalid-flagged annotations be matched (default true)")
    cal.add_argument("--report", default=None, help="write a JSON run report here")
    cal.add_argument("--mbp-export", default=None,
                     help="write the replacement ledger here (.json for JSON, else TSV)")
    cal.add_argument("--threads", type=int, default=1,
                     help="kept for compatibility; must be >= 1 and changes neither "
                          "speed nor output (default 1)")
    cal.add_argument("--predictor", default="external", help="label for the report")
    _add_dets_layout_flags(cal)

    stats = sub.add_parser("stats", help="localization-accuracy histogram")
    stats.add_argument("--gt", required=True)
    stats.add_argument("--dets", required=True)
    stats.add_argument("--adc", type=float, default=None,
                       help="fixed confidence threshold for selecting detections")
    stats.add_argument("--edges", type=_float_list,
                       default=DEFAULT_EDGES,
                       help="histogram bin edges (default 0.5,0.6,0.7,0.8,0.9,1.0)")
    stats.add_argument("--out", default=None, help="write the table here instead of stdout")
    _add_dets_layout_flags(stats)

    adc = sub.add_parser("adc", help="print the average detection confidence")
    adc.add_argument("--gt", required=True)
    adc.add_argument("--dets", required=True)
    _add_dets_layout_flags(adc)

    synth = sub.add_parser("synth", help="write a seeded synthetic dataset")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--images", type=int, default=100)
    synth.add_argument("--faces", type=_pair_int, default=(1, 5), metavar="MIN,MAX")
    synth.add_argument("--image-size", type=_size, default=(1024, 1024), metavar="WxH")
    synth.add_argument("--box-size", type=_pair_int, default=(16, 64), metavar="MIN,MAX")
    synth.add_argument("--perturb-fraction", type=float, default=0.3)
    synth.add_argument("--iou-range", type=_pair_float, default=(0.55, 0.75), metavar="LO,HI")
    synth.add_argument("--distractors", type=_pair_int, default=(0, 0), metavar="MIN,MAX")
    synth.add_argument("--score-range", type=_pair_float, default=(0.9, 1.0), metavar="LO,HI")
    synth.add_argument("--distractor-score-range", type=_pair_float, default=(0.0, 0.2),
                       metavar="LO,HI")
    synth.add_argument("--min-gap", type=float, default=0.0,
                       help="minimum pixel separation between faces (0 allows overlap)")
    synth.add_argument("--single-file", action="store_true",
                       help="write consolidated detections.txt instead of a directory")

    diff = sub.add_parser("diff", help="compare two annotation files")
    diff.add_argument("old")
    diff.add_argument("new")
    return parser


def _add_dets_layout_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dets-format", choices=("auto", "dir", "file"), default="auto",
                   help="detection layout (default: directory if the path is one)")
    p.add_argument("--image-ext", default=".jpg",
                   help="image extension for per-image detection files (default .jpg)")


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Log the perf_counter span of the block at INFO, which -v shows."""
    t0 = perf_counter()
    yield
    log.info("stage %s: %.3f s", name, perf_counter() - t0)


def run_calibrate(args) -> int:
    cfg = CalibrationConfig(
        t_m=args.tm, t_c=args.tc, adc_override=args.adc, include_invalid=args.include_invalid,
    )
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    with _stage("parse GT"):
        anns = load_wider_gt(args.gt)
    with _stage("parse detections"):
        dets = load_detections(args.dets, layout=args.dets_format, image_ext=args.image_ext)
    with _stage("calibrate"):
        result = calibrate_dataset(anns, dets, cfg, threads=args.threads)
    with _stage("write GT"):
        save_wider_gt(result.calibrated, args.out,
                      policy="integer" if args.round_int else "decimal")
    if args.report:
        with _stage("report"), open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            write_report(result, fh, predictor=args.predictor)
    if args.mbp_export:
        fmt = "json" if args.mbp_export.endswith(".json") else "tsv"
        with _stage("ledger"), open(args.mbp_export, "w", encoding="utf-8", newline="\n") as fh:
            mbp_export(result.claims, fh, fmt=fmt)
    print(summary_line(result, predictor=args.predictor))
    return 0


def run_stats(args) -> int:
    check_edges(args.edges)
    CalibrationConfig(adc_override=args.adc)  # rejects a bad --adc before any input is read
    with _stage("parse GT"):
        anns = load_wider_gt(args.gt)
    with _stage("parse detections"):
        dets = load_detections(args.dets, layout=args.dets_format, image_ext=args.image_ext)
    with _stage("align + IoU"):
        dets = align(anns, dets)
        threshold = args.adc if args.adc is not None else compute_adc(anns, dets).value
        # the calibration's IoU pass without its claim scan: one max per HCDR
        ious = hcdr_ious(anns, dets, threshold)
    with _stage("table"):
        table = format_histogram_table(localization_histogram(ious, edges=args.edges))
        if args.out:
            Path(args.out).write_text(table, encoding="utf-8")
        else:
            sys.stdout.write(table)
    return 0


def run_adc(args) -> int:
    anns = load_wider_gt(args.gt)
    dets = load_detections(args.dets, layout=args.dets_format, image_ext=args.image_ext)
    res = compute_adc(anns, align(anns, dets))
    print(f"{res.value:.6f}")
    print(f"numerator={res.numerator!r} denominator={res.denominator} "
          f"images_used={res.images_used} shortfall_images={res.shortfall_images}")
    return 0


def run_synth(args) -> int:
    spec = SynthSpec(
        seed=args.seed, n_images=args.images, faces_per_image=args.faces,
        image_size=args.image_size, box_size=args.box_size,
        aligned_score_range=args.score_range,
        distractor_score_range=args.distractor_score_range,
        distractors_per_image=args.distractors, min_gap=args.min_gap,
    )
    truth = generate_dataset(spec)
    dets = emit_detections(truth, spec)
    if args.perturb_fraction > 0:
        perturbed, ledger = perturb(truth, args.seed, args.perturb_fraction,
                                    args.iou_range, image_size=spec.image_size)
    else:
        perturbed, ledger = truth, None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_wider_gt(perturbed, out / "gt.txt")
    save_wider_gt(truth, out / "truth.txt")
    if args.single_file:
        with open(out / "detections.txt", "w", encoding="utf-8", newline="\n") as fh:
            write_detections_file(dets, fh)
    else:
        write_detections_dir(dets, out / "detections")
    n_perturbed = 0
    if ledger is not None:
        with open(out / "ledger.tsv", "w", encoding="utf-8", newline="\n") as fh:
            write_perturb_ledger(ledger, fh)
        n_perturbed = len(ledger.entries)
    print(f"wrote {len(truth.images)} images, {truth.total_faces()} faces, "
          f"{n_perturbed} perturbed, {dets.total_detections()} detections to {out}")
    return 0


def run_diff(args) -> int:
    old = load_wider_gt(args.old)
    new = load_wider_gt(args.new)
    new_by_path = {img.path: img for img in new.images}
    changes = 0
    for img in old.images:
        other = new_by_path.pop(img.path, None)
        if other is None:
            print(f"- {img.path}: image only in {args.old}")
            changes += 1
            continue
        for k, (fa, fb) in enumerate(zip(img.faces, other.faces)):
            if fa.box != fb.box:
                a, b = fa.box, fb.box
                print(f"~ {img.path}#{k}: ({a.x:g} {a.y:g} {a.w:g} {a.h:g})"
                      f" -> ({b.x:g} {b.y:g} {b.w:g} {b.h:g})")
                changes += 1
        if len(img.faces) != len(other.faces):
            print(f"~ {img.path}: face count {len(img.faces)} -> {len(other.faces)}")
            changes += 1
    for path in new_by_path:
        print(f"+ {path}: image only in {args.new}")
        changes += 1
    print(f"{changes} changes")
    return 0


_RUNNERS = {
    "calibrate": run_calibrate,
    "stats": run_stats,
    "adc": run_adc,
    "synth": run_synth,
    "diff": run_diff,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    # force=True rebinds the handler to the CURRENT stderr, so embedding
    # main() (tests, notebooks) does not leave logging on a stale stream.
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
                        force=True)
    try:
        return _RUNNERS[args.command](args)
    except ValueError as exc:  # includes ParseError and config validation
        print(f"boxcal: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"boxcal: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
