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
from dataclasses import fields
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

from .adc import compute_adc
from .calibrate import DEFAULT_T_C, DEFAULT_T_M, CalibrationConfig, calibrate_dataset
from .formats import (AnnotationSet, DetectionSet, _segment_rows, align, load_detections,
                      load_wider_gt, save_wider_gt, write_detections_dir, write_detections_file)
from .report import (DEFAULT_EDGES, check_edges, format_histogram_table, localization_histogram,
                     mbp_export, summary_line, write_report)
from .synth import (SynthSpec, check_perturbation, emit_detections, generate_dataset, perturb,
                    write_perturb_ledger)

log = logging.getLogger("boxcal.cli")  # not __main__ under python -m


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _numbers(kind: type, count: int | None, expected: str, sep: str = ","):
    """An argument type reading sep-separated numbers of kind as a tuple:
    exactly count of them, or any number when count is None.  sep matches
    in either case."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(map(kind, text.lower().split(sep)))
            if count in (None, len(values)):
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_MIN_MAX = _numbers(int, 2, "MIN,MAX integers")
_LO_HI = _numbers(float, 2, "LO,HI numbers")


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
    # the input flags of every command that reads a dataset
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--gt", required=True, help="ground-truth annotation file")
    inputs.add_argument("--dets", required=True, help="detection directory or file")
    inputs.add_argument("--dets-format", choices=("auto", "dir", "file"), default="auto",
                        help="detection layout (default: directory if the path is one)")
    inputs.add_argument("--image-ext", default=".jpg",
                        help="image extension for per-image detection files (default .jpg)")

    cal = sub.add_parser("calibrate", parents=[inputs], help="replace misaligned annotation boxes")
    cal.add_argument("--out", required=True, help="calibrated annotation file to write")
    cal.add_argument("--tm", type=float, default=DEFAULT_T_M,
                     help="interval lower edge (default %(default)s)")
    cal.add_argument("--tc", type=float, default=DEFAULT_T_C,
                     help="interval upper edge (default %(default)s)")
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

    stats = sub.add_parser("stats", parents=[inputs], help="localization-accuracy histogram")
    stats.add_argument("--adc", type=float, default=None,
                       help="fixed confidence threshold for selecting detections")
    stats.add_argument("--edges", type=_numbers(float, None, "comma-separated numbers"),
                       default=DEFAULT_EDGES,
                       help=f"histogram bin edges (default {','.join(map(str, DEFAULT_EDGES))})")
    stats.add_argument("--out", default=None, help="write the table here instead of stdout")

    sub.add_parser("adc", parents=[inputs], help="print the average detection confidence")

    # the dests are SynthSpec's fields: an option not given keeps SynthSpec's default
    synth = sub.add_parser("synth", help="write a seeded synthetic dataset",
                           argument_default=argparse.SUPPRESS)
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--images", dest="n_images", type=int, default=100, metavar="IMAGES")
    synth.add_argument("--faces", dest="faces_per_image", type=_MIN_MAX, metavar="MIN,MAX")
    synth.add_argument("--image-size", type=_numbers(int, 2, "WIDTHxHEIGHT", sep="x"),
                       metavar="WxH")
    synth.add_argument("--box-size", type=_MIN_MAX, metavar="MIN,MAX")
    synth.add_argument("--perturb-fraction", type=float, default=0.3)
    synth.add_argument("--iou-range", type=_LO_HI, default=(0.55, 0.75), metavar="LO,HI")
    synth.add_argument("--distractors", dest="distractors_per_image", type=_MIN_MAX,
                       metavar="MIN,MAX")
    synth.add_argument("--score-range", dest="aligned_score_range", type=_LO_HI, metavar="LO,HI")
    synth.add_argument("--distractor-score-range", type=_LO_HI, metavar="LO,HI")
    synth.add_argument("--min-gap", type=float,
                       help="minimum pixel separation between faces (0 allows overlap)")
    synth.add_argument("--single-file", action="store_true", default=False,
                       help="write consolidated detections.txt instead of a directory")

    diff = sub.add_parser("diff", help="compare two annotation files")
    diff.add_argument("old")
    diff.add_argument("new")
    return parser


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Log the perf_counter span of the block at INFO, which -v shows."""
    t0 = perf_counter()
    yield
    log.info("stage %s: %.3f s", name, perf_counter() - t0)


def _load(args) -> tuple[AnnotationSet, DetectionSet]:
    with _stage("parse GT"):
        anns = load_wider_gt(args.gt)
    with _stage("parse detections"):
        dets = load_detections(args.dets, layout=args.dets_format, image_ext=args.image_ext)
    return anns, dets


def run_calibrate(args) -> int:
    cfg = CalibrationConfig(
        t_m=args.tm, t_c=args.tc, adc_override=args.adc, include_invalid=args.include_invalid,
    )
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    anns, dets = _load(args)
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
    cfg = CalibrationConfig(adc_override=args.adc)  # rejects a bad --adc before any input is read
    anns, dets = _load(args)
    with _stage("calibrate"):
        ious = calibrate_dataset(anns, dets, cfg).hcdr_ious
    with _stage("table"):
        table = format_histogram_table(localization_histogram(ious, edges=args.edges))
        if args.out:
            Path(args.out).write_text(table, encoding="utf-8", newline="\n")
        else:
            sys.stdout.write(table)
    return 0


def run_adc(args) -> int:
    anns, dets = _load(args)
    res = compute_adc(anns, align(anns, dets))
    print(f"{res.value:.6f}")
    print(f"numerator={res.numerator!r} denominator={res.denominator} "
          f"images_used={res.images_used} shortfall_images={res.shortfall_images}")
    return 0


def run_synth(args) -> int:
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)
                        if hasattr(args, f.name)})
    check_perturbation(args.perturb_fraction, args.iou_range)  # before the costly generation
    truth = generate_dataset(spec)
    dets = emit_detections(truth, spec)
    perturbed, ledger = perturb(truth, args.seed, args.perturb_fraction, args.iou_range,
                                image_size=spec.image_size)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_wider_gt(perturbed, out / "gt.txt")
    save_wider_gt(truth, out / "truth.txt")
    if args.single_file:
        with open(out / "detections.txt", "w", encoding="utf-8", newline="\n") as fh:
            write_detections_file(dets, fh)
    else:
        write_detections_dir(dets, out / "detections")
    with open(out / "ledger.tsv", "w", encoding="utf-8", newline="\n") as fh:
        write_perturb_ledger(ledger, fh)
    print(f"wrote {len(truth.paths)} images, {truth.total_faces()} faces, "
          f"{len(ledger)} perturbed, {dets.total_detections()} detections to {out}")
    return 0


def run_diff(args) -> int:
    old = load_wider_gt(args.old)
    new = load_wider_gt(args.new)
    only_new = dict(zip(new.paths, range(len(new.paths))))
    match = np.array([only_new.pop(p, -1) for p in old.paths], np.int64)  # -1: only in old
    n_old = np.diff(old.offsets)
    n_new = np.append(np.diff(new.offsets), 0)[match]
    # pair the faces of each image in both files, up to the smaller count
    shared = np.minimum(n_old, n_new)
    image = np.repeat(np.arange(len(match)), shared)
    k = _segment_rows(np.zeros_like(shared), shared)
    a, b = old.offsets[image] + k, new.offsets[match[image]] + k
    events = []  # (image, face, line); an image's count line sorts after its faces
    for label, before, after in (("", old.boxes, new.boxes), ("flags ", old.flags, new.flags)):
        changed = np.flatnonzero((before[a] != after[b]).any(axis=1))  # -0.0 == 0.0
        events += [(i, j, f"~ {old.paths[i]}#{j}: {label}({' '.join(f'{v:g}' for v in u)})"
                          f" -> ({' '.join(f'{v:g}' for v in w)})")
                   for i, j, u, w in zip(image[changed].tolist(), k[changed].tolist(),
                                         before[a[changed]].tolist(), after[b[changed]].tolist())]
    recount = np.flatnonzero((match >= 0) & (n_old != n_new))
    events += [(i, p, f"~ {old.paths[i]}: face count {p} -> {q}")
               for i, p, q in zip(recount.tolist(), n_old[recount].tolist(),
                                  n_new[recount].tolist())]
    events += [(i, 0, f"- {old.paths[i]}: image only in {args.old}")
               for i in np.flatnonzero(match < 0).tolist()]
    events.sort(key=itemgetter(0, 1))  # stable: a face's box line, then its flags line
    lines = [line for *_, line in events] + [f"+ {p}: image only in {args.new}" for p in only_new]
    print("".join(line + "\n" for line in lines) + f"{len(lines)} changes")
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
