"""Command-line interface tests.

Everything runs in-process through ``main(argv)`` so exit codes and the
stdout/stderr split are asserted directly; one subprocess test covers the
``python -m`` entry point.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxcal
import boxcal.calibrate
import boxcal.cli
import boxcal.formats
import boxcal.synth
from boxcal.cli import main
from boxcal.formats import load_wider_gt

GT_TWO = (
    "a/x.jpg\n"
    "2\n"
    "0 0 8 8 0 0 0 0 0 0\n"
    "20 20 8 8 0 0 0 0 0 0\n"
)

# single-file detection layout: the name line is the annotation key verbatim
DETS_TWO = (
    "a/x.jpg\n"
    "3\n"
    "0 0 8 8 0.9\n"
    "20 20 8 8 0.8\n"
    "5 5 4 4 0.3\n"
)


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _synth(out: Path, *extra: str) -> None:
    argv = ["synth", "--out", str(out), "--seed", "7", "--images", "10",
            "--faces", "1,1", "--perturb-fraction", "0.3",
            "--iou-range", "0.55,0.75", "--score-range", "0.9,1.0", *extra]
    assert main(argv) == 0


# --- calibrate -------------------------------------------------------------

def test_calibrate_restores_perturbed_boxes(tmp_path, capsys):
    # 10 single-face images, floor(0.3 * 10) = 3 perturbed annotations
    _synth(tmp_path)
    capsys.readouterr()
    rc = main(["calibrate", "--gt", str(tmp_path / "gt.txt"),
               "--dets", str(tmp_path / "detections"),
               "--out", str(tmp_path / "out.txt"),
               "--adc", "0.5",
               "--report", str(tmp_path / "report.json"),
               "--mbp-export", str(tmp_path / "mbp.tsv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "calibrated=3" in out
    assert out.startswith("predictor=external adc=0.500000 interval=[0.5, 0.8]")
    # detections are the true boxes, so calibration restores the truth file
    assert (tmp_path / "out.txt").read_bytes() == (tmp_path / "truth.txt").read_bytes()


def test_calibrate_report_and_export_files(tmp_path):
    _synth(tmp_path)
    main(["calibrate", "--gt", str(tmp_path / "gt.txt"),
          "--dets", str(tmp_path / "detections"),
          "--out", str(tmp_path / "out.txt"), "--adc", "0.5",
          "--report", str(tmp_path / "report.json"),
          "--mbp-export", str(tmp_path / "mbp.json")])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["calibrated"] == 3
    assert report["adc"] == {"value": 0.5, "overridden": True}
    assert report["interval"] == [0.5, 0.8]
    assert report["loss"]["count"] == 3
    assert report["loss"]["max_delta"] > 0.0
    mbps = json.loads((tmp_path / "mbp.json").read_text(encoding="utf-8"))
    assert len(mbps) == 3
    assert all(0.55 <= rec["iou"] <= 0.75 for rec in mbps)


def test_calibrate_tsv_export_shape(tmp_path):
    _synth(tmp_path)
    main(["calibrate", "--gt", str(tmp_path / "gt.txt"),
          "--dets", str(tmp_path / "detections"),
          "--out", str(tmp_path / "out.txt"), "--adc", "0.5",
          "--mbp-export", str(tmp_path / "mbp.tsv")])
    lines = (tmp_path / "mbp.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t")[0] == "path"
    assert len(lines) == 1 + 3
    ious = [float(row.split("\t")[10]) for row in lines[1:]]
    assert ious == sorted(ious)


def test_calibrate_single_file_detections(tmp_path, capsys):
    _synth(tmp_path, "--single-file")
    rc = main(["calibrate", "--gt", str(tmp_path / "gt.txt"),
               "--dets", str(tmp_path / "detections.txt"),
               "--out", str(tmp_path / "out.txt"), "--adc", "0.5"])
    assert rc == 0
    assert "calibrated=3" in capsys.readouterr().out
    assert (tmp_path / "out.txt").read_bytes() == (tmp_path / "truth.txt").read_bytes()


def test_calibrate_threads_agree_byte_for_byte(tmp_path):
    _synth(tmp_path, "--images", "40", "--faces", "0,6",
           "--score-range", "0.05,1.0", "--distractors", "0,3",
           "--distractor-score-range", "0.0,0.8")
    outs = []
    for n in ("1", "4", "16"):
        dst = tmp_path / f"out{n}.txt"
        exp = tmp_path / f"mbp{n}.tsv"
        rc = main(["calibrate", "--gt", str(tmp_path / "gt.txt"),
                   "--dets", str(tmp_path / "detections"),
                   "--out", str(dst), "--threads", n,
                   "--mbp-export", str(exp)])
        assert rc == 0
        outs.append((dst.read_bytes(), exp.read_bytes()))
    assert outs[0] == outs[1] == outs[2]


def test_calibrate_round_int_policy(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", "x.jpg\n1\n0 0 10.5 10 0 0 0 0 0 0\n")
    dets = _write(tmp_path, "dets.txt", "x.jpg\n0\n")
    out = tmp_path / "out.txt"
    rc = main(["calibrate", "--gt", gt, "--dets", dets, "--dets-format", "file",
               "--out", str(out), "--round-int"])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == "x.jpg\n1\n0 0 11 10 0 0 0 0 0 0\n"
    # nothing exceeded the threshold, so the pass-through changed no geometry
    assert "calibrated=0" in capsys.readouterr().out


def test_calibrate_interval_validation_exits_1(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["calibrate", "--gt", gt, "--dets", dets,
               "--out", str(tmp_path / "out.txt"), "--tm", "0.9", "--tc", "0.5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "boxcal: error:" in err
    assert "t_m < t_c required" in err


def test_calibrate_bad_threads_exits_1(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["calibrate", "--gt", gt, "--dets", dets,
               "--out", str(tmp_path / "out.txt"), "--threads", "0"])
    assert rc == 1
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["calibrate", "--gt", str(tmp_path / "absent.txt"),
               "--dets", str(tmp_path / "alsoabsent"),
               "--out", str(tmp_path / "out.txt")])
    assert rc == 2
    assert "boxcal: i/o error:" in capsys.readouterr().err


def test_malformed_gt_exits_1_with_location(tmp_path, capsys):
    gt = _write(tmp_path, "bad.txt", "x.jpg\nnotanumber\n")
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["calibrate", "--gt", gt, "--dets", dets,
               "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bad.txt:2:" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_flag_exits_1_without_traceback(tmp_path, capsys, value):
    gt = _write(tmp_path, "bad.txt", f"x.jpg\n1\n0 0 8 8 {value} 0 0 0 0 0\n")
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["calibrate", "--gt", gt, "--dets", dets,
               "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bad.txt:3:" in err
    assert "Traceback" not in err


# a bad byte in either file, or a GT row whose box has a negative width, is
# an error on its line; a score token that only `float` reads is none
@pytest.mark.parametrize("bad", ["gt", "dets", "gt-row", "dets-token"])
def test_undecodable_input_exits_1_with_location(tmp_path, capsys, bad):
    gt = tmp_path / "gt.txt"
    row = b"0 0 -1 1" if bad == "gt-row" else b"0 0 8 8"
    gt.write_bytes(b"a/x.jpg\n1\n" + row + b" 0 0 0 0 0 0\n"
                   + (b"b\xff.jpg\n0\n" if bad == "gt" else b""))
    root = tmp_path / "dets" / "a"
    root.mkdir(parents=True)
    det = root / "x.txt"
    score = b"0.9_0" if bad == "dets-token" else b"0.9"
    det.write_bytes(b"x\n1\n0 0 8 8 " + score + (b" \xff" if bad == "dets" else b"") + b"\n")
    rc = main(["stats", "--gt", str(gt), "--dets", str(tmp_path / "dets")])
    err = capsys.readouterr().err
    where = {"gt": f"{gt}:4:", "dets": f"{det}:3:", "gt-row": f"{gt}:3:"}.get(bad)
    if where is None:
        assert rc == 0 and err == "", err
    else:
        assert rc == 1
        assert err.startswith(f"boxcal: error: {where}"), err


# --- adc / stats -----------------------------------------------------------

def test_adc_prints_value_and_components(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["adc", "--gt", gt, "--dets", dets])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "0.850000"
    assert out[1] == ("numerator=1.7000000000000002 denominator=2 "
                      "images_used=1 shortfall_images=0")


def test_stats_table_on_stdout(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["stats", "--gt", gt, "--dets", dets, "--adc", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "index\tinterval\tcount\tpercentage"
    # both detections above 0.5 match their annotation exactly -> final bin
    assert "5\t[0.9, 1]\t2\t100.000" in lines
    assert lines[-1] == "7\t[0.5, 1]\t2\t100.000"


def test_stats_with_empty_detections(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", "")
    rc = main(["stats", "--gt", gt, "--dets", dets, "--dets-format", "file"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in out.splitlines()[1:]:
        assert line.endswith("\t0\t0.000")


def test_stats_out_file_and_custom_edges(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    dst = tmp_path / "table.txt"
    rc = main(["stats", "--gt", gt, "--dets", dets, "--adc", "0.5",
               "--edges", "0.0,0.5,1.0", "--out", str(dst)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = dst.read_text(encoding="utf-8")
    assert "2\t[0.5, 1]\t2\t100.000" in text


def test_stats_reads_a_detection_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1,100 levels, made and removed one at a time: os.makedirs and
    # shutil.rmtree recurse on some Python versions
    levels = [tmp_path / "dets"]
    for _ in range(1100):
        levels.append(levels[-1] / "d")
    made = []
    try:
        for level in levels:
            level.mkdir()
            made.append(level)
        (levels[-1] / "x.txt").write_text("x\n1\n0 0 8 8 0.9\n", encoding="utf-8")
        gt = _write(tmp_path, "gt.txt", "d/" * 1100 + "x.jpg\n1\n0 0 8 8 0 0 0 0 0 0\n")
        rc = main(["stats", "--gt", gt, "--dets", str(levels[0]), "--adc", "0.5"])
        out, err = capsys.readouterr()
    finally:
        (levels[-1] / "x.txt").unlink(missing_ok=True)
        for level in reversed(made):
            level.rmdir()
    assert rc == 0
    assert "Traceback" not in err
    assert "5\t[0.9, 1]\t1\t100.000" in out  # the one detection, found at the bottom


def test_report_histogram_equals_stats_without_invalid_faces(tmp_path, capsys):
    # Only valid faces can be claimed, but both histograms bin each detection's
    # max IoU over ALL faces: 0.8 against x's invalid face, 0.7 against y's.
    gt = _write(tmp_path, "gt.txt",
                "x.jpg\n2\n0 0 10 10 0 0 0 1 0 0\n0 0 10 6 0 0 0 0 0 0\n"
                "y.jpg\n1\n50 50 10 10 0 0 0 1 0 0\n")
    dets = _write(tmp_path, "dets.txt", "x.jpg\n1\n0 0 10 8 0.9\ny.jpg\n1\n50 50 10 7 0.9\n")
    report = tmp_path / "report.json"
    rc = main(["calibrate", "--gt", gt, "--dets", dets, "--adc", "0.5",
               "--include-invalid", "false", "--out", str(tmp_path / "out.txt"),
               "--report", str(report)])
    assert rc == 0
    capsys.readouterr()
    assert main(["stats", "--gt", gt, "--dets", dets, "--adc", "0.5"]) == 0
    table = capsys.readouterr().out.splitlines()[1:]
    hist = json.loads(report.read_text(encoding="utf-8"))["histogram"]
    assert hist["total"] == 2
    assert [[row.split("\t")[2], row.split("\t")[3]] for row in table] == [
        [str(b["count"]), f"{b['percentage']:.3f}"] for b in hist["bins"] + hist["aggregates"]]


def test_stats_bad_edges_exit_1(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["stats", "--gt", gt, "--dets", dets, "--edges", "0.9,0.1"])
    assert rc == 1
    assert "boxcal: error:" in capsys.readouterr().err


BAD_STATS_ARGS = {
    "--edges=0.9,0.1": "bin edges must be strictly increasing",
    "--edges=0.5": "bin edges must be strictly increasing",
    "--edges=0.5,nan,1.0": "bin edges must be strictly increasing",
    "--edges=0.5,1.5": "bin edges must lie within [0, 1]",
    "--edges=-0.5,0.5": "bin edges must lie within [0, 1]",
    "--adc=5": "adc override must lie in [0, 1]",
    "--adc=-0.1": "adc override must lie in [0, 1]",
    "--adc=nan": "adc override must lie in [0, 1]",
    "--edges=0.5,x": "expected comma-separated numbers, got '0.5,x'",
}


@pytest.mark.parametrize("arg", BAD_STATS_ARGS)
def test_stats_rejects_bad_arguments_before_reading_input(tmp_path, capsys, arg):
    # the inputs do not exist: reading them first would exit 2 instead
    missing = str(tmp_path / "missing.txt")
    rc = main(["stats", "--gt", missing, "--dets", missing, arg])
    assert rc == 1
    assert BAD_STATS_ARGS[arg] in capsys.readouterr().err


# --- synth / diff ----------------------------------------------------------

def test_synth_is_deterministic_across_runs(tmp_path, capsys):
    _synth(tmp_path / "a", "--distractors", "1,2")
    _synth(tmp_path / "b", "--distractors", "1,2")
    capsys.readouterr()
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_synth_summary_line(tmp_path, capsys):
    _synth(tmp_path)
    out = capsys.readouterr().out
    assert out == f"wrote 10 images, 10 faces, 3 perturbed, 10 detections to {tmp_path}\n"


@pytest.mark.parametrize("fraction", ["nan", "-0.5"])
def test_synth_rejects_a_fraction_outside_0_1(tmp_path, capsys, fraction):
    rc = main(["synth", "--out", str(tmp_path / "out"), "--images", "3",
               f"--perturb-fraction={fraction}"])
    assert rc == 1
    assert "fraction must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, message", [
    (["--perturb-fraction", "nan"], "fraction must lie in [0, 1], got nan"),
    (["--iou-range", "0.9,0.1"], "iou_range needs 0 < lo <= hi < 1, got (0.9, 0.1)")])
def test_synth_checks_the_perturbation_before_generating(tmp_path, monkeypatch, capsys,
                                                         option, message):
    def refuse(spec):
        raise AssertionError("the dataset was generated before the values were checked")

    monkeypatch.setattr(boxcal.synth, "generate_dataset", refuse)  # run_synth imports it
    assert main(["synth", "--out", str(tmp_path / "out"), "--images", "12880", *option]) == 1
    assert capsys.readouterr().err == f"boxcal: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_synth_rejects_a_nan_min_gap_before_generating(tmp_path, monkeypatch, capsys):
    def refuse(spec):
        raise AssertionError("the dataset was generated before min_gap was checked")

    monkeypatch.setattr(boxcal.synth, "generate_dataset", refuse)  # run_synth imports it
    assert main(["synth", "--out", str(tmp_path / "out"), "--min-gap", "nan"]) == 1
    assert capsys.readouterr().err == "boxcal: error: min_gap must be >= 0, got nan\n"
    assert not (tmp_path / "out").exists()


def test_an_empty_synthetic_set_calibrates_and_stats(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["synth", "--out", str(out), "--images", "0"]) == 0
    assert (out / "detections").is_dir()
    inputs = ["--gt", str(out / "gt.txt"), "--dets", str(out / "detections")]
    assert main(["calibrate", *inputs, "--out", str(out / "calibrated.txt")]) == 0
    assert (out / "calibrated.txt").read_text(encoding="utf-8") == ""
    assert main(["stats", *inputs]) == 0


def test_synth_writes_a_header_only_ledger_when_nothing_is_perturbed(tmp_path, capsys):
    _synth(tmp_path, "--perturb-fraction", "0")
    assert capsys.readouterr().out.startswith("wrote 10 images, 10 faces, 0 perturbed, ")
    assert (tmp_path / "ledger.tsv").read_text(encoding="utf-8") == (
        "path\tann_index\ttrue_x\ttrue_y\ttrue_w\ttrue_h"
        "\tpert_x\tpert_y\tpert_w\tpert_h\tachieved_iou\n")


SYNTH_HELP = """\
usage: boxcal synth [-h] --out OUT [--seed SEED] [--images IMAGES]
                    [--faces MIN,MAX] [--image-size WxH] [--box-size MIN,MAX]
                    [--perturb-fraction PERTURB_FRACTION] [--iou-range LO,HI]
                    [--distractors MIN,MAX] [--score-range LO,HI]
                    [--distractor-score-range LO,HI] [--min-gap MIN_GAP]
                    [--single-file]

options:
  -h, --help            show this help message and exit
  --out OUT             output directory
  --seed SEED
  --images IMAGES
  --faces MIN,MAX
  --image-size WxH
  --box-size MIN,MAX
  --perturb-fraction PERTURB_FRACTION
  --iou-range LO,HI
  --distractors MIN,MAX
  --score-range LO,HI
  --distractor-score-range LO,HI
  --min-gap MIN_GAP     minimum pixel separation between faces (0 allows
                        overlap)
  --single-file         write consolidated detections.txt instead of a
                        directory
"""


def test_synth_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal's width
    assert main(["synth", "--help"]) == 0
    assert capsys.readouterr().out == SYNTH_HELP


def test_diff_identical_files(tmp_path, capsys):
    gt = _write(tmp_path, "gt.txt", GT_TWO)
    rc = main(["diff", gt, gt])
    assert rc == 0
    assert capsys.readouterr().out == "0 changes\n"


def test_diff_counts_perturbed_boxes(tmp_path, capsys):
    _synth(tmp_path)
    capsys.readouterr()
    rc = main(["diff", str(tmp_path / "truth.txt"), str(tmp_path / "gt.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith("3 changes\n")
    assert sum(1 for line in out.splitlines() if line.startswith("~ ")) == 3


def test_diff_shows_flag_changes(tmp_path, capsys):
    old = _write(tmp_path, "old.txt", "a.jpg\n2\n0 0 8 8 0 0 0 0 0 0\n1 1 4 4 0 0 0 0 0 0\n")
    new = _write(tmp_path, "new.txt", "a.jpg\n1\n0 0 9 8 2 1 1 1 2 1\n")
    assert main(["diff", old, new]) == 0
    assert capsys.readouterr().out == ("~ a.jpg#0: (0 0 8 8) -> (0 0 9 8)\n"
                                       "~ a.jpg#0: flags (0 0 0 0 0 0) -> (2 1 1 1 2 1)\n"
                                       "~ a.jpg: face count 2 -> 1\n"
                                       "3 changes\n")
    # flags alone: one change
    old = _write(tmp_path, "a.txt", "a.jpg\n1\n0 0 8 8 0 0 0 0 0 0\n")
    new = _write(tmp_path, "b.txt", "a.jpg\n1\n0 0 8 8 2 1 1 1 2 1\n")
    assert main(["diff", old, new]) == 0
    assert capsys.readouterr().out == ("~ a.jpg#0: flags (0 0 0 0 0 0) -> (2 1 1 1 2 1)\n"
                                       "1 changes\n")


def test_diff_reports_structural_changes(tmp_path, capsys):
    old = _write(tmp_path, "old.txt", GT_TWO + "b/y.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
    new = _write(tmp_path, "new.txt",
                 "a/x.jpg\n1\n0 0 8 8 0 0 0 0 0 0\nc/z.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
    rc = main(["diff", old, new])
    out = capsys.readouterr().out
    assert rc == 0
    assert "~ a/x.jpg: face count 2 -> 1" in out
    assert f"- b/y.jpg: image only in {old}" in out
    assert f"+ c/z.jpg: image only in {new}" in out
    assert out.endswith("3 changes\n")


# sha256 of every file `boxcal synth` writes, as the release that built its
# datasets from per-face objects wrote them
SYNTH_PINS = {
    "dir": (["--seed", "5", "--images", "12", "--faces", "0,6", "--distractors", "0,3",
             "--min-gap", "6"], {
        "detections/d000/img000000.txt": "2d456ddecb79dc370e5d4b0ec85c199af8df96fea92e27bba9540de8c9c2745b",
        "detections/d000/img000001.txt": "65ed61c5dab0b2e441f5a884511185dd2c7e51a666f767613c65ec3d5931f206",
        "detections/d000/img000002.txt": "2351267b960d5e008bf3fce6e4f71ba0256b8d5a317e5df3c8d4ff7265357dec",
        "detections/d000/img000003.txt": "b18c83e3f0e0a0392b215b721c87ad358b3fdd1a269a6f8185bd6ce48582a510",
        "detections/d000/img000004.txt": "869a09b1ed32e2840e7c7b3e5c1937acea6c8155f4012910d439c0b6b80b4a3a",
        "detections/d000/img000005.txt": "142cf1a1b5bc17b83050ddbdcef3fdd2b7bfd2f47c9706f18729aeedbff4b687",
        "detections/d000/img000006.txt": "6f615d06677d893e73c3d483b5e8f9fabf06dfeba22cbc4ab97c257d9ad41c15",
        "detections/d000/img000007.txt": "040d1baf07ce8b8baddbdb017444a0ed79e85933393029af9bf0e98a361cf295",
        "detections/d000/img000008.txt": "3727c86399c0c3f2d3a1a0048dc86bee49617c5f80a67680c1bcfc1420a92621",
        "detections/d000/img000009.txt": "d9eb8d3719c8f8f2135c8ede1ce3b0a75599b2c84efd8f238903be585a309fe9",
        "detections/d000/img000010.txt": "4902bb48e27a3fb40b0d7010badfff734c181fef06a1ce4fdf49446a4e8d536d",
        "detections/d000/img000011.txt": "862e7c5e9e89ce0d6d320aa4134797be2f37d63708961eafca3836b8cac0ad5a",
        "gt.txt": "0765dd2e77623a0842a60f4a66c906fa8e7e49757ed58cdb455477a5cbc8c4aa",
        "ledger.tsv": "48692d64d2020b77c8b7114b78e1a7f484101bf79eb69b759dc7ca3058f9c932",
        "truth.txt": "5fb721fa1a5f55cae009f44ae66e78897df9cb84b613e631d8f17e84ede6ed55",
    }),
    "single-file": (["--single-file"], {
        "detections.txt": "d32d1b0f7830fefc45fe7640df03d0957077fea2d45733fd84a9803eb664a9c4",
        "gt.txt": "a4fc2213e190875e7efe92ff602c897439a868589f1526912ddda7c17b8edb81",
        "ledger.tsv": "9dd994c10006e3d4077984ed3832bb9e667c0526542e80be7a6a7da4bfb3a9e2",
        "truth.txt": "59decbe3f7cd35a8f09934e1e2e509cc01f554b99eedd88d6bfa1c54884df603",
    }),
}


@pytest.mark.parametrize("layout", sorted(SYNTH_PINS))
def test_synth_output_bytes_are_pinned(tmp_path, capsys, layout):
    argv, pins = SYNTH_PINS[layout]
    assert main(["synth", "--out", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
    assert written == pins


_flags = attrgetter("blur", "expression", "illumination", "invalid", "occlusion", "pose")


def _reference_diff(old_path: str, new_path: str) -> str:
    """`boxcal diff`'s stdout as the release that walked the row view
    printed it."""
    old, new = load_wider_gt(old_path), load_wider_gt(new_path)
    out = []
    new_by_path = {img.path: img for img in new.images}
    changes = 0
    for img in old.images:
        other = new_by_path.pop(img.path, None)
        if other is None:
            out.append(f"- {img.path}: image only in {old_path}")
            changes += 1
            continue
        for k, (fa, fb) in enumerate(zip(img.faces, other.faces)):
            if fa.box != fb.box:
                a, b = fa.box, fb.box
                out.append(f"~ {img.path}#{k}: ({a.x:g} {a.y:g} {a.w:g} {a.h:g})"
                           f" -> ({b.x:g} {b.y:g} {b.w:g} {b.h:g})")
                changes += 1
            if _flags(fa) != _flags(fb):
                out.append(f"~ {img.path}#{k}: flags ({' '.join(f'{v:g}' for v in _flags(fa))})"
                           f" -> ({' '.join(f'{v:g}' for v in _flags(fb))})")
                changes += 1
        if len(img.faces) != len(other.faces):
            out.append(f"~ {img.path}: face count {len(img.faces)} -> {len(other.faces)}")
            changes += 1
    for path in new_by_path:
        out.append(f"+ {path}: image only in {new_path}")
        changes += 1
    out.append(f"{changes} changes")
    return "".join(line + "\n" for line in out)


# coordinate tokens: signed zeros in several spellings, fractions :g shortens,
# a value past the cached texts, a large exponent
_DIFF_TOKENS = st.sampled_from(["0", "-0", "0.0", "-0.0", "1", "1.5", "2.25", "3", "100",
                                "1e2", "16384", "123456789.5", "1e150"])
# flag tokens: the parser keeps integer parts, so 1.5 equals 1 and -0.5 equals 0
_DIFF_FLAG_TOKENS = st.sampled_from(["0", "-0", "1", "1.5", "2", "-0.5", "1e300"])
_DIFF_FLAGS = st.lists(_DIFF_FLAG_TOKENS, min_size=6, max_size=6)
_DIFF_FACE = st.builds(lambda box, flags: box + flags,
                       st.lists(_DIFF_TOKENS, min_size=4, max_size=4), _DIFF_FLAGS)
# the same value spelt another way: -0 equals 0, as BBox == says
_RESPELT = {"0": "-0", "-0": "0.0", "0.0": "-0.0", "-0.0": "0", "100": "1e2", "1e2": "100",
            "1": "1.5", "1.5": "1", "-0.5": "0"}


@st.composite
def _diff_pair(draw):
    """Two annotation files over overlapping image sets: the new file
    changes boxes and flags (-0 for 0 among them), adds and drops faces,
    drops images, adds images and reorders them."""
    paths = draw(st.lists(st.sampled_from([f"d/{c}.jpg" for c in "abcdefgh"]),
                          max_size=6, unique=True))
    old = {p: draw(st.lists(_DIFF_FACE, max_size=4)) for p in paths}
    new = {}
    for p, faces in old.items():
        if draw(st.integers(0, 5)) == 0:
            continue                                                # only in the old file
        faces = [draw(st.sampled_from([f, [_RESPELT.get(t, t) for t in f], draw(_DIFF_FACE),
                                       f[:4] + draw(_DIFF_FLAGS)]))
                 for f in faces]                    # kept, respelt, redrawn, new flags
        if faces and draw(st.booleans()):
            faces = faces[:draw(st.integers(0, len(faces) - 1))]    # fewer faces
        faces += draw(st.lists(_DIFF_FACE, max_size=2))             # more faces
        new[p] = faces
    for p in draw(st.lists(st.sampled_from(["n/x.jpg", "n/y.jpg", "n/z.jpg"]), unique=True)):
        new[p] = draw(st.lists(_DIFF_FACE, max_size=3))             # only in the new file
    order = draw(st.permutations(list(new)))

    def text(images, keys):
        return "".join(f"{p}\n{len(images[p])}\n"
                       + "".join(" ".join(f) + "\n" for f in images[p])
                       for p in keys)

    return text(old, old), text(new, order)


@settings(max_examples=150, deadline=None)
@given(pair=_diff_pair())
def test_diff_equals_the_row_view_reference(pair):
    with tempfile.TemporaryDirectory() as tmp:
        old = _write(Path(tmp), "old.txt", pair[0])
        new = _write(Path(tmp), "new.txt", pair[1])
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["diff", old, new]) == 0
        assert out.getvalue() == _reference_diff(old, new)


# --- argument and stream discipline ----------------------------------------

def test_no_subcommand_exits_1(capsys):
    rc = main([])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage:" in captured.err
    assert captured.out == ""


def test_unknown_flag_exits_1(tmp_path, capsys):
    rc = main(["adc", "--gt", "x", "--dets", "y", "--frobnicate"])
    assert rc == 1
    assert "usage:" in capsys.readouterr().err
    rc = main(["calibrate", "--gt", "x", "--dets", "y", "--out", "z", "--include-invalid", "maybe"])
    assert rc == 1
    assert "expected true or false, got 'maybe'" in capsys.readouterr().err


def test_warnings_go_to_stderr_not_stdout(tmp_path, capsys):
    # second image has no detections: the mismatch warning must not pollute stdout
    gt = _write(tmp_path, "gt.txt", GT_TWO + "b/y.jpg\n1\n1 1 4 4 0 0 0 0 0 0\n")
    dets = _write(tmp_path, "dets.txt", DETS_TWO)
    rc = main(["calibrate", "--gt", gt, "--dets", dets,
               "--out", str(tmp_path / "out.txt"), "--adc", "0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("predictor=")
    assert len(captured.out.splitlines()) == 1
    assert "no detections" in captured.err


def test_calibrate_output_parses_back(tmp_path):
    _synth(tmp_path)
    main(["calibrate", "--gt", str(tmp_path / "gt.txt"),
          "--dets", str(tmp_path / "detections"),
          "--out", str(tmp_path / "out.txt"), "--adc", "0.5"])
    reread = load_wider_gt(tmp_path / "out.txt")
    assert len(reread.images) == 10
    assert reread.total_faces() == 10


_INPUTS = ["--adc", "0.5", "--gt", "{tmp}/gt.txt", "--dets", "{tmp}/d.txt"]


@pytest.mark.parametrize("argv,stages", [
    (["calibrate", "--out", "{tmp}/out.txt", "--report", "{tmp}/r.json",
      "--mbp-export", "{tmp}/m.json", *_INPUTS],
     ["parse GT", "parse detections", "calibrate", "write GT", "report", "ledger"]),
    (["calibrate", "--out", "{tmp}/out.txt", *_INPUTS],
     ["parse GT", "parse detections", "calibrate", "write GT"]),
    (["stats", *_INPUTS], ["parse GT", "parse detections", "calibrate", "table"]),
    (["synth", "--out", "{tmp}/synth", "--images", "3", "--distractors", "0,2"],
     ["generate", "detections", "perturb", "write"])])
def test_verbose_logs_each_stage_once_and_quiet_runs_do_not(tmp_path, capsys, argv, stages):
    _write(tmp_path, "gt.txt", GT_TWO)
    _write(tmp_path, "d.txt", DETS_TWO)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(["-v", *argv]) == 0
    verbose = capsys.readouterr()
    lines = verbose.err.splitlines()
    logged = [re.fullmatch(r"INFO boxcal\.cli: stage (.+): \d+\.\d{3} s", line) for line in lines]
    assert [m and m[1] for m in logged] == stages
    if argv[0] == "synth":  # -v changes neither its stdout nor its files
        assert verbose.out == quiet.out
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written


def test_module_entry_point(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_TWO, encoding="utf-8")
    dets = tmp_path / "dets.txt"
    dets.write_text(DETS_TWO, encoding="utf-8")
    # the child imports the same boxcal as this process, installed or not
    src = str(Path(boxcal.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "boxcal.cli", "-v", "adc", "--gt", str(gt), "--dets", str(dets)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0.850000"
    # the logger is named after the module, not __main__
    assert [re.sub(r"\d+\.\d{3} s$", "T", line) for line in proc.stderr.splitlines()] == [
        "INFO boxcal.cli: stage parse GT: T", "INFO boxcal.cli: stage parse detections: T"]
    bare = subprocess.run([sys.executable, "-m", "boxcal.cli"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert bare.returncode == 1


def test_only_synth_imports_synth():
    # the package resolves synth's names on first use, and `boxcal synth`
    # imports the module itself, so no other command pays for it
    code = """if True:
        import sys
        import boxcal.cli
        assert "boxcal.synth" not in sys.modules
        import boxcal
        assert boxcal.oracle_calibrate.__module__ == "boxcal.synth"
        namespace = {}
        exec("from boxcal import *", namespace)
        assert set(boxcal.__all__) <= set(namespace) and namespace["SynthSpec"](seed=0, n_images=1)
        """
    src = str(Path(boxcal.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


# --- pinned outputs, the columnar path, fuzzing ------------------------------

NONCANONICAL = Path(__file__).parent / "data" / "noncanonical"


@pytest.mark.parametrize("tag,extra", [("default", []),
                                       ("fixed", ["--adc", "0.5", "--include-invalid", "false"]),
                                       ("default", ["--include-invalid", " TRUE"])])
def test_noncanonical_inputs_give_pinned_bytes(tmp_path, capsys, tag, extra):
    # CRLF input with 1.0, 1.005, -0, 1e2, fractional, negative and
    # out-of-range flags, a flag of 1e300, zero-face records with and without
    # the dummy row, an out-of-range score and an image only in the
    # detections; the expected files were written by the release before the
    # columnar tables
    report = tmp_path / "report.json"
    rc = main(["calibrate", "--gt", str(NONCANONICAL / "gt.txt"),
               "--dets", str(NONCANONICAL / "dets.txt"), "--out", str(tmp_path / "out.txt"),
               "--report", str(report), "--mbp-export", str(tmp_path / "mbp.tsv"), *extra])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (NONCANONICAL / "stderr.txt").read_text(encoding="utf-8").format(
        dir=NONCANONICAL)
    assert (tmp_path / "out.txt").read_bytes() == (NONCANONICAL / f"{tag}.out.txt").read_bytes()
    assert (tmp_path / "mbp.tsv").read_bytes() == (NONCANONICAL / f"{tag}.mbp.tsv").read_bytes()
    text, n = re.subn(r'  "wall_time_s": [^\n]*\n', "", report.read_text(encoding="utf-8"))
    assert n == 1
    assert text.encode("utf-8") == (NONCANONICAL / f"{tag}.report.json").read_bytes()


def test_calibrate_and_stats_never_build_the_row_view(tmp_path, monkeypatch, capsys):
    _synth(tmp_path, "--images", "30", "--faces", "0,4", "--distractors", "0,2")
    _synth(tmp_path / "single", "--images", "30", "--faces", "0,4", "--single-file")

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} row view built")

    monkeypatch.setattr(boxcal.formats.AnnotationSet, "_row_view", refuse)
    monkeypatch.setattr(boxcal.formats.DetectionSet, "_row_view", refuse)
    monkeypatch.setattr(boxcal.calibrate.ClaimTable, "records", property(refuse))
    _synth(tmp_path / "columns", "--images", "30", "--faces", "0,4", "--distractors", "0,2")
    for gt, dets in ((tmp_path / "gt.txt", tmp_path / "detections"),
                     (tmp_path / "single" / "gt.txt", tmp_path / "single" / "detections.txt")):
        for ledger in (tmp_path / "m.tsv", tmp_path / "m.json"):
            assert main(["calibrate", "--gt", str(gt), "--dets", str(dets),
                         "--out", str(tmp_path / "out.txt"), "--report", str(tmp_path / "r.json"),
                         "--mbp-export", str(ledger)]) == 0
            text = ledger.read_text(encoding="utf-8")
            rows = json.loads(text) if ledger.suffix == ".json" else text.splitlines()[1:]
            report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
            assert len(rows) == report["calibrated"] > 0
        assert main(["calibrate", "--gt", str(gt), "--dets", str(dets), "--round-int",
                     "--include-invalid", "false", "--out", str(tmp_path / "out.txt")]) == 0
        assert main(["stats", "--gt", str(gt), "--dets", str(dets)]) == 0
        assert main(["adc", "--gt", str(gt), "--dets", str(dets)]) == 0
        assert main(["diff", str(gt), str(tmp_path / "out.txt")]) == 0
    assert "Traceback" not in capsys.readouterr().err


# one claim whose centre distance (2e159) squares past the float range; the
# second row of each keeps the computed threshold below the claiming score
GT_HUGE = "a/x.jpg\n2\n0 0 1e160 1e-160 0 0 0 0 0 0\n0 0 8 8 0 0 0 0 0 0\n"
DETS_HUGE = "a/x.jpg\n2\n2e159 0 1e160 1e-160 0.9\n0 0 8 8 0.8\n"


def test_overflowing_diou_loss_exits_0_with_a_finite_report(tmp_path, capsys):
    gt, dets, report = tmp_path / "gt.txt", tmp_path / "dets.txt", tmp_path / "r.json"
    gt.write_text("a.jpg\n1\n0 0 1e160 1e-160 0 0 0 0 0 0\n", encoding="utf-8")
    dets.write_text("a.jpg\n2\n2e159 0 1e160 1e-160 0.9\n0 0 1 1 0.1\n", encoding="utf-8")
    rc = main(["calibrate", "--gt", str(gt), "--dets", str(dets), "--out", str(tmp_path / "o.txt"),
               "--report", str(report), "--adc", "0.5"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "Traceback" not in captured.err
    doc = json.loads(report.read_text(encoding="utf-8"), parse_constant=lambda c: pytest.fail(c))
    assert doc["calibrated"] == 1
    assert doc["loss"]["mean_delta"] == pytest.approx(1 / 3 + 1 / 36, rel=1e-12)


_VALID_TEXT = st.sampled_from([GT_TWO, DETS_TWO, GT_TWO + "b/y.jpg\n0\n",
                               DETS_TWO.replace("\n", "\r\n")])
# an annotation file and a detection file that go together
_VALID_PAIR = st.sampled_from([(GT_TWO, DETS_TWO), (GT_HUGE, DETS_HUGE)])
_FUZZ_TEXT = st.one_of(
    _VALID_TEXT, _VALID_TEXT,
    st.text(max_size=40),
    st.lists(st.sampled_from(["a/x.jpg", "b.jpg", "1", "2", "0", "-1", "x",
                              "0 0 8 8 0 0 0 0 0 0", "20 20 8 8 0 0 0 0 0 0",
                              "1 1 8 8 0.9", "20 20 8 8 0.7", "0 0 8 8 3 0 0 1 0 0",
                              "0 0 8 8 nan", "1e400 0 1 1 0.5", "0 0 1e160 1e-160 0 0 0 0 0 0",
                              "2e159 0 1e160 1e-160 0.9", "-1e308 0 1e308 1e308 0.9", ""]),
             max_size=12).map("\n".join))
_NUMBERS = st.sampled_from(["0", "0.5", "0.8", "1", "2", "-1", "nan", "1e400", "x"])
_FILES = st.sampled_from(["GT", "DETS", "DETDIR", "OUT", "MISSING", "TMP", "OUT.json"])
_FUZZ_OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["--tm", "--tc", "--adc", "--threads"]), _NUMBERS),
    st.tuples(st.sampled_from(["--gt", "--dets", "--out", "--report", "--mbp-export"]), _FILES),
    st.tuples(st.sampled_from(["--include-invalid"]), st.sampled_from(["true", "no", "maybe"])),
    st.tuples(st.sampled_from(["--dets-format"]), st.sampled_from(["auto", "dir", "file", "x"])),
    st.tuples(st.sampled_from(["--image-ext"]), st.sampled_from([".jpg", ".png", ""])),
    st.tuples(st.sampled_from(["--edges"]), st.sampled_from(["0.5,0.9", "0.9,0.5", "0,1", "x"])),
    st.tuples(st.sampled_from(["--round-int", "--predictor=p", "--help", "--bogus", "x"])),
    st.tuples(_FILES))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["calibrate", "stats", "adc", "diff", "nope"]),
       options=st.lists(_FUZZ_OPTIONS, max_size=3), verbose=st.booleans(),
       required=st.sampled_from([True, True, True, False]),
       texts=st.one_of(st.tuples(_FUZZ_TEXT, _FUZZ_TEXT), _VALID_PAIR))
@example(command="calibrate", options=[], verbose=False, required=True,
         texts=(GT_HUGE, DETS_HUGE))
def test_cli_fuzz_exits_0_1_or_2_without_traceback(command, options, verbose, required, texts):
    gt_text, dets_text = texts
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "gt.txt").write_text(gt_text, encoding="utf-8")
        (root / "dets.txt").write_text(dets_text, encoding="utf-8")
        (root / "detdir" / "a").mkdir(parents=True)
        (root / "detdir" / "a" / "x.txt").write_text(dets_text, encoding="utf-8")
        names = {"GT": root / "gt.txt", "DETS": root / "dets.txt", "DETDIR": root / "detdir",
                 "OUT": root / "out.txt", "MISSING": root / "missing.txt", "TMP": root,
                 "OUT.json": root / "out.json", "REPORT": root / "report.json"}
        if required:  # the arguments the command needs, first
            options = {"calibrate": [("--gt", "GT", "--dets", "DETS", "--out", "OUT",
                                      "--report", "REPORT")],
                       "stats": [("--gt", "GT", "--dets", "DETDIR")],
                       "adc": [("--gt", "GT", "--dets", "DETS")],
                       "diff": [("GT", "GT")]}.get(command, []) + options
        argv = ["-v"] * verbose + [command] + [str(names.get(w, w)) for o in options for w in o]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
