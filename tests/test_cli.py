"""Command-line interface tests.

Everything runs in-process through ``main(argv)`` so exit codes and the
stdout/stderr split are asserted directly; one subprocess test covers the
``python -m`` entry point.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxcal
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


@pytest.mark.parametrize("bad", ["gt", "dets"])
def test_undecodable_input_exits_1_with_location(tmp_path, capsys, bad):
    gt = tmp_path / "gt.txt"
    gt.write_bytes(b"a/x.jpg\n1\n0 0 8 8 0 0 0 0 0 0\n" + (b"b\xff.jpg\n0\n" if bad == "gt" else b""))
    root = tmp_path / "dets" / "a"
    root.mkdir(parents=True)
    det = root / "x.txt"
    det.write_bytes(b"x\n1\n0 0 8 8 0.9" + (b" \xff" if bad == "dets" else b"") + b"\n")
    rc = main(["stats", "--gt", str(gt), "--dets", str(tmp_path / "dets")])
    err = capsys.readouterr().err
    assert rc == 1
    where = f"{gt}:4:" if bad == "gt" else f"{det}:3:"
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
        [sys.executable, "-m", "boxcal.cli", "adc", "--gt", str(gt), "--dets", str(dets)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0.850000"
    bare = subprocess.run([sys.executable, "-m", "boxcal.cli"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert bare.returncode == 1
