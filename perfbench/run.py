"""End-to-end and per-layer benchmark of the boxcal CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --describe

Run from anywhere inside a boxcal checkout; the program is imported from
``src/`` next to this directory and nothing is installed.  Each run builds
its workload from the seed, runs ``python -m boxcal.cli`` as a child process
and checks every output against expectations derived from the generator
alone (see workloads.py).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 (end to end, tracing off): sets the workload up SETUPS times
(median -> setup_s), then runs the CLI back to back until --seconds have
passed, reporting the medians of wall_s, cpu_s and peak_rss_mb from
os.wait4, and pass_ratio, the share of runs that exited 0 and passed the
check (its complement is the fail ratio; the JSON's ``failed`` carries it).

--trace 1 (per layer): PAIRS CLI runs as children alternating with
untraced in-process calls of ``boxcal.cli.main`` with the same arguments,
then one in-process call with spans around the names listed in spans.py.
The traced call minus the untraced ones is trace.overhead_s; cli.gap_s is
the child's wall time minus `import boxcal.cli` and the untraced call
(interpreter start and exit, freeing).  Spans and the per-layer table go
to .perfbench/traces/<workload>-seed<N>.json.

Inputs are kept in .perfbench/inputs-<workload>/ between runs (see
inputs_dir); everything else a run writes is removed when it ends.

--self-test checks the check itself on ~200-image copies of every workload:
its expected outputs must equal oracle_calibrate's, the real CLI must pass
it, and a single altered output box or count must fail it.

--describe writes perfbench/workloads.json: per workload the command line,
seed, image/face/detection counts and input bytes at the default seed and
the face count at a second seed, plus nproc and the Python and numpy
versions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 3           # set-ups per end-to-end run; setup_s is their median
PAIRS = 3            # untraced CLI runs and stage-timed replays per traced run
CHILD_TIMEOUT = 150  # seconds before a hung CLI child is killed


def _no_timer(name):
    return nullcontext({})


def inputs_dir(wl) -> Path:
    """Where a workload's inputs are written; kept from run to run.

    Every seed writes the same file names, so set-ups overwrite files in
    place.  Creating dir-stats' 12,880 files instead costs 2-7 s of kernel
    time on a shared disk, varying from minute to minute, which would swamp
    the program's share of setup_s.  Runs of one checkout must not overlap.
    """
    return WORK / f"inputs-{wl.name}"


class Spawner:
    """Runs measured children through spawner.py (see there for why) and
    reports each one's exit code, wall time, CPU time and peak RSS."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout: Path) -> dict:
        """Run `python argv` from the checkout root with src/ on the path."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        req = {"argv": [sys.executable, *argv], "stdout": str(stdout),
               "stderr": str(stdout.with_suffix(".err")), "cwd": str(ROOT), "env": env,
               "timeout": CHILD_TIMEOUT}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench: the spawner process exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT)
        self._proc.stdout.close()


def cli_args(wl, gt: Path, dets: Path, outdir: Path) -> list[str]:
    args = ["-m", "boxcal.cli", wl.command, "--gt", str(gt), "--dets", str(dets),
            "--dets-format", wl.dets_layout]
    if wl.command == "calibrate":
        args += ["--out", str(outdir / "out.txt"), "--report", str(outdir / "report.json"),
                 "--mbp-export", str(outdir / "mbp.tsv"), "--threads", str(wl.threads)]
    return args


def run_cli(spawner: Spawner, wl, gt: Path, dets: Path, outdir: Path, exp) -> dict:
    """One checked CLI run; `problems` is empty when exit code and outputs are right."""
    from workloads import check
    outdir.mkdir(parents=True, exist_ok=True)
    for f in outdir.iterdir():
        f.unlink()
    stdout = outdir / "stdout.txt"
    res = spawner.run(cli_args(wl, gt, dets, outdir), stdout)
    if res["rc"] != 0:
        err = stdout.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        res["problems"] = [f"exit code {res['rc']}: {err.strip()[-300:]}"]
    else:
        res["problems"] = check(exp, output_files(wl, outdir))
    return res


def output_files(wl, outdir: Path) -> dict[str, Path]:
    if wl.command == "stats":
        return {"table": outdir / "stdout.txt"}
    return {"out": outdir / "out.txt", "mbp": outdir / "mbp.tsv", "report": outdir / "report.json"}


def input_stats(gt: Path, dets: Path) -> dict:
    files = sorted(dets.rglob("*.txt")) if dets.is_dir() else [dets]
    det_bytes = [f.read_bytes() for f in files]
    gt_bytes = gt.read_bytes()
    return {"gt_lines": gt_bytes.count(b"\n"), "det_lines": sum(b.count(b"\n") for b in det_bytes),
            "det_files": len(files), "in_bytes": len(gt_bytes) + sum(map(len, det_bytes))}


def data_stats(data) -> dict:
    return {"images": len(data.truth.images),
            "faces": sum(len(img.faces) for img in data.truth.images),
            "detections": sum(len(img.dets) for img in data.dets.images),
            "perturbed": len(data.ledger.entries)}


def _metric(value, unit):
    return {"value": value, "unit": unit}


# --- end to end ----------------------------------------------------------------

def end_to_end(spawner: Spawner, wl, seed: int, seconds: float, work: Path) -> dict:
    from workloads import BUILDERS, expected_outputs, write_inputs
    setup_times = []
    for _ in range(SETUPS):
        data = None  # the previous set-up's objects are freed before timing the next
        t0 = perf_counter()
        data = BUILDERS[wl.name](seed, False, _no_timer)
        gt, dets = write_inputs(wl, data, inputs_dir(wl), _no_timer)
        setup_times.append(perf_counter() - t0)
    exp = expected_outputs(data)
    info = {**data_stats(data), "claims": len(exp.claims), "hcdrs": exp.hcdrs}
    del data

    # compiles boxcal's bytecode once, which users do not pay on every run
    spawner.run(["-c", "import boxcal.cli"], work / "import.txt")
    runs = []
    deadline = perf_counter() + seconds
    while not runs or perf_counter() < deadline:
        runs.append(run_cli(spawner, wl, gt, dets, work / "out", exp))
    failed = sum(1 for r in runs if r["problems"])
    for r in runs:
        for p in r["problems"]:
            print(f"FAIL {wl.name} seed {seed}: {p}", file=sys.stderr)
    print(f"{wl.name} seed {seed}: {info}; {len(runs)} runs, wall "
          f"{[round(r['wall'], 3) for r in runs]}, setup {[round(t, 3) for t in setup_times]}")
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    return {
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {
            "wall_s": _metric(med("wall"), "s"),
            "cpu_s": _metric(med("cpu"), "s"),
            "peak_rss_mb": _metric(med("rss_mb"), "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "pass_ratio": _metric((len(runs) - failed) / len(runs), "ratio"),
        },
    }


# --- per layer -----------------------------------------------------------------

def in_process(argv: list[str], outdir: Path) -> int:
    """`boxcal.cli.main(argv)` in this process, stdout captured as the child's is."""
    import boxcal.cli
    outdir.mkdir(parents=True, exist_ok=True)
    for f in outdir.iterdir():
        f.unlink()
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = boxcal.cli.main(argv)
    (outdir / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
    return rc


def traced(spawner: Spawner, wl, seed: int, work: Path) -> dict:
    import spans as sp
    from boxcal.calibrate import CalibrationConfig, calibrate_dataset
    from workloads import BUILDERS, check, expected_outputs, write_inputs

    tr = sp.Tracer()
    with tr.span("setup"):
        data = BUILDERS[wl.name](seed, False, tr.span)
        gt, dets = write_inputs(wl, data, inputs_dir(wl), tr.span)
    exp = expected_outputs(data)
    del data

    problems = []

    def main_checked(cmd, outdir: Path, label: str) -> None:
        rc = in_process(cli_args(cmd, gt, dets, outdir)[2:], outdir)
        found = [f"exit code {rc}"] if rc else check(exp, output_files(cmd, outdir))
        problems.extend(f"{label}: {p}" for p in found)

    imports = [spawner.run(["-c", "import boxcal.cli"], work / "import.txt")["wall"]
               for _ in range(3)]
    # cli.gap_s and trace.overhead_s are differences of whole-run times, so
    # both sides are medians of PAIRS runs taken in alternation
    walls, untraced = [], []
    for k in range(1, PAIRS + 1):
        cli = run_cli(spawner, wl, gt, dets, work / "cli", exp)
        problems.extend(f"cli run {k}: {p}" for p in cli["problems"])
        walls.append(cli["wall"])
        t0 = perf_counter()
        main_checked(wl, work / "untraced", f"untraced main {k}")
        untraced.append(perf_counter() - t0)
    wall, untraced_total = statistics.median(walls), statistics.median(untraced)

    with sp.instrumented(tr) as returned, tr.span("command"):
        main_checked(wl, work / "traced", "traced main")
    result = returned.get("calibrate_dataset")
    if wl.command == "stats":
        # stats runs no calibrate stage: trace `calibrate` on the same inputs
        # under its own root, so every layer is measured
        probe = replace(wl, command="calibrate", threads=1)
        with sp.instrumented(tr) as probed, tr.span("probe"):
            main_checked(probe, work / "probe", "calibrate probe")
        result = probed.get("calibrate_dataset")
    if problems:
        for p in problems:
            print(f"FAIL {wl.name} seed {seed}: {p}", file=sys.stderr)
        return {"correct": False, "attempted": 2 * PAIRS + 1 + (wl.command == "stats"),
                "failed": len({p.split(":")[0] for p in problems}), "metrics": {}}
    anns, detset = returned["load_wider_gt"], returned["load_detections"]
    threshold = result.effective_adc   # stats selects HCDRs with the same threshold

    thread_s = {}
    for n in (1, 2):
        t0 = perf_counter()
        calibrate_dataset(anns, detset, CalibrationConfig(), threads=n)
        thread_s[n] = perf_counter() - t0

    times = sp.attribute(tr.spans)
    root_of = _roots(tr.spans)
    tables = {root: sp.by_name([s for s in tr.spans if root_of[s.id] == root], times)
              for root in ("setup", "command", "probe")}
    command_total = next(times[s.id][0] for s in tr.spans if s.name == "command")
    self_sum = sum(times[s.id][1] for s in tr.spans if root_of[s.id] == "command")

    def row(name):
        return (tables["command"].get(name) or tables["probe"].get(name)
                or tables["setup"].get(name) or {"calls": 0, "time_s": 0.0, "self_s": 0.0, "work": {}})

    parsed = sum(len(d.dets) for d in detset.images)
    by_path = {d.path: d.dets for d in detset.images}
    above = {img.path: sum(1 for d in by_path.get(img.path, []) if d.score > threshold)
             for img in anns.images}
    needed = sum(above[img.path] * len(img.faces) for img in anns.images)
    counters, claims = result.counters, len(result.mbps)
    ins = input_stats(gt, dets)
    out_bytes = sum(p.stat().st_size for p in output_files(wl, work / "traced").values())
    import_s = statistics.median(imports)
    cells = row("geometry.iou_matrix")["work"].get("cells", 0)

    per_layer = {
        "formats.parse_gt_s": (row("formats.parse_gt")["time_s"], "s"),
        "formats.parse_dets_s": (row("formats.parse_dets")["time_s"], "s"),
        "formats.align_s": (row("formats.align")["time_s"], "s"),
        "formats.write_gt_s": (row("formats.write_gt")["time_s"], "s"),
        "formats.gt_lines": (ins["gt_lines"], "count"),
        "formats.det_lines": (ins["det_lines"], "count"),
        "formats.det_files": (ins["det_files"], "count"),
        "formats.in_bytes": (ins["in_bytes"], "bytes"),
        "formats.out_bytes": (out_bytes, "bytes"),
        "adc.compute_s": (row("adc.compute")["time_s"], "s"),
        "adc.scores_used": (row("adc.compute")["work"].get("scores_used", 0), "count"),
        "adc.hcdr_share": (sum(above.values()) / parsed, "ratio"),
        "calibrate.dataset_s": (row("calibrate.dataset")["time_s"], "s"),
        "calibrate.self_s": (row("calibrate.dataset")["self_s"], "s"),
        "calibrate.threads1_s": (thread_s[1], "s"),
        "calibrate.threads2_s": (thread_s[2], "s"),
        "calibrate.hcdrs": (counters.hcdrs_considered, "count"),
        "calibrate.claims": (claims, "count"),
        "calibrate.out_of_interval": (counters.skipped_out_of_interval, "count"),
        "calibrate.already_claimed": (counters.skipped_already_claimed, "count"),
        "calibrate.claim_ratio": (claims / counters.hcdrs_considered, "ratio"),
        "geometry.iou_matrix_s": (row("geometry.iou_matrix")["time_s"], "s"),
        "geometry.iou_matrix_calls": (row("geometry.iou_matrix")["calls"], "count"),
        "geometry.iou_cells": (cells, "count"),
        "geometry.cells_per_needed": (cells / needed, "ratio"),
        "report.histogram_s": (row("report.histogram")["time_s"], "s"),
        "report.loss_s": (row("report.loss")["time_s"], "s"),
        "report.mbp_export_s": (row("report.mbp_export")["time_s"], "s"),
        "report.write_report_s": (row("report.write")["time_s"], "s"),
        "cli.import_s": (import_s, "s"),
        "cli.gap_s": (wall - import_s - untraced_total, "s"),
        "synth.generate_s": (row("synth.generate")["time_s"], "s"),
        "synth.perturb_s": (row("synth.perturb")["time_s"], "s"),
        "synth.write_s": (row("synth.write")["time_s"], "s"),
        "trace.overhead_s": (command_total - untraced_total, "s"),
    }
    metrics = {k: _metric(v, u) for k, (v, u) in per_layer.items()}

    t_base = min(s.start for s in tr.spans)
    trace_file = WORK / "traces" / f"{wl.name}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": wl.name, "seed": seed,
        "untraced_wall_s": wall, "trace_overhead_s": command_total - untraced_total,
        "command_total_s": command_total, "command_self_sum_s": self_sum,
        "per_layer": {k: v["value"] for k, v in metrics.items()},
        "by_root": tables,
        "spans": [[s.id, s.parent, s.name, round(s.start - t_base, 7), round(s.end - t_base, 7),
                   round(times[s.id][1], 7), s.work] for s in tr.spans],
        "span_fields": ["id", "parent", "name", "start_s", "end_s", "self_s", "work"],
    }), encoding="utf-8")

    print(f"{wl.name} seed {seed}: traced total {command_total:.3f}s, self-time sum "
          f"{self_sum:.3f}s, untraced CLI {wall:.3f}s; spans in {trace_file}")
    return {"correct": True, "attempted": 2 * PAIRS + 1 + (wl.command == "stats"),
            "failed": 0, "metrics": metrics}


def _roots(spans) -> dict[int, str]:
    parent = {s.id: s.parent for s in spans}
    name = {s.id: s.name for s in spans}
    out = {}
    for s in spans:
        i = s.id
        while parent[i]:
            i = parent[i]
        out[s.id] = name[i]
    return out


# --- self-test and description ------------------------------------------------------

def self_test(spawner: Spawner, work: Path) -> bool:
    """The check agrees with the oracle, passes the real CLI, and catches one bad box."""
    from boxcal.calibrate import CalibrationConfig
    from boxcal.formats import load_detections, load_wider_gt, write_wider_gt
    from boxcal.synth import oracle_calibrate
    from workloads import (BUILDERS, WORKLOADS, check, expected_outputs, histogram_table,
                           write_inputs)
    ok = True
    for wl in WORKLOADS.values():
        data = BUILDERS[wl.name](wl.default_seed, True, _no_timer)
        gt, dets = write_inputs(wl, data, work / wl.name, _no_timer)
        exp = expected_outputs(data)
        anns, detset = load_wider_gt(gt), load_detections(dets, layout=wl.dets_layout)
        oracle = oracle_calibrate(anns, detset)
        buf = io.StringIO()
        write_wider_gt(oracle.calibrated, buf)
        # with the interval widened to [0, 1] every HCDR claims its own face,
        # so the oracle's records carry every HCDR's best IoU
        wide = oracle_calibrate(anns, detset, CalibrationConfig(t_m=0.0, t_c=1.0))
        results = {
            "calibrated file equals the oracle's": buf.getvalue().encode() == exp.gt_bytes,
            "claims equal the oracle's": {(m.path, m.ann_index) for m in oracle.mbps} == exp.claims,
            "threshold equals the oracle's": oracle.effective_adc == exp.threshold,
            "HCDR count equals the oracle's": oracle.counters.hcdrs_considered == exp.hcdrs,
            "table equals one from the oracle's IoUs":
                histogram_table([m.iou for m in wide.mbps]) == exp.table,
        }
        out = work / wl.name / "out"
        res = run_cli(spawner, wl, gt, dets, out, exp)
        results["real CLI passes the check"] = not res["problems"]
        files = output_files(wl, out)
        target = files["table"] if "table" in files else files["out"]
        lines = target.read_text(encoding="utf-8").split("\n")
        if "table" in files:                           # the first bin: one altered count
            cells = lines[1].split("\t")
            cells[2] = str(int(cells[2]) + 1)
            lines[1] = "\t".join(cells)
        else:                                          # the first face line: one altered box
            face = lines[2].split()
            face[0] = str(int(float(face[0])) + 1)
            lines[2] = " ".join(face)
        target.write_text("\n".join(lines), encoding="utf-8")
        caught = check(exp, files)
        results["one altered output is reported"] = bool(caught)
        for what, passed in results.items():
            print(f"SELFTEST {wl.name} {'PASS' if passed else 'FAIL'}: {what}")
            ok &= passed
        if res["problems"]:
            print("\n".join(res["problems"]))
    return ok


def describe(work: Path) -> dict:
    import numpy
    from workloads import BUILDERS, WORKLOADS, expected_outputs, write_inputs
    whys = {w["name"]: w["why"]
            for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    out = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "workloads": {}}
    for wl in WORKLOADS.values():
        data = BUILDERS[wl.name](wl.default_seed, False, _no_timer)
        gt, dets = write_inputs(wl, data, work / wl.name, _no_timer)
        exp = expected_outputs(data)
        second = BUILDERS[wl.name](wl.default_seed + 1, False, _no_timer)
        faces, faces2 = data_stats(data)["faces"], data_stats(second)["faces"]
        args = cli_args(wl, Path("GT"), Path("DETS"), Path("OUT"))
        out["workloads"][wl.name] = {
            "why": whys[wl.name],
            "command": "python " + " ".join(args),
            "seed": wl.default_seed,
            **data_stats(data), **input_stats(gt, dets),
            "hcdrs": exp.hcdrs, "claims": len(exp.claims), "threshold": exp.threshold,
            "second_seed": {"seed": wl.default_seed + 1, "faces": faces2,
                            "faces_vs_default": (faces2 - faces) / faces},
        }
        del data, second
        shutil.rmtree(work / wl.name)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=None, help="workload seed (default per workload)")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--describe", action="store_true")
    args = p.parse_args()

    if not (SRC / "boxcal" / "cli.py").is_file():
        print(f"perfbench: no boxcal sources at {SRC}/boxcal; run inside a boxcal checkout",
              file=sys.stderr)
        return 2
    spawner = Spawner()  # before this process grows; see spawner.py
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.self_test:
            return 0 if self_test(spawner, work) else 1
        if args.describe:
            target = HERE / "workloads.json"
            target.write_text(json.dumps(describe(work), indent=2) + "\n", encoding="utf-8")
            print(f"wrote {target}")
            return 0
        if args.workload not in WORKLOADS:
            p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        wl = WORKLOADS[args.workload]
        seed = wl.default_seed if args.seed is None else args.seed
        result = (traced(spawner, wl, seed, work) if args.trace
                  else end_to_end(spawner, wl, seed, args.seconds, work))
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
