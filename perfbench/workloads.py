"""Seeded synthetic workloads and the independent check of boxcal's outputs.

Every workload places faces with ``min_gap=20`` and emits each face's TRUE
box as its detection.  ``perturb`` shifts a box by at most
``64 * 0.45 / 1.55 = 18.6`` px, less than the gap, so a detection overlaps
no annotation but its own face's.  That makes the expected output of
``calibrate`` and ``stats`` derivable from the generator's data alone:

* threshold: plain mean of every image's top min(K_a, K_p) scores, summed in
  image order like the paper's definition;
* a face is calibrated exactly when it was perturbed and its detection scores
  strictly above the threshold, and it then gets its true box back;
* every high-confidence detection's best IoU is 1.0 (unperturbed face) or the
  IoU of the true box against the perturbed box as written to the file.

Nothing here calls boxcal's calibration, geometry or report code; the
expected files are serialised by this module's own writers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from boxcal.formats import (AnnotationSet, Detection, DetectionSet, ImageAnnotations,
                            ImageDetections, save_wider_gt, write_detections_dir,
                            write_detections_file)
from boxcal.geometry import BBox
from boxcal.synth import PerturbLedger, SynthSpec, generate_dataset, perturb

IOU_RANGE = (0.55, 0.75)
T_M, T_C = 0.5, 0.8                      # the CLI's default calibration interval
EDGES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)   # the CLI's default histogram edges
MIN_GAP = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    command: str        # "calibrate" or "stats"
    threads: int        # --threads of calibrate; stats takes none
    dets_layout: str    # "file" (one consolidated file) or "dir" (one file per image)


# why each one was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "wider-file": Workload("wider-file", 301, "calibrate", 1, "file"),
    "crowd": Workload("crowd", 401, "calibrate", 2, "file"),
    "dir-stats": Workload("dir-stats", 501, "stats", 1, "dir"),
}


@dataclass
class Dataset:
    """Generated inputs plus what the check needs to know about them."""

    truth: AnnotationSet
    pert: AnnotationSet
    ledger: PerturbLedger
    dets: DetectionSet
    # per image, per detection (score-sorted order): the face index it was
    # emitted for, or -1 for a distractor
    owners: list[list[int]]


@dataclass
class Expected:
    threshold: float
    gt_bytes: bytes            # the calibrated annotation file
    claims: set                # (path, ann_index) of every replaced box
    hcdrs: int                 # detections above the threshold in images with faces
    table: bytes               # the `stats` histogram table


# --- generation ---------------------------------------------------------------

def _two_population(rng: random.Random, high_share: float,
                    high: tuple[float, float], low: tuple[float, float]) -> float:
    if rng.random() < high_share:
        return rng.uniform(*high)
    return rng.uniform(*low)


def _detections(truth: AnnotationSet, score_of, distractors=None) -> tuple[DetectionSet, list[list[int]]]:
    """One true-box detection per face (plus optional distractors), score-sorted."""
    images, owners = [], []
    for img in truth.images:
        cands = [(score_of(), f.box, k) for k, f in enumerate(img.faces)]
        if distractors is not None:
            cands.extend(distractors())
        cands.sort(key=lambda c: c[0], reverse=True)  # stable, like the loaders
        images.append(ImageDetections(img.path, [Detection(box, s) for s, box, _ in cands]))
        owners.append([k for _, _, k in cands])
    return DetectionSet(images), owners


def build_wider_file(seed: int, small: bool, timer) -> Dataset:
    """Criterion 3's workload: perf_case's spec, perturbation and score stream."""
    spec = SynthSpec(seed=seed, n_images=200 if small else 12880, faces_per_image=(12, 13),
                     image_size=(1024, 1024), box_size=(16, 64), min_gap=MIN_GAP)
    with timer("synth.generate"):
        truth = generate_dataset(spec)
    with timer("synth.perturb"):
        pert, ledger = perturb(truth, seed, 0.2555, IOU_RANGE, image_size=spec.image_size)
    # perf_case draws every score from this one fixed stream; the seed moves
    # the geometry, flags and perturbation
    rng = random.Random("perf:scores")
    dets, owners = _detections(truth, lambda: _two_population(rng, 0.56, (0.6, 1.0), (0.0, 0.4)))
    return Dataset(truth, pert, ledger, dets, owners)


# crowd images are a grid of cells separated by MIN_GAP, so placement cost
# grows with faces per cell, not per image
_CROWD_CELL = 1024


def _faces_per_cell(i: int, n_images: int) -> int:
    """Skewed per-image density: faces per cell from 4 to 47, mostly crowded."""
    return round(3 + 44 * ((i + 0.5) / n_images) ** 0.7)


def build_crowd(seed: int, small: bool, timer) -> Dataset:
    # images come in a fixed ascending density; the seed moves placement,
    # flags, perturbation and scores
    n_images, grid = (6, 2) if small else (60, 6)
    side = grid * _CROWD_CELL
    images = []
    with timer("synth.generate"):
        for i in range(n_images):
            q = _faces_per_cell(i, n_images)
            cells = generate_dataset(SynthSpec(
                seed=seed * 1000 + i, n_images=grid * grid, faces_per_image=(q, q + 1),
                image_size=(_CROWD_CELL - int(MIN_GAP), _CROWD_CELL - int(MIN_GAP)),
                box_size=(16, 64), min_gap=MIN_GAP))
            faces = []
            for c, cell in enumerate(cells.images):
                ox, oy = (c % grid) * _CROWD_CELL, (c // grid) * _CROWD_CELL
                faces.extend(replace(f, box=BBox(f.box.x + ox, f.box.y + oy, f.box.w, f.box.h))
                             for f in cell.faces)
            images.append(ImageAnnotations(f"crowd/img{i:03d}.jpg", faces))
    truth = AnnotationSet(images)
    with timer("synth.perturb"):
        pert, ledger = perturb(truth, seed, 0.25, IOU_RANGE, image_size=(side, side))
    rng = random.Random(f"{seed}:scores")
    dets, owners = _detections(truth, lambda: _two_population(rng, 0.8, (0.9, 1.0), (0.0, 0.4)))
    return Dataset(truth, pert, ledger, dets, owners)


def build_dir_stats(seed: int, small: bool, timer) -> Dataset:
    spec = SynthSpec(seed=seed, n_images=200 if small else 12880, faces_per_image=(0, 24),
                     image_size=(1024, 1024), box_size=(16, 64), min_gap=MIN_GAP)
    with timer("synth.generate"):
        truth = generate_dataset(spec)
    with timer("synth.perturb"):
        pert, ledger = perturb(truth, seed, 0.25, IOU_RANGE, image_size=spec.image_size)
    rng = random.Random(f"{seed}:scores")

    def distractors():
        out = []
        for _ in range(rng.randint(0, 8)):
            w, h = rng.randint(16, 64), rng.randint(16, 64)
            box = BBox(float(rng.randint(0, 1024 - w)), float(rng.randint(0, 1024 - h)),
                       float(w), float(h))
            out.append((rng.uniform(0.0, 0.2), box, -1))
        return out

    dets, owners = _detections(truth, lambda: _two_population(rng, 0.56, (0.6, 1.0), (0.0, 0.4)),
                               distractors)
    return Dataset(truth, pert, ledger, dets, owners)


BUILDERS = {"wider-file": build_wider_file, "crowd": build_crowd, "dir-stats": build_dir_stats}


def write_inputs(wl: Workload, data: Dataset, root: Path, timer) -> tuple[Path, Path]:
    """Write gt.txt and the detections with boxcal's writers; return both paths."""
    root.mkdir(parents=True, exist_ok=True)
    gt = root / "gt.txt"
    with timer("synth.write"):
        save_wider_gt(data.pert, gt)
        if wl.dets_layout == "file":
            dets = root / "dets.txt"
            with open(dets, "w", encoding="utf-8", newline="\n") as fh:
                write_detections_file(data.dets, fh)
        else:
            dets = root / "detections"
            write_detections_dir(data.dets, dets)
    return gt, dets


# --- expected outputs -----------------------------------------------------------

def _coord(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.2f}"


def _as_written(b: BBox) -> BBox:
    """The box a parser reads back from the two-decimal text of the file."""
    return BBox(float(_coord(b.x)), float(_coord(b.y)), float(_coord(b.w)), float(_coord(b.h)))


def _iou(a: BBox, b: BBox) -> float:
    # the documented formula: half-open edges, union of areas, capped at 1
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return min(inter / union, 1.0) if union > 0 else 0.0


def gt_text(annset: AnnotationSet) -> bytes:
    """The annotation file boxcal writes after reading `annset` back from its
    gt.txt, serialised independently of boxcal.formats."""
    out = []
    for img in annset.images:
        out.append(img.path)
        out.append(str(len(img.faces)))
        if not img.faces:
            out.append("0 0 0 0 0 0 0 0 0 0")
        for f in img.faces:
            # a box that passed through a file is rewritten from its parsed
            # value: 122.996 is stored as "123.00" and comes back as "123"
            b = _as_written(f.box)
            out.append(f"{_coord(b.x)} {_coord(b.y)} {_coord(b.w)} {_coord(b.h)} "
                       f"{f.blur} {f.expression} {f.illumination} {f.invalid} {f.occlusion} {f.pose}")
    out.append("")
    return "\n".join(out).encode("utf-8")


def histogram_table(ious: list[float]) -> bytes:
    """The `stats` table: half-open bins with a closed last bin, then the
    [0.5, 0.8] and [0.5, 1.0] aggregate rows."""
    nb = len(EDGES) - 1
    counts = [0] * nb
    for v in ious:
        if EDGES[0] <= v <= EDGES[-1]:
            counts[next(i for i in range(nb) if v < EDGES[i + 1] or i == nb - 1)] += 1
    total = sum(counts)

    def pct(c):
        return round(100.0 * c / total, 3) if total else 0.0

    lines = ["index\tinterval\tcount\tpercentage"]
    for i in range(nb):
        close = "]" if i == nb - 1 else ")"
        lines.append(f"{i + 1}\t[{EDGES[i]:g}, {EDGES[i + 1]:g}{close}\t{counts[i]}\t{pct(counts[i]):.3f}")
    upto = EDGES.index(T_C)
    for j, (hi, c) in enumerate(((T_C, sum(counts[:upto])), (EDGES[-1], total)), start=nb + 1):
        lines.append(f"{j}\t[{EDGES[0]:g}, {hi:g}]\t{c}\t{pct(c):.3f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def expected_outputs(data: Dataset) -> Expected:
    """Derive every expected output from the generator's data alone."""
    num, den = 0.0, 0
    for img, dimg in zip(data.pert.images, data.dets.images):
        for d in dimg.dets[:min(len(img.faces), len(dimg.dets))]:
            num += d.score
        den += min(len(img.faces), len(dimg.dets))
    threshold = num / den

    perturbed = {(e.path, e.ann_index): e for e in data.ledger.entries}
    claims: set = set()
    ious: list[float] = []
    images = []
    for truth_img, img, dimg, owners in zip(data.truth.images, data.pert.images,
                                             data.dets.images, data.owners):
        faces = list(img.faces)
        for d, k in zip(dimg.dets, owners):
            if not img.faces or d.score <= threshold:
                continue
            if k < 0:
                raise ValueError(f"{img.path}: a distractor clears the threshold; "
                                 "its outcome is not derivable")
            entry = perturbed.get((img.path, k))
            v = 1.0 if entry is None else _iou(d.box, _as_written(entry.perturbed_box))
            ious.append(v)
            if entry is not None:
                if not T_M <= v <= T_C:
                    raise ValueError(f"{img.path}#{k}: perturbed IoU {v} is outside the interval")
                claims.add((img.path, k))
                faces[k] = truth_img.faces[k]
        images.append(ImageAnnotations(img.path, faces))
    return Expected(threshold, gt_text(AnnotationSet(images)), claims, len(ious),
                    histogram_table(ious))


# --- checks -----------------------------------------------------------------------

def check(exp: Expected, files: dict[str, Path]) -> list[str]:
    """Problems found in one run's output files; empty when all match.

    `files` holds "table" (the stats output) or "out", "mbp" and "report"
    (the calibrate outputs).  Missing or unreadable files are problems too.
    """
    try:
        if "table" in files:
            if files["table"].read_bytes() != exp.table:
                return ["stats table differs from the one built from the perturbation ledger"]
            return []
        return _check_calibrate(exp, files["out"], files["mbp"], files["report"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_calibrate(exp: Expected, out: Path, mbp: Path, report: Path) -> list[str]:
    problems = []
    if out.read_bytes() != exp.gt_bytes:
        problems.append(f"{out.name} differs from the expected calibrated annotations")
    rows = mbp.read_text(encoding="utf-8").splitlines()[1:]
    got = {(r.split("\t")[0], int(r.split("\t")[1])) for r in rows}
    if len(rows) != len(exp.claims) or got != exp.claims:
        problems.append(f"{mbp.name}: {len(rows)} rows, expected the {len(exp.claims)} claims")
    doc = json.loads(report.read_text(encoding="utf-8"))
    if doc["calibrated"] != len(exp.claims) or doc["counters"]["hcdrs_considered"] != exp.hcdrs:
        problems.append(f"{report.name}: calibrated={doc['calibrated']} "
                        f"hcdrs={doc['counters']['hcdrs_considered']}, expected "
                        f"{len(exp.claims)} and {exp.hcdrs}")
    return problems
