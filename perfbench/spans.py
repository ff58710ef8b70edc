"""Spans around calls into boxcal's layers.

A span records name, start, end and the span that caused it.  While
``instrumented`` is active, spans open around the public functions that
``boxcal.cli``, ``boxcal.calibrate`` and ``boxcal.report`` call by
module-global name (see ``_PATCHES``), so running ``boxcal.cli.main``
in-process traces the command's own stages and the library calls beneath
them.  Nothing inside the program is changed; the wrappers are removed on
exit.

Self time is a span's share of wall time not covered by its children.
Where children overlap (the calibrate thread pool), each instant is split
evenly between the children running then, so self times over a tree always
add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    parent: int          # 0 for a root
    name: str
    start: float
    end: float
    work: dict | None    # work counted at the call, if any


class Tracer:
    """Collects spans in memory.  Safe to use from worker threads: a thread
    with no open span attributes its spans to the main thread's open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        """Time the block; yields a dict for work counts recorded with the span."""
        stack, sid, parent = self._open()
        work: dict = {}
        t0 = perf_counter()
        try:
            yield work
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, work))

    def wrap(self, fn, name: str, count, keep: dict | None = None):
        """`fn` with a span around every call; `count(args, result)` gives its
        work, and `keep`, if given, receives the result under fn's name."""
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            spans.append(Span(sid, parent, name, t0, t1, count(args, out) if count else None))
            if keep is not None:
                keep[fn.__name__] = out
            return out
        return wrapper


def _scores_used(args, res):
    return {"scores_used": res.denominator}


def _cells(args, res):
    return {"cells": res.rows * res.cols}


# module attribute -> (span name, work counted from (args, result)).  The
# boxcal.cli names are the command's stages; the others are the library
# calls beneath them.
_PATCHES = {
    ("boxcal.cli", "load_wider_gt"): ("formats.parse_gt", None),
    ("boxcal.cli", "load_detections"): ("formats.parse_dets", None),
    ("boxcal.cli", "align"): ("formats.align", None),
    ("boxcal.cli", "save_wider_gt"): ("formats.write_gt", None),
    ("boxcal.cli", "compute_adc"): ("adc.compute", _scores_used),
    ("boxcal.cli", "calibrate_dataset"): ("calibrate.dataset", None),
    ("boxcal.cli", "build_report"): ("report.build", None),
    ("boxcal.cli", "write_report"): ("report.write", None),
    ("boxcal.cli", "mbp_export"): ("report.mbp_export", None),
    ("boxcal.cli", "localization_histogram"): ("report.histogram", None),
    ("boxcal.cli", "format_histogram_table"): ("report.table", None),
    ("boxcal.calibrate", "align"): ("formats.align", None),
    ("boxcal.calibrate", "compute_adc"): ("adc.compute", _scores_used),
    ("boxcal.calibrate", "select_hcdrs"): ("adc.select", None),
    ("boxcal.calibrate", "iou_matrix"): ("geometry.iou_matrix", _cells),
    ("boxcal.calibrate", "row_max_argmax"): ("geometry.row_max_argmax", None),
    ("boxcal.report", "select_hcdrs"): ("adc.select", None),
    ("boxcal.report", "iou_matrix"): ("geometry.iou_matrix", _cells),
    ("boxcal.report", "row_max_argmax"): ("geometry.row_max_argmax", None),
    ("boxcal.report", "localization_histogram"): ("report.histogram", None),
    ("boxcal.report", "loss_delta_report"): ("report.loss", None),
}


@contextmanager
def instrumented(tracer: Tracer):
    """Route calls to the patched names through spans.

    Yields a dict holding, per patched ``boxcal.cli`` name, the value its
    last call returned, so the caller can inspect what the command parsed
    and computed.
    """
    returned: dict[str, object] = {}
    saved = []
    try:
        for (mod, attr), (name, count) in _PATCHES.items():
            module = importlib.import_module(mod)
            orig = getattr(module, attr, None)
            if orig is None:  # a name the program no longer uses: its layer reads 0
                continue
            saved.append((module, attr, orig))
            keep = returned if mod == "boxcal.cli" else None
            setattr(module, attr, tracer.wrap(orig, name, count, keep))
        yield returned
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


# --- derived tables ----------------------------------------------------------------

def attribute(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Per span id: (attributed wall time, self time)."""
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    out: dict[int, tuple[float, float]] = {}
    todo = [(s, 1.0) for s in kids[0]]
    while todo:
        s, factor = todo.pop()
        share, covered = _sweep(s, kids.get(s.id, []))
        out[s.id] = (factor * (s.end - s.start), factor * (s.end - s.start - covered))
        for c in kids.get(s.id, []):
            dur = c.end - c.start
            todo.append((c, factor * share[c.id] / dur if dur > 0 else factor))
    return out


def _sweep(parent: Span, children: list[Span]) -> tuple[dict[int, float], float]:
    """Each child's share of the parent's interval, and the time any child covers."""
    events = []
    for c in children:
        a, b = max(c.start, parent.start), min(c.end, parent.end)
        if b > a:
            events += [(a, 1, c.id), (b, 0, c.id)]
    events.sort()
    share = dict.fromkeys((c.id for c in children), 0.0)
    active: set[int] = set()
    covered, last = 0.0, parent.start
    for t, starts, cid in events:
        if active and t > last:
            seg = t - last
            covered += seg
            for a in active:
                share[a] += seg / len(active)
        last = t
        if starts:
            active.add(cid)
        else:
            active.discard(cid)
    return share, covered


def by_name(spans: list[Span], times: dict[int, tuple[float, float]]) -> dict[str, dict]:
    """Per span name: call count, attributed time, self time and summed work."""
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "time_s": 0.0, "self_s": 0.0, "work": {}})
        row["calls"] += 1
        row["time_s"] += times[s.id][0]
        row["self_s"] += times[s.id][1]
        for k, v in (s.work or {}).items():
            row["work"][k] = row["work"].get(k, 0) + v
    return table
