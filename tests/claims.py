"""Claim tables for tests, built from MbpRecord rows."""

from boxcal.calibrate import ClaimTable, MbpRecord


def claim_table(records: list[MbpRecord]) -> ClaimTable:
    """The claim table of records, one row each; its paths are the records'
    distinct paths in first-seen order."""
    paths = list(dict.fromkeys(r.path for r in records))
    return ClaimTable(
        paths=paths, image=[paths.index(r.path) for r in records],
        det_index=[r.det_index for r in records], ann_index=[r.ann_index for r in records],
        iou=[r.iou for r in records], score=[r.score for r in records],
        old_boxes=[(r.old_box.x, r.old_box.y, r.old_box.w, r.old_box.h) for r in records],
        new_boxes=[(r.new_box.x, r.new_box.y, r.new_box.w, r.new_box.h) for r in records])
