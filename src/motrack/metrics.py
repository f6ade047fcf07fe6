"""Tracking evaluation: CLEAR counts (MOTA/FP/FN/IDS), IDF1, sMOTA_r, AMOTA.

Ground truth and predictions are both TrackOutput values. Per-frame matching
is gated (2D: IoU >= 0.5 by default; 3D: BEV center distance <= 2 m) with
CLEAR persistence: a gt-prediction pair from the previous frame is kept while
it still clears the gate, and only the remainder is re-matched optimally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .assignment import solve_assignment
from .geometry import Metric, similarity_matrix
from .tracker import Mode, TrackOutput, TrackRecord

DEFAULT_IOU_MATCH = 0.5
DEFAULT_DIST_MATCH = 2.0


@dataclass(frozen=True)
class ClearReport:
    """CLEAR counts and the accuracy they imply: mota = 1 - (ids+fp+fn)/gt."""

    mota: float
    fp: int
    fn: int
    ids: int
    gt: int

    @property
    def mota_defined(self) -> bool:
        return self.gt > 0

    def to_dict(self) -> dict[str, float | int]:
        return {"mota": self.mota, "fp": self.fp, "fn": self.fn,
                "ids": self.ids, "gt": self.gt}

    def to_text(self) -> str:
        return "\n".join(
            f"{key}={value:.6f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in self.to_dict().items()
        )


@dataclass(frozen=True)
class AmotaReport:
    """Average of recall-adjusted accuracies over the recall grid."""

    amota: float
    smota_values: tuple[float, ...]
    recalls: tuple[float, ...]

    def to_dict(self) -> dict[str, object]:
        return {"amota": self.amota, "recalls": list(self.recalls),
                "smota_values": list(self.smota_values)}

    def to_text(self) -> str:
        lines = [f"amota={self.amota:.6f}"]
        lines += [
            f"smota@{r:.4f}={v:.6f}"
            for r, v in zip(self.recalls, self.smota_values)
        ]
        return "\n".join(lines)


def _threshold(mode: Mode, match_threshold: float | None) -> float:
    if match_threshold is not None:
        return match_threshold
    return DEFAULT_IOU_MATCH if mode is Mode.BOX_2D else DEFAULT_DIST_MATCH


def _check_modes(gt: TrackOutput, pred: TrackOutput) -> None:
    if gt.mode is not pred.mode:
        raise ValueError(f"mode mismatch: gt is {gt.mode.value}, pred is {pred.mode.value}")


def _frame_similarity(
    gt_recs: list[TrackRecord], pr_recs: list[TrackRecord], mode: Mode, threshold: float
) -> tuple[np.ndarray, float]:
    """Similarity values plus the admission gate for one frame's matching."""
    if mode is Mode.BOX_2D:
        boxes_gt, boxes_pr = [r.box for r in gt_recs], [r.box for r in pr_recs]
        return similarity_matrix(boxes_gt, boxes_pr, Metric.IOU_2D), threshold
    g = np.array([(r.box.x, r.box.y) for r in gt_recs]).reshape(len(gt_recs), 2)
    p = np.array([(r.box.x, r.box.y) for r in pr_recs]).reshape(len(pr_recs), 2)
    dist = np.linalg.norm(g[:, None, :] - p[None, :, :], axis=2)
    return threshold - dist, 0.0


# One frame's evaluation table: gt ids, prediction ids, prediction scores, and
# the gt x prediction similarity with its gate (None when either side is empty).
_FrameTable = tuple[list[int], list[int], list[float], np.ndarray | None, float]


def _frame_tables(gt: TrackOutput, pred: TrackOutput, threshold: float) -> Iterator[_FrameTable]:
    """Score each frame that has records once, in frame order.

    Yields lazily, so a single pass holds one frame's similarity at a time.
    """
    gt_frames = gt.frames()
    pr_frames = pred.frames()
    for frame in sorted(gt_frames.keys() | pr_frames.keys()):
        gt_recs = gt_frames.get(frame, [])
        pr_recs = pr_frames.get(frame, [])
        values, gate = None, 0.0
        if gt_recs and pr_recs:
            values, gate = _frame_similarity(gt_recs, pr_recs, gt.mode, threshold)
        yield ([r.track_id for r in gt_recs], [r.track_id for r in pr_recs],
               [r.score for r in pr_recs], values, gate)


def _frame_step(
    gt_ids: list[int],
    pr_ids: list[int],
    values: np.ndarray | None,
    gate: float,
    persisting: dict[int, int],
    last_match: dict[int, int],
) -> tuple[int, int, int, dict[int, int]]:
    """CLEAR counts of one frame: (fp, fn, ids, matches as gt id -> pred id).

    A pair from ``persisting`` (the previous frame's matches) is kept while it
    still clears the gate; the rest is re-matched optimally. A match whose gt id
    was last matched to another prediction (``last_match``) is an identity
    switch. Neither dict is modified: the returned matches are the next frame's
    ``persisting`` and the update to ``last_match``.
    """
    if not gt_ids or not pr_ids:
        return len(pr_ids), len(gt_ids), 0, {}

    matches: dict[int, int] = {}
    used_cols: set[int] = set()
    pid_to_col = {pid: j for j, pid in enumerate(pr_ids)}
    for i, gid in enumerate(gt_ids):
        pid = persisting.get(gid)
        if pid is None:
            continue
        j = pid_to_col.get(pid)
        if j is None or j in used_cols:
            continue
        if values[i, j] >= gate:
            matches[i] = j
            used_cols.add(j)

    free_rows = [i for i in range(len(gt_ids)) if i not in matches]
    free_cols = [j for j in range(len(pr_ids)) if j not in used_cols]
    if free_rows and free_cols:
        assign = solve_assignment(values[free_rows][:, free_cols], gate)
        for r, c in assign.matches.tolist():
            matches[free_rows[r]] = free_cols[c]

    ids = 0
    matched: dict[int, int] = {}
    for i, j in matches.items():
        gid, pid = gt_ids[i], pr_ids[j]
        if gid in last_match and last_match[gid] != pid:
            ids += 1
        matched[gid] = pid
    return len(pr_ids) - len(matches), len(gt_ids) - len(matches), ids, matched


# Match state entering a frame: (persisting pairs, last matched pred per gt id).
_State = tuple[dict[int, int], dict[int, int]]


def _kept_frame_step(
    table: _FrameTable, min_score: float, state: _State
) -> tuple[tuple[int, int, int], _State]:
    """One frame's (fp, fn, ids) and leaving state, keeping predictions scored
    >= min_score.

    A frame left with neither gt nor kept predictions is skipped, so match
    persistence carries across it, as if those predictions were never there.
    """
    gt_ids, pr_ids, scores, values, gate = table
    keep = [j for j, score in enumerate(scores) if score >= min_score]
    if not gt_ids and not keep:
        return (0, 0, 0), state
    if len(keep) < len(pr_ids):
        pr_ids = [pr_ids[j] for j in keep]
        values = values[:, keep] if values is not None else None
    persisting, last_match = state
    fp, fn, ids, matched = _frame_step(gt_ids, pr_ids, values, gate, persisting, last_match)
    if matched:
        last_match = {**last_match, **matched}
    return (fp, fn, ids), (matched, last_match)


def _sweep(tables: list[_FrameTable]) -> Iterator[tuple[float, int, int, int]]:
    """CLEAR counts (score, fp, fn, ids) keeping the predictions scored at
    least each unique score, in descending score order.

    One incremental pass. It starts from no prediction kept, where every frame
    enters with empty state and misses all its gt. Lowering the threshold to a
    score changes the kept columns only in the frames holding that score, so a
    frame is recounted only if it holds the score or the state entering it
    changed. Once a recounted frame hands on the state the next frame entered
    with at the previous score, nothing changes until the next frame holding
    the score. Totals move by the difference between a frame's new and old
    counts.
    """
    n = len(tables)
    frames_at: dict[float, list[int]] = {}
    for i, table in enumerate(tables):
        for score in dict.fromkeys(table[2]):
            frames_at.setdefault(score, []).append(i)
    entering: list[_State] = [({}, {})] * n
    counts = [(0, len(table[0]), 0) for table in tables]
    fp, fn, ids = 0, sum(c[1] for c in counts), 0

    for score in sorted(frames_at, reverse=True):
        changed = frames_at[score] + [n]
        k, i = 0, changed[0]
        state = entering[i]
        while i < n:
            entering[i] = state
            new, state = _kept_frame_step(tables[i], score, state)
            old = counts[i]
            counts[i] = new
            fp += new[0] - old[0]
            fn += new[1] - old[1]
            ids += new[2] - old[2]
            i += 1
            if i == changed[k + 1]:
                k += 1
            elif state == entering[i]:
                # Nothing differs until the next frame holding this score.
                k += 1
                i = changed[k]
                if i < n:
                    state = entering[i]
        yield score, fp, fn, ids


def clear_mot(
    gt: TrackOutput, pred: TrackOutput, match_threshold: float | None = None
) -> ClearReport:
    """CLEAR evaluation of a prediction against ground truth.

    Args:
        gt / pred: outputs of the same mode.
        match_threshold: 2D IoU gate or 3D BEV center-distance gate; defaults
            per mode (0.5 IoU / 2 m).

    Returns:
        The error counts and MOTA; with empty ground truth MOTA is NaN and
        flagged undefined.
    """
    _check_modes(gt, pred)
    fp = fn = ids = 0
    persisting: dict[int, int] = {}
    last_match: dict[int, int] = {}
    for gt_ids, pr_ids, _, values, gate in _frame_tables(
        gt, pred, _threshold(gt.mode, match_threshold)
    ):
        frame_fp, frame_fn, frame_ids, persisting = _frame_step(
            gt_ids, pr_ids, values, gate, persisting, last_match
        )
        last_match.update(persisting)
        fp += frame_fp
        fn += frame_fn
        ids += frame_ids
    total_gt = len(gt.records)
    mota = 1.0 - (ids + fp + fn) / total_gt if total_gt else float("nan")
    return ClearReport(mota=mota, fp=fp, fn=fn, ids=ids, gt=total_gt)


def idf1(gt: TrackOutput, pred: TrackOutput, match_threshold: float | None = None) -> float:
    """Identity F1: a global one-to-one mapping between trajectories.

    Trajectory pairs are weighted by the number of frames where their boxes
    clear the match gate; the mapping maximizing the total (IDTP) is found by
    optimal assignment, and IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).
    """
    _check_modes(gt, pred)
    if not gt.records or not pred.records:
        return 0.0

    gt_index = {gid: i for i, gid in enumerate(sorted({r.track_id for r in gt.records}))}
    pr_index = {pid: j for j, pid in enumerate(sorted({r.track_id for r in pred.records}))}
    overlap = np.zeros((len(gt_index), len(pr_index)))
    for gt_ids, pr_ids, _, values, gate in _frame_tables(
        gt, pred, _threshold(gt.mode, match_threshold)
    ):
        if values is not None:
            rows = [gt_index[gid] for gid in gt_ids]
            cols = [pr_index[pid] for pid in pr_ids]
            overlap[np.ix_(rows, cols)] += values >= gate

    matches = solve_assignment(overlap, gate=0.5).matches
    idtp = int(overlap[matches[:, 0], matches[:, 1]].sum())
    idfp = len(pred.records) - idtp
    idfn = len(gt.records) - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


def smota_r(
    gt: TrackOutput,
    pred_at_recall: TrackOutput,
    r: float,
    match_threshold: float | None = None,
) -> float:
    """Recall-adjusted MOTA at recall r, clamped into [0, 1].

    The prediction is expected to be thresholded so its recall is (just) above
    r; the (1 - r) * P term then cancels the false negatives a recall-r
    tracker necessarily incurs.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"recall must be in (0, 1], got {r}")
    _check_modes(gt, pred_at_recall)
    report = clear_mot(gt, pred_at_recall, match_threshold)
    if report.gt == 0:
        raise ValueError("sMOTA requires non-empty ground truth")
    penalty = report.ids + report.fp + report.fn - (1.0 - r) * report.gt
    return max(0.0, min(1.0, 1.0 - penalty / (r * report.gt)))


def amota(
    gt: TrackOutput,
    pred: TrackOutput,
    match_threshold: float | None = None,
    n_points: int = 40,
    min_recall: float = 0.0,
) -> AmotaReport:
    """Average sMOTA over an evenly spaced recall grid via a confidence sweep.

    For each target recall the prediction is thresholded at the observed
    confidence whose recall is closest from above (ties take the higher
    threshold); unreachable recall points contribute zero. Only the ordering
    of confidences matters, so any strictly monotone rescaling of the scores
    leaves the result unchanged.
    """
    _check_modes(gt, pred)
    if len(gt.records) == 0:
        raise ValueError("AMOTA requires non-empty ground truth")
    if any(not math.isfinite(rec.score) for rec in pred.records):
        raise ValueError("AMOTA requires finite prediction confidences")

    total_gt = len(gt.records)
    tables = list(_frame_tables(gt, pred, _threshold(gt.mode, match_threshold)))
    sweeps = [
        (threshold, (total_gt - fn) / total_gt, fp + fn + ids)
        for threshold, fp, fn, ids in _sweep(tables)
    ]

    recalls = tuple(
        k / n_points for k in range(1, n_points + 1) if k / n_points >= min_recall
    )
    values = []
    for r in recalls:
        reachable = [entry for entry in sweeps if entry[1] >= r]
        if not reachable:
            values.append(0.0)
            continue
        best_recall = min(rec for _, rec, _ in reachable)
        _, _, errors = max(
            (entry for entry in reachable if entry[1] == best_recall),
            key=lambda entry: entry[0],
        )
        penalty = errors - (1.0 - r) * total_gt
        values.append(max(0.0, min(1.0, 1.0 - penalty / (r * total_gt))))

    return AmotaReport(
        amota=float(np.mean(values)) if values else 0.0,
        smota_values=tuple(values),
        recalls=recalls,
    )
