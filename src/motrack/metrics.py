"""Tracking evaluation: CLEAR counts (MOTA/FP/FN/IDS), IDF1, sMOTA_r, AMOTA.

Ground truth and predictions are both TrackOutput values. Per-frame matching
is gated (2D: IoU >= 0.5 by default; 3D: BEV center distance <= 2 m) with
CLEAR persistence: a gt-prediction pair from the previous frame is kept while
it still clears the gate, and only the remainder is re-matched optimally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _default_threshold(mode: Mode) -> float:
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


@dataclass
class _ClearCounts:
    fp: int = 0
    fn: int = 0
    ids: int = 0
    gt: int = 0
    matched: int = 0


def _accumulate_clear(gt: TrackOutput, pred: TrackOutput, threshold: float) -> _ClearCounts:
    gt_frames = gt.frames()
    pr_frames = pred.frames()
    counts = _ClearCounts()
    persisting: dict[int, int] = {}
    last_match: dict[int, int] = {}

    for frame in sorted(set(gt_frames) | set(pr_frames)):
        gt_recs = gt_frames.get(frame, [])
        pr_recs = pr_frames.get(frame, [])
        counts.gt += len(gt_recs)
        if not gt_recs or not pr_recs:
            counts.fp += len(pr_recs)
            counts.fn += len(gt_recs)
            persisting = {}
            continue

        values, gate = _frame_similarity(gt_recs, pr_recs, gt.mode, threshold)
        matches: dict[int, int] = {}
        used_cols: set[int] = set()

        pid_to_col = {rec.track_id: j for j, rec in enumerate(pr_recs)}
        for i, rec in enumerate(gt_recs):
            pid = persisting.get(rec.track_id)
            if pid is None:
                continue
            j = pid_to_col.get(pid)
            if j is None or j in used_cols:
                continue
            if values[i, j] >= gate:
                matches[i] = j
                used_cols.add(j)

        free_rows = [i for i in range(len(gt_recs)) if i not in matches]
        free_cols = [j for j in range(len(pr_recs)) if j not in used_cols]
        if free_rows and free_cols:
            assign = solve_assignment(values[np.ix_(free_rows, free_cols)], gate)
            for r, c in assign.matches:
                matches[free_rows[r]] = free_cols[c]

        for i, j in matches.items():
            gid = gt_recs[i].track_id
            pid = pr_recs[j].track_id
            if gid in last_match and last_match[gid] != pid:
                counts.ids += 1
            last_match[gid] = pid
        counts.matched += len(matches)
        counts.fp += len(pr_recs) - len(matches)
        counts.fn += len(gt_recs) - len(matches)
        persisting = {gt_recs[i].track_id: pr_recs[j].track_id for i, j in matches.items()}

    return counts


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
    threshold = match_threshold if match_threshold is not None else _default_threshold(gt.mode)
    counts = _accumulate_clear(gt, pred, threshold)
    if counts.gt == 0:
        mota = float("nan")
    else:
        mota = 1.0 - (counts.ids + counts.fp + counts.fn) / counts.gt
    return ClearReport(mota=mota, fp=counts.fp, fn=counts.fn, ids=counts.ids, gt=counts.gt)


def idf1(gt: TrackOutput, pred: TrackOutput, match_threshold: float | None = None) -> float:
    """Identity F1: a global one-to-one mapping between trajectories.

    Trajectory pairs are weighted by the number of frames where their boxes
    clear the match gate; the mapping maximizing the total (IDTP) is found by
    optimal assignment, and IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).
    """
    _check_modes(gt, pred)
    threshold = match_threshold if match_threshold is not None else _default_threshold(gt.mode)
    gt_traj = gt.trajectories()
    pr_traj = pred.trajectories()
    total_gt = len(gt.records)
    total_pred = len(pred.records)
    if total_gt + total_pred == 0:
        return 0.0
    if not gt_traj or not pr_traj:
        return 0.0

    gt_ids = sorted(gt_traj)
    pr_ids = sorted(pr_traj)
    overlap = np.zeros((len(gt_ids), len(pr_ids)))
    for i, gid in enumerate(gt_ids):
        frames_g = gt_traj[gid]
        for j, pid in enumerate(pr_ids):
            frames_p = pr_traj[pid]
            shared = frames_g.keys() & frames_p.keys()
            if not shared:
                continue
            count = 0
            for frame in shared:
                values, gate = _frame_similarity(
                    [frames_g[frame]], [frames_p[frame]], gt.mode, threshold
                )
                if values[0, 0] >= gate:
                    count += 1
            overlap[i, j] = count

    assign = solve_assignment(overlap, gate=0.5)
    idtp = int(sum(overlap[r, c] for r, c in assign.matches))
    idfp = total_pred - idtp
    idfn = total_gt - idtp
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
    sweeps = []
    for threshold in sorted({rec.score for rec in pred.records}, reverse=True):
        subset = pred.filter_scores(threshold)
        report = clear_mot(gt, subset, match_threshold)
        recall = (total_gt - report.fn) / total_gt
        sweeps.append((threshold, recall, report))

    recalls = tuple(
        k / n_points for k in range(1, n_points + 1) if k / n_points >= min_recall
    )
    values = []
    for r in recalls:
        reachable = [(t, rec, rep) for t, rec, rep in sweeps if rec >= r]
        if not reachable:
            values.append(0.0)
            continue
        best_recall = min(rec for _, rec, _ in reachable)
        threshold, _, report = max(
            (entry for entry in reachable if entry[1] == best_recall),
            key=lambda entry: entry[0],
        )
        penalty = report.ids + report.fp + report.fn - (1.0 - r) * total_gt
        values.append(max(0.0, min(1.0, 1.0 - penalty / (r * total_gt))))

    return AmotaReport(
        amota=float(np.mean(values)) if values else 0.0,
        smota_values=tuple(values),
        recalls=recalls,
    )
