"""Tracking evaluation: CLEAR counts (MOTA/FP/FN/IDS), IDF1, sMOTA_r, AMOTA.

Ground truth and predictions are both TrackOutput values, read as columns.
Per-frame matching is gated (2D: IoU >= 0.5 by default; 3D: BEV center
distance <= 2 m) with CLEAR persistence: a gt-prediction pair from the
previous frame is kept while it still clears the gate, and only the remainder
is re-matched optimally.

Each frame is scored once and keeps only its admissible pairs, those that
clear the gate, so memory follows those pairs rather than gt x predictions.
The assignment solver runs only on a frame whose free pairs conflict (a row or
column in two of them, or a pair worth zero); otherwise they are the matches.

AMOTA's confidence sweep hands only the persisting pairs from frame to frame.
Identity switches are counted apart, from each gt id's matches in frame order,
so a changed match moves the switch count without recounting later frames.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .assignment import solve_assignment
from .geometry import iou_matrix_2d
from .tracker import Mode, TrackOutput

DEFAULT_IOU_MATCH = 0.5
DEFAULT_DIST_MATCH = 2.0
_RECALL_POINTS = 40  # AMOTA's recall grid is k / 40, k = 1..40


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
    gt_boxes: np.ndarray, pr_boxes: np.ndarray, mode: Mode, threshold: float
) -> tuple[np.ndarray, float]:
    """Similarity values plus the admission gate for one frame's matching.

    In 3D a center distance too large for a float reads inf, so its closeness
    is -inf, which no gate admits.
    """
    if mode is Mode.BOX_2D:
        return iou_matrix_2d(gt_boxes, pr_boxes), threshold
    with np.errstate(over="ignore"):
        dx = gt_boxes[:, None, 0] - pr_boxes[None, :, 0]
        dy = gt_boxes[:, None, 1] - pr_boxes[None, :, 1]
        dist = np.sqrt(dx * dx + dy * dy)
    return threshold - dist, 0.0


class _FrameTable(NamedTuple):
    """One frame's evaluation table.

    Besides the frame's ids and prediction scores, only the admissible pairs
    are kept, those whose similarity reaches the gate: no other pair can ever
    be matched. Pairs are (gt id, prediction id) in ascending order of the
    prediction's score, so the pairs kept at a minimum score are a suffix.
    ``isolated`` says that no id is in two pairs and every pair scores above
    zero; then every kept pair is a match, whatever persists.
    """

    gt_ids: list[int]
    pr_ids: list[int]
    scores: list[float]  # in pr_ids order
    ranked: list[float]  # the same scores, ascending
    pairs: list[tuple[int, int]]
    pair_scores: list[float]
    values: list[float]
    isolated: bool
    gate: float


def _admissible(
    similarity: np.ndarray, gate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and similarities of the pairs whose similarity reaches
    the gate, in row-major order. NaN and +inf are rejected; -inf reaches no
    gate."""
    if not similarity.max() < np.inf:
        raise ValueError("similarity matrix entries must be finite")
    at = (similarity >= gate).ravel().nonzero()[0]
    rows, cols = np.divmod(at, similarity.shape[1])
    return rows, cols, similarity.ravel()[at]


_NO_PAIRS = np.zeros(0, dtype=np.intp)


def _frame_pairs(
    gt: TrackOutput, pred: TrackOutput, threshold: float
) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray, np.ndarray, float]]:
    """Score each frame that has rows once, in frame order.

    Yields the frame's gt and prediction rows, as slices of the columns
    found by binary search, and its admissible pairs: frame-local gt rows,
    prediction columns and similarities, plus the gate they reached.
    """
    frames = np.union1d(gt.frames, pred.frames)
    bounds = (np.searchsorted(out.frames, frames, side=side).tolist()
              for out in (gt, pred) for side in ("left", "right"))
    for g0, g1, p0, p1 in zip(*bounds):
        gt_rows, pr_rows = slice(g0, g1), slice(p0, p1)
        if g1 == g0 or p1 == p0:
            yield gt_rows, pr_rows, _NO_PAIRS, _NO_PAIRS, np.zeros(0), 0.0
            continue
        similarity, gate = _frame_similarity(gt.boxes[gt_rows], pred.boxes[pr_rows], gt.mode,
                                             threshold)
        yield gt_rows, pr_rows, *_admissible(similarity, gate), gate


def _frame_table(
    gt_ids: np.ndarray,
    pr_ids: np.ndarray,
    scores: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    gate: float,
) -> _FrameTable:
    """One frame's table from its ids, scores and admissible pairs."""
    order = np.argsort(scores[cols], kind="stable")
    rows, cols = rows[order], cols[order]
    gids, pids = gt_ids[rows].tolist(), pr_ids[cols].tolist()
    pair_values = values[order].tolist()
    isolated = (len(set(gids)) == len(gids) == len(set(pids))
                and all(value > 0.0 for value in pair_values))
    score_list = scores.tolist()
    return _FrameTable(gt_ids.tolist(), pr_ids.tolist(), score_list, sorted(score_list),
                       list(zip(gids, pids)), scores[cols].tolist(), pair_values, isolated,
                       gate)


def _frame_tables(gt: TrackOutput, pred: TrackOutput, threshold: float) -> Iterator[_FrameTable]:
    """The table of each frame that has rows, in frame order. A list of them
    takes memory in the number of admissible pairs, not of gt x predictions."""
    for gt_rows, pr_rows, rows, cols, values, gate in _frame_pairs(gt, pred, threshold):
        yield _frame_table(gt.track_ids[gt_rows], pred.track_ids[pr_rows],
                           pred.scores[pr_rows], rows, cols, values, gate)


def _frame_step(
    table: _FrameTable, min_score: float | None, persisting: dict[int, int]
) -> tuple[int, int, dict[int, int]]:
    """CLEAR counts of one frame: (fp, fn, matches as gt id -> pred id).

    Only predictions scored at least ``min_score`` take part (all of them when
    it is None). A pair from ``persisting`` (the previous frame's matches, so
    no prediction id twice) is kept while it is still admissible; the rest is
    re-matched optimally. ``persisting`` is not modified: the returned matches
    are the next frame's. Identity switches are counted by the caller, from
    the matches.
    """
    gt_ids, pr_ids, _, ranked, pairs, pair_scores, _, isolated, _ = table
    start, n_pred = 0, len(pr_ids)
    if min_score is not None:
        start = bisect_left(pair_scores, min_score)
        n_pred -= bisect_left(ranked, min_score)
    if not gt_ids or not n_pred:
        return n_pred, len(gt_ids), {}

    matched = dict(pairs[start:]) if isolated else _matches(table, start, min_score, persisting)
    return n_pred - len(matched), len(gt_ids) - len(matched), matched


def _switches(matched: dict[int, int], last_match: dict[int, int]) -> int:
    """Identity switches among one frame's matches: the gt ids whose last
    match (``last_match``, gt id -> pred id) was another prediction."""
    return (len(matched) - len(matched.items() & last_match.items())
            - len(matched.keys() - last_match.keys()))


def _matches(
    table: _FrameTable, start: int, min_score: float | None, persisting: dict[int, int]
) -> dict[int, int]:
    """The frame's matches, gt id -> pred id, from its kept pairs table.pairs[start:].

    Kept pairs that persist are matched first. When no remaining row or
    column is in two free pairs and every free pair scores above zero, the
    free pairs are the unique optimum and no solver runs.
    """
    kept = table.pairs[start:]
    matched = dict(persisting.items() & kept) if persisting else {}
    used = set(matched.values())
    free = [(gid, pid, value) for (gid, pid), value in zip(kept, table.values[start:])
            if gid not in matched and pid not in used]
    if not free:
        return matched
    free_rows, free_cols, free_values = zip(*free)
    if len(set(free_rows)) == len(free) == len(set(free_cols)) and min(free_values) > 0.0:
        matched.update(zip(free_rows, free_cols))
    else:
        matched.update(_solve_free_block(table, min_score, matched, used, free))
    return matched


def _solve_free_block(
    table: _FrameTable,
    min_score: float | None,
    matched: dict[int, int],
    used: set[int],
    free: list[tuple[int, int, float]],
) -> dict[int, int]:
    """Optimal matching of the free gt rows and kept free prediction columns.

    The block spans every free row and every kept free column, in frame
    order, with the free pairs at their values and zeros gated at +inf
    elsewhere. So the solver weighs exactly the dense free block's matrix and
    resolves ties the same way.
    """
    free_rows = [gid for gid in table.gt_ids if gid not in matched]
    free_cols = [pid for pid, score in zip(table.pr_ids, table.scores)
                 if (min_score is None or score >= min_score) and pid not in used]
    row_at = {gid: r for r, gid in enumerate(free_rows)}
    col_at = {pid: c for c, pid in enumerate(free_cols)}
    at = ([row_at[gid] for gid, _, _ in free], [col_at[pid] for _, pid, _ in free])
    block = np.zeros((len(free_rows), len(free_cols)))
    gates = np.full(block.shape, np.inf)
    block[at] = [value for _, _, value in free]
    gates[at] = table.gate
    assign = solve_assignment(block, gates)
    return {free_rows[r]: free_cols[c] for r, c in assign.matches.tolist()}


def _switch_delta(preds: list[int], k: int, pid: int) -> int:
    """Identity switches gained by putting a match to ``pid`` between a gt
    id's matches preds[k - 1] and preds[k], either of which may be absent."""
    if 0 < k < len(preds):
        left, right = preds[k - 1], preds[k]
        return (left != pid) + (right != pid) - (left != right)
    if k:
        return int(preds[k - 1] != pid)
    return int(bool(preds) and preds[0] != pid)


def _relink(
    sequences: dict[int, tuple[list[int], list[int]]],
    frame: int,
    old: dict[int, int],
    new: dict[int, int],
) -> int:
    """Replace a frame's matches ``old`` by ``new`` in the per-gt match
    sequences and return the change in identity switches.

    Each gt id's sequence is its matched frames, ascending, and the pred ids
    matched there; its switches are the neighbouring entries whose pred ids
    differ. A removed or inserted pair only changes the switches with its
    neighbours, found by one bisect. Removals go first, so a gt id matched
    anew in this frame is never in its sequence twice.
    """
    delta = 0
    inserted = []
    for gid, pid in old.items() ^ new.items():
        if old.get(gid) != pid:
            inserted.append((gid, pid))
            continue
        frames, preds = sequences[gid]
        k = bisect_left(frames, frame)
        del frames[k], preds[k]
        delta -= _switch_delta(preds, k, pid)
    for gid, pid in inserted:
        frames, preds = sequences.setdefault(gid, ([], []))
        k = bisect_left(frames, frame)
        delta += _switch_delta(preds, k, pid)
        frames.insert(k, frame)
        preds.insert(k, pid)
    return delta


# Unique scores whose frames _frames_by_score turns into lists at a time.
_SCORE_BLOCK = 1024


def _frames_by_score(tables: list[_FrameTable]) -> Iterator[tuple[float, list[int]]]:
    """Each unique prediction score, descending, with the frames holding it,
    ascending.

    The index is two arrays: every (score, frame) pair once, scores
    descending and frames ascending within a score. A frame's scores are
    taken once each, the first of 0.0 and -0.0 standing for both, and the
    sort is stable, so a score is named by the first seen in frame order.
    Python lists are built for a block of scores at a time.
    """
    scores: list[float] = []
    frames: list[int] = []
    for i, table in enumerate(tables):
        held = dict.fromkeys(table.scores)
        scores.extend(held)
        frames.extend([i] * len(held))
    scores, frames = np.array(scores), np.array(frames, dtype=np.intp)
    order = np.argsort(-scores, kind="stable")
    scores, frames = scores[order], frames[order]
    new_score = np.ones(len(scores), dtype=bool)
    new_score[1:] = scores[1:] != scores[:-1]
    starts = new_score.nonzero()[0]
    bounds = np.append(starts, len(frames))
    for block in range(0, len(starts), _SCORE_BLOCK):
        edges = bounds[block:block + _SCORE_BLOCK + 1]
        held = frames[edges[0]:edges[-1]].tolist()
        edges = (edges - edges[0]).tolist()
        yield from zip(scores[starts[block:block + _SCORE_BLOCK]].tolist(),
                       map(held.__getitem__, map(slice, edges, edges[1:])))


def _sweep(tables: list[_FrameTable]) -> Iterator[tuple[float, int, int, int]]:
    """CLEAR counts (score, fp, fn, ids) keeping the predictions scored at
    least each unique score, in descending score order.

    One incremental pass. It starts from no prediction kept, where every frame
    matches nothing and misses all its gt. Lowering the threshold to a score
    changes the kept columns only in the frames holding that score. The only
    state handed from frame to frame is the persisting pairs, the previous
    counted frame's matches; a frame left with neither gt nor kept predictions
    is skipped and hands on what entered it. So a frame is recounted only if
    it holds the score or the pairs persisting into it changed, and a cascade
    of recounts stops at the first counted isolated frame, whose matches do
    not depend on what persists, or at a frame entered with the pairs it was
    entered with before. Identity switches are counted apart, from each gt
    id's matches in frame order (see _relink), so a changed match moves the
    switch count without recounting the frames after it. Totals move by the
    difference between a frame's new and old counts.
    """
    n = len(tables)
    # Per frame: the pairs persisting into it (kept for frames that are not
    # isolated, the only ones that read them), its matches and its (fp, fn).
    entering: list[dict[int, int]] = [{}] * n
    matches: list[dict[int, int]] = [{}] * n
    counts = [(0, len(table.gt_ids)) for table in tables]
    sequences: dict[int, tuple[list[int], list[int]]] = {}
    fp, fn, ids = 0, sum(c[1] for c in counts), 0

    for score, held in _frames_by_score(tables):
        changed = held + [n]
        k, i = 0, changed[0]
        persisting = entering[i]
        while i < n:
            table = tables[i]
            if i == changed[k]:
                k += 1
            elif not table.gt_ids and table.ranked[-1] < score:
                i += 1  # skipped: persistence carries across it
                continue
            elif table.isolated or persisting == entering[i]:
                # Nothing differs until the next frame holding this score.
                i = changed[k]
                if i < n:
                    persisting = entering[i]
                continue
            if not table.isolated:
                entering[i] = persisting
            frame_fp, frame_fn, matched = _frame_step(table, score, persisting)
            old_fp, old_fn = counts[i]
            counts[i] = frame_fp, frame_fn
            fp += frame_fp - old_fp
            fn += frame_fn - old_fn
            if matched != matches[i]:
                ids += _relink(sequences, i, matches[i], matched)
                matches[i] = matched
            persisting = matched
            i += 1
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
    for table in _frame_tables(gt, pred, _threshold(gt.mode, match_threshold)):
        frame_fp, frame_fn, persisting = _frame_step(table, None, persisting)
        ids += _switches(persisting, last_match)
        last_match.update(persisting)
        fp += frame_fp
        fn += frame_fn
    total_gt = len(gt.track_ids)
    mota = 1.0 - (ids + fp + fn) / total_gt if total_gt else float("nan")
    return ClearReport(mota=mota, fp=fp, fn=fn, ids=ids, gt=total_gt)


def idf1(gt: TrackOutput, pred: TrackOutput, match_threshold: float | None = None) -> float:
    """Identity F1: a global one-to-one mapping between trajectories.

    Trajectory pairs are weighted by the number of frames where their boxes
    clear the match gate; the mapping maximizing the total (IDTP) is found by
    optimal assignment, and IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).
    """
    _check_modes(gt, pred)
    if not len(gt.track_ids) or not len(pred.track_ids):
        return 0.0

    # Record indices of both sides of every admissible pair, over all frames.
    gt_at: list[np.ndarray] = []
    pr_at: list[np.ndarray] = []
    for gt_rows, pr_rows, rows, cols, _, _ in _frame_pairs(
        gt, pred, _threshold(gt.mode, match_threshold)
    ):
        gt_at.append(rows + gt_rows.start)
        pr_at.append(cols + pr_rows.start)
    gt_index, pr_index = np.unique(gt.track_ids), np.unique(pred.track_ids)
    flat = (np.searchsorted(gt_index, gt.track_ids[np.concatenate(gt_at)]) * len(pr_index)
            + np.searchsorted(pr_index, pred.track_ids[np.concatenate(pr_at)]))
    overlap = np.bincount(flat, minlength=len(gt_index) * len(pr_index)).astype(float)
    overlap = overlap.reshape(len(gt_index), len(pr_index))

    matches = solve_assignment(overlap, gate=0.5).matches
    idtp = int(overlap[matches[:, 0], matches[:, 1]].sum())
    idfp = len(pred.track_ids) - idtp
    idfn = len(gt.track_ids) - idtp
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
    return _smota(report.ids + report.fp + report.fn, report.gt, r)


def _smota(errors: int, total_gt: int, r: float) -> float:
    """sMOTA at recall r from the CLEAR error total (ids + fp + fn)."""
    penalty = errors - (1.0 - r) * total_gt
    return max(0.0, min(1.0, 1.0 - penalty / (r * total_gt)))


def amota(
    gt: TrackOutput,
    pred: TrackOutput,
    match_threshold: float | None = None,
) -> AmotaReport:
    """Average sMOTA over the recall grid k/40, k = 1..40, via a confidence sweep.

    For each target recall the prediction is thresholded at the observed
    confidence whose recall is closest from above (ties take the higher
    threshold); unreachable recall points contribute zero. Only the ordering
    of confidences matters, so any strictly monotone rescaling of the scores
    leaves the result unchanged.
    """
    _check_modes(gt, pred)
    total_gt = len(gt.track_ids)
    if total_gt == 0:
        raise ValueError("AMOTA requires non-empty ground truth")
    if not np.isfinite(pred.scores).all():
        raise ValueError("AMOTA requires finite prediction confidences")

    tables = list(_frame_tables(gt, pred, _threshold(gt.mode, match_threshold)))
    # Errors at the highest threshold with each recall: the sweep descends, so
    # the first threshold seen with a recall is the highest.
    errors_at: dict[float, int] = {}
    for _, fp, fn, ids in _sweep(tables):
        errors_at.setdefault((total_gt - fn) / total_gt, fp + fn + ids)
    reached = sorted(errors_at)

    recalls = tuple(k / _RECALL_POINTS for k in range(1, _RECALL_POINTS + 1))
    values = []
    for r in recalls:
        # The lowest recall that still reaches r; none means r is unreachable.
        k = bisect_left(reached, r)
        values.append(_smota(errors_at[reached[k]], total_gt, r) if k < len(reached) else 0.0)

    return AmotaReport(
        amota=float(np.mean(values)),
        smota_values=tuple(values),
        recalls=recalls,
    )
