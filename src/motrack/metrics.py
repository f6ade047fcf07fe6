"""Tracking evaluation: CLEAR counts (MOTA/FP/FN/IDS), IDF1, sMOTA_r, AMOTA.

Ground truth and predictions are both TrackOutput values, read as columns.
Per-frame matching is gated (2D: IoU >= 0.5 by default; 3D: BEV center
distance <= 2 m) with CLEAR persistence: a gt-prediction pair from the
previous frame is kept while it still clears the gate, and only the remainder
is re-matched optimally.

Frames are taken in blocks of consecutive frames, each padded to its
largest frame; a mask of each frame's own cells keeps the padding out. In 2D
at a positive IoU gate only the own cells whose x extents overlap can be
admitted, as a cell without an intersection scores 0, so only those are
candidates; otherwise every own cell is. Only the candidates are scored,
pair by pair, each exactly as a dense table would hold it. Only the
admissible pairs, those that clear the gate, are kept, so memory follows
those pairs plus one block rather than gt x predictions. The assignment
solver runs only on a frame whose free pairs conflict (a row or column in two
of them, or a pair worth zero); otherwise they are the matches.

A frame's matches are the only count kept per frame. Over a sequence, FP is
the predictions kept minus the matches and FN the gt minus the matches, so
both are totals. A frame is isolated when no id is in two of its admissible
pairs and every pair is worth more than zero; its pairs are then its matches.
CLEAR takes an isolated frame's matches straight from its block's pair
arrays and steps only the other frames, each from the matches of the frame
before it. It counts a block's identity switches from one sort of the
block's matches by (gt id, frame), checking each gt id's first match there
against its last match in earlier blocks.

AMOTA's confidence sweep counts the matches at every unique prediction
score, as recall is not monotone in the threshold. An isolated frame's
matches at a threshold are its pairs scored at least that high, so they stay
in the block arrays. Only the other frames, each with the frames that hand it
its persisting pairs, are stepped score by score, and every change of their
matches is recorded. Each match then holds over a run of thresholds, a
spell, and the matches at every score are two searchsorted counts over the
spells' ends. Identity switches are counted only at the thresholds the
recall grid reads, from the spells holding each, in (gt id, frame) order.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .assignment import solve_assignment
from .geometry import iou_2d_pairs
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

    def to_dict(self) -> dict[str, float | int]:
        return {"mota": self.mota, "fp": self.fp, "fn": self.fn,
                "ids": self.ids, "gt": self.gt}


@dataclass(frozen=True)
class AmotaReport:
    """Average of recall-adjusted accuracies over the recall grid."""

    amota: float
    smota_values: tuple[float, ...]
    recalls: tuple[float, ...]


def _threshold(mode: Mode, match_threshold: float | None) -> float:
    if match_threshold is None:
        return DEFAULT_IOU_MATCH if mode is Mode.BOX_2D else DEFAULT_DIST_MATCH
    if not math.isfinite(match_threshold):
        raise ValueError(f"match_threshold must be finite, got {match_threshold!r}")
    return match_threshold


def _check_modes(gt: TrackOutput, pred: TrackOutput) -> None:
    if gt.mode is not pred.mode:
        raise ValueError(f"mode mismatch: gt is {gt.mode.value}, pred is {pred.mode.value}")


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
    top: float  # the highest score, -inf without predictions
    pairs: list[tuple[int, int]]
    pair_scores: list[float]
    values: list[float]
    isolated: bool


class _Block(NamedTuple):
    """The admissible pairs of a run of consecutive frames.

    ``gt_bounds`` and ``pr_bounds`` hold the record index where each frame
    starts, then the run's end. Per pair, in frame order and row-major within
    a frame: the frame's place in the run, the gt and prediction record
    indices and the similarity, which reached the gate.
    """

    gt_bounds: list[int]
    pr_bounds: list[int]
    frame: np.ndarray
    gt_at: np.ndarray
    pr_at: np.ndarray
    values: np.ndarray


# Padded cells (frames x gt rows x prediction columns) of one run; a frame
# with more cells than this is a run alone.
_BLOCK_CELLS = 16384


def _block_spans(n_gt: list[int], n_pr: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """Runs of consecutive frames, grown greedily while the run padded to its
    largest frame stays within _BLOCK_CELLS: (start, stop, gt rows, prediction
    columns)."""
    start = most_gt = most_pr = 0
    for i, (n_g, n_p) in enumerate(zip(n_gt, n_pr)):
        grown_gt, grown_pr = max(most_gt, n_g), max(most_pr, n_p)
        if i > start and (i + 1 - start) * grown_gt * grown_pr > _BLOCK_CELLS:
            yield start, i, most_gt, most_pr
            start, grown_gt, grown_pr = i, n_g, n_p
        most_gt, most_pr = grown_gt, grown_pr
    if n_gt:
        yield start, len(n_gt), most_gt, most_pr


def _slots(starts: np.ndarray, counts: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """For ``width`` slots per frame of a run, counted from the frame's first
    record: each slot's record index, and whether it is the frame's own."""
    slots = np.arange(width)
    return starts[:, None] + slots, slots < counts[:, None]


def _distinct(frames: np.ndarray) -> np.ndarray:
    """The distinct frame numbers of a sorted frame column, taking memory in
    frames rather than records."""
    return np.concatenate((frames[:1], frames[1:][frames[1:] != frames[:-1]]))


def _blocks(gt: TrackOutput, pred: TrackOutput, threshold: float) -> Iterator[_Block]:
    """The admissible pairs of every frame that has rows, in frame order, in
    runs of consecutive frames (see _block_spans).

    Every frame of a run is given as many gt and prediction slots as the
    run's largest; a slot past a frame's own records reads a later record of
    the run, and the mask of own cells keeps it out. The candidates are the
    own cells, kept in 2D at a positive gate only where the x extents
    overlap: the gate then admits no cell without an intersection, and such
    a cell scores IoU 0 (see iou_2d_pairs). Only the candidates' record rows
    are scored, pair by pair; a NaN or +inf similarity is rejected, and -inf
    (a 3D center distance that overflows) reaches no gate. Memory follows
    one run's cells plus its candidates.
    """
    frames = np.union1d(_distinct(gt.frames), _distinct(pred.frames))
    gt_bounds = np.append(np.searchsorted(gt.frames, frames), len(gt.frames))
    pr_bounds = np.append(np.searchsorted(pred.frames, frames), len(pred.frames))
    n_gt, n_pr = np.diff(gt_bounds), np.diff(pr_bounds)
    is_2d = gt.mode is Mode.BOX_2D
    cull = is_2d and threshold > 0.0
    # Column views: a 2D cell is culled on x1, x2 (columns 0, 2), and a 3D
    # pair is scored on the center's x, y (columns 0, 1).
    gt_col, pr_col = gt.boxes.T, pred.boxes.T
    for start, stop, width_gt, width_pr in _block_spans(n_gt.tolist(), n_pr.tolist()):
        gt_rec, gt_own = _slots(gt_bounds[start:stop], n_gt[start:stop], width_gt)
        pr_rec, pr_own = _slots(pr_bounds[start:stop], n_pr[start:stop], width_pr)
        candidate = gt_own[:, :, None] & pr_own[:, None, :]
        if cull:
            at_gt = np.minimum(gt_rec, gt_bounds[stop] - 1)[:, :, None]
            at_pr = np.minimum(pr_rec, pr_bounds[stop] - 1)[:, None, :]
            # The cells where the kernel's x overlap, min(x2) - max(x1), is
            # positive: a float difference is positive exactly when its first
            # term is the larger (or it overflows to +inf).
            candidate &= (np.minimum(gt_col[2][at_gt], pr_col[2][at_pr])
                          > np.maximum(gt_col[0][at_gt], pr_col[0][at_pr]))
        gt_slot, pr_slot = np.divmod(candidate.ravel().nonzero()[0], width_pr)
        frame = gt_slot // width_gt
        gt_at = gt_rec.ravel()[gt_slot]
        pr_at = pr_bounds[start:stop][frame] + pr_slot
        if is_2d:
            values, gate = iou_2d_pairs(gt.boxes[gt_at], pred.boxes[pr_at]), threshold
        else:
            with np.errstate(over="ignore"):
                dx = gt_col[0][gt_at] - pr_col[0][pr_at]
                dy = gt_col[1][gt_at] - pr_col[1][pr_at]
                values, gate = threshold - np.sqrt(dx * dx + dy * dy), 0.0
        if not (values < np.inf).all():
            raise ValueError("similarity entries must be finite")
        admitted = (values >= gate).nonzero()[0]
        yield _Block(gt_bounds[start:stop + 1].tolist(), pr_bounds[start:stop + 1].tolist(),
                     frame[admitted], gt_at[admitted], pr_at[admitted], values[admitted])


def _isolated(block: _Block) -> np.ndarray:
    """Per frame of a block, whether it is isolated: no record in two of its
    pairs and every pair worth more than zero. Then its pairs are its
    matches, whatever persists or which predictions are kept."""
    gt_bounds, pr_bounds, frame, gt_at, pr_at, values = block
    # Pairs are row-major, so a gt record's are adjacent; record ids are
    # unique within a frame.
    clash = values <= 0.0
    clash[1:] |= gt_at[1:] == gt_at[:-1]
    local = pr_at - pr_bounds[0]
    clash |= np.bincount(local)[local] > 1
    return np.bincount(frame[clash], minlength=len(gt_bounds) - 1) == 0


def _block_tables(
    block: _Block,
    isolated: np.ndarray,
    gt_ids: np.ndarray,
    pr_ids: np.ndarray,
    scores: np.ndarray,
    wanted: np.ndarray,
) -> list[_FrameTable]:
    """The tables of a block's frames flagged in ``wanted``, from its
    _isolated flags and the id and score columns its record indices point into.

    One stable sort by (frame, prediction score) orders every frame's pairs
    at once, and each column becomes one list that the frames slice.
    """
    gt_bounds, pr_bounds, frame, gt_at, pr_at, values = block
    n_frames = len(gt_bounds) - 1
    isolated = isolated.tolist()
    keep = wanted[frame]
    frame, gt_at, pr_at, values = frame[keep], gt_at[keep], pr_at[keep], values[keep]
    pair_scores = scores[pr_at]
    order = np.lexsort((pair_scores, frame))
    pair_bounds = np.searchsorted(frame, np.arange(n_frames + 1)).tolist()

    pairs = list(zip(gt_ids[gt_at[order]].tolist(), pr_ids[pr_at[order]].tolist()))
    pair_scores, values = pair_scores[order].tolist(), values[order].tolist()
    g0, g1, p0, p1 = gt_bounds[0], gt_bounds[-1], pr_bounds[0], pr_bounds[-1]
    gt_list, pr_list = gt_ids[g0:g1].tolist(), pr_ids[p0:p1].tolist()
    score_list = scores[p0:p1].tolist()
    tables = []
    for i in wanted.nonzero()[0].tolist():
        ga, gz = gt_bounds[i] - g0, gt_bounds[i + 1] - g0
        pa, pz = pr_bounds[i] - p0, pr_bounds[i + 1] - p0
        qa, qz = pair_bounds[i], pair_bounds[i + 1]
        frame_scores = score_list[pa:pz]
        tables.append(_FrameTable(gt_list[ga:gz], pr_list[pa:pz], frame_scores,
                                  max(frame_scores, default=-math.inf), pairs[qa:qz],
                                  pair_scores[qa:qz], values[qa:qz], isolated[i]))
    return tables


def _frame_step(
    table: _FrameTable, min_score: float | None, persisting: dict[int, int]
) -> dict[int, int]:
    """The matches of one frame, gt id -> pred id.

    Only predictions scored at least ``min_score`` take part (all of them when
    it is None). A pair from ``persisting`` (the previous frame's matches, so
    no prediction id twice) is kept while it is still admissible; the rest is
    re-matched optimally. ``persisting`` is not modified: the returned matches
    are the next frame's. Identity switches and the FP and FN totals are
    counted by the caller, from the matches.

    Kept pairs that persist are matched first. When no remaining row or
    column is in two free pairs and every free pair scores above zero, the
    free pairs are the unique optimum and no solver runs. Otherwise the
    solver gets the free block: every free gt row and every kept free
    prediction column, in frame order, with only the free pairs admissible.
    So it weighs exactly the dense free block's matrix and resolves ties the
    same way.
    """
    start = 0 if min_score is None else bisect_left(table.pair_scores, min_score)
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
        return matched

    rows = [gid for gid in table.gt_ids if gid not in matched]
    cols = [pid for pid, score in zip(table.pr_ids, table.scores)
            if (min_score is None or score >= min_score) and pid not in used]
    row_at = {gid: r for r, gid in enumerate(rows)}
    col_at = {pid: c for c, pid in enumerate(cols)}
    at = ([row_at[gid] for gid in free_rows], [col_at[pid] for pid in free_cols])
    block = np.zeros((len(rows), len(cols)))
    block[at] = free_values
    admissible = np.zeros(block.shape, dtype=bool)
    admissible[at] = True
    solved = solve_assignment(block, admissible).matches.tolist()
    matched.update((rows[r], cols[c]) for r, c in solved)
    return matched


def _block_switches(
    frames: np.ndarray, gt_ids: np.ndarray, pr_ids: np.ndarray, last_match: dict[int, int]
) -> int:
    """Identity switches among one block's matches, given as the frame, gt id
    and prediction id of each, in any order.

    Sorted by (gt id, frame), a switch is two neighbours of one gt id matched
    to different predictions, or a gt id's first match here differing from
    its last match in earlier blocks (``last_match``, gt id -> pred id),
    which is then updated with each gt id's last match here.
    """
    order = np.lexsort((frames, gt_ids))
    gt_ids, pr_ids = gt_ids[order], pr_ids[order]
    same = gt_ids[1:] == gt_ids[:-1]
    ids = int(np.count_nonzero(same & (pr_ids[1:] != pr_ids[:-1])))
    first = np.ones(len(gt_ids), dtype=bool)
    first[1:] = ~same
    ids += sum(last_match.get(gid, pid) != pid
               for gid, pid in zip(gt_ids[first].tolist(), pr_ids[first].tolist()))
    last = np.ones(len(gt_ids), dtype=bool)
    last[:-1] = ~same
    last_match.update(zip(gt_ids[last].tolist(), pr_ids[last].tolist()))
    return ids


def _frames_by_score(tables: list[_FrameTable]) -> Iterator[tuple[float, list[int]]]:
    """Each unique prediction score of the tables, descending, with the
    frames holding it, ascending.

    The index is one dict from score to the frames holding it, filled in
    frame order: 0.0 and -0.0 are one key, named by the first seen, and a
    frame holding a score twice is named once. Each entry is released as it
    is handed out.
    """
    index: dict[float, list[int]] = {}
    for i, table in enumerate(tables):
        for score in table.scores:
            frames = index.get(score)
            if frames is None:
                index[score] = [i]
            else:
                frames.append(i)
    for score in sorted(index, reverse=True):
        frames = index.pop(score)
        yield score, list(dict.fromkeys(frames)) if len(frames) > 1 else frames


def _match_changes(tables: list[_FrameTable], frames: list[int]) -> tuple[array, array]:
    """The changes of the matches of the frames that are not isolated, as the
    threshold falls through each unique score of ``tables``: the changes as
    rows of (frame, gt id, prediction id, +1 entering or -1 leaving), and the
    score of each.

    ``tables`` are the stepped frames, in frame order, and ``frames`` their
    frame numbers; each run of them opens on a frame whose matches do not
    depend on what persists into it (see _sweep). The only state handed from
    frame to frame is the persisting pairs, the previous counted frame's
    matches; a frame left with neither gt nor kept predictions is skipped and
    hands on what entered it. A lower score recounts the frames holding it,
    and a cascade of recounts runs on only while the pairs persisting into a
    frame differ from those it was last counted with. An isolated frame is
    never stepped: its matches are its kept pairs, a suffix of its pairs.
    """
    n = len(tables)
    # Per frame: the pairs persisting into it (kept for frames that are not
    # isolated, the only ones that read them) and its matches.
    entering: list[dict[int, int]] = [{}] * n
    matches: list[dict[int, int]] = [{}] * n
    changes, change_scores = array("q"), array("d")
    for score, held in _frames_by_score(tables):
        changed = held + [n]
        k, i = 0, changed[0]
        persisting = entering[i]
        while i < n:
            table = tables[i]
            if i == changed[k]:
                k += 1
            elif not table.gt_ids and table.top < score:
                i += 1  # skipped: persistence carries across it
                continue
            elif table.isolated or persisting == entering[i]:
                # Nothing differs until the next frame holding this score.
                i = changed[k]
                if i < n:
                    persisting = entering[i]
                continue
            if table.isolated:
                start = bisect_left(table.pair_scores, score)
                if len(table.pairs) - start != len(matches[i]):
                    matches[i] = dict(table.pairs[start:])
                persisting = matches[i]
                i += 1
                continue
            entering[i] = persisting
            matched = _frame_step(table, score, persisting)
            old = matches[i]
            if matched != old:
                for gid, pid in old.items() ^ matched.items():
                    changes.extend((frames[i], gid, pid, 1 if matched.get(gid) == pid else -1))
                    change_scores.append(score)
                matches[i] = matched
            persisting = matched
            i += 1
    return changes, change_scores


class _Sweep(NamedTuple):
    """The matches of AMOTA's confidence sweep.

    Per unique prediction score, descending: the predictions scored at least
    it and the matches when they are kept. Per spell of one match, one
    (frame, gt id, prediction id) matched over a run of thresholds, sorted by
    (gt id, frame, prediction id): the ids, the highest threshold where it is
    matched and the highest lower one where it is not (-inf if none).
    """

    scores: np.ndarray
    kept: np.ndarray
    matched: np.ndarray
    gt_ids: np.ndarray
    pr_ids: np.ndarray
    high: np.ndarray
    low: np.ndarray


def _sweep(gt: TrackOutput, pred: TrackOutput, threshold: float) -> _Sweep:
    """The matches at every unique prediction score, keeping the predictions
    scored at least that high.

    An isolated frame's matches at a threshold are its pairs scored at least
    that high, whatever persists into it, so its pairs stay in the block
    arrays: each is one spell, from its prediction's score down. The other
    frames are stepped (_match_changes), and with each the frames back to the
    nearest earlier frame with gt, which hand it its persisting pairs: that
    frame's matches do not depend on what persists, as it is isolated or
    stepped itself, and the frames between have no gt and no pairs. Only
    stepped frames get a table. One stable sort by (gt id, frame, prediction
    id) lines up each stepped match's changes in sweep order, entering then
    leaving, and pairs them into spells. The matches at every score are then
    two searchsorted counts over the spells' ends.
    """
    gt_ids, pr_ids, scores = gt.track_ids, pred.track_ids, pred.scores
    blocks, with_gt = [], [np.zeros(0, dtype=bool)]
    frames, gids, pids, highs = [], [], [], []
    n_frames = 0
    for block in _blocks(gt, pred, threshold):
        isolated = _isolated(block)
        own = isolated[block.frame]
        frames.append(block.frame[own] + n_frames)
        gids.append(gt_ids[block.gt_at[own]])
        pids.append(pr_ids[block.pr_at[own]])
        highs.append(scores[block.pr_at[own]])
        blocks.append((n_frames, block, isolated))
        with_gt.append(np.diff(block.gt_bounds) > 0)
        n_frames += len(isolated)

    # A frame that is not isolated is stepped with the frames back to the
    # nearest earlier frame with gt; without one, it enters with no pairs.
    conflicting = np.flatnonzero(np.concatenate([~isolated for _, _, isolated in blocks]
                                                + [np.zeros(0, dtype=bool)]))
    gt_frames = np.flatnonzero(np.concatenate(with_gt))
    before = np.searchsorted(gt_frames, conflicting) - 1
    opens = np.where(before >= 0, gt_frames[before], conflicting)
    depth = np.cumsum(np.bincount(opens, minlength=n_frames + 1)
                      - np.bincount(conflicting + 1, minlength=n_frames + 1))
    stepped = depth[:n_frames] > 0
    tables = []
    for first, block, isolated in blocks:
        wanted = stepped[first:first + len(isolated)]
        if wanted.any():
            tables += _block_tables(block, isolated, gt_ids, pr_ids, scores, wanted)
    changes, change_scores = _match_changes(tables, np.flatnonzero(stepped).tolist())
    changes = np.frombuffer(changes, dtype=np.int64).reshape(-1, 4)

    frames.append(changes[:, 0])
    gids.append(changes[:, 1])
    pids.append(changes[:, 2])
    highs.append(np.frombuffer(change_scores))
    frames, gids, pids, highs = (np.concatenate(c) for c in (frames, gids, pids, highs))
    enters = np.ones(len(frames), dtype=bool)
    enters[len(frames) - len(changes):] = changes[:, 3] > 0
    # Stable, so a match's changes stay in sweep order: each entering one is
    # followed by the change where it leaves, if any.
    order = np.lexsort((pids, frames, gids))
    frames, gids, pids, highs, enters = (
        frames[order], gids[order], pids[order], highs[order], enters[order])
    lows = np.full(len(highs), -math.inf)
    left = (gids[1:] == gids[:-1]) & (frames[1:] == frames[:-1]) & (pids[1:] == pids[:-1])
    lows[:-1][left] = highs[1:][left]
    gids, pids, highs, lows = gids[enters], pids[enters], highs[enters], lows[enters]

    # Unique scores named by the first seen: a stable sort keeps record order among equals.
    ordered = scores[np.argsort(scores, kind="stable")]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    unique = ordered[first][::-1]
    matched = np.searchsorted(np.sort(lows), unique) - np.searchsorted(np.sort(highs), unique)
    return _Sweep(unique, len(ordered) - np.flatnonzero(first)[::-1], matched,
                  gids, pids, highs, lows)


# Cells (thresholds x spells) compared at once by the switch count.
_SWITCH_CELLS = 1 << 16


def _switches(sweep: _Sweep, thresholds: np.ndarray) -> np.ndarray:
    """Identity switches at each of ``thresholds``, scores of the sweep.

    The spells holding a threshold are its matches, one per (gt id, frame),
    already in (gt id, frame) order; a switch is two neighbours of one gt id
    matched to different predictions. Thresholds are taken a chunk at a time,
    so memory follows the spells, not spells x thresholds.
    """
    gids, pids, high, low = sweep.gt_ids, sweep.pr_ids, sweep.high, sweep.low
    rows = max(1, _SWITCH_CELLS // max(len(gids), 1))
    counts = [np.zeros(0, dtype=np.intp)]
    for a in range(0, len(thresholds), rows):
        chunk = thresholds[a:a + rows, None]
        held = (low < chunk) & (chunk <= high)
        row, col = held.nonzero()
        g, p = gids[col], pids[col]
        switch = (row[1:] == row[:-1]) & (g[1:] == g[:-1]) & (p[1:] != p[:-1])
        counts.append(np.bincount(row[1:][switch], minlength=len(chunk)))
    return np.concatenate(counts)


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
    threshold = _threshold(gt.mode, match_threshold)
    gt_ids, pr_ids = gt.track_ids, pred.track_ids
    matched = ids = 0
    # The matches of the last frame with rows and each gt id's last match,
    # both carried from block to block.
    persisting: dict[int, int] = {}
    last_match: dict[int, int] = {}
    for block in _blocks(gt, pred, threshold):
        isolated = _isolated(block)
        flags = isolated.tolist()
        bounds = np.searchsorted(block.frame, np.arange(len(flags) + 1)).tolist()
        gids, pids = gt_ids[block.gt_at], pr_ids[block.pr_at]
        # An isolated frame's matches are its pairs. Every other frame is
        # stepped from the matches of the frame with rows before it.
        own = isolated[block.frame]
        frames, gt_matched, pr_matched = [block.frame[own]], [gids[own]], [pids[own]]
        if not all(flags):
            stepped = ~isolated
            tables = _block_tables(block, isolated, gt_ids, pr_ids, pred.scores, stepped)
            for i, table in zip(stepped.nonzero()[0].tolist(), tables):
                if i and flags[i - 1]:
                    a, z = bounds[i - 1], bounds[i]
                    persisting = dict(zip(gids[a:z].tolist(), pids[a:z].tolist()))
                persisting = _frame_step(table, None, persisting)
                frames.append(np.full(len(persisting), i))
                gt_matched.append(np.fromiter(persisting.keys(), gids.dtype, len(persisting)))
                pr_matched.append(np.fromiter(persisting.values(), pids.dtype, len(persisting)))
        if flags[-1]:
            persisting = dict(zip(gids[bounds[-2]:].tolist(), pids[bounds[-2]:].tolist()))
        gt_all = np.concatenate(gt_matched)
        matched += len(gt_all)
        ids += _block_switches(np.concatenate(frames), gt_all, np.concatenate(pr_matched),
                               last_match)
    total_gt = len(gt.track_ids)
    fp, fn = len(pred.track_ids) - matched, total_gt - matched
    mota = 1.0 - (ids + fp + fn) / total_gt if total_gt else float("nan")
    return ClearReport(mota=mota, fp=fp, fn=fn, ids=ids, gt=total_gt)


def idf1(gt: TrackOutput, pred: TrackOutput, match_threshold: float | None = None) -> float:
    """Identity F1: a global one-to-one mapping between trajectories.

    Trajectory pairs are weighted by the number of frames where their boxes
    clear the match gate; the mapping maximizing the total (IDTP) is found by
    optimal assignment, and IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).
    """
    _check_modes(gt, pred)
    threshold = _threshold(gt.mode, match_threshold)
    if not len(gt.track_ids) or not len(pred.track_ids):
        return 0.0

    # Frames in which each (gt id, prediction id) pair is admissible.
    gt_index, pr_index = np.unique(gt.track_ids), np.unique(pred.track_ids)
    overlap = np.zeros((len(gt_index), len(pr_index)))
    for block in _blocks(gt, pred, threshold):
        np.add.at(overlap, (np.searchsorted(gt_index, gt.track_ids[block.gt_at]),
                            np.searchsorted(pr_index, pred.track_ids[block.pr_at])), 1.0)

    matches = solve_assignment(overlap, overlap > 0.0).matches
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
    threshold = _threshold(gt.mode, match_threshold)
    total_gt = len(gt.track_ids)
    if total_gt == 0:
        raise ValueError("AMOTA requires non-empty ground truth")
    if not np.isfinite(pred.scores).all():
        raise ValueError("AMOTA requires finite prediction confidences")

    sweep = _sweep(gt, pred, threshold)
    # The highest threshold with each matched total, in ascending recall:
    # np.unique gives the first of each total, and scores descend.
    totals, first = np.unique(sweep.matched, return_index=True)
    reached = totals / total_gt
    recalls = tuple(k / _RECALL_POINTS for k in range(1, _RECALL_POINTS + 1))
    # The lowest recall that still reaches each r; none means r is unreachable.
    picks = np.searchsorted(reached, recalls)
    read = np.unique(picks[picks < len(totals)])
    at = first[read]
    errors = sweep.kept[at] + total_gt - 2 * sweep.matched[at] + _switches(sweep, sweep.scores[at])
    errors_at = dict(zip(read.tolist(), errors.tolist()))
    values = [_smota(errors_at[k], total_gt, r) if k < len(totals) else 0.0
              for k, r in zip(picks.tolist(), recalls)]

    return AmotaReport(
        amota=float(np.mean(values)),
        smota_values=tuple(values),
        recalls=recalls,
    )
