import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import metrics
from motrack.association import Mode
from motrack.cli import main
from motrack.formats import write_mot_results
from motrack.geometry import Box2D, Box3D
from motrack.metrics import amota, clear_mot, idf1, smota_r
from motrack.tracker import TrackOutput, TrackRecord
from oracle_utils import (amota_reference, block_tables, clear_counts_reference,
                          clear_from_frame_tables, dense_frame_step, frame_tables_reference,
                          idf1_from_frame_pairs, idf1_reference, output_of, sweep_reference)


def output_2d(rows, n_frames=None):
    """rows: (frame, id, x, y, score); 60x120 boxes."""
    records = tuple(
        TrackRecord(f, i, Box2D(x, y, x + 60, y + 120), s) for f, i, x, y, s in rows
    )
    frames = n_frames if n_frames is not None else max((r[0] for r in rows), default=0)
    return output_of(records, Mode.BOX_2D, frames)


def output_3d(rows, n_frames=None):
    records = tuple(
        TrackRecord(f, i, Box3D(x, y, 0.8, 0.0, 4.5, 1.9, 1.6), s)
        for f, i, x, y, s in rows
    )
    frames = n_frames if n_frames is not None else max((r[0] for r in rows), default=0)
    return output_of(records, Mode.BOX_3D, frames)


def steady(track_id, frames, x=100.0, y=100.0, score=1.0):
    return [(f, track_id, x, y, score) for f in frames]


class TestClearMot:
    def test_perfect_tracking(self):
        gt = output_2d(steady(1, range(1, 11)))
        report = clear_mot(gt, gt)
        assert report.mota == 1.0
        assert (report.fp, report.fn, report.ids) == (0, 0, 0)
        assert report.gt == 10

    def test_scripted_errors_sum_to_0_6(self):
        # 10 gt frames; 2 misses, 1 spurious box, 1 identity switch.
        gt = output_2d(steady(1, range(1, 11)))
        pred_rows = steady(10, range(1, 5)) + steady(11, range(7, 11))
        pred_rows.append((3, 99, 900.0, 900.0, 0.9))  # far-away spurious box
        pred = output_2d(sorted(pred_rows), n_frames=10)
        report = clear_mot(gt, pred)
        assert (report.fp, report.fn, report.ids) == (1, 2, 1)
        assert report.mota == pytest.approx(1.0 - (1 + 1 + 2) / 10.0)

    def test_empty_predictions(self):
        gt = output_2d(steady(1, range(1, 6)))
        pred = output_2d([], n_frames=5)
        report = clear_mot(gt, pred)
        assert report.mota == 0.0
        assert report.fn == 5

    def test_empty_gt_flags_undefined(self):
        gt = output_2d([], n_frames=3)
        pred = output_2d(steady(1, range(1, 4)))
        report = clear_mot(gt, pred)
        assert math.isnan(report.mota)
        assert report.fp == 3

    def test_persistence_keeps_existing_pair(self):
        # Two predictions hover over one gt object; the matched pair persists
        # even when the other box becomes slightly better.
        gt = output_2d(steady(1, range(1, 4)))
        pred = output_2d(
            [
                (1, 7, 101.0, 100.0, 0.9),
                (2, 7, 103.0, 100.0, 0.9), (2, 8, 100.0, 100.0, 0.9),
                (3, 7, 103.0, 100.0, 0.9), (3, 8, 100.0, 100.0, 0.9),
            ],
            n_frames=3,
        )
        report = clear_mot(gt, pred)
        assert report.ids == 0
        assert report.fp == 2  # the extra box counts as fp each frame

    def test_id_switch_counted_across_gap(self):
        gt = output_2d(steady(1, range(1, 8)))
        pred = output_2d(
            steady(5, (1, 2, 3)) + steady(6, (6, 7)), n_frames=7
        )
        report = clear_mot(gt, pred)
        assert report.ids == 1
        assert report.fn == 2

    def test_3d_center_distance_gate(self):
        gt = output_3d(steady(1, range(1, 4), x=0.0, y=0.0))
        near = output_3d([(f, 5, 1.5, 0.0, 0.9) for f in range(1, 4)])
        far = output_3d([(f, 5, 3.0, 0.0, 0.9) for f in range(1, 4)])
        assert clear_mot(gt, near).fn == 0
        assert clear_mot(gt, far).fn == 3

    def test_mode_mismatch_rejected(self):
        gt = output_2d(steady(1, [1]))
        pred = output_3d(steady(1, [1], x=0.0, y=0.0))
        with pytest.raises(ValueError):
            clear_mot(gt, pred)

    def test_mota_weakly_decreases_with_extra_errors(self):
        gt = output_2d(steady(1, range(1, 11)))
        clean = clear_mot(gt, gt).mota
        extra_fp = output_2d(
            sorted(steady(1, range(1, 11)) + [(4, 50, 1200.0, 200.0, 0.9)]),
            n_frames=10,
        )
        assert clear_mot(gt, extra_fp).mota < clean


def _random_tracking_case(rng, n_frames=12):
    """Randomized gt plus a degraded prediction: misses, id churn, jitter,
    clutter."""
    n_obj = int(rng.integers(1, 5))
    gt_rows, pred_rows = [], []
    pid_map = {}
    next_pid = 100
    for f in range(1, n_frames + 1):
        for o in range(n_obj):
            x = 120.0 * o + f * 2.0
            y = 100.0 + 10.0 * o
            gt_rows.append(TrackRecord(f, o + 1, Box2D(x, y, x + 60, y + 100), 1.0))
            u = rng.uniform()
            if u < 0.15:
                continue  # miss
            if u > 0.9 or (o + 1) not in pid_map:
                pid_map[o + 1] = next_pid  # fresh identity
                next_pid += 1
            jx, jy = rng.uniform(-6, 6, 2)
            pred_rows.append(
                TrackRecord(f, pid_map[o + 1],
                            Box2D(x + jx, y + jy, x + jx + 60, y + jy + 100),
                            rng.uniform(0.5, 1.0))
            )
        if rng.uniform() < 0.4:
            cx, cy = rng.uniform(800, 1500), rng.uniform(400, 900)
            pred_rows.append(TrackRecord(f, 999, Box2D(cx, cy, cx + 50, cy + 90), 0.6))
    gt = output_of(gt_rows, Mode.BOX_2D, n_frames)
    pred = output_of(sorted(pred_rows, key=lambda r: r.frame), Mode.BOX_2D, n_frames)
    return gt, pred


def test_4_wide_rows_are_scored_by_2d_iou():
    # The mode is the rows' width, so 2D corners cannot be scored with the 3D
    # 2 m centre-distance gate: an output once built with the mode "2d" (a
    # string, so not Mode.BOX_2D) read MOTA 1.0 and IDF1 1.0 on this pair,
    # whose IoU is 1/7.
    one = np.ones(1, dtype=np.int64)
    gt = TrackOutput(one, one, 0 * one, np.ones(1), np.array([[0.0, 0.0, 2.0, 2.0]]), 1)
    pred = TrackOutput(one, one, 0 * one, np.ones(1), np.array([[1.0, 1.0, 3.0, 3.0]]), 1)
    assert pred.mode is Mode.BOX_2D
    assert clear_mot(gt, pred).mota == -1.0
    assert idf1(gt, pred) == 0.0


def test_clear_against_exhaustive_reference():
    rng = np.random.default_rng(123)
    for _ in range(25):
        gt, pred = _random_tracking_case(rng)
        ours = clear_mot(gt, pred)
        mota, fp, fn, ids = clear_counts_reference(gt, pred)
        assert (ours.fp, ours.fn, ours.ids) == (fp, fn, ids)
        assert ours.mota == pytest.approx(mota, abs=1e-12)
        if pred.records:  # self-comparison is always error-free
            self_report = clear_mot(pred, pred)
            assert (self_report.fp, self_report.fn, self_report.ids) == (0, 0, 0)


def test_idf1_against_exhaustive_reference():
    rng = np.random.default_rng(321)
    for _ in range(15):
        gt, pred = _random_tracking_case(rng, n_frames=8)
        assert idf1(gt, pred) == pytest.approx(idf1_reference(gt, pred), abs=1e-12)


@st.composite
def eval_suites(draw):
    """A small random gt/prediction pair in 2D or 3D.

    Structure comes from hypothesis: which ids appear in each frame, which
    object each prediction follows (so identities switch), one frame with
    predictions but no gt, and scores drawn from a pool of at most three
    values, so scores repeat and some frames keep no prediction under the
    higher thresholds. Positions come from a drawn seed and are continuous, so
    no two matchings tie.
    """
    is_3d = draw(st.booleans())
    n_frames = draw(st.integers(1, 8))
    gt_free = draw(st.integers(1 + (n_frames > 2), max(1, n_frames - 1)))
    pool = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
                         min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, jitter = (1.5, 1.6) if is_3d else (40.0, 18.0)
    start = rng.uniform(0.0, 6.0 * scale, (3, 2))
    velocity = rng.uniform(-0.5 * scale, 0.5 * scale, (3, 2))
    gt_rows, pred_rows = [], []
    for f in range(1, n_frames + 1):
        centre = start + f * velocity
        gt_ids = [] if f == gt_free else draw(
            st.lists(st.integers(1, 3), max_size=3, unique=True))
        for gid in sorted(gt_ids):
            gt_rows.append((f, gid, *centre[gid - 1], 1.0))
        pred_ids = draw(st.lists(st.integers(1, 5), min_size=int(f == gt_free),
                                 max_size=4, unique=True))
        for pid in sorted(pred_ids):
            # Each prediction follows a drawn object, offset so some pairs
            # clear the gate and some do not.
            target = draw(st.integers(1, 3))
            x, y = centre[target - 1] + rng.uniform(-jitter, jitter, 2)
            score = min(pool) if f == gt_free else draw(st.sampled_from(pool))
            pred_rows.append((f, pid, x, y, score))
    build = output_3d if is_3d else output_2d
    return build(gt_rows, n_frames), build(pred_rows, n_frames)


@settings(max_examples=60, deadline=None)
@given(eval_suites())
def test_metrics_match_exhaustive_references(suite):
    gt, pred = suite
    report = clear_mot(gt, pred)
    mota, fp, fn, ids = clear_counts_reference(gt, pred)
    assert (report.fp, report.fn, report.ids, report.gt) == (fp, fn, ids, len(gt.records))
    if gt.records:
        assert report.mota == pytest.approx(mota, abs=1e-12)
    assert idf1(gt, pred) == pytest.approx(idf1_reference(gt, pred), abs=1e-12)
    check_sweep_and_amota(gt, pred)


def sweep_tables(gt, pred):
    return list(block_tables(gt, pred, metrics._threshold(gt.mode, None)))


def sweep_points(gt, pred):
    """(score, fp, fn, ids) at every unique score, from the sweep's match
    totals and its switch count asked at every score."""
    sweep = metrics._sweep(gt, pred, metrics._threshold(gt.mode, None))
    ids = metrics._switches(sweep, sweep.scores)
    total_gt = len(gt.track_ids)
    return list(zip(sweep.scores.tolist(), (sweep.kept - sweep.matched).tolist(),
                    (total_gt - sweep.matched).tolist(), ids.tolist()))


def check_sweep_and_amota(gt, pred):
    """Every sweep point against an exhaustive recount of the filtered output,
    the lowest score's against clear_mot, and AMOTA against the exhaustive
    sweep."""
    points = sweep_points(gt, pred)
    assert [p[0] for p in points] == sorted({r.score for r in pred.records}, reverse=True)
    for score, fp, fn, ids in points:
        kept = tuple(rec for rec in pred.records if rec.score >= score)
        _, *want = clear_counts_reference(gt, output_of(kept, pred.mode, pred.n_frames))
        assert (fp, fn, ids) == tuple(want), score
    if points:
        # Every prediction is kept at the lowest score.
        report = clear_mot(gt, pred)
        assert points[-1][1:] == (report.fp, report.fn, report.ids)
        # The switch count taken a few thresholds x spells at a time.
        with mock.patch.object(metrics, "_SWITCH_CELLS", 5):
            assert sweep_points(gt, pred) == points
    if gt.records:
        got = amota(gt, pred)
        want, values, recalls = amota_reference(gt, pred)
        assert got.recalls == recalls
        assert got.amota == pytest.approx(want, abs=1e-12)
        assert got.smota_values == pytest.approx(values, abs=1e-12)


@st.composite
def long_eval_suites(draw):
    """A 10-40 frame gt/prediction pair in 2D or 3D, long enough for the
    incremental sweep to recount some frames and jump over others.

    One to four objects move on crossing straight lines. Each prediction id
    follows one object, and two objects swap prediction ids at drawn frames,
    so identities switch. Drawn frames have no gt, only the predictions. Gt
    boxes and predictions drop out at random, and a clutter prediction
    sometimes competes for an object. Scores come from a pool of 3-6 rounded
    values, so each threshold changes several frames at once.
    """
    is_3d = draw(st.booleans())
    n_frames = draw(st.integers(10, 40))
    n_obj = draw(st.integers(1, 4))
    gt_free = draw(st.sets(st.integers(1, n_frames), max_size=n_frames // 4))
    swaps = draw(st.sets(st.integers(2, n_frames), max_size=4))
    pool = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
                         min_size=3, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, jitter = (1.5, 1.6) if is_3d else (40.0, 18.0)
    start = rng.uniform(0.0, 4.0 * scale, (n_obj, 2))
    velocity = rng.uniform(-0.25 * scale, 0.25 * scale, (n_obj, 2))
    pred_of = list(range(1, n_obj + 1))
    gt_rows, pred_rows = [], []
    for f in range(1, n_frames + 1):
        centre = start + f * velocity
        if f in swaps and n_obj >= 2:
            a, b = rng.choice(n_obj, 2, replace=False)
            pred_of[a], pred_of[b] = pred_of[b], pred_of[a]
        if f not in gt_free:
            for o in range(n_obj):
                if rng.uniform() < 0.85:
                    gt_rows.append((f, o + 1, *centre[o], 1.0))
        rows = []
        for o in range(n_obj):
            if rng.uniform() < 0.8:
                rows.append((pred_of[o], o))
        if rng.uniform() < 0.25:
            rows.append((9, int(rng.integers(n_obj))))
        for pid, o in sorted(rows):
            x, y = centre[o] + rng.uniform(-jitter, jitter, 2)
            pred_rows.append((f, pid, x, y, float(rng.choice(pool))))
    build = output_3d if is_3d else output_2d
    return build(gt_rows, n_frames), build(pred_rows, n_frames)


@settings(max_examples=40, deadline=None)
@given(long_eval_suites())
def test_sweep_matches_exhaustive_references_on_long_suites(suite):
    check_sweep_and_amota(*suite)


@settings(max_examples=40, deadline=None)
@given(long_eval_suites())
def test_sweep_equals_incremental_oracle(suite):
    # The oracle carries every gt id's last match in the frame state, so its
    # recounts cascade until that id is matched again. The sweep must give
    # the same points. It never steps an isolated frame, and steps every
    # other frame at each score it holds, at most once per score.
    tables = sweep_tables(*suite)
    with mock.patch.object(metrics, "_frame_step", wraps=metrics._frame_step) as step:
        points = sweep_points(*suite)
    assert points == sweep_reference(tables)
    assert not any(call.args[0].isolated for call in step.call_args_list)
    calls = Counter((repr(call.args[0]), call.args[1]) for call in step.call_args_list)
    held = Counter((repr(table), score) for table in tables if not table.isolated
                   for score in dict.fromkeys(table.scores))
    assert calls >= held
    same = Counter(repr(table) for table in tables)
    assert all(count <= same[key] for (key, _), count in calls.items())


@pytest.mark.parametrize("seed", range(6))
def test_sweep_merges_signed_zero_scores_as_the_oracle_does(seed):
    # 0.0 and -0.0 are one threshold, named by the first seen in frame order,
    # as the oracle's dict of scores names it. Frames hold either zero, both,
    # or the same zero twice, and two objects swap predictions midway.
    rng = np.random.default_rng(seed)
    gt_rows, pred_rows = [], []
    for f in range(1, 11):
        for o, x in enumerate((100.0, 130.0, 600.0)):
            gt_rows.append((f, o + 1, x, 100.0, 1.0))
            pid = o + 5 if f < 6 or o == 2 else 11 - o
            pred_rows.append((f, pid, x + rng.uniform(-5.0, 5.0), 101.0,
                              float(rng.choice([0.0, -0.0, 0.5, 0.9]))))
    gt, pred = output_2d(gt_rows), output_2d(pred_rows)
    points, want = sweep_points(gt, pred), sweep_reference(sweep_tables(gt, pred))
    assert points == want
    assert [math.copysign(1.0, p[0]) for p in points] == [
        math.copysign(1.0, p[0]) for p in want]
    assert all(type(p[0]) is float for p in points)


def frames_by_score_reference(tables):
    """(score, predictions scored at least it, frames holding it) per unique
    score, descending, by brute force: a score is named by the first equal
    one seen in frame order, so 0.0 or -0.0 names both."""
    names = []
    for score in (s for table in tables for s in table.scores):
        if score not in names:
            names.append(score)
    names.sort(reverse=True)
    return [(score, sum(s >= score for table in tables for s in table.scores),
             [i for i, table in enumerate(tables) if score in table.scores])
            for score in names]


def check_frames_by_score(gt_rows, pred_rows, n_frames):
    """The frames holding each score against the brute-force index; the
    sweep's scores, named alike, and its counts of predictions kept too."""
    gt, pred = output_2d(gt_rows, n_frames), output_2d(pred_rows, n_frames)
    tables = sweep_tables(gt, pred)
    index, want = list(metrics._frames_by_score(tables)), frames_by_score_reference(tables)
    sweep = metrics._sweep(gt, pred, 0.5)
    index = [(score, kept, frames) for (score, frames), kept in zip(index, sweep.kept.tolist())]
    assert index == want
    assert [score for score, _, _ in index] == sweep.scores.tolist()
    for names in ([score for score, _, _ in index], sweep.scores.tolist()):
        assert [math.copysign(1.0, score) for score in names] == [
            math.copysign(1.0, score) for score, _, _ in want]
    return index


@pytest.mark.parametrize("seed", range(4))
def test_frames_by_score_equals_brute_force_index(seed):
    # Scores repeat within and across frames, a frame may hold one score
    # twice, some frames have gt only and some have no gt.
    rng = np.random.default_rng(seed)
    gt_rows, pred_rows = [], []
    for f in range(1, 13):
        if f % 5:
            gt_rows.append((f, 1, 100.0, 100.0, 1.0))
        if f % 4:
            for pid in range(int(rng.integers(1, 4))):
                pred_rows.append((f, pid + 1, 100.0 + 200.0 * pid, 100.0,
                                  float(rng.choice([0.2, 0.5, 0.9]))))
    index = check_frames_by_score(gt_rows, pred_rows, 12)
    assert index[-1][1] == len(pred_rows)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_frames_by_score_names_a_zero_by_the_first_seen(first, second):
    # Frame 1 holds the first zero, frame 2 the other zero twice, frame 3
    # has gt only and frame 4 the second zero again and 0.5.
    gt_rows = [(f, 1, 100.0, 100.0, 1.0) for f in range(1, 5)]
    pred_rows = [(1, 1, 100.0, 100.0, first), (2, 1, 100.0, 100.0, second),
                 (2, 2, 400.0, 100.0, second), (4, 1, 100.0, 100.0, 0.5),
                 (4, 2, 400.0, 100.0, second)]
    index = check_frames_by_score(gt_rows, pred_rows, 4)
    assert index == [(0.5, 1, [3]), (0.0, 5, [0, 1, 3])]
    assert math.copysign(1.0, index[1][0]) == math.copysign(1.0, first)


def test_frames_by_score_without_predictions_is_empty():
    assert check_frames_by_score([(f, 1, 100.0, 100.0, 1.0) for f in (1, 3)], [], 3) == []


def test_conflict_free_sweep_recounts_each_frame_once_per_score():
    # Three objects far apart, each followed by one prediction whose score
    # cycles through a rounded pool, so scores repeat within and across
    # frames. Clutter overlaps nothing, and frame 6 has no gt. Every frame is
    # isolated, so its matches at each score are its pairs scored that high:
    # no frame gets a table or is stepped.
    pool = (0.3, 0.5, 0.7, 0.9)
    gt_rows, pred_rows = [], []
    for f in range(1, 13):
        for o, x in enumerate((100.0, 600.0, 1100.0)):
            if f != 6:
                gt_rows.append((f, o + 1, x, 100.0, 1.0))
            pred_rows.append((f, o + 5, x + 3.0, 101.0, pool[(f + o) % 4]))
        if f % 3 == 0:
            pred_rows.append((f, 9, 1500.0, 800.0, 0.5))
    gt, pred = output_2d(gt_rows), output_2d(pred_rows)
    tables = sweep_tables(gt, pred)
    assert all(table.isolated for table in tables)
    with mock.patch.object(metrics, "_frame_step", wraps=metrics._frame_step) as step, \
            mock.patch.object(metrics, "_block_tables", wraps=metrics._block_tables) as built:
        points = sweep_points(gt, pred)
    assert step.call_count == built.call_count == 0
    assert points == sweep_reference(tables)
    check_sweep_and_amota(gt, pred)


@pytest.mark.parametrize("gt_free_between", [False, True])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_pair_gained_by_isolated_frame_persists_into_conflicting_frame(zero, gt_free_between):
    # Frame 1 is isolated: gt 1 and prediction 7 on it, scored zero, gt 3 and
    # prediction 6 (0.7) on it, and prediction 8 (0.5) far from everything,
    # so its pairs enter at two scores. The conflicting frame after it has
    # gt 1 and gt 2 (25 px right) and predictions 5 (on gt 1) and 7 (10 px
    # right of gt 1, admissible for both gt), all at 0.9. Prediction 5 then
    # follows gt 1 in the last frame. One variant puts a frame between with
    # no gt and only prediction 9 (-0.5), so it is skipped until -0.5. The
    # conflicting frame is stepped with the pairs frame 1 hands on.
    gap = [(2, 9, 900.0, 900.0, -0.5)] if gt_free_between else []
    f = 2 + gt_free_between  # the conflicting frame
    gt = output_2d([(1, 1, 100.0, 100.0, 1.0), (1, 3, 1500.0, 100.0, 1.0),
                    (f, 1, 100.0, 100.0, 1.0), (f, 2, 125.0, 100.0, 1.0),
                    (f + 1, 1, 100.0, 100.0, 1.0)])
    pred = output_2d([(1, 6, 1500.0, 100.0, 0.7), (1, 7, 100.0, 100.0, zero),
                      (1, 8, 900.0, 900.0, 0.5)] + gap
                     + [(f, 5, 100.0, 100.0, 0.9), (f, 7, 110.0, 100.0, 0.9),
                        (f + 1, 5, 100.0, 100.0, 0.9)])
    tables = sweep_tables(gt, pred)
    assert [table.isolated for table in tables] == [True] * (1 + gt_free_between) + [False, True]
    with mock.patch.object(metrics, "_frame_step", wraps=metrics._frame_step) as step:
        points = sweep_points(gt, pred)
    # The conflicting frame alone is stepped: once at 0.9, which it holds,
    # and again at each score that changes what frame 1 hands on. 0.5 enters
    # frame 1 with no admissible pair, so its matches stay (3, 6). At zero
    # the pair (1, 7) enters, persists, and takes gt 1 in the conflicting
    # frame from (1, 5), (2, 7): gt 2 is missed, 5 is a false positive, and
    # gt 1 switches from 7 to 5 in the last frame.
    assert all(call.args[0] == tables[-2] for call in step.call_args_list)
    handed = [(score, persisting) for _, score, persisting in
              (call.args for call in step.call_args_list)]
    want_handed = [(0.9, {}), (0.7, {3: 6}), (zero, {3: 6, 1: 7})]
    want = [(0.9, 0, 2, 0), (0.7, 0, 1, 0), (0.5, 1, 1, 0), (zero, 2, 1, 1)]
    if gt_free_between:
        # Frame 2 is counted and hands on no pairs, so the conflicting frame
        # is matched afresh; gt 1 still switches, from 7 at frame 1 to 5.
        want_handed.append((-0.5, {}))
        want.append((-0.5, 2, 0, 1))
    assert handed == want_handed
    assert [math.copysign(1.0, score) for score, _ in handed] == [
        math.copysign(1.0, score) for score, _ in want_handed]
    assert points == want == sweep_reference(tables)
    assert [math.copysign(1.0, p[0]) for p in points] == [
        math.copysign(1.0, p[0]) for p in want]
    check_sweep_and_amota(gt, pred)


def test_identity_switch_counted_far_from_the_recounted_frame():
    # Gt 1 is seen at frames 1, 12 and 14 only; gt 2 runs over frames 2-13
    # under prediction 8, whose rising scores give one threshold per frame.
    # Frame 12 matches gt 1 to prediction 5 (0.9), frame 14 to 7 (0.95).
    # Lowering the threshold to 0.3 inserts the match (1, 7) at frame 1, and
    # to 0.1 replaces it by (1, 5), the better box. Each changes the switch
    # counted at frame 12, eleven frames after the only frame recounted.
    gt = output_2d(sorted(steady(1, (1, 12, 14)) + steady(2, range(2, 14), x=600.0)))
    pred = output_2d(sorted(
        [(1, 7, 105.0, 100.0, 0.3), (1, 5, 100.0, 100.0, 0.1),
         (12, 5, 100.0, 100.0, 0.9), (14, 7, 100.0, 100.0, 0.95)]
        + [(f, 8, 600.0, 100.0, 0.5 + 0.02 * f) for f in range(2, 14)]))
    points = sweep_points(gt, pred)
    # 0.95: 7 alone. 0.9 and the scores of 8: 5 then 7, one switch.
    # 0.3: 7, 5, 7, two switches. 0.1: 5, 5, 7, one switch, and box 7 is a
    # false positive at frame 1.
    assert [p[3] for p in points] == [0] + [1] * 13 + [2, 1]
    assert points[-2:] == [(0.3, 0, 0, 2), (0.1, 1, 0, 1)]
    check_sweep_and_amota(gt, pred)


def test_recall_can_fall_as_the_threshold_falls():
    # Under CLEAR persistence, keeping more predictions can cost a match
    # later, so recall is not monotone in the threshold and a bisection over
    # thresholds would be unsound. Frame 1: prediction 6 (score 0.5) sits
    # exactly on gt 1 and beats prediction 5 (0.9), 5 px off. Frame 2: gt 2
    # appears 20 px right of gt 1; prediction 6 (now 0.9) sits between them,
    # and prediction 5 is out of gt 2's gate.
    gt = output_2d([(1, 1, 100.0, 100.0, 1.0),
                    (2, 1, 100.0, 100.0, 1.0), (2, 2, 120.0, 100.0, 1.0)])
    pred = output_2d([(1, 5, 95.0, 100.0, 0.9), (1, 6, 100.0, 100.0, 0.5),
                      (2, 5, 95.0, 100.0, 0.9), (2, 6, 110.0, 100.0, 0.9)])
    # At 0.9 the pair (1, 5) persists into frame 2, and 6 takes gt 2: no miss.
    # At 0.5 frame 1 matches (1, 6) instead; that pair persists, and nothing
    # is left for gt 2: one miss more at the lower threshold.
    assert sweep_points(gt, pred) == [(0.9, 0, 0, 0), (0.5, 2, 1, 0)]
    check_sweep_and_amota(gt, pred)


def test_amota_threshold_skips_emptied_gt_free_frame():
    # One object, absent from the gt at frame 3. Prediction 10 follows it
    # (shifted at frame 4); prediction 11 sits exactly on it at frame 4; and
    # prediction 20 is a low-score box at frame 3.
    gt = output_2d(steady(1, (1, 2, 4)))
    pred = output_2d([
        (1, 10, 100.0, 100.0, 0.9), (2, 10, 100.0, 100.0, 0.9),
        (3, 20, 900.0, 900.0, 0.1),
        (4, 10, 110.0, 100.0, 0.9), (4, 11, 100.0, 100.0, 0.9),
    ])
    # Kept, prediction 20 makes frame 3 a frame without gt, which resets
    # persistence: frame 4 re-matches to the better box 11, an id switch.
    assert clear_mot(gt, pred).ids == 1
    # At threshold 0.9 frame 3 has no records at all, so the pair (1, 10)
    # persists into frame 4: no switch, and box 11 is a false positive.
    report = amota(gt, pred)
    # Both thresholds reach recall 1; the higher one wins, with ids=0, fp=1,
    # fn=0 out of 3 gt: sMOTA(r) = 1 - (1 - 3(1 - r)) / 3r = 2 / 3r.
    expected = [min(1.0, 2.0 / (3.0 * r)) for r in report.recalls]
    assert report.smota_values == pytest.approx(expected, abs=1e-12)
    assert report.amota == pytest.approx(amota_reference(gt, pred)[0], abs=1e-12)


def sparse_table(gt_ids, pr_ids, scores, values, gate):
    """The sparse table of a frame given by its dense similarity, built by
    the evaluators' table builder from a one-frame block."""
    n_gt, n_pr = values.shape
    rows, cols = (values >= gate).nonzero()
    block = metrics._Block([0, n_gt], [0, n_pr], np.zeros(len(rows), dtype=np.intp), rows, cols,
                           values[rows, cols])
    tables = metrics._block_tables(block, metrics._isolated(block),
                                   np.array(gt_ids, dtype=np.int64),
                                   np.array(pr_ids, dtype=np.int64),
                                   np.array(scores, dtype=float), np.ones(1, dtype=bool))
    assert len(tables) == 1
    return tables[0]


@st.composite
def scored_frames(draw):
    """One frame for the CLEAR step with the state entering it.

    Similarities come from a small pool, so pairs tie. In 3D the gate is 0
    and 0.0 is a center distance exactly at the threshold. Half of the frames
    keep at most one drawn pair per gt row, so many are free of conflicts.
    Prediction scores come from three values, and the minimum score drops
    some columns or none (None). The persisting pairs are a drawn matching,
    mostly between the frame's ids, which can name pairs that are no longer
    admissible, columns the minimum score dropped and ids not in the frame.
    """
    n_gt, n_pr = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    gt_ids = draw(st.lists(st.integers(1, 7), min_size=n_gt, max_size=n_gt, unique=True))
    pr_ids = draw(st.lists(st.integers(11, 17), min_size=n_pr, max_size=n_pr, unique=True))
    gate, pool = draw(st.sampled_from([(0.0, [-0.5, 0.0, 0.4, 1.1]),
                                       (0.5, [0.0, 0.2, 0.5, 0.7, 1.0])]))
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n_gt * n_pr,
                                    max_size=n_gt * n_pr)), dtype=float).reshape(n_gt, n_pr)
    if n_pr and draw(st.booleans()):
        for i in range(n_gt):
            j = draw(st.integers(0, n_pr - 1))
            kept = values[i, j]
            values[i] = pool[0]
            values[i, j] = kept
    scores = draw(st.lists(st.sampled_from([0.2, 0.5, 0.8]), min_size=n_pr, max_size=n_pr))
    min_score = draw(st.none() | st.sampled_from([0.2, 0.5, 0.8, 0.9]))
    gids, pids = st.sampled_from(gt_ids + [8]), st.sampled_from(pr_ids + [18])
    persisting: dict[int, int] = {}
    for gid, pid in draw(st.lists(st.tuples(gids, pids), max_size=6)):
        if gid not in persisting and pid not in persisting.values():
            persisting[gid] = pid
    last_match = draw(st.dictionaries(gids, pids, max_size=6))
    return gt_ids, pr_ids, scores, values, gate, min_score, persisting, last_match


def kept_columns(scores, min_score):
    return [j for j, score in enumerate(scores) if min_score is None or score >= min_score]


@settings(max_examples=400, deadline=None)
@given(scored_frames())
def test_frame_step_matches_dense_oracle(frame):
    gt_ids, pr_ids, scores, values, gate, min_score, persisting, last_match = frame
    keep = kept_columns(scores, min_score)
    want = dense_frame_step(gt_ids, [pr_ids[j] for j in keep], values[:, keep], gate,
                            persisting, last_match)
    state = (dict(persisting), dict(last_match))
    table = sparse_table(gt_ids, pr_ids, scores, values, gate)
    matched = metrics._frame_step(table, min_score, persisting)
    # The frame's own FP and FN, from its kept predictions and gt.
    fp, fn = len(keep) - len(matched), len(gt_ids) - len(matched)
    # The frame's switches, counted as a one-frame block's.
    ids = metrics._block_switches(np.zeros(len(matched), dtype=int),
                                  np.array(list(matched), dtype=int),
                                  np.array(list(matched.values()), dtype=int), dict(last_match))
    assert (fp, fn, ids, matched) == want
    assert (persisting, last_match) == state


def has_conflict(gt_ids, pr_ids, values, gate, keep, persisting):
    """Whether the free admissible pairs left after persistence, on the kept
    columns, share a row or a column or include a pair valued at most 0."""
    used = set()
    persisted = set()
    for i, gid in enumerate(gt_ids):
        for j in keep:
            if (persisting.get(gid) == pr_ids[j] and j not in used
                    and values[i, j] >= gate):
                persisted.add(i)
                used.add(j)
    free = [(i, j) for i in range(len(gt_ids)) for j in keep
            if i not in persisted and j not in used and values[i, j] >= gate]
    rows = [i for i, _ in free]
    cols = [j for _, j in free]
    return (len(set(rows)) < len(rows) or len(set(cols)) < len(cols)
            or any(values[i, j] <= 0.0 for i, j in free))


@settings(max_examples=300, deadline=None)
@given(scored_frames())
def test_solver_runs_only_on_conflicting_frames(frame):
    gt_ids, pr_ids, scores, values, gate, min_score, persisting, last_match = frame
    keep = kept_columns(scores, min_score)
    table = sparse_table(gt_ids, pr_ids, scores, values, gate)
    with mock.patch.object(metrics, "solve_assignment", wraps=metrics.solve_assignment) as solver:
        metrics._frame_step(table, min_score, persisting)
    conflict = bool(gt_ids and keep) and has_conflict(gt_ids, pr_ids, values, gate, keep,
                                                      persisting)
    assert solver.call_count == int(conflict)


def conflict_free_suite():
    """Two objects far apart, each followed by one prediction at shifting
    scores, plus clutter that overlaps nothing."""
    gt = output_2d(sorted(steady(1, range(1, 11)) + steady(2, range(1, 11), x=600.0)))
    pred = output_2d(sorted(
        [(f, 5, 102.0, 100.0, 0.5 + 0.04 * f) for f in range(1, 11)]
        + [(f, 6, 597.0, 101.0, 0.9 - 0.03 * f) for f in range(1, 11)]
        + [(f, 7, 1500.0, 800.0, 0.3) for f in range(2, 11, 3)]
    ))
    return gt, pred


def test_conflict_free_sequences_never_call_the_solver(monkeypatch):
    gt, pred = conflict_free_suite()

    def no_solver(*args, **kwargs):
        raise AssertionError("solver called on a conflict-free frame")

    monkeypatch.setattr(metrics, "solve_assignment", no_solver)
    assert clear_mot(gt, pred).ids == 0
    assert amota(gt, pred).amota == pytest.approx(amota_reference(gt, pred)[0], abs=1e-12)


def test_clear_steps_only_the_frames_that_are_not_isolated():
    # An isolated frame's matches are its pairs, so CLEAR steps only the
    # other frames, each once, with every prediction kept.
    def steps(gt, pred):
        with mock.patch.object(metrics, "_frame_step", wraps=metrics._frame_step) as step:
            clear_mot(gt, pred)
        assert all(not call.args[0].isolated and call.args[1] is None
                   for call in step.call_args_list)
        return step.call_count

    assert steps(*conflict_free_suite()) == 0
    # Four objects 25 px apart under jittered predictions with missed rows
    # and changing ids: a neighbour's prediction is admissible in some
    # frames, so frames of both kinds occur.
    rng = np.random.default_rng(17)
    kinds = set()
    for _ in range(10):
        gt_rows, pred_rows = [], []
        for f in range(1, 13):
            for o in range(4):
                gt_rows.append((f, o + 1, 25.0 * o + f, 100.0, 1.0))
                if rng.uniform() < 0.85:
                    pid = 10 * (o + 1) + int(rng.integers(0, 3))
                    pred_rows.append((f, pid, 25.0 * o + f + rng.uniform(-8.0, 8.0), 100.0,
                                      0.9))
        gt, pred = output_2d(gt_rows), output_2d(pred_rows)
        isolated = [table.isolated for table in frame_tables_reference(gt, pred, 0.5)]
        assert steps(gt, pred) == isolated.count(False)
        kinds.update(isolated)
    assert kinds == {False, True}


def test_isolated_runs_once_per_block():
    # clear_mot computes a block's isolated flags once and hands them to the
    # table builder, and AMOTA's tables take them once per block too. Frame 2
    # conflicts: gt 1 is admissible to predictions 11 and 12.
    gt = output_2d([(1, 1, 100.0, 100.0, 1.0), (1, 2, 600.0, 100.0, 1.0),
                    (2, 1, 100.0, 100.0, 1.0),
                    (3, 1, 100.0, 100.0, 1.0), (3, 2, 600.0, 100.0, 1.0)])
    pred = output_2d([(1, 11, 110.0, 100.0, 0.9), (1, 13, 600.0, 100.0, 0.9),
                      (2, 11, 110.0, 100.0, 0.9), (2, 12, 100.0, 100.0, 0.9),
                      (3, 11, 110.0, 100.0, 0.9), (3, 14, 600.0, 100.0, 0.9)])
    for cap, n_blocks in ((metrics._BLOCK_CELLS, 1), (1, 3)):
        with mock.patch.object(metrics, "_BLOCK_CELLS", cap):
            assert len(list(metrics._blocks(gt, pred, 0.5))) == n_blocks
            for evaluate in (clear_mot, amota):
                with mock.patch.object(metrics, "_isolated", wraps=metrics._isolated) as spy:
                    evaluate(gt, pred)
                assert spy.call_count == n_blocks, (evaluate.__name__, cap)


def test_far_apart_3d_boxes_stay_unmatched():
    # The centers are 2e308 apart: the distance overflows to inf, so the
    # pair is inadmissible (closeness -inf) instead of an error.
    gt = output_3d([(1, 1, 1e308, 0.0, 1.0), (2, 1, 1e308, 0.0, 1.0)])
    pred = output_3d([(1, 2, -1e308, 0.0, 0.9), (2, 2, 1e308, 1.0, 0.8)])
    report = clear_mot(gt, pred)
    assert (report.fp, report.fn, report.ids) == (1, 1, 0)
    _, *want = clear_counts_reference(gt, pred)
    assert [report.fp, report.fn, report.ids] == want
    got = amota(gt, pred)
    assert got.smota_values == pytest.approx(amota_reference(gt, pred)[1], abs=1e-12)


def test_far_apart_huge_2d_boxes_stay_unmatched():
    # The gaps between these boxes overflow to -inf, which is no overlap.
    # Frame 2 pads its one gt row against frame 1's two, so a padded cell
    # also pairs boxes that share no frame; neither warns (RuntimeWarnings
    # are errors under the test configuration).
    left, right = Box2D(-1.7e308, 0, -1.6e308, 1), Box2D(1.6e308, 0, 1.7e308, 1)
    gt = output_of((TrackRecord(1, 1, left, 1.0), TrackRecord(1, 2, right, 1.0),
                    TrackRecord(2, 1, right, 1.0)), Mode.BOX_2D, 2)
    pred = output_of((TrackRecord(1, 5, right, 0.9), TrackRecord(2, 5, left, 0.9),
                      TrackRecord(2, 6, right, 0.8)), Mode.BOX_2D, 2)
    report = clear_mot(gt, pred)
    assert (report.fp, report.fn, report.ids) == (1, 1, 0)
    _, *want = clear_counts_reference(gt, pred)
    assert [report.fp, report.fn, report.ids] == want


def test_nan_and_positive_infinite_similarities_rejected(monkeypatch):
    # Frame 1 pads its one prediction column against frame 2's two. The
    # kernel scores the three own cells, in row-major order, and the last is
    # poisoned. Otherwise -inf reaches no gate and 0.0 reaches the gate 0.
    gt = output_2d(steady(1, (1, 2)))
    pred = output_2d(steady(11, (1, 2), x=110.0) + steady(12, (2,), x=300.0))
    scored = []

    def poisoned(last):
        def scores(a, b):
            scored.append(len(a))
            return np.array([-np.inf, 0.0, last])
        return scores

    for bad in (np.nan, np.inf):
        monkeypatch.setattr(metrics, "iou_2d_pairs", poisoned(bad))
        with pytest.raises(ValueError, match="finite"):
            list(metrics._blocks(gt, pred, 0.0))
    monkeypatch.setattr(metrics, "iou_2d_pairs", poisoned(0.7))
    (block,) = metrics._blocks(gt, pred, 0.0)
    assert scored == [3, 3, 3]
    assert (block.frame.tolist(), block.values.tolist()) == ([1, 1], [0.0, 0.7])
    # An infinite 3D threshold would make every closeness +inf.
    gt = output_3d(steady(1, (1, 2), x=0.0, y=0.0))
    with pytest.raises(ValueError, match="finite"):
        clear_mot(gt, gt, match_threshold=math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [output_2d, output_3d])
def test_non_finite_match_threshold_rejected_up_front(bad, build):
    # A NaN 2D gate would admit no pair and a NaN 3D gate would read as a
    # non-finite similarity; every evaluator names the threshold instead,
    # also where no frame is scored.
    gt = build(steady(1, range(1, 4)))
    empty = build([], n_frames=3)
    calls = [lambda g, p: clear_mot(g, p, bad), lambda g, p: idf1(g, p, bad),
             lambda g, p: amota(g, p, bad), lambda g, p: smota_r(g, p, 0.5, bad)]
    for call in calls:
        for pred in (gt, empty):
            with pytest.raises(ValueError, match=f"match_threshold must be finite, got {bad!r}"):
                call(gt, pred)


@st.composite
def block_suites(draw):
    """A gt/prediction pair in 2D or 3D for the block scorer, plus the cap on
    a block's padded cells.

    Frame numbers skip values, so some frames are empty, and a frame holds
    0-6 gt and 0-6 prediction boxes, so some hold only one side. The cap is
    drawn around the frames' sizes (1-36 cells), so a block holds one frame,
    many frames, or a frame larger than the cap alone; or it is the
    module's own. Positions, sizes and scores come from small pools, so
    similarities and scores tie. 2D boxes may have zero area and the 2D gate
    may be 0; 2D corners and 3D centres may sit near +-1.7e308, where the
    gaps overflow: to no overlap in 2D, to a closeness of -inf in 3D.
    """
    is_3d = draw(st.booleans())
    threshold = draw(st.sampled_from([None, 0.0, 1.0] if is_3d
                                     else [None, 0.0, 0.5, 5e-324, -0.5]))
    cap = draw(st.sampled_from([1, 4, 9, 16, 36, metrics._BLOCK_CELLS]))
    coords = st.sampled_from([-1e308, 0.0, 1.0, 2.0, 1e308] if is_3d
                             else [-1.7e308, 0.0, 10.0, 20.0, 1.6e308])
    sizes = st.sampled_from([0.0, 10.0, 20.0])
    scores = st.sampled_from([-0.0, 0.0, 0.2, 0.5, 0.9, math.nan])

    def box():
        x, y = draw(coords), draw(coords)
        if is_3d:
            return Box3D(x, y, 0.8, 0.0, 4.5, 1.9, 1.6)
        return Box2D(x, y, x + draw(sizes), y + draw(sizes))

    gt_records, pred_records = [], []
    for f in sorted(draw(st.sets(st.integers(1, 15), max_size=10))):
        for gid in draw(st.lists(st.integers(1, 8), max_size=6, unique=True)):
            gt_records.append(TrackRecord(f, gid, box(), 1.0))
        for pid in draw(st.lists(st.integers(11, 18), max_size=6, unique=True)):
            pred_records.append(TrackRecord(f, pid, box(), draw(scores)))
    mode = Mode.BOX_3D if is_3d else Mode.BOX_2D
    return (output_of(gt_records, mode, 15), output_of(pred_records, mode, 15),
            threshold, cap)


def check_block_spans(n_gt, n_pr, cap):
    """The runs of frames tile the sequence, each within the cap unless it is
    one frame, each grown until the next frame would not fit."""
    with mock.patch.object(metrics, "_BLOCK_CELLS", cap):
        spans = list(metrics._block_spans(n_gt, n_pr))
    bounds = [0] + [stop for _, stop, *_ in spans]
    assert [start for start, *_ in spans] == bounds[:-1] and bounds[-1] == len(n_gt)
    for start, stop, width_gt, width_pr in spans:
        assert (width_gt, width_pr) == (max(n_gt[start:stop]), max(n_pr[start:stop]))
        assert stop - start == 1 or (stop - start) * width_gt * width_pr <= cap
        if stop < len(n_gt):
            grown = (stop + 1 - start) * max(n_gt[start:stop + 1]) * max(n_pr[start:stop + 1])
            assert grown > cap
    return [(start, stop) for start, stop, *_ in spans]


def check_block_scorer(gt, pred, match_threshold, cap):
    """Every table field, the CLEAR counts and IDF1 from the block scorer
    against the per-frame oracle; repr tells -0.0 from 0.0 and matches NaN
    scores."""
    threshold = metrics._threshold(gt.mode, match_threshold)
    with mock.patch.object(metrics, "_BLOCK_CELLS", cap):
        got = list(block_tables(gt, pred, threshold))
        report = clear_mot(gt, pred, match_threshold)
        score = idf1(gt, pred, match_threshold)
    want = list(frame_tables_reference(gt, pred, threshold))
    assert [[repr(field) for field in table] for table in got] == \
        [[repr(field) for field in table] for table in want]
    assert (report.fp, report.fn, report.ids) == clear_from_frame_tables(gt, pred, threshold)
    assert score == idf1_from_frame_pairs(gt, pred, threshold)
    return check_block_spans([len(t.gt_ids) for t in want], [len(t.pr_ids) for t in want], cap)


@settings(max_examples=200, deadline=None)
@given(block_suites())
def test_block_scorer_matches_per_frame_oracle(suite):
    check_block_scorer(*suite)


def test_block_scorer_at_the_module_cap():
    # Frames of 128 x 128 cells fill a block alone, so do a frame of 1 x 1
    # before a frame of 129 x 128 and that oversized frame; then four of
    # 64 x 64 fill a block, and the frames holding one side share the next.
    sizes = [(128, 128), (1, 1), (129, 128)] + [(64, 64)] * 5 + [(0, 5), (5, 0)]
    rng = np.random.default_rng(5)
    columns = {side: ([], [], []) for side in ("gt", "pred")}
    for f, counts in enumerate(sizes, start=1):
        for side, n, offset in zip(("gt", "pred"), counts, (0, 1000)):
            frames, ids, boxes = columns[side]
            frames += [f] * n
            ids += (offset + rng.permutation(200)[:n]).tolist()
            corner = rng.uniform(0.0, 400.0, (n, 2))
            boxes.append(np.hstack([corner, corner + rng.uniform(20.0, 120.0, (n, 2))]))
    outputs = []
    for frames, ids, boxes in columns.values():
        frames, ids = np.array(frames), np.array(ids)
        outputs.append(TrackOutput(
            frames, ids, np.zeros_like(ids), rng.choice([0.3, 0.6, 0.9], len(ids)),
            np.vstack(boxes), len(sizes)))
    spans = check_block_scorer(*outputs, None, metrics._BLOCK_CELLS)
    assert spans == [(0, 1), (1, 2), (2, 3), (3, 7), (7, 10)]


def module_cap_outputs():
    """The gt and prediction of test_block_scorer_at_the_module_cap."""
    sizes = [(128, 128), (1, 1), (129, 128)] + [(64, 64)] * 5 + [(0, 5), (5, 0)]
    rng = np.random.default_rng(5)
    columns = {side: ([], [], []) for side in ("gt", "pred")}
    for f, counts in enumerate(sizes, start=1):
        for side, n, offset in zip(("gt", "pred"), counts, (0, 1000)):
            frames, ids, boxes = columns[side]
            frames += [f] * n
            ids += (offset + rng.permutation(200)[:n]).tolist()
            corner = rng.uniform(0.0, 400.0, (n, 2))
            boxes.append(np.hstack([corner, corner + rng.uniform(20.0, 120.0, (n, 2))]))
    return [TrackOutput(np.array(frames), np.array(ids), np.zeros(len(ids), dtype=np.int64),
                        rng.choice([0.3, 0.6, 0.9], len(ids)), np.vstack(boxes), len(sizes))
            for frames, ids, boxes in columns.values()]


def test_iou_kernel_scores_only_the_x_overlapping_own_cells(monkeypatch):
    # At a positive IoU gate the scan hands the kernel each frame's gt x
    # prediction cells whose x extents overlap, once each, and no padded
    # cell: 16,564 of the 53,377 own cells here, which the blocks pad to
    # 61,569 cells.
    gt, pred = module_cap_outputs()
    want = Counter()
    for f in range(1, gt.n_frames + 1):
        g, p = gt.boxes[gt.frames == f], pred.boxes[pred.frames == f]
        overlap = (np.minimum(g[:, None, 2], p[None, :, 2])
                   - np.maximum(g[:, None, 0], p[None, :, 0])) > 0.0
        for i, j in zip(*overlap.nonzero()):
            want[tuple(g[i]), tuple(p[j])] += 1
    kernel, got = metrics.iou_2d_pairs, Counter()

    def spy(a, b):
        got.update(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
        return kernel(a, b)

    monkeypatch.setattr(metrics, "iou_2d_pairs", spy)
    clear_mot(gt, pred)
    assert got == want
    assert sum(got.values()) == 16_564


def test_clear_carries_matches_and_switches_across_one_frame_blocks():
    # At a cap of one cell each frame is a block. Frame 1 is isolated: gt 1
    # and prediction 11 (10 px right), gt 2 and prediction 13. Frame 2 opens
    # its block with a conflict: gt 1 is admissible to 11 and to 12, which
    # sits on it, and the pair (1, 11) persisting from frame 1 keeps it.
    # Frame 3 is isolated and matches gt 2 to 14, a switch from its match
    # two blocks back.
    gt = output_2d([(1, 1, 100.0, 100.0, 1.0), (1, 2, 600.0, 100.0, 1.0),
                    (2, 1, 100.0, 100.0, 1.0),
                    (3, 1, 100.0, 100.0, 1.0), (3, 2, 600.0, 100.0, 1.0)])
    pred = output_2d([(1, 11, 110.0, 100.0, 0.9), (1, 13, 600.0, 100.0, 0.9),
                      (2, 11, 110.0, 100.0, 0.9), (2, 12, 100.0, 100.0, 0.9),
                      (3, 11, 110.0, 100.0, 0.9), (3, 14, 600.0, 100.0, 0.9)])
    with mock.patch.object(metrics, "_BLOCK_CELLS", 1):
        assert [metrics._isolated(block).tolist()
                for block in metrics._blocks(gt, pred, 0.5)] == [[True], [False], [True]]
    spans = check_block_scorer(gt, pred, None, 1)
    assert spans == [(0, 1), (1, 2), (2, 3)]
    with mock.patch.object(metrics, "_BLOCK_CELLS", 1):
        report = clear_mot(gt, pred)
    assert (report.fp, report.fn, report.ids, report.gt) == (1, 0, 1, 5)
    assert report == clear_mot(gt, pred)


def test_clear_and_idf1_memory_does_not_grow_with_frames():
    # 20 objects, each with one prediction admissible to it alone. Dense
    # tables of 2000 frames would hold 2000 x 20 x 20 similarities (6.4 MB);
    # scored a block at a time, the peak is about one block's arrays at any
    # length.
    def outputs(n_frames, n_obj=20):
        frames = np.repeat(np.arange(1, n_frames + 1), n_obj)
        ids = np.tile(np.arange(1, n_obj + 1), n_frames)
        x = (ids % 5) * 100.0 + frames % 50
        y = (ids // 5) * 150.0
        boxes = np.stack([x, y, x + 60.0, y + 120.0], axis=1)
        zeros = np.zeros_like(ids)
        gt = TrackOutput(frames, ids, zeros, np.ones(len(ids)), boxes, n_frames)
        pred = TrackOutput(frames, ids + 1000, zeros, np.full(len(ids), 0.9), boxes + 3.0,
                           n_frames)
        return gt, pred

    def peak(call, gt, pred):
        tracemalloc.start()
        try:
            call(gt, pred)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = outputs(250), outputs(2000)
    assert clear_mot(*long).mota == 1.0 and idf1(*long) == 1.0
    for call in (clear_mot, idf1):
        peak_short, peak_long = peak(call, *short), peak(call, *long)
        assert peak_long < 1.5e6, (call.__name__, peak_long)
        assert peak_long - peak_short < 2.5e5, (call.__name__, peak_short, peak_long)


def test_amota_memory_follows_admissible_pairs():
    # 200 objects over 40 frames, each prediction admissible only to its own
    # gt. Dense tables of the whole sweep would hold 40 x 200 x 200
    # similarities (12.8 MB); the admissible pairs are 8000. With every
    # score equal the sweep has one threshold. With 8000 distinct scores,
    # and objects 1-100 swapping prediction ids in pairs from frame 21 on,
    # identity switches are counted at up to 40 thresholds over 8000 spells
    # of matches, which taken at once would be 320,000 cells: a chunk of
    # them at a time costs well under 2 MB over the one-threshold peak.
    n_obj, n_frames = 200, 40
    frames = np.repeat(np.arange(1, n_frames + 1), n_obj)
    ids = np.tile(np.arange(1, n_obj + 1), n_frames)
    x = (ids % 20) * 100.0 + frames
    y = (ids // 20) * 150.0
    boxes = np.stack([x, y, x + 60.0, y + 120.0], axis=1)
    zeros = np.zeros_like(ids)
    gt = TrackOutput(frames, ids, zeros, np.ones(len(ids)), boxes, n_frames)
    swapped = np.where((frames > 20) & (ids <= 100), ((ids - 1) ^ 1) + 1, ids)
    distinct = np.random.default_rng(3).permutation(len(ids)) / len(ids)
    peaks = []
    for pr_ids, scores, switches in ((ids, np.full(len(ids), 0.9), 0),
                                     (swapped, distinct, 100)):
        pred = TrackOutput(frames, pr_ids + 1000, zeros, scores, boxes + 3.0, n_frames)
        tracemalloc.start()
        try:
            report = amota(gt, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clear_mot(gt, pred).ids == switches
        assert report.amota == 1.0 if not switches else 0.0 < report.amota < 1.0
        assert peak < 8e6, (switches, peak)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 2e6, peaks


class TestIdf1:
    def test_perfect(self):
        gt = output_2d(steady(1, range(1, 11)))
        assert idf1(gt, gt) == 1.0

    def test_half_split_gives_half(self):
        gt = output_2d(steady(1, range(1, 11)))
        pred = output_2d(steady(5, range(1, 6)) + steady(6, range(6, 11)))
        assert idf1(gt, pred) == pytest.approx(0.5)

    def test_empty_predictions(self):
        gt = output_2d(steady(1, range(1, 6)))
        assert idf1(gt, output_2d([], n_frames=5)) == 0.0


class TestSmota:
    def test_perfect_at_any_recall(self):
        gt = output_2d(steady(1, range(1, 11)))
        for r in (0.2, 0.5, 1.0):
            assert smota_r(gt, gt, r) == 1.0

    def test_recall_target_cancels_expected_misses(self):
        # P = 100, r = 0.5, FN = 50: the (1 - r) * P term absorbs the misses.
        gt = output_2d(
            [(f, i, 100.0 + 200.0 * i, 100.0, 1.0) for f in range(1, 11) for i in range(10)]
        )
        pred = output_2d(
            [(f, i + 20, 100.0 + 200.0 * i, 100.0, 0.9) for f in range(1, 11) for i in range(5)]
        )
        assert smota_r(gt, pred, 0.5) == pytest.approx(1.0)

    def test_clamped_to_zero(self):
        gt = output_2d(steady(1, range(1, 11)))
        junk = output_2d(
            [(f, 40 + k, 1000.0 + 70.0 * k, 500.0, 0.9) for f in range(1, 11) for k in range(4)],
            n_frames=10,
        )
        assert smota_r(gt, junk, 0.5) == 0.0

    def test_zero_recall_rejected(self):
        gt = output_2d(steady(1, [1]))
        with pytest.raises(ValueError):
            smota_r(gt, gt, 0.0)

    def test_empty_ground_truth_rejected(self):
        pred = output_2d(steady(1, [1]))
        with pytest.raises(ValueError, match="sMOTA requires non-empty ground truth"):
            smota_r(output_2d([], n_frames=1), pred, 0.5)


class TestAmota:
    def test_perfect(self):
        gt = output_2d(steady(1, range(1, 21)))
        pred = output_2d(steady(1, range(1, 21), score=0.9))
        report = amota(gt, pred)
        assert report.amota == 1.0
        assert len(report.recalls) == 40

    def test_empty_tracker_output(self):
        gt = output_2d(steady(1, range(1, 21)))
        assert amota(gt, output_2d([], n_frames=20)).amota == 0.0

    def test_empty_ground_truth_rejected(self):
        pred = output_2d(steady(1, [1]))
        with pytest.raises(ValueError, match="AMOTA requires non-empty ground truth"):
            amota(output_2d([], n_frames=1), pred)

    def test_top_half_correct_gives_half(self):
        # Two gt objects over 20 frames; predictions cover only the first with
        # distinct high confidences, plus far-away junk below all of them.
        gt = output_2d(sorted(steady(1, range(1, 21)) + steady(2, range(1, 21), x=600.0)))
        correct = [(f, 10, 100.0, 100.0, 0.9 - 0.001 * f) for f in range(1, 21)]
        junk = [(f, 30, 1500.0, 800.0, 0.2 + 0.001 * f) for f in range(1, 21)]
        pred = output_2d(sorted(correct + junk), n_frames=20)
        report = amota(gt, pred)
        # Recall points at or below 0.5 score 1.0, the rest are unreachable.
        expected = np.mean([1.0 if (k / 40.0) <= 0.5 else 0.0 for k in range(1, 41)])
        assert report.amota == pytest.approx(float(expected))

    def test_invariant_under_monotone_rescaling(self):
        rng = np.random.default_rng(0)
        gt = output_2d(sorted(steady(1, range(1, 16)) + steady(2, range(1, 16), x=700.0)))
        pred_rows = []
        for f in range(1, 16):
            if f % 3:
                pred_rows.append((f, 9, 100.0 + rng.uniform(-3, 3), 100.0, rng.uniform(0.3, 1.0)))
            if f % 4:
                pred_rows.append((f, 11, 1400.0, 600.0, rng.uniform(0.0, 0.4)))
        pred = output_2d(sorted(pred_rows), n_frames=15)
        base = amota(gt, pred)
        rescaled = output_of(
            tuple(
                TrackRecord(r.frame, r.track_id, r.box, r.score**3, r.class_id)
                for r in pred.records
            ),
            pred.mode,
            pred.n_frames,
        )
        again = amota(gt, rescaled)
        assert again.amota == pytest.approx(base.amota, abs=1e-12)
        assert again.smota_values == pytest.approx(base.smota_values, abs=1e-12)

    def test_values_stay_in_unit_interval(self):
        gt = output_2d(steady(1, range(1, 11)))
        pred = output_2d(steady(4, range(1, 7), score=0.7))
        report = amota(gt, pred)
        assert 0.0 <= report.amota <= 1.0
        assert all(0.0 <= v <= 1.0 for v in report.smota_values)

    def test_non_finite_confidences_rejected(self):
        gt = output_2d(steady(1, range(1, 6)))
        pred = output_2d([(1, 3, 100.0, 100.0, float("nan"))], n_frames=5)
        with pytest.raises(ValueError, match="finite"):
            amota(gt, pred)

    def test_report_text_format(self, tmp_path, capsys):
        # The reports carry no text form; `motrack eval` prints their fields
        # one `key=value` line each, floats to six places.
        path = tmp_path / "gt.txt"
        with open(path, "w", encoding="utf-8") as fh:
            write_mot_results(output_2d(steady(1, range(1, 6))), fh)
        assert main(["eval", "--gt", str(path), "--pred", str(path),
                     "--metric", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "mota=1.000000" in lines
        assert "fp=0" in lines
        assert "amota=1.000000" in lines
