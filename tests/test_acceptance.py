"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines;
the -v listing itself gives one pass/fail row per criterion.
"""

import io
import math
from bisect import bisect_left
import time
import tracemalloc
from dataclasses import replace
from statistics import mean
from unittest import mock

import numpy as np
import pytest

from motrack import formats, metrics
from motrack.association import Mode
from motrack.geometry import Box2D, Box3D
from motrack.metrics import amota, clear_mot, idf1, smota_r
from motrack.simulate import (
    DropoutSpan,
    MotionSegment,
    ObjectSpec,
    OcclusionEvent,
    ScenarioSpec,
    canonical_occlusion_scenario,
    clutter_suite,
    generate_scenario,
    motion_ablation_suite,
)
from motrack.tracker import TrackOutput, TrackRecord, run_sequence, validate_config
from kalman_utils import kf_init, kf_predict, kf_update
from oracle_utils import (amota_reference, best_gated_matching, block_tables,
                          clear_counts_reference, clear_from_frame_tables, detection_columns,
                          frame_tables_reference, giou_3d,
                          giou_3d_axis_aligned, giou_3d_voxel, idf1_from_frame_pairs,
                          output_of, slice_frames, solve_gated, sweep_reference)

TAUS = (0.3, 0.4, 0.5, 0.6, 0.7)


@pytest.fixture(scope="module")
def realized_suite():
    suite = clutter_suite(20)
    return [generate_scenario(spec, seed) for spec, seed in suite]


@pytest.fixture(scope="module")
def sweep_table(realized_suite):
    """mean MOTA and summed IDS per (tau, variant) over the benchmark suite."""
    table = {}
    base = validate_config({"mode": "2d"})
    for tau in TAUS:
        for label, gate_second in (("two", base.gate_second), ("single", None)):
            config = replace(base, tau=tau, gate_second=gate_second)
            motas, ids = [], 0
            for gt, frames in realized_suite:
                report = clear_mot(gt, run_sequence(frames, config))
                motas.append(report.mota)
                ids += report.ids
            table[(tau, label)] = (mean(motas), ids)
    return table


def test_criterion_01_assignment_optimality():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(100):
        m, n = rng.integers(1, 8, 2)
        cases.append((rng.uniform(0.0, 1.0, (m, n)), rng.uniform(0.0, 0.9)))
    start = time.perf_counter()
    results = [solve_gated(values, gate) for values, gate in cases]
    elapsed = time.perf_counter() - start
    for (values, gate), result in zip(cases, results):
        achieved = sum(values[r, c] for r, c in result.matches)
        assert achieved == pytest.approx(best_gated_matching(values, gate), abs=1e-12)
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: 100/100 optimal, solver time {elapsed * 1e3:.1f} ms")


def test_criterion_02_giou_voxel_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        a = Box3D(*rng.uniform(-2, 2, 2), rng.uniform(-0.5, 0.5),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0.8, 4.5),
                  rng.uniform(0.8, 2.5), rng.uniform(0.8, 2.0))
        b = Box3D(*rng.uniform(-2, 2, 2), rng.uniform(-0.5, 0.5),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0.8, 4.5),
                  rng.uniform(0.8, 2.5), rng.uniform(0.8, 2.0))
        gap = abs(giou_3d(a, b) - giou_3d_voxel(a, b, cell=0.02))
        worst = max(worst, gap)
        assert gap < 0.02
    for _ in range(100):
        a = Box3D(*rng.uniform(-3, 3, 3), 0.0, *rng.uniform(0.8, 4.0, 3))
        b = Box3D(*rng.uniform(-3, 3, 3), 0.0, *rng.uniform(0.8, 4.0, 3))
        assert giou_3d(a, b) == pytest.approx(giou_3d_axis_aligned(a, b), abs=1e-9)
    print(f"\nPASS criterion 2: max |giou - voxel oracle| = {worst:.4f} (< 0.02); "
          "axis-aligned closed form within 1e-9")


def test_criterion_03_kalman_convergence():
    velocity = np.array([1.0, -0.5, 0.0])
    position = np.zeros(3)
    state = kf_init(Box3D(*position, 0.2, 4.5, 1.9, 1.6))
    errors = []
    for _ in range(50):
        position = position + velocity
        state = kf_predict(state)
        state = kf_update(state, Box3D(*position, 0.2, 4.5, 1.9, 1.6), 0.9,
                          alpha=10.0)
        errors.append(float(np.linalg.norm(state.mean[:3] - position)))
        eigenvalues = np.linalg.eigvalsh(state.covariance)
        assert eigenvalues.min() >= -1e-8
    assert errors[-1] < 1e-6
    tail = errors[10:]
    # Non-increasing after settling; below 1e-9 the sequence sits at float
    # round-off where ordering is meaningless.
    assert all(b <= a or b < 1e-9 for a, b in zip(tail, tail[1:]))
    print(f"\nPASS criterion 3: error at frame 50 = {errors[-1]:.2e}, "
          "monotone after frame 10, covariance PSD throughout")


def test_criterion_04_confidence_scaled_update():
    prior = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4.5, 1.9, 1.6)))
    measured = Box3D(1.5, -1.0, 0.4, 0.0, 4.5, 1.9, 1.6)
    target = np.array([1.5, -1.0, 0.4])
    distances = []
    for score in (0.0, 0.25, 0.5, 0.75, 1.0):
        posterior = kf_update(prior, measured, score, alpha=10.0)
        distances.append(float(np.linalg.norm(posterior.mean[:3] - target)))
    assert all(b < a for a, b in zip(distances, distances[1:]))
    print(f"\nPASS criterion 4: posterior-to-measurement distance strictly "
          f"decreasing over scores: {[f'{d:.4f}' for d in distances]}")


def test_criterion_05_occlusion_recovery():
    spec, seed = canonical_occlusion_scenario()
    gt, frames = generate_scenario(spec, seed)
    config = validate_config({"mode": "2d"})

    two_stage = run_sequence(frames, config)
    assert run_sequence(frames, config).records == two_stage.records  # deterministic
    single = run_sequence(frames, replace(config, gate_second=None))

    full = clear_mot(gt, two_stage)
    assert full.ids == 0
    dipped_gt = slice_frames(gt, 10, 14)
    assert clear_mot(dipped_gt, slice_frames(two_stage, 10, 14)).fn == 0
    single_fn = clear_mot(dipped_gt, slice_frames(single, 10, 14)).fn
    assert single_fn >= 5
    print(f"\nPASS criterion 5: two-stage IDS=0 FN=0 on dipped frames; "
          f"single-stage FN={single_fn} (>= 5); deterministic rerun identical")


def test_criterion_06_ablation_shape(sweep_table):
    two_mota, two_ids = sweep_table[(0.6, "two")]
    single_mota, single_ids = sweep_table[(0.6, "single")]
    assert two_mota > single_mota
    assert two_ids <= single_ids
    print(f"\nPASS criterion 6: mean MOTA {two_mota:.4f} > {single_mota:.4f}; "
          f"IDS {two_ids} <= {single_ids} over 20 clutter scenarios")


def test_criterion_07_threshold_robustness(sweep_table):
    two = [sweep_table[(tau, "two")][0] for tau in TAUS]
    single = [sweep_table[(tau, "single")][0] for tau in TAUS]
    two_spread = max(two) - min(two)
    single_spread = max(single) - min(single)
    assert two_spread < single_spread
    print(f"\nPASS criterion 7: MOTA spread over tau grid {two_spread:.4f} "
          f"(two-stage) < {single_spread:.4f} (single-stage)")


def test_criterion_08_motion_ablation():
    suite = [generate_scenario(spec, seed) for spec, seed in motion_ablation_suite(5)]
    ids_by_strategy = {}
    for strategy in ("kf", "dv", "complementary"):
        config = validate_config({"mode": "3d", "motion_strategy": strategy})
        ids_by_strategy[strategy] = sum(
            clear_mot(gt, run_sequence(frames, config)).ids for gt, frames in suite
        )
    complementary = ids_by_strategy["complementary"]
    assert complementary <= min(ids_by_strategy["kf"], ids_by_strategy["dv"])
    print(f"\nPASS criterion 8: IDS complementary={complementary} <= "
          f"min(kf={ids_by_strategy['kf']}, dv={ids_by_strategy['dv']})")


def test_criterion_09_metric_formulas():
    def steady(track_id, frames, x=100.0, score=1.0):
        return [
            TrackRecord(f, track_id, Box2D(x, 100.0, x + 60.0, 220.0), score)
            for f in frames
        ]

    gt = output_of(steady(1, range(1, 11)), Mode.BOX_2D, 10)
    rows = steady(10, range(1, 5)) + steady(11, range(7, 11))
    rows.append(TrackRecord(3, 99, Box2D(900, 900, 960, 1020), 0.9))
    pred = output_of(sorted(rows, key=lambda r: r.frame), Mode.BOX_2D, 10)
    report = clear_mot(gt, pred)
    assert (report.fp, report.fn, report.ids) == (1, 2, 1)
    assert report.mota == pytest.approx(0.6)

    split = output_of(
        tuple(steady(5, range(1, 6), score=0.9) + steady(6, range(6, 11), score=0.9)),
        Mode.BOX_2D, 10,
    )
    assert idf1(gt, split) == pytest.approx(0.5)

    perfect = output_of(steady(3, range(1, 11), score=0.9), Mode.BOX_2D, 10)
    assert clear_mot(gt, perfect).mota == 1.0
    assert idf1(gt, perfect) == 1.0
    assert amota(gt, perfect).amota == 1.0
    for r in (0.25, 0.5, 1.0):
        assert smota_r(gt, perfect, r) == 1.0

    # Recall-r predictions: misses up to (1 - r) * P are not penalized.
    wide_gt = output_of(
        tuple(sorted(
            (TrackRecord(f, i, Box2D(200.0 * i, 100.0, 200.0 * i + 60.0, 220.0), 1.0)
             for f in range(1, 11) for i in range(10)),
            key=lambda rec: rec.frame,
        )),
        Mode.BOX_2D, 10,
    )
    half = output_of(
        tuple(sorted(
            (TrackRecord(f, 20 + i, Box2D(200.0 * i, 100.0, 200.0 * i + 60.0, 220.0), 0.9)
             for f in range(1, 11) for i in range(5)),
            key=lambda rec: rec.frame,
        )),
        Mode.BOX_2D, 10,
    )
    assert smota_r(wide_gt, half, 0.5) == pytest.approx(1.0)

    rescaled = output_of(
        tuple(TrackRecord(r.frame, r.track_id, r.box, r.score**2, r.class_id)
              for r in half.records),
        Mode.BOX_2D, 10,
    )
    assert amota(wide_gt, rescaled).amota == pytest.approx(
        amota(wide_gt, half).amota, abs=1e-12
    )
    print("\nPASS criterion 9: MOTA/IDF1/sMOTA hand arithmetic exact; perfect "
          "tracking scores 1.0; AMOTA invariant under monotone rescaling")


def test_criterion_10_round_trip_and_determinism():
    spec, seed = clutter_suite(1)[0]
    gt, frames = generate_scenario(spec, seed)
    config = validate_config({"mode": "2d"})
    first = run_sequence(frames, config)
    second = run_sequence(frames, config)
    assert first.records == second.records

    gt2, frames2 = generate_scenario(spec, seed)
    assert gt2.records == gt.records
    assert detection_columns(frames2) == detection_columns(frames)

    buf = io.StringIO()
    formats.write_mot_results(first, buf)
    parsed = formats.parse_mot_results(buf.getvalue())
    assert parsed.records == first.records
    buf2 = io.StringIO()
    formats.write_mot_results(parsed, buf2)
    assert buf2.getvalue() == buf.getvalue()
    print("\nPASS criterion 10: MOT write/parse lossless; reruns bit-identical")


def _perf_scenario(n_frames: int, n_objects: int = 50):
    """Ground truth and detections of n_objects boxes moving over n_frames."""
    rng = np.random.default_rng(42)
    objects = []
    for _ in range(n_objects):
        objects.append(
            ObjectSpec(
                start=(rng.uniform(100, 1820), rng.uniform(100, 980)),
                size=(rng.uniform(50, 90), rng.uniform(100, 160)),
                segments=(MotionSegment(n_frames + 1, rng.uniform(-3, 3),
                                        rng.uniform(-2, 2)),),
            )
        )
    spec = ScenarioSpec(mode=Mode.BOX_2D, duration=n_frames,
                        world=(0.0, 0.0, 1920.0, 1080.0), objects=tuple(objects))
    return generate_scenario(spec, 1)


@pytest.mark.ci_gate
def test_criterion_11_throughput_and_scaling():
    import gc

    config = validate_config({"mode": "2d"})
    _, frames = _perf_scenario(1000)
    run_sequence(frames[:100], config)  # warm-up

    def run_time(batch):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run_sequence(batch, config)
            return time.perf_counter() - start
        finally:
            gc.enable()

    # The sizes take turns round by round, so a drift in host speed during
    # the test hits each of them alike; each size keeps its best time.
    times = {10: [], 100: [], 1000: []}
    for _ in range(5):
        for size, runs in times.items():
            runs.append(run_time(frames[:size]))
    t1000 = min(times[1000])
    assert t1000 < 2.0

    per_frame = {size: min(runs) / size for size, runs in times.items()}
    slope_ratio = max(per_frame.values()) / min(per_frame.values())
    assert slope_ratio <= 2.0
    print(f"\nPASS criterion 11: 1000 frames x 50 objects in {t1000:.2f} s (< 2 s); "
          f"per-frame time ratio across sizes {slope_ratio:.2f} (<= 2)")


@pytest.mark.ci_gate
def test_evaluation_on_tracker_output():
    # The criterion 11 scene tracked, then evaluated against its ground
    # truth. The evaluation tables, CLEAR and IDF1 must equal those scored
    # frame by frame. The times and traced memory peaks are printed, not
    # gated; each peak comes from a second call, so the timed one is untraced.
    # So is the share of the gt x prediction cells of each frame, its own
    # cells, that one scan hands the IoU kernel.
    gt, frames = _perf_scenario(1000)
    pred = run_sequence(frames, validate_config({"mode": "2d"}))
    reports, seconds, peaks = {}, {}, {}
    for name, evaluate in (("clear_mot", clear_mot), ("idf1", idf1), ("amota", amota)):
        start = time.perf_counter()
        reports[name] = evaluate(gt, pred)
        seconds[name] = time.perf_counter() - start
        tracemalloc.start()
        try:
            evaluate(gt, pred)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    kernel, scored = metrics.iou_2d_pairs, []
    with mock.patch.object(metrics, "iou_2d_pairs",
                           lambda a, b: scored.append(len(a)) or kernel(a, b)):
        tables = list(block_tables(gt, pred, 0.5))
    assert tables == list(frame_tables_reference(gt, pred, 0.5))
    slots = max(gt.n_frames, pred.n_frames) + 1
    own = int(np.bincount(gt.frames, minlength=slots) @ np.bincount(pred.frames, minlength=slots))
    want = sweep_reference(tables)
    # FP and FN at every score; identity switches at the thresholds AMOTA
    # reads and at the lowest score, where every prediction is kept.
    sweep = metrics._sweep(gt, pred, 0.5)
    assert _sweep_counts(gt, sweep) == [point[:3] for point in want]
    at = sorted(set(_grid_points(want, len(gt.track_ids))) | {len(want) - 1})
    assert metrics._switches(sweep, sweep.scores[at]).tolist() == [want[k][3] for k in at]
    report = reports["clear_mot"]
    assert (report.fp, report.fn, report.ids) == clear_from_frame_tables(gt, pred, 0.5)
    assert want[-1][1:] == (report.fp, report.fn, report.ids)
    assert report.gt == len(gt.track_ids) == 50_000
    assert reports["idf1"] == idf1_from_frame_pairs(gt, pred, 0.5)
    assert 0.0 <= reports["amota"].amota <= 1.0
    print(f"\nPASS evaluation on tracker output: 1000 frames x 50 objects scored "
          f"mota {report.mota:.4f}, idf1 {reports['idf1']:.4f}, "
          f"amota {reports['amota'].amota:.4f}; wall time / traced peak "
          + ", ".join(f"{name} {seconds[name]:.3f} s / {peaks[name]:.1f} MB" for name in seconds)
          + f"; one scan scored {sum(scored):,} of {own:,} own cells "
            f"({sum(scored) / own:.1%})")


def _sweep_counts(gt, sweep):
    """(score, fp, fn) at every unique score of the program's AMOTA sweep."""
    total_gt = len(gt.track_ids)
    return list(zip(sweep.scores.tolist(), (sweep.kept - sweep.matched).tolist(),
                    (total_gt - sweep.matched).tolist()))


def _grid_points(points, total_gt, n_points=40):
    """Indices of the (score, fp, fn, ids) sweep points, descending in score,
    that AMOTA reads: per recall grid point, the highest score among those
    with the lowest recall that still reaches it, as amota_reference picks."""
    first: dict[float, int] = {}
    for k, (_, _, fn, _) in enumerate(points):
        first.setdefault((total_gt - fn) / total_gt, k)
    reached = sorted(first)
    picks = (bisect_left(reached, k / n_points) for k in range(1, n_points + 1))
    return sorted({first[reached[j]] for j in picks if j < len(reached)})


def _meeting_pairs_scenario():
    """Ground truth and detections of side-by-side pairs of boxes that meet
    other pairs head-on, lane by lane, and turn back at the lane's ends.

    The two boxes of a pair overlap at IoU 0.62, so every detection clears
    the gate against both. Scores dip in occlusions, objects drop out,
    detections are missed at random and clutter scores up to 0.6, so tracks
    break, ids switch and some frames need the solver.
    """
    n_frames, n_objects = 200, 8
    objects = []
    for k in range(n_objects):
        direction = 1.0 if k % 4 < 2 else -1.0
        x = (200.0 if direction > 0 else 1000.0) + direction * 14.0 * (k % 2)
        speed = 4.0 + 0.3 * (k // 4)
        turn = int(800.0 / speed)
        segments = tuple(MotionSegment(turn, direction * speed * (-1) ** i, 0.0)
                         for i in range(n_frames // turn + 1))
        objects.append(ObjectSpec(start=(x, 150.0 + 110.0 * (k // 4)), size=(60.0, 130.0),
                                  segments=segments))
    spec = ScenarioSpec(
        mode=Mode.BOX_2D, duration=n_frames, world=(0.0, 0.0, 1280.0, 720.0),
        objects=tuple(objects),
        occlusions=tuple(OcclusionEvent(k, f, f + 8, 0.3) for k in range(n_objects)
                         for f in range(15 + 7 * k, n_frames - 10, 60)),
        dropouts=tuple(DropoutSpan(k, f, f + 3) for k in range(0, n_objects, 3)
                       for f in range(40 + 5 * k, n_frames - 5, 90)),
        position_noise=4.0, score_noise=0.05, clutter_rate=1.5, clutter_scores=(0.1, 0.6),
        miss_rate=0.03,
    )
    return generate_scenario(spec, 7)


@pytest.mark.ci_gate
def test_evaluation_with_switches_on_tracker_output():
    # A tracked scene with errors of every kind, so that CLEAR reaches the
    # solver and counts identity switches. CLEAR and AMOTA must equal their
    # exhaustive oracles and IDF1 the per-frame one; AMOTA's is run on the
    # scores rounded to one decimal, few enough thresholds to recount each
    # from scratch, and on the raw scores the sweep must equal the
    # incremental oracle. The times are printed, not gated.
    gt, frames = _meeting_pairs_scenario()
    pred = run_sequence(frames, validate_config({"mode": "2d"}))
    seconds = {}
    with mock.patch.object(metrics, "solve_assignment", wraps=metrics.solve_assignment) as solver:
        start = time.perf_counter()
        report = clear_mot(gt, pred)
        seconds["clear_mot"] = time.perf_counter() - start
    assert solver.call_count >= 1
    assert report.ids > 0
    assert (report.mota, report.fp, report.fn, report.ids) == clear_counts_reference(gt, pred)

    start = time.perf_counter()
    score = idf1(gt, pred)
    seconds["idf1"] = time.perf_counter() - start
    assert score == idf1_from_frame_pairs(gt, pred, 0.5)

    start = time.perf_counter()
    amota(gt, pred)
    seconds["amota"] = time.perf_counter() - start
    want = sweep_reference(list(block_tables(gt, pred, 0.5)))
    sweep = metrics._sweep(gt, pred, 0.5)
    ids = metrics._switches(sweep, sweep.scores).tolist()
    assert [(*counts, n) for counts, n in zip(_sweep_counts(gt, sweep), ids)] == want
    assert want[-1][1:] == (report.fp, report.fn, report.ids)
    rounded = TrackOutput(pred.frames, pred.track_ids, pred.class_ids, np.round(pred.scores, 1),
                          pred.boxes, pred.n_frames)
    report_rounded = amota(gt, rounded)
    assert (report_rounded.amota, report_rounded.smota_values, report_rounded.recalls) == \
        amota_reference(gt, rounded)
    print(f"\nPASS evaluation with switches: {len(frames)} frames, mota {report.mota:.4f} "
          f"(ids {report.ids}, fp {report.fp}, fn {report.fn}), {solver.call_count} solver "
          f"calls; wall time clear_mot {seconds['clear_mot']:.3f} s, idf1 "
          f"{seconds['idf1']:.3f} s, amota {seconds['amota']:.3f} s")
