"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines;
the -v listing itself gives one pass/fail row per criterion.
"""

import io
import math
import time
from dataclasses import replace
from statistics import mean

import numpy as np
import pytest

from motrack import formats
from motrack.assignment import solve_assignment
from motrack.association import Mode
from motrack.geometry import Box2D, Box3D, giou_3d
from motrack.metrics import amota, clear_mot, idf1, smota_r
from motrack.simulate import (
    MotionSegment,
    ObjectSpec,
    ScenarioSpec,
    baseline_single_association,
    canonical_occlusion_scenario,
    clutter_suite,
    generate_scenario,
    motion_ablation_suite,
)
from motrack.tracker import TrackOutput, TrackRecord, run_sequence, validate_config
from kalman_utils import kf_init, kf_predict, kf_update
from oracle_utils import best_gated_matching, giou_3d_axis_aligned, giou_3d_voxel

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
        for label, second in (("two", True), ("single", False)):
            config = replace(base, tau=tau, second_pass=second)
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
    results = [solve_assignment(values, gate) for values, gate in cases]
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
                          alpha=10.0, adaptive=True)
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
        posterior = kf_update(prior, measured, score, alpha=10.0, adaptive=True)
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
    single = baseline_single_association(frames, config)

    full = clear_mot(gt, two_stage)
    assert full.ids == 0
    dipped_gt = gt.slice_frames(10, 14)
    assert clear_mot(dipped_gt, two_stage.slice_frames(10, 14)).fn == 0
    single_fn = clear_mot(dipped_gt, single.slice_frames(10, 14)).fn
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

    gt = TrackOutput(tuple(steady(1, range(1, 11))), Mode.BOX_2D, 10)
    rows = steady(10, range(1, 5)) + steady(11, range(7, 11))
    rows.append(TrackRecord(3, 99, Box2D(900, 900, 960, 1020), 0.9))
    pred = TrackOutput(tuple(sorted(rows, key=lambda r: r.frame)), Mode.BOX_2D, 10)
    report = clear_mot(gt, pred)
    assert (report.fp, report.fn, report.ids) == (1, 2, 1)
    assert report.mota == pytest.approx(0.6)

    split = TrackOutput(
        tuple(steady(5, range(1, 6), score=0.9) + steady(6, range(6, 11), score=0.9)),
        Mode.BOX_2D, 10,
    )
    assert idf1(gt, split) == pytest.approx(0.5)

    perfect = TrackOutput(tuple(steady(3, range(1, 11), score=0.9)), Mode.BOX_2D, 10)
    assert clear_mot(gt, perfect).mota == 1.0
    assert idf1(gt, perfect) == 1.0
    assert amota(gt, perfect).amota == 1.0
    for r in (0.25, 0.5, 1.0):
        assert smota_r(gt, perfect, r) == 1.0

    # Recall-r predictions: misses up to (1 - r) * P are not penalized.
    wide_gt = TrackOutput(
        tuple(sorted(
            (TrackRecord(f, i, Box2D(200.0 * i, 100.0, 200.0 * i + 60.0, 220.0), 1.0)
             for f in range(1, 11) for i in range(10)),
            key=lambda rec: rec.frame,
        )),
        Mode.BOX_2D, 10,
    )
    half = TrackOutput(
        tuple(sorted(
            (TrackRecord(f, 20 + i, Box2D(200.0 * i, 100.0, 200.0 * i + 60.0, 220.0), 0.9)
             for f in range(1, 11) for i in range(5)),
            key=lambda rec: rec.frame,
        )),
        Mode.BOX_2D, 10,
    )
    assert smota_r(wide_gt, half, 0.5) == pytest.approx(1.0)

    rescaled = TrackOutput(
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
    assert frames2 == frames

    buf = io.StringIO()
    formats.write_mot_results(first, buf)
    parsed = formats.parse_mot_results(buf.getvalue())
    assert parsed.records == first.records
    buf2 = io.StringIO()
    formats.write_mot_results(parsed, buf2)
    assert buf2.getvalue() == buf.getvalue()
    print("\nPASS criterion 10: MOT write/parse lossless; reruns bit-identical")


def _perf_frames(n_frames: int, n_objects: int = 50):
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
    return generate_scenario(spec, 1)[1]


def test_criterion_11_throughput_and_scaling():
    import gc

    config = validate_config({"mode": "2d"})
    frames = _perf_frames(1000)
    run_sequence(frames[:100], config)  # warm-up

    def best_time(batch, repeats):
        times = []
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                run_sequence(batch, config)
                times.append(time.perf_counter() - start)
            finally:
                gc.enable()
        return min(times)

    t1000 = best_time(frames, repeats=3)
    assert t1000 < 2.0

    per_frame = {1000: t1000 / 1000.0}
    for size in (10, 100):
        per_frame[size] = best_time(frames[:size], repeats=7) / size
    slope_ratio = max(per_frame.values()) / min(per_frame.values())
    assert slope_ratio <= 2.0
    print(f"\nPASS criterion 11: 1000 frames x 50 objects in {t1000:.2f} s (< 2 s); "
          f"per-frame time ratio across sizes {slope_ratio:.2f} (<= 2)")
