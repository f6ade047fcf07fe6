import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import association, motion
from motrack.association import (
    DEFAULT_GATE_KEY,
    Detection,
    DetectionFrame,
    Mode,
    MotionStrategy,
    TrackerConfig,
    TrackPool,
    predict_tracks,
    resolve_gate,
)
from motrack.geometry import (MAX_2D_ASPECT, MAX_3D_MAGNITUDE, MAX_TRACK_BUFFER, Box2D, Box3D,
                               giou_3d_pairs)
from motrack.motion import box_rows, inflate_arrays, predict_arrays
from motrack.simulate import (
    DropoutSpan,
    MotionSegment,
    ObjectSpec,
    OcclusionEvent,
    ScenarioSpec,
    generate_scenario,
)
from motrack.tracker import CLASS_IDS, default_config
from oracle_utils import (
    box3d_array,
    detection_frame,
    giou_3d,
    giou_3d_pairs_clip,
    two_pass_step,
)


def det2d(x, y, w=50.0, h=100.0, score=0.9, class_id=0):
    return Detection(Box2D(x, y, x + w, y + h), score, class_id)


def det3d(x, y, score=0.9, velocity=None, theta=0.0, class_id=2):
    return Detection(Box3D(x, y, 0.8, theta, 4.5, 1.9, 1.6), score, class_id, velocity)


def step(pool, frame, detections, config):
    """association.step on the DetectionFrame of a Detection list."""
    return association.step(pool, frame, detection_frame(detections, config.mode), config)


def diagnostic_tuples(diagnostics):
    """The tuple fields of a FrameDiagnostics, for comparing two of them."""
    return (diagnostics.first_matches, diagnostics.second_matches, diagnostics.new_tracks,
            diagnostics.discarded_low, diagnostics.lost_track_ids, diagnostics.removed_track_ids)


CFG_2D = TrackerConfig()
CFG_3D = default_config(Mode.BOX_3D)
CFG_DV = dataclasses.replace(CFG_3D, motion_strategy=MotionStrategy.DETECTED_VELOCITY)


def scored_detection_rows(monkeypatch, pool, frame, detections, config):
    """Step one 3D frame and return the detection rows the GIoU kernel scored."""
    scored = []

    def kernel_spy(a, b):
        scored.extend(map(tuple, a.tolist()))
        return giou_3d_pairs(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(association, "giou_3d_pairs", kernel_spy)
        step(pool, frame, detections, config)
    return scored


def frame_columns(**changes):
    """The columns of a two-box 2D DetectionFrame, with the given ones replaced."""
    columns = {"boxes": np.array([[2.0, 0.0, 62.0, 120.0], [500.0, 0.0, 560.0, 120.0]]),
               "scores": np.array([0.9, 0.8]), "class_ids": np.zeros(2, dtype=np.int64),
               "velocities": np.zeros((2, 2)), "has_velocity": np.zeros(2, dtype=bool)}
    columns.update(changes)
    return columns


class TestDetection:
    def test_score_range_enforced(self):
        with pytest.raises(ValueError, match=re.escape(
                "scores row 1: score must be in [0, 1], got 1.2")):
            DetectionFrame(**frame_columns(scores=np.array([0.9, 1.2])))

    def test_velocity_must_be_finite(self):
        with pytest.raises(ValueError, match=re.escape(
                "velocities row 1: detection velocity must be finite and at most 1e+100 in "
                "magnitude, got (inf, 0.0)")):
            DetectionFrame(**frame_columns(velocities=np.array([[0.0, 0.0], [np.inf, 0.0]]),
                                           has_velocity=np.ones(2, dtype=bool)))
        # A row without a velocity may hold anything there: the frame zeroes it.
        frame = DetectionFrame(**frame_columns(velocities=np.array([[0.0, 0.0], [np.inf, 0.0]])))
        assert frame.velocities.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_step_rejects_column_scores_out_of_range(self, bad):
        # A NaN score would vanish from every list, and 1.5 would spawn a
        # track emitting it. The frame is rejected when it is built, so it
        # never reaches the pool.
        config = TrackerConfig()
        pool = TrackPool()
        first = DetectionFrame(np.array([[0.0, 0.0, 60.0, 120.0]]), np.array([0.9]),
                               np.zeros(1, dtype=np.int64), np.zeros((1, 2)),
                               np.zeros(1, dtype=bool))
        association.step(pool, 1, first, config)
        with pytest.raises(ValueError, match=re.escape(
                f"scores row 1: score must be in [0, 1], got {bad}")):
            association.step(pool, 3, DetectionFrame(**frame_columns(
                scores=np.array([0.9, bad]))), config)
        assert (pool.last_frame, pool.ids.tolist(), pool.next_id) == (1, [1], 2)

    @pytest.mark.parametrize("column, value, message", [
        ("scores", np.array([0.9]), "scores must have shape (2,) for 2 boxes, got (1,)"),
        ("class_ids", np.zeros(3, dtype=np.int64),
         "class_ids must have shape (2,) for 2 boxes, got (3,)"),
        ("has_velocity", np.zeros(1, dtype=bool),
         "has_velocity must have shape (2,) for 2 boxes, got (1,)"),
        ("velocities", np.zeros(2), "velocities must have shape (2, 2) for 2 boxes, got (2,)"),
        ("class_ids", np.array([0.5, 0.2]), "class_ids must have an integer dtype, got float64"),
        ("class_ids", np.array([True, False]), "class_ids must have an integer dtype, got bool"),
        ("boxes", np.zeros(8), "boxes must be rows of width 4 or 7, got shape (8,)"),
        ("has_velocity", np.array([1, 0]), "has_velocity must have a bool dtype, got int64"),
    ], ids=["one_score", "three_class_ids", "one_has_velocity", "flat_velocities",
            "float_class_ids", "bool_class_ids", "flat_boxes", "int_has_velocity"])
    def test_step_rejects_columns_that_disagree(self, column, value, message):
        # Built as given, a frame of two boxes and one score would spawn one
        # track and drop the other box from every list; float class ids would
        # be emitted as they are. The frame is rejected when it is built, so
        # it never reaches the pool.
        config = TrackerConfig()
        pool = TrackPool()
        first = DetectionFrame(np.array([[0.0, 0.0, 60.0, 120.0]]), np.array([0.9]),
                               np.zeros(1, dtype=np.int64), np.zeros((1, 2)),
                               np.zeros(1, dtype=bool))
        association.step(pool, 1, first, config)
        with pytest.raises(ValueError, match=re.escape(message)):
            association.step(pool, 2, DetectionFrame(**frame_columns(**{column: value})), config)
        assert (pool.last_frame, pool.ids.tolist(), pool.next_id) == (1, [1], 2)


@pytest.mark.parametrize("config, row", [
    (CFG_2D, [np.nan, 0.0, 10.0, 10.0]),
    (CFG_3D, [0.0, 0.0, 0.8, 0.0, -4.0, 1.9, 1.6]),
], ids=["nan_2d", "negative_length_3d"])
def test_bad_box_never_reaches_the_pool(config, row):
    # Unchecked, the NaN row spawned a track with a NaN state before the
    # output check raised, and the negative length was emitted as 1e-6.
    pool = TrackPool()
    with pytest.raises(ValueError, match="boxes"):
        association.step(pool, 1, DetectionFrame(
            np.array([row]), np.array([0.9]), np.array([2]), np.zeros((1, 2)),
            np.zeros(1, dtype=bool)), config)
    assert pool.ids.tolist() == [] and pool.last_frame == 0


@pytest.mark.parametrize("row", [[5.0, 0.0, 5.0, 10.0], [0.0, 5.0, 10.0, 5.0],
                                 [1e10, 0.0, 1e10 + 1e-10, 10.0]],
                         ids=["zero_width", "zero_height", "width_lost_to_rounding"])
def test_zero_size_2d_box_never_reaches_the_pool(row):
    # Unchecked, a zero-size box failed only in the Kalman measurement of
    # frame 5, after the skipped frames 2-4 had aged the pool.
    pool = TrackPool()
    association.step(pool, 1, detection_frame([det2d(0.0, 0.0)], Mode.BOX_2D), CFG_2D)
    with pytest.raises(ValueError, match=re.escape("boxes row 0: box size must be positive")):
        association.step(pool, 5, DetectionFrame(
            np.array([row]), np.array([0.9]), np.zeros(1, dtype=np.int64), np.zeros((1, 2)),
            np.zeros(1, dtype=bool)), CFG_2D)
    assert pool.frames_since_match.tolist() == [0] and pool.last_frame == 1


@pytest.mark.parametrize("config", [CFG_3D, CFG_DV, dataclasses.replace(
    CFG_3D, motion_strategy=MotionStrategy.KALMAN)], ids=["complementary", "dv", "kf"])
def test_3d_detections_at_the_magnitude_bound_step_cleanly(config):
    # Two cars with every field at the bound swap sides each frame, then are
    # lost through the whole rebirth buffer before one returns. Every
    # similarity and Kalman step stays finite: RuntimeWarnings are errors here.
    bound = MAX_3D_MAGNITUDE
    pool = TrackPool()

    def frame(sign):
        x, size = sign * bound, [bound] * 3
        return DetectionFrame(
            np.array([[x, -x, x, 0.3, *size], [-x, x, -x, -0.3, *size]]), np.array([0.9, 0.3]),
            np.array([2, 2]), np.array([[-x, bound], [x, -bound]]), np.ones(2, dtype=bool))

    for index in range(1, 7):
        association.step(pool, index, frame(1.0 if index % 2 else -1.0), config)
    result = association.step(pool, 6 + config.track_buffer, frame(1.0), config)
    assert np.isfinite(pool.means).all() and np.isfinite(result.boxes).all()


@pytest.mark.parametrize("column, index", [("boxes", 0), ("boxes", 1), ("boxes", 2), ("boxes", 4),
                                           ("boxes", 5), ("boxes", 6), ("velocities", 0),
                                           ("velocities", 1)])
def test_3d_detection_past_the_magnitude_bound_rejected(column, index):
    # Unchecked, a car at x = 1e308 stepped twice, or one with velocity
    # (1e308, 0) in a second frame, overflowed in the similarity kernel.
    columns = {"boxes": np.array([[0.0, 0.0, 0.8, 0.0, 4.0, 2.0, 1.5]]), "scores": np.array([0.9]),
               "class_ids": np.array([2]), "velocities": np.zeros((1, 2)),
               "has_velocity": np.ones(1, dtype=bool)}
    past = np.nextafter(MAX_3D_MAGNITUDE, np.inf)
    columns[column][0, index] = -past if column == "boxes" and index == 1 else past
    with pytest.raises(ValueError, match=f"^{column} row 0: detection .* must be (finite and )?"
                                         "at most 1e\\+100 in magnitude"):
        DetectionFrame(**columns)


@pytest.mark.parametrize("unset", [5.0, np.inf, np.nan], ids=["five", "inf", "nan"])
def test_velocity_without_has_velocity_is_not_read(unset):
    # The backward shift once subtracted what such a row held: 5 moved the
    # static car out of its gate, so it spawned id 2; inf warned in the
    # kernel, and NaN failed the similarity check.
    pool = TrackPool()
    row = np.array([[0.0, 0.0, 0.8, 0.0, 4.5, 1.9, 1.6]])
    for index, velocity in ((1, 0.0), (2, unset)):
        frame = DetectionFrame(row, np.array([0.9]), np.array([2]), np.array([[velocity, 0.0]]),
                               np.zeros(1, dtype=bool))
        result = association.step(pool, index, frame, CFG_3D)
    assert frame.velocities.tolist() == [[0.0, 0.0]] and result.track_ids.tolist() == [1]
    assert result.diagnostics.first_matches == ((0, 1),)


def test_2d_detections_at_the_scale_bound_step_cleanly():
    # Boxes at the largest height, w/h and h/w, each alternating with one
    # half its height or width so that its track gains a velocity, then lost
    # through the longest rebirth buffer before they return. Every Kalman
    # step stays finite: RuntimeWarnings are errors here.
    bound, aspect = MAX_3D_MAGNITUDE, MAX_2D_ASPECT
    thin = np.nextafter(bound / aspect, np.inf)
    config = TrackerConfig(track_buffer=MAX_TRACK_BUFFER)
    pool = TrackPool()

    def frame(half):
        scale = 0.5 if half else 1.0
        boxes = np.array([[0.0, 0.0, 1.0, bound * scale], [0.0, 0.0, aspect * scale, 1.0],
                          [0.0, 0.0, thin * (2.0 - scale), bound]])
        return DetectionFrame(boxes, np.full(3, 0.9), np.zeros(3, dtype=np.int64),
                              np.zeros((3, 2)), np.zeros(3, dtype=bool))

    for index in range(1, 7):
        matched = association.step(pool, index, frame(index % 2 == 0), config).diagnostics
    result = association.step(pool, 6 + MAX_TRACK_BUFFER, frame(False), config)
    # The tracks matched last, drifted by their velocities, were scored again.
    assert len(matched.first_matches) == 2 and np.isfinite(result.boxes).all()
    assert {track for _, track in matched.first_matches} <= set(pool.ids.tolist())
    assert np.isfinite(pool.means).all() and np.isfinite(pool.covs).all()


@pytest.mark.parametrize("box", [[0.0, 0.0, 1e-10, 1e200], [0.0, 0.0, 1.0, 5e-324],
                                 [0.0, 0.0, 1.0, 1.0000000000000002e100],
                                 [0.0, 0.0, 2.0 * MAX_2D_ASPECT, 1.0],
                                 [0.0, 0.0, 0.5 / MAX_2D_ASPECT, 1.0]],
                         ids=["tall_and_thin", "flat", "tall", "wide", "narrow"])
def test_2d_detection_past_the_scale_bound_rejected(box):
    # Unchecked, stepping the first box twice overflowed in the square of the
    # height-scaled noise, and the second in the division w / h.
    with pytest.raises(ValueError, match=re.escape(
            f"boxes row 0: detection height must be at most 1e+100 and w/h, h/w at most "
            f"{MAX_2D_ASPECT!r}, got w={box[2]}, h={box[3]}")):
        DetectionFrame(np.array([box]), np.array([0.9]), np.zeros(1, dtype=np.int64),
                       np.zeros((1, 2)), np.zeros(1, dtype=bool))


class TestConfig:
    def test_tau_range(self):
        with pytest.raises(ValueError):
            TrackerConfig(tau=1.5)
        with pytest.raises(ValueError):
            TrackerConfig(tau=0.0)

    def test_buffer_positive(self):
        with pytest.raises(ValueError):
            TrackerConfig(track_buffer=0)

    def test_buffer_bounded(self):
        # The drift bounds of the 3D and 2D detection rules hold for tracks
        # lost fewer than 2000 frames.
        assert TrackerConfig(track_buffer=MAX_TRACK_BUFFER).track_buffer == 1000
        for buffer in (MAX_TRACK_BUFFER + 1, 10**9):
            with pytest.raises(ValueError, match=re.escape(
                    f"track_buffer must be in [1, 1000], got {buffer}")):
                TrackerConfig(track_buffer=buffer)

    def test_velocity_strategies_need_3d(self):
        with pytest.raises(ValueError):
            TrackerConfig(mode=Mode.BOX_2D, motion_strategy=MotionStrategy.COMPLEMENTARY)

    def test_gate_resolution(self):
        gates = {2: -0.1, -1: -0.5}
        assert resolve_gate(gates, 2) == -0.1
        assert resolve_gate(gates, 7) == -0.5
        assert resolve_gate(0.2, 5) == 0.2
        with pytest.raises(ValueError):
            resolve_gate({2: -0.1}, 7)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 6), max_size=30),
        st.one_of(
            st.floats(-1.0, 1.0),
            st.dictionaries(st.integers(-1, 6), st.floats(-1.0, 1.0), max_size=8),
        ),
    )
    def test_row_gates_equal_per_row_resolution(self, classes, gate):
        # Per-class maps are drawn with and without the DEFAULT_GATE_KEY
        # fallback, so some rows have no gate: the error must be the one the
        # first such row raises.
        class_ids = np.array(classes, dtype=np.int64)
        try:
            expected = [resolve_gate(gate, c) for c in classes]
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                association._row_gates(class_ids, gate)
            return
        gates = association._row_gates(class_ids, gate)
        assert gates.dtype == np.float64 and gates.shape == (len(classes),)
        assert gates.tolist() == expected


class TestSplit:
    """The split at tau, read from step diagnostics: on a first frame every
    high box spawns a track and every low box is discarded."""

    @staticmethod
    def split(detections, tau):
        config = dataclasses.replace(CFG_2D, tau=tau)
        diag = step(TrackPool(), 1, detections, config).diagnostics
        return [i for i, _ in diag.new_tracks], list(diag.discarded_low)

    def test_paper_defaults(self):
        high, low = self.split([det2d(0, 0, score=0.9), det2d(500, 500, score=0.3)], 0.6)
        assert (high, low) == ([0], [1])

    def test_all_high(self):
        assert self.split([det2d(0, 0, score=0.8)], 0.6) == ([0], [])

    def test_exact_threshold_goes_low(self):
        assert self.split([det2d(0, 0, score=0.6)], 0.6) == ([], [0])

    def test_order_preserved(self):
        dets = [det2d(100 * i, 0, score=s) for i, s in enumerate((0.9, 0.2, 0.8, 0.1))]
        assert self.split(dets, 0.6) == ([0, 2], [1, 3])


class TestStepLifecycle:
    def test_stable_object_single_track(self):
        pool = TrackPool()
        for frame in range(1, 11):
            result = step(pool, frame, [det2d(100, 100)], CFG_2D)
            assert len(result.tracks) == 1
            assert result.tracks[0].track_id == 1
        assert pool.active.tolist() == [True]

    def test_occlusion_recovered_in_second_pass(self):
        pool = TrackPool()
        scores = [0.9, 0.9, 0.9, 0.3, 0.3, 0.3, 0.9, 0.9, 0.9]
        for frame, score in enumerate(scores, start=1):
            result = step(pool, frame, [det2d(100, 100, score=score)], CFG_2D)
            assert [t.track_id for t in result.tracks] == [1]
            if score <= CFG_2D.tau:
                assert result.diagnostics.second_matches == ((0, 1),)
            elif frame > 1:
                assert result.diagnostics.first_matches == ((0, 1),)

    def test_low_score_detection_never_spawns(self):
        pool = TrackPool()
        result = step(pool, 1, [det2d(100, 100, score=0.3)], CFG_2D)
        assert result.tracks == ()
        assert result.diagnostics.discarded_low == (0,)
        assert len(pool.ids) == 0

    def test_first_frame_spawns_all_high(self):
        pool = TrackPool()
        dets = [det2d(0, 0), det2d(300, 300), det2d(600, 600), det2d(900, 0, score=0.4)]
        result = step(pool, 1, dets, CFG_2D)
        assert [t.track_id for t in result.tracks] == [1, 2, 3]
        assert result.diagnostics.new_tracks == ((0, 1), (1, 2), (2, 3))

    def test_buffer_expiry_produces_new_id(self):
        config = dataclasses.replace(CFG_2D, track_buffer=2)
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], config)
        for frame in (2, 3, 4):  # unmatched for buffer + 1 frames
            result = step(pool, frame, [], config)
        assert result.diagnostics.removed_track_ids == (1,)
        assert len(pool.ids) == 0
        result = step(pool, 5, [det2d(100, 100)], config)
        assert result.tracks[0].track_id == 2

    def test_rebirth_within_buffer_keeps_id(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], CFG_2D)
        for frame in (2, 3, 4):
            result = step(pool, frame, [], CFG_2D)
            assert result.tracks == ()
            assert pool.active.tolist() == [False]
        result = step(pool, 5, [det2d(100, 100)], CFG_2D)
        assert result.tracks[0].track_id == 1
        assert pool.active.tolist() == [True]

    def test_lost_invariant_frames_since_match(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], CFG_2D)
        step(pool, 2, [], CFG_2D)
        assert pool.active.tolist() == [False]
        assert 0 < pool.frames_since_match[0] <= CFG_2D.track_buffer

    def test_frame_must_increase(self):
        pool = TrackPool()
        step(pool, 1, [], CFG_2D)
        with pytest.raises(ValueError):
            step(pool, 1, [], CFG_2D)

    def test_mode_mismatch_rejected(self):
        pool = TrackPool()
        with pytest.raises(ValueError):
            step(pool, 1, [det3d(0, 0)], CFG_2D)

    def test_ids_unique_within_frame(self):
        pool = TrackPool()
        rng = np.random.default_rng(2)
        for frame in range(1, 20):
            dets = [det2d(x, y, score=s)
                    for x, y, s in zip(rng.uniform(0, 1500, 6),
                                       rng.uniform(0, 900, 6),
                                       rng.uniform(0.2, 1.0, 6))]
            result = step(pool, frame, dets, CFG_2D)
            ids = [t.track_id for t in result.tracks]
            assert len(ids) == len(set(ids))

    def test_partition_law(self):
        pool = TrackPool()
        rng = np.random.default_rng(3)
        for frame in range(1, 30):
            dets = [det2d(x, y, score=s)
                    for x, y, s in zip(rng.uniform(0, 1500, 8),
                                       rng.uniform(0, 900, 8),
                                       rng.uniform(0.0, 1.0, 8))]
            diag = step(pool, frame, dets, CFG_2D).diagnostics
            consumed = sorted(
                [i for i, _ in diag.first_matches]
                + [i for i, _ in diag.second_matches]
                + [i for i, _ in diag.new_tracks]
                + list(diag.discarded_low)
            )
            assert consumed == list(range(len(dets)))

    def test_per_class_matching_only(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100, class_id=1)], CFG_2D)
        result = step(pool, 2, [det2d(100, 100, class_id=2)], CFG_2D)
        # Same location, different class: the old track must not match.
        assert result.diagnostics.first_matches == ()
        assert result.diagnostics.new_tracks == ((0, 2),)

    def test_second_pass_disabled_discards_low(self):
        config = dataclasses.replace(CFG_2D, gate_second=None)
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], config)
        result = step(pool, 2, [det2d(100, 100, score=0.3)], config)
        assert result.diagnostics.second_matches == ()
        assert result.diagnostics.discarded_low == (0,)
        assert pool.active.tolist() == [False]

    def test_negative_giou_above_gate_still_matches(self):
        pool = TrackPool()
        step(pool, 1, [det3d(0.0, 0.0, velocity=(0.0, 0.0))], CFG_3D)
        # Offset enough that GIoU is negative but above the car gate of -0.1.
        shifted = det3d(0.0, 2.0, velocity=(0.0, 0.0))
        track_box = Box3D(*box_rows(pool.means)[0])
        assert -0.1 < giou_3d(shifted.box, track_box) < 0.0
        result = step(pool, 2, [shifted], CFG_3D)
        assert result.diagnostics.first_matches == ((0, 1),)

    def test_lost_track_can_rebind_in_second_pass(self):
        # Lost tracks stay in the leftover pool, so a low-score detection can
        # revive them in the second association.
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], CFG_2D)
        step(pool, 2, [], CFG_2D)
        assert pool.active.tolist() == [False]
        result = step(pool, 3, [det2d(100, 100, score=0.4)], CFG_2D)
        assert result.diagnostics.second_matches == ((0, 1),)
        assert [t.track_id for t in result.tracks] == [1]

    def test_complementary_rebirth_keeps_id_after_gap(self):
        # Constant-velocity object vanishes for five frames; the forward
        # Kalman prediction carries the lost track to the reappearance point.
        pool = TrackPool()
        speed = 2.0
        for frame in range(1, 11):
            step(pool, frame, [det3d(speed * frame, 0.0, velocity=(speed, 0.0))],
                 CFG_3D)
        for frame in range(11, 16):
            result = step(pool, frame, [], CFG_3D)
            assert result.tracks == ()
        reappeared = det3d(speed * 16, 0.0, velocity=(speed, 0.0))
        means, _, match_rows, _ = predict_tracks(pool, CFG_3D)
        forward_box = Box3D(*box_rows(means)[0])
        assert np.array_equal(match_rows[0], box_rows(means)[0])
        gate = resolve_gate(CFG_3D.gate_first, reappeared.class_id)
        assert giou_3d(reappeared.box, forward_box) > gate
        result = step(pool, 16, [reappeared], CFG_3D)
        assert [t.track_id for t in result.tracks] == [1]

    def test_outputs_report_last_matched_score(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100, score=0.95)], CFG_2D)
        result = step(pool, 2, [det2d(100, 100, score=0.35)], CFG_2D)
        assert result.tracks[0].score == 0.35


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("config, kernel", [(CFG_2D, "iou_2d_pairs"), (CFG_3D, "giou_3d_pairs")])
def test_non_finite_similarity_rejected(config, kernel, bad, monkeypatch):
    # One non-finite score stops the frame, even on a pair far apart that no
    # gate admits: step checks its whole table before the solver reads it.
    make = det2d if config.mode is Mode.BOX_2D else det3d
    detections = [make(0.0, 0.0), make(400.0, 0.0)]
    pool = TrackPool()
    step(pool, 1, detections, config)
    scores = getattr(association, kernel)

    def poisoned(a, b):
        values = scores(a, b).copy()
        values.flat[1] = bad  # detection 0 against the far track
        return values

    monkeypatch.setattr(association, kernel, poisoned)
    with pytest.raises(ValueError, match="finite"):
        step(pool, 2, detections, config)


@st.composite
def detection_streams(draw):
    """A config plus a short stream of random 2D or 3D detections, packed into a
    small area so that matches, second-pass recoveries, losses and removals
    all occur."""
    is_3d = draw(st.booleans())
    buffer = draw(st.integers(1, 3))
    tau = draw(st.sampled_from([0.3, 0.5, 0.6]))
    if is_3d:
        strategy = draw(st.sampled_from(list(MotionStrategy)))
        config = dataclasses.replace(CFG_3D, motion_strategy=strategy, tau=tau,
                                     track_buffer=buffer)
    else:
        config = TrackerConfig(tau=tau, track_buffer=buffer)
    coord = st.floats(0.0, 6.0) if is_3d else st.floats(0.0, 120.0)
    frames = []
    for _ in range(draw(st.integers(1, 10))):
        dets = []
        for _ in range(draw(st.integers(0, 5))):
            x, y = draw(coord), draw(coord)
            score = draw(st.floats(0.0, 1.0))
            class_id = draw(st.sampled_from([2, 4]))
            if is_3d:
                velocity = draw(st.none() | st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
                dets.append(Detection(Box3D(x, y, 0.8, draw(st.floats(-3.0, 3.0)),
                                            4.5, 1.9, 1.6), score, class_id, velocity))
            else:
                dets.append(Detection(Box2D(x, y, x + 50.0, y + 100.0), score, class_id))
        frames.append(dets)
    return config, frames


@settings(max_examples=80, deadline=None)
@given(detection_streams())
def test_step_invariants(stream):
    config, frames = stream
    pool = TrackPool()
    removed, seen = set(), set()
    for frame, dets in enumerate(frames, 1):
        result = step(pool, frame, dets, config)
        diag = result.diagnostics
        # Every detection is consumed exactly once.
        consumed = sorted(
            [i for i, _ in diag.first_matches]
            + [i for i, _ in diag.second_matches]
            + [i for i, _ in diag.new_tracks]
            + list(diag.discarded_low)
        )
        assert consumed == list(range(len(dets)))
        # Low-score boxes never spawn, and ids never repeat after removal:
        # every new id is larger than any id handed out before.
        for i, track_id in diag.new_tracks:
            assert dets[i].score > config.tau
            assert track_id > max(seen, default=0)
            seen.add(track_id)
        removed.update(diag.removed_track_ids)
        ids = [t.track_id for t in result.tracks]
        assert len(ids) == len(set(ids))
        assert not removed & set(pool.ids.tolist())
        # Every pool array has one row per track, in strictly increasing id order.
        rows = len(pool.ids)
        assert pool.means.shape[0] == pool.covs.shape[0] == rows
        for name in ("class_ids", "active", "frames_since_match", "last_score"):
            assert getattr(pool, name).shape == (rows,)
        assert np.all(np.diff(pool.ids) > 0)
        assert np.all((pool.frames_since_match >= 0)
                      & (pool.frames_since_match <= config.track_buffer))
        assert np.array_equal(pool.active, pool.frames_since_match == 0)
        # The output is exactly the active rows.
        assert ids == pool.ids[pool.active].tolist()
        assert [t.class_id for t in result.tracks] == pool.class_ids[pool.active].tolist()
        assert [t.score for t in result.tracks] == pool.last_score[pool.active].tolist()


class TestPredictTracks:
    def _pool_with_track(self, config, detection, frames=3):
        pool = TrackPool()
        for frame in range(1, frames + 1):
            step(pool, frame, [detection], config)
        return pool

    def test_kalman_only_uses_forward_boxes(self):
        pool = self._pool_with_track(CFG_2D, det2d(100, 100))
        means, covs, match_rows, wants_backward = predict_tracks(pool, CFG_2D)
        assert wants_backward.tolist() == [False]
        forward = predict_arrays(pool.means, pool.covs)
        assert np.array_equal(means, forward[0]) and np.array_equal(covs, forward[1])
        assert np.array_equal(match_rows, box_rows(means))

    def test_detected_velocity_holds_last_box(self, monkeypatch):
        pool = self._pool_with_track(CFG_DV, det3d(0, 0, velocity=(1.0, 0.0)))
        last_rows = box_rows(pool.means)
        means, covs, match_rows, wants_backward = predict_tracks(pool, CFG_DV)
        assert wants_backward.tolist() == [True]
        assert np.array_equal(match_rows, last_rows)
        assert np.array_equal(means, pool.means)
        inflated = inflate_arrays(pool.means, pool.covs)
        assert np.array_equal(covs, inflated[1])
        detection = det3d(3.0, 0.0, velocity=(1.0, 0.0))
        (row,) = scored_detection_rows(monkeypatch, pool, 4, [detection], CFG_DV)
        assert row[0] == 2.0  # current position minus detected velocity

    def test_complementary_active_matches_detected_velocity(self, monkeypatch):
        detection = det3d(1.0, 0.0, velocity=(1.0, 0.0))
        pool_a = self._pool_with_track(CFG_3D, detection)
        pool_b = self._pool_with_track(CFG_DV, detection)
        # All tracks active: the complementary strategy reduces to backward
        # prediction against last boxes, exactly like detected-velocity-only.
        assert predict_tracks(pool_a, CFG_3D)[3].tolist() == [True]
        assert predict_tracks(pool_b, CFG_DV)[3].tolist() == [True]
        assert np.array_equal(predict_tracks(pool_a, CFG_3D)[2], box_rows(pool_a.means))
        next_det = det3d(2.0, 0.0, velocity=(1.0, 0.0))
        rows_comp = scored_detection_rows(monkeypatch, pool_a, 4, [next_det], CFG_3D)
        rows_dv = scored_detection_rows(monkeypatch, pool_b, 4, [next_det], CFG_DV)
        assert rows_comp == rows_dv and rows_comp[0][0] == 1.0

    def test_complementary_lost_track_uses_forward_prediction(self):
        pool = self._pool_with_track(CFG_3D, det3d(0, 0, velocity=(1.0, 0.0)), frames=1)
        step(pool, 2, [], CFG_3D)  # track becomes lost
        means, _, match_rows, wants_backward = predict_tracks(pool, CFG_3D)
        assert pool.active.tolist() == [False]
        assert wants_backward.tolist() == [False]
        assert np.array_equal(match_rows, box_rows(means))

    def test_missing_velocity_falls_back_to_raw_box(self, monkeypatch):
        pool = self._pool_with_track(CFG_3D, det3d(0, 0, velocity=(0.0, 0.0)))
        detection = det3d(1.0, 1.0, velocity=None)
        (row,) = scored_detection_rows(monkeypatch, pool, 4, [detection], CFG_3D)
        assert row == tuple(box3d_array([detection.box])[0])

    def test_outputs_do_not_alias_the_pool(self):
        pool = self._pool_with_track(CFG_3D, det3d(0, 0, velocity=(1.0, 0.0)))
        before = {name: getattr(pool, name).copy() for name in ("means", "covs", "active")}
        for array in predict_tracks(pool, CFG_3D):
            array[...] = 0
        for name, value in before.items():
            assert np.array_equal(getattr(pool, name), value)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(10)
        frames = []
        for _ in range(25):
            frames.append(
                [det2d(x, y, score=s)
                 for x, y, s in zip(rng.uniform(0, 1500, 5),
                                    rng.uniform(0, 900, 5),
                                    rng.uniform(0.0, 1.0, 5))]
            )

        def run():
            pool = TrackPool()
            return [step(pool, f, dets, CFG_2D) for f, dets in enumerate(frames, 1)]

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.frame == b.frame
            assert diagnostic_tuples(a.diagnostics) == diagnostic_tuples(b.diagnostics)
            assert [(t.track_id, t.box, t.score) for t in a.tracks] == [
                (t.track_id, t.box, t.score) for t in b.tracks
            ]


def mixed_class_frames(seed: int, n_objects: int = 12, duration: int = 30):
    """Seeded 3D scene of several classes packed close together, with turns,
    score dips, dropouts and clutter, so passes mix classes, low boxes, and
    active and lost tracks."""
    rng = np.random.default_rng(seed)
    classes = [CLASS_IDS[name] for name in ("car", "pedestrian", "bicycle", "truck")]
    sizes = {CLASS_IDS["car"]: (4.5, 1.9, 1.6), CLASS_IDS["pedestrian"]: (0.8, 0.7, 1.8),
             CLASS_IDS["bicycle"]: (1.8, 0.7, 1.4), CLASS_IDS["truck"]: (8.0, 2.6, 3.2)}
    objects = []
    for k in range(n_objects):
        class_id = classes[k % len(classes)]
        turn = int(rng.integers(5, duration - 5))
        objects.append(ObjectSpec(
            start=(*rng.uniform(-12.0, 12.0, 2), 0.8),
            size=sizes[class_id],
            segments=(MotionSegment(turn, *rng.uniform(-1.0, 1.0, 2)),
                      MotionSegment(duration - turn, *rng.uniform(-1.0, 1.0, 2))),
            class_id=class_id,
        ))
    spec = ScenarioSpec(
        mode=Mode.BOX_3D,
        duration=duration,
        world=(-20.0, -20.0, 20.0, 20.0),
        objects=tuple(objects),
        occlusions=(OcclusionEvent(0, 8, 12, 0.15), OcclusionEvent(3, 15, 18, 0.1)),
        dropouts=(DropoutSpan(1, 10, 14), DropoutSpan(5, 18, 20)),
        base_score=0.8,
        position_noise=0.1,
        score_noise=0.05,
        clutter_rate=2.0,
        clutter_scores=(0.05, 0.3),
        miss_rate=0.05,
        velocity_noise=0.05,
    )
    return generate_scenario(spec, seed)[1]


def run_frames(frames, config):
    pool = TrackPool()
    return [step(pool, f, dets, config) for f, dets in enumerate(frames, 1)]


class TestPairKernelScoring:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tracker_matches_scalar_oracle(self, seed, monkeypatch):
        frames = mixed_class_frames(seed)
        fast = run_frames(frames, CFG_3D)
        monkeypatch.setattr(association, "giou_3d_pairs", giou_3d_pairs_clip)
        slow = run_frames(frames, CFG_3D)
        assert sum(len(r.tracks) for r in fast) > 0
        for a, b in zip(fast, slow):
            assert diagnostic_tuples(a.diagnostics) == diagnostic_tuples(b.diagnostics)
            assert [(t.track_id, t.class_id) for t in a.tracks] == [
                (t.track_id, t.class_id) for t in b.tracks
            ]
            for ta, tb in zip(a.tracks, b.tracks):
                assert np.allclose(box3d_array([ta.box]), box3d_array([tb.box]),
                                   rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_kernel_scores_each_same_class_pair_once(self, seed, monkeypatch):
        scored = []
        predicted = []

        def kernel_spy(a, b):
            scored.extend(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
            return giou_3d_pairs(a, b)

        def predict_spy(pool, config):
            out = predict_tracks(pool, config)
            predicted.append((pool.class_ids.tolist(), out))
            return out

        monkeypatch.setattr(association, "giou_3d_pairs", kernel_spy)
        monkeypatch.setattr(association, "predict_tracks", predict_spy)
        pool = TrackPool()
        for frame, dets in enumerate(mixed_class_frames(seed), 1):
            scored.clear()
            predicted.clear()
            step(pool, frame, dets, CFG_3D)
            (classes, (_, _, match_rows, wants_backward)), = predicted

            # Raw and backward-shifted rows of each detection, shifted here
            # independently of step.
            raw = box3d_array([det.box for det in dets])
            back = raw.copy()
            for i, det in enumerate(dets):
                if det.velocity is not None:
                    back[i, :2] -= det.velocity
            det_of = {}
            for i in range(len(dets)):
                for row in (raw[i], back[i]):
                    det_of.setdefault(tuple(row.tolist()), set()).add(i)
            track_of = {tuple(row): j for j, row in enumerate(match_rows.tolist())}

            seen = []
            for det_row, track_row in scored:
                (i,) = det_of[det_row]
                j = track_of[track_row]
                assert dets[i].class_id == classes[j], "cross-class pair scored"
                source = back[i] if wants_backward[j] else raw[i]
                assert det_row == tuple(source.tolist())
                seen.append((i, j))
            assert len(seen) == len(set(seen)), "a pair was scored twice"

            # Both passes read one scoring of every same-class pair.
            expected = {(i, j) for i, det in enumerate(dets)
                        for j, class_id in enumerate(classes) if class_id == det.class_id}
            assert set(seen) == expected


_POOL_FIELDS = ("means", "covs", "ids", "class_ids", "active", "frames_since_match",
                "last_score")
_RESULT_FIELDS = ("track_ids", "class_ids", "scores", "boxes")
_DIAGNOSTIC_FIELDS = ("first_rows", "first_ids", "second_rows", "second_ids", "new_rows",
                      "new_ids", "discarded_rows", "lost_ids", "removed_ids")


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def oracle_streams(draw):
    """A config plus frames of 2D or 3D detection columns with their frame
    numbers: every motion strategy, with and without the second pass
    (gate_second None), confidence scaling on and off (alpha None), scalar and
    per-class gates (possibly without a fallback), scores exactly at tau,
    empty frames and frame gaps."""
    is_3d = draw(st.booleans())
    tau = draw(st.sampled_from([0.3, 0.5, 0.6]))
    gate_value = st.floats(-0.9, 0.3) if is_3d else st.floats(0.0, 0.5)

    def gate():
        if draw(st.booleans()):
            return draw(gate_value)
        keys = draw(st.lists(st.sampled_from([DEFAULT_GATE_KEY, 2, 4]), unique=True,
                             min_size=1))
        return {key: draw(gate_value) for key in keys}

    config = TrackerConfig(
        mode=Mode.BOX_3D if is_3d else Mode.BOX_2D,
        tau=tau,
        gate_first=gate(),
        gate_second=gate() if draw(st.booleans()) else None,
        track_buffer=draw(st.integers(1, 3)),
        motion_strategy=draw(st.sampled_from(list(MotionStrategy))) if is_3d
        else MotionStrategy.KALMAN,
        alpha=draw(st.sampled_from([None, 0.0, 10.0, 100.0])),
    )
    # Detections scatter around a few anchors, so most frames match tracks.
    spread = 6.0 if is_3d else 120.0
    anchors = draw(st.lists(st.tuples(st.floats(0.0, spread), st.floats(0.0, spread)),
                            min_size=1, max_size=4))
    jitter = st.floats(-0.1 * spread, 0.1 * spread)
    score = st.sampled_from([tau, 0.0, 1.0]) | st.floats(0.0, 1.0)
    frames, frame = [], 0
    for _ in range(draw(st.integers(1, 10))):
        frame += draw(st.sampled_from([1, 1, 1, 2, 3, 6]))
        dets = []
        for _ in range(draw(st.integers(0, 6))):
            x, y = draw(st.sampled_from(anchors))
            x, y = x + draw(jitter), y + draw(jitter)
            class_id = draw(st.sampled_from([2, 4]))
            if is_3d:
                velocity = draw(st.none() | st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
                dets.append(Detection(Box3D(x, y, 0.8, draw(st.floats(-3.0, 3.0)),
                                            4.5, 1.9, 1.6), draw(score), class_id, velocity))
            else:
                w, h = draw(st.floats(20.0, 60.0)), draw(st.floats(40.0, 120.0))
                dets.append(Detection(Box2D(x, y, x + w, y + h), draw(score), class_id))
        frames.append((frame, detection_frame(dets, config.mode)))
    return config, frames


@settings(max_examples=150, deadline=None)
@given(oracle_streams())
def test_step_matches_two_pass_oracle(stream):
    """The once-per-frame step leaves the pool, the output columns and the
    diagnostics bit-identical to scoring and updating once per pass."""
    config, frames = stream
    fast_pool, slow_pool = TrackPool(), TrackPool()
    for frame, dets in frames:
        try:
            slow = two_pass_step(slow_pool, frame, dets, config)
        except ValueError as error:
            # A per-class gate map without the class and without a fallback.
            with pytest.raises(ValueError, match=re.escape(str(error))):
                association.step(fast_pool, frame, dets, config)
            return
        fast = association.step(fast_pool, frame, dets, config)
        assert fast.frame == slow.frame
        for name in _RESULT_FIELDS:
            assert_bit_identical(getattr(fast, name), getattr(slow, name))
        for name in _DIAGNOSTIC_FIELDS:
            assert_bit_identical(getattr(fast.diagnostics, name),
                                 getattr(slow.diagnostics, name))
        for name in _POOL_FIELDS:
            assert_bit_identical(getattr(fast_pool, name), getattr(slow_pool, name))
        assert (fast_pool.next_id, fast_pool.last_frame) == (slow_pool.next_id,
                                                             slow_pool.last_frame)


def test_non_finite_output_boxes_rejected(monkeypatch):
    """The output rows' boxes are checked: a state whose box is not finite
    raises, naming its row, rather than reaching the output."""
    original = motion.box_rows

    def nan_rows(means):
        rows = original(means)
        rows[:] = np.nan
        return rows

    monkeypatch.setattr(motion, "box_rows", nan_rows)
    with pytest.raises(ValueError, match=re.escape("boxes row 0: ")):
        step(TrackPool(), 1, [det2d(100, 100)], CFG_2D)


@pytest.mark.parametrize(
    "config",
    [CFG_2D, dataclasses.replace(CFG_2D, gate_second=None), CFG_3D,
     dataclasses.replace(CFG_3D, gate_second=None)],
    ids=["2d", "2d-single-pass", "3d", "3d-single-pass"],
)
def test_each_stage_runs_once_per_frame(config, monkeypatch):
    """Both passes share one similarity kernel call, one measurement call and
    one Kalman update per frame. The kernel scores every detection against
    every track in 2D and every same-class pair in 3D, the low rows included
    when the second pass is off (gate_second None), which then matches none."""
    calls = collections.Counter()
    kernel_rows = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == kernel:
                kernel_rows.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    is_3d = config.mode is Mode.BOX_3D
    kernel = "giou_3d_pairs" if is_3d else "iou_2d_pairs"
    spy(association, kernel)
    spy(motion, "_measurement_stack")
    spy(motion, "update_arrays")
    if is_3d:
        frames = mixed_class_frames(6)
    else:
        rng = np.random.default_rng(6)
        start = rng.uniform(0, 400, (8, 2))
        frames = [[det2d(x + 3 * f, y, score=s)
                   for (x, y), s in zip(start, rng.choice([0.3, 0.9], 8))]
                  for f in range(20)]
    pool = TrackPool()
    second_matches = 0
    for frame, dets in enumerate(frames, 1):
        calls.clear()
        kernel_rows.clear()
        if is_3d:
            expected_rows = sum(int(np.sum(pool.class_ids == det.class_id)) for det in dets)
        else:
            expected_rows = len(dets)
        diag = step(pool, frame, dets, config).diagnostics
        second_matches += len(diag.second_matches)
        matched = len(diag.first_matches) + len(diag.second_matches)
        assert calls[kernel] == 1 and kernel_rows == [expected_rows]
        assert calls["_measurement_stack"] == 1
        assert calls["update_arrays"] == (1 if matched else 0)
    assert (second_matches > 0) == (config.gate_second is not None)


@pytest.mark.parametrize("config", [CFG_2D, CFG_3D], ids=["2d", "3d"])
def test_in_place_frames_leave_earlier_outputs_unchanged(config):
    """Frames that spawn and remove nothing update the pool in place. The
    columns of an earlier FrameResult, of its diagnostics and of an earlier
    Tracker.output() must not change with it."""
    from motrack.tracker import Tracker

    def detections(f):
        # Four objects seen every frame, a fifth missed in frames 6-8 (lost,
        # within the buffer), and a low box that the second pass takes.
        # Scores change from frame to frame.
        score = 0.7 + 0.01 * f
        if config.mode is Mode.BOX_3D:
            dets = [det3d(10.0 * o + 0.5 * f, 5.0, score, velocity=(0.5, 0.0))
                    for o in range(5)]
            low = det3d(10.0 * 4 + 0.5 * f, 5.0, score=0.15, velocity=(0.5, 0.0))
        else:
            dets = [det2d(150.0 * o + 3.0 * f, 100.0, score=score) for o in range(5)]
            low = det2d(150.0 * 4 + 3.0 * f, 100.0, score=0.3)
        if 6 <= f <= 8:
            dets = dets[:4]
        elif f == 9:
            dets = dets[:4] + [low]
        return detection_frame(dets, config.mode)

    tracker = Tracker(config)
    for f in range(1, 4):
        tracker.step(detections(f), frame=f)
    held = tracker.step(detections(4), frame=4)
    held_columns = {name: getattr(held, name).copy() for name in _RESULT_FIELDS}
    held_diagnostics = {name: getattr(held.diagnostics, name).copy()
                        for name in _DIAGNOSTIC_FIELDS}
    early = tracker.output()
    early_columns = {name: getattr(early, name).copy()
                     for name in ("frames", "track_ids", "class_ids", "scores", "boxes")}
    ids = tracker.pool.ids

    lost = second = 0
    for f in range(5, 13):
        diag = tracker.step(detections(f), frame=f).diagnostics
        assert not diag.new_tracks and not diag.removed_track_ids
        lost += len(diag.lost_track_ids)
        second += len(diag.second_matches)
    assert tracker.pool.ids is ids  # every frame kept the pool's rows
    assert lost and second

    for name, value in held_columns.items():
        assert_bit_identical(getattr(held, name), value)
    for name, value in held_diagnostics.items():
        assert_bit_identical(getattr(held.diagnostics, name), value)
    for name, value in early_columns.items():
        assert_bit_identical(getattr(early, name), value)
