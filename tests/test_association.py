import dataclasses

import numpy as np
import pytest

from motrack import association
from motrack.association import (
    Detection,
    Mode,
    MotionStrategy,
    TrackerConfig,
    TrackPool,
    TrackStatus,
    predict_tracks,
    resolve_gate,
    split_detections,
    step,
)
from motrack.geometry import Box2D, Box3D, box3d_array, giou_3d, giou_3d_pairs
from motrack.motion import state_to_box
from motrack.simulate import (
    DropoutSpan,
    MotionSegment,
    ObjectSpec,
    OcclusionEvent,
    ScenarioSpec,
    generate_scenario,
)
from motrack.tracker import CLASS_IDS, default_config
from oracle_utils import giou_3d_pairs_clip


def det2d(x, y, w=50.0, h=100.0, score=0.9, class_id=0):
    return Detection(Box2D(x, y, x + w, y + h), score, class_id)


def det3d(x, y, score=0.9, velocity=None, theta=0.0, class_id=2):
    return Detection(Box3D(x, y, 0.8, theta, 4.5, 1.9, 1.6), score, class_id, velocity)


CFG_2D = TrackerConfig()
CFG_3D = default_config(Mode.BOX_3D)


class TestDetection:
    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            Detection(Box2D(0, 0, 1, 1), 1.2)

    def test_velocity_must_be_finite(self):
        with pytest.raises(ValueError):
            Detection(Box3D(0, 0, 0, 0, 1, 1, 1), 0.5, velocity=(np.inf, 0.0))


class TestConfig:
    def test_tau_range(self):
        with pytest.raises(ValueError):
            TrackerConfig(tau=1.5)
        with pytest.raises(ValueError):
            TrackerConfig(tau=0.0)

    def test_buffer_positive(self):
        with pytest.raises(ValueError):
            TrackerConfig(track_buffer=0)

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


class TestSplit:
    def test_paper_defaults(self):
        high, low = split_detections([det2d(0, 0, score=0.9), det2d(5, 5, score=0.3)], 0.6)
        assert [d.score for d in high] == [0.9]
        assert [d.score for d in low] == [0.3]

    def test_all_high(self):
        high, low = split_detections([det2d(0, 0, score=0.8)], 0.6)
        assert len(high) == 1 and low == []

    def test_exact_threshold_goes_low(self):
        high, low = split_detections([det2d(0, 0, score=0.6)], 0.6)
        assert high == [] and len(low) == 1

    def test_order_preserved(self):
        dets = [det2d(i, 0, score=s) for i, s in enumerate((0.9, 0.2, 0.8, 0.1))]
        high, low = split_detections(dets, 0.6)
        assert [d.box.x1 for d in high] == [0.0, 2.0]
        assert [d.box.x1 for d in low] == [1.0, 3.0]


class TestStepLifecycle:
    def test_stable_object_single_track(self):
        pool = TrackPool()
        for frame in range(1, 11):
            result = step(pool, frame, [det2d(100, 100)], CFG_2D)
            assert len(result.tracks) == 1
            assert result.tracks[0].track_id == 1
        assert pool.tracklets[0].status is TrackStatus.ACTIVE

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
        assert pool.tracklets == []

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
        assert pool.tracklets == []
        result = step(pool, 5, [det2d(100, 100)], config)
        assert result.tracks[0].track_id == 2

    def test_rebirth_within_buffer_keeps_id(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], CFG_2D)
        for frame in (2, 3, 4):
            result = step(pool, frame, [], CFG_2D)
            assert result.tracks == ()
            assert pool.tracklets[0].status is TrackStatus.LOST
        result = step(pool, 5, [det2d(100, 100)], CFG_2D)
        assert result.tracks[0].track_id == 1
        assert pool.tracklets[0].status is TrackStatus.ACTIVE

    def test_lost_invariant_frames_since_match(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], CFG_2D)
        step(pool, 2, [], CFG_2D)
        tracklet = pool.tracklets[0]
        assert tracklet.status is TrackStatus.LOST
        assert 0 < tracklet.frames_since_match <= CFG_2D.track_buffer

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
        config = dataclasses.replace(CFG_2D, second_pass=False)
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], config)
        result = step(pool, 2, [det2d(100, 100, score=0.3)], config)
        assert result.diagnostics.second_matches == ()
        assert result.diagnostics.discarded_low == (0,)
        assert pool.tracklets[0].status is TrackStatus.LOST

    def test_negative_giou_above_gate_still_matches(self):
        pool = TrackPool()
        step(pool, 1, [det3d(0.0, 0.0, velocity=(0.0, 0.0))], CFG_3D)
        # Offset enough that GIoU is negative but above the car gate of -0.1.
        shifted = det3d(0.0, 2.0, velocity=(0.0, 0.0))
        track_box = state_to_box(pool.tracklets[0].state)
        assert -0.1 < giou_3d(shifted.box, track_box) < 0.0
        result = step(pool, 2, [shifted], CFG_3D)
        assert result.diagnostics.first_matches == ((0, 1),)

    def test_lost_track_can_rebind_in_second_pass(self):
        # Lost tracks stay in the leftover pool, so a low-score detection can
        # revive them in the second association.
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100)], CFG_2D)
        step(pool, 2, [], CFG_2D)
        assert pool.tracklets[0].status is TrackStatus.LOST
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
        forward_box = state_to_box(
            predict_tracks(pool.tracklets, CFG_3D, [reappeared])[0].states[0]
        )
        gate = resolve_gate(CFG_3D.gate_first, reappeared.class_id)
        assert giou_3d(reappeared.box, forward_box) > gate
        result = step(pool, 16, [reappeared], CFG_3D)
        assert [t.track_id for t in result.tracks] == [1]

    def test_outputs_report_last_matched_score(self):
        pool = TrackPool()
        step(pool, 1, [det2d(100, 100, score=0.95)], CFG_2D)
        result = step(pool, 2, [det2d(100, 100, score=0.35)], CFG_2D)
        assert result.tracks[0].score == 0.35


class TestPredictTracks:
    def _pool_with_track(self, config, detection, frames=3):
        pool = TrackPool()
        for frame in range(1, frames + 1):
            step(pool, frame, [detection], config)
        return pool

    def test_kalman_only_uses_forward_boxes(self):
        pool = self._pool_with_track(CFG_2D, det2d(100, 100))
        prediction, backward = predict_tracks(pool.tracklets, CFG_2D, [det2d(100, 100)])
        assert prediction.wants_backward == (False,)
        assert backward[0] == det2d(100, 100).box
        assert prediction.match_boxes[0] == state_to_box(prediction.states[0])

    def test_detected_velocity_holds_last_box(self):
        config = dataclasses.replace(
            CFG_3D, motion_strategy=MotionStrategy.DETECTED_VELOCITY
        )
        pool = self._pool_with_track(config, det3d(0, 0, velocity=(1.0, 0.0)))
        last_box = pool.tracklets[0].box
        detection = det3d(3.0, 0.0, velocity=(1.0, 0.0))
        prediction, backward = predict_tracks(pool.tracklets, config, [detection])
        assert prediction.wants_backward == (True,)
        assert prediction.match_boxes[0] == last_box
        assert backward[0].x == 2.0  # current position minus detected velocity
        assert np.array_equal(prediction.states[0].mean, pool.tracklets[0].state.mean)

    def test_complementary_active_matches_detected_velocity(self):
        config_dv = dataclasses.replace(
            CFG_3D, motion_strategy=MotionStrategy.DETECTED_VELOCITY
        )
        detection = det3d(1.0, 0.0, velocity=(1.0, 0.0))
        pool_a = self._pool_with_track(CFG_3D, detection)
        pool_b = self._pool_with_track(config_dv, detection)
        next_det = det3d(2.0, 0.0, velocity=(1.0, 0.0))
        pred_comp, back_comp = predict_tracks(pool_a.tracklets, CFG_3D, [next_det])
        pred_dv, back_dv = predict_tracks(pool_b.tracklets, config_dv, [next_det])
        # All tracks active: the complementary strategy reduces to backward
        # prediction against last boxes, exactly like detected-velocity-only.
        assert pred_comp.wants_backward == pred_dv.wants_backward == (True,)
        assert back_comp[0] == back_dv[0]

    def test_complementary_lost_track_uses_forward_prediction(self):
        pool = self._pool_with_track(CFG_3D, det3d(0, 0, velocity=(1.0, 0.0)), frames=1)
        step(pool, 2, [], CFG_3D)  # track becomes lost
        prediction, _ = predict_tracks(pool.tracklets, CFG_3D, [])
        assert pool.tracklets[0].status is TrackStatus.LOST
        assert prediction.wants_backward == (False,)
        assert prediction.match_boxes[0] == state_to_box(prediction.states[0])

    def test_missing_velocity_falls_back_to_raw_box(self):
        pool = self._pool_with_track(CFG_3D, det3d(0, 0, velocity=(0.0, 0.0)))
        detection = det3d(5.0, 5.0, velocity=None)
        _, backward = predict_tracks(pool.tracklets, CFG_3D, [detection])
        assert backward[0] == detection.box


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
            assert a.diagnostics == b.diagnostics
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
            assert a.diagnostics == b.diagnostics
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

        def predict_spy(tracklets, config, detections):
            out = predict_tracks(tracklets, config, detections)
            predicted.append(([(t.track_id, t.class_id) for t in tracklets], out))
            return out

        monkeypatch.setattr(association, "giou_3d_pairs", kernel_spy)
        monkeypatch.setattr(association, "predict_tracks", predict_spy)
        pool = TrackPool()
        for frame, dets in enumerate(mixed_class_frames(seed), 1):
            scored.clear()
            predicted.clear()
            diag = step(pool, frame, dets, CFG_3D).diagnostics
            (tracks, (prediction, backward)), = predicted

            def key(box):
                return tuple(box3d_array([box])[0].tolist())

            det_of = {}
            for i, det in enumerate(dets):
                for box in (det.box, backward[i]):
                    det_of.setdefault(key(box), set()).add(i)
            track_of = {key(box): j for j, box in enumerate(prediction.match_boxes)}

            seen = []
            for det_row, track_row in scored:
                (i,) = det_of[det_row]
                j = track_of[track_row]
                assert dets[i].class_id == tracks[j][1], "cross-class pair scored"
                source = backward[i] if prediction.wants_backward[j] else dets[i].box
                assert det_row == key(source)
                seen.append((i, j))
            assert len(seen) == len(set(seen)), "a pair was scored twice"

            first_matched = {track_id for _, track_id in diag.first_matches}
            expected = set()
            for i, det in enumerate(dets):
                for j, (track_id, class_id) in enumerate(tracks):
                    if class_id != det.class_id:
                        continue
                    if det.score > CFG_3D.tau or track_id not in first_matched:
                        expected.add((i, j))
            assert set(seen) == expected
