import json
from dataclasses import replace

import pytest

from motrack.association import Mode, TrackPool
from motrack.metrics import clear_mot
from motrack.simulate import (
    DropoutSpan,
    MotionSegment,
    ObjectSpec,
    OcclusionEvent,
    ScenarioSpec,
    canonical_occlusion_scenario,
    clutter_suite,
    crossing_scenario,
    generate_scenario,
    motion_ablation_suite,
    scenario_from_dict,
    scenario_to_dict,
)
from motrack.tracker import run_sequence, validate_config
from oracle_utils import iou_2d, records_by_frame, trajectories
from test_association import step


# The tracker with the low-score association disabled: only boxes above tau
# are associated, and low-score boxes are dropped.
SINGLE_STAGE = replace(validate_config({"mode": "2d"}), second_pass=False)


def simple_spec(**overrides):
    base = dict(
        mode=Mode.BOX_2D,
        duration=12,
        world=(0.0, 0.0, 1920.0, 1080.0),
        objects=(
            ObjectSpec(start=(200.0, 300.0), size=(60.0, 120.0),
                       segments=(MotionSegment(20, 5.0, 0.0),)),
            ObjectSpec(start=(900.0, 600.0), size=(80.0, 160.0),
                       segments=(MotionSegment(20, -3.0, 1.0),)),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGeneration:
    def test_noise_free_detections_equal_gt(self):
        gt, frames = generate_scenario(simple_spec(), seed=1)
        assert len(frames) == 12
        gt_frames = records_by_frame(gt)
        for index, dets in enumerate(frames, start=1):
            assert [d.box for d in dets] == [r.box for r in gt_frames[index]]
            assert all(d.score == 0.95 for d in dets)

    def test_deterministic_for_fixed_seed(self):
        spec = simple_spec(position_noise=1.5, score_noise=0.05, clutter_rate=2.0,
                           miss_rate=0.1)
        gt_a, frames_a = generate_scenario(spec, seed=7)
        gt_b, frames_b = generate_scenario(spec, seed=7)
        assert gt_a.records == gt_b.records
        assert frames_a == frames_b

    def test_different_seed_differs(self):
        spec = simple_spec(position_noise=1.5)
        _, frames_a = generate_scenario(spec, seed=1)
        _, frames_b = generate_scenario(spec, seed=2)
        assert frames_a != frames_b

    def test_occlusion_span_dips_scores(self):
        spec = simple_spec(
            occlusions=(OcclusionEvent(object_index=0, first_frame=5, last_frame=8,
                                       score=0.3),)
        )
        _, frames = generate_scenario(spec, seed=0)
        for index, dets in enumerate(frames, start=1):
            expected = 0.3 if 5 <= index <= 8 else 0.95
            assert dets[0].score == expected

    def test_dropout_span_hides_object(self):
        spec = simple_spec(
            dropouts=(DropoutSpan(object_index=1, first_frame=4, last_frame=6),)
        )
        _, frames = generate_scenario(spec, seed=0)
        for index, dets in enumerate(frames, start=1):
            expected = 1 if 4 <= index <= 6 else 2
            assert len(dets) == expected

    def test_clutter_scores_in_range(self):
        spec = simple_spec(clutter_rate=3.0, clutter_scores=(0.1, 0.25))
        _, frames = generate_scenario(spec, seed=3)
        clutter = [d for dets in frames for d in dets[2:]]
        assert clutter
        assert all(0.1 <= d.score <= 0.25 for d in clutter)

    def test_3d_detections_carry_velocity(self):
        spec = ScenarioSpec(
            mode=Mode.BOX_3D,
            duration=6,
            world=(-60.0, -60.0, 60.0, 60.0),
            objects=(ObjectSpec(start=(0.0, 0.0, 0.8), size=(4.5, 1.9, 1.6),
                                segments=(MotionSegment(10, 2.0, 0.0),), class_id=2),),
        )
        _, frames = generate_scenario(spec, seed=0)
        for dets in frames:
            assert dets[0].velocity == (2.0, 0.0)

    def test_last_segment_extends_to_the_end(self):
        # Segments cover 3 of 12 frames: the last one's velocity carries on.
        obj = ObjectSpec(start=(200.0, 300.0), size=(60.0, 120.0),
                         segments=(MotionSegment(1, 0.0, 2.0), MotionSegment(2, 5.0, 0.0)))
        gt, _ = generate_scenario(simple_spec(objects=(obj,)), seed=0)
        traj = trajectories(gt)[1]
        steps = [(traj[f].box.x1 - traj[f - 1].box.x1, traj[f].box.y1 - traj[f - 1].box.y1)
                 for f in range(2, 13)]
        assert steps == [(0.0, 2.0)] + [(5.0, 0.0)] * 10

    def test_gt_velocity_consistent_with_motion(self):
        spec = simple_spec()
        gt, _ = generate_scenario(spec, seed=0)
        traj = trajectories(gt)[1]
        for frame in range(2, 13):
            assert traj[frame].box.x1 - traj[frame - 1].box.x1 == pytest.approx(5.0)


class TestValidation:
    def test_span_outside_duration_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(occlusions=(OcclusionEvent(0, 5, 99, 0.3),))

    def test_unknown_object_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(dropouts=(DropoutSpan(5, 1, 2),))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(clutter_rate=-1.0)

    def test_mode_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(mode=Mode.BOX_3D)

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            ObjectSpec(start=(0.0, 0.0), size=(10.0, 10.0), segments=())

    @pytest.mark.parametrize(("build", "message"), [
        (lambda: MotionSegment(0, 1.0, 0.0), "segment length must be at least one frame"),
        (lambda: ObjectSpec((0.0, 0.0), (1.0, 1.0, 1.0), (MotionSegment(1, 0.0, 0.0),)),
         "start/size must both be 2-D or both 3-D"),
        (lambda: OcclusionEvent(0, 1, 2, 1.5), "occlusion score must be in"),
        (lambda: OcclusionEvent(0, 3, 2, 0.3), "occlusion span is empty"),
        (lambda: DropoutSpan(0, 3, 2), "dropout span is empty"),
        (lambda: simple_spec(duration=0), "duration must be at least one frame"),
        (lambda: simple_spec(base_score=1.5), "base_score must be in"),
        (lambda: simple_spec(clutter_scores=(0.5, 0.2)), "clutter_scores must be an ordered"),
    ], ids=["segment", "start-size", "occlusion-score", "occlusion-span", "dropout-span",
            "duration", "base-score", "clutter-scores"])
    def test_spec_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestSerialization:
    def test_round_trip_through_json(self):
        spec, _ = canonical_occlusion_scenario()
        data = json.loads(json.dumps(scenario_to_dict(spec)))
        assert scenario_from_dict(data) == spec

    def test_round_trip_3d_suite(self):
        spec, _ = motion_ablation_suite(1)[0]
        assert scenario_from_dict(scenario_to_dict(spec)) == spec

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"mode": "2d"})


class TestOracleDetections:
    def test_clean_detections_track_perfectly(self):
        from motrack.metrics import idf1

        gt, frames = generate_scenario(simple_spec(duration=20), seed=0)
        pred = run_sequence(frames, {"mode": "2d"})
        report = clear_mot(gt, pred)
        assert report.mota == 1.0
        assert report.ids == 0
        assert idf1(gt, pred) == 1.0


class TestBaseline:
    def test_identical_without_low_scores(self):
        _, frames = generate_scenario(simple_spec(), seed=0)
        two_stage = run_sequence(frames, {"mode": "2d"})
        single = run_sequence(frames, SINGLE_STAGE)
        assert two_stage.records == single.records

    def test_occlusion_scenario_splits_the_trackers(self):
        spec, seed = canonical_occlusion_scenario()
        gt, frames = generate_scenario(spec, seed)
        two_stage = clear_mot(gt, run_sequence(frames, {"mode": "2d"}))
        single = clear_mot(gt, run_sequence(frames, SINGLE_STAGE))
        assert two_stage.fn == 0
        assert single.fn >= 5


class TestSecondPassQuality:
    def test_kept_low_boxes_are_mostly_true_objects(self):
        spec, seed = clutter_suite(1)[0]
        gt, frames = generate_scenario(spec, seed)
        gt_frames = records_by_frame(gt)
        config = validate_config({"mode": "2d"})
        pool = TrackPool()

        def is_true_positive(frame, det):
            return any(iou_2d(det.box, rec.box) >= 0.5 for rec in gt_frames[frame])

        pool_tp = pool_total = kept_tp = kept_total = 0
        for frame, dets in enumerate(frames, start=1):
            result = step(pool, frame, dets, config)
            low = [i for i, d in enumerate(dets) if d.score <= config.tau]
            kept = [i for i, _ in result.diagnostics.second_matches]
            for i in low:
                pool_total += 1
                pool_tp += is_true_positive(frame, dets[i])
            for i in kept:
                kept_total += 1
                kept_tp += is_true_positive(frame, dets[i])
        assert pool_total > 0 and kept_total > 0
        assert kept_tp / kept_total > pool_tp / pool_total


class TestMonotoneRecovery:
    def test_second_pass_only_adds_recovered_objects(self):
        # Every ground-truth box the single-stage tracker recovers is also
        # recovered when the low-score association is enabled.
        def recovered(gt, pred):
            pred_frames = records_by_frame(pred)
            found = set()
            for rec in gt.records:
                boxes = pred_frames.get(rec.frame, [])
                if any(iou_2d(rec.box, p.box) >= 0.5 for p in boxes):
                    found.add((rec.frame, rec.track_id))
            return found

        for spec, seed in clutter_suite(6):
            gt, frames = generate_scenario(spec, seed)
            two_stage = run_sequence(frames, {"mode": "2d"})
            single = run_sequence(frames, SINGLE_STAGE)
            assert recovered(gt, single) <= recovered(gt, two_stage)


class TestSuites:
    def test_clutter_suite_shape(self):
        suite = clutter_suite(4)
        assert len(suite) == 4
        seeds = [seed for _, seed in suite]
        assert len(set(seeds)) == 4
        for spec, _ in suite:
            assert spec.clutter_rate > 0
            assert spec.occlusions

    def test_crossing_scenario_paths_cross(self):
        spec, seed = crossing_scenario()
        gt, _ = generate_scenario(spec, seed)
        traj = trajectories(gt)
        first = traj[1][1].box.x1 - traj[2][1].box.x1
        last = traj[1][spec.duration].box.x1 - traj[2][spec.duration].box.x1
        assert first < 0 < last

    def test_motion_suite_has_turns_and_dropouts(self):
        for spec, _ in motion_ablation_suite(2):
            assert spec.dropouts
            assert any(len(obj.segments) > 1 for obj in spec.objects)
