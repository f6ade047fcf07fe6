import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import formats
from motrack.association import Detection, Mode, MotionStrategy, TrackerConfig
from motrack.geometry import Box2D
from motrack.simulate import crossing_scenario, generate_scenario, motion_ablation_suite
from motrack.tracker import (
    CLASS_IDS,
    DEFAULT_CLASS_GATES,
    TrackOutput,
    TrackRecord,
    Tracker,
    default_config,
    run_sequence,
    validate_config,
)
from oracle_utils import records_by_frame
from test_association import detection_streams, mixed_class_frames

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_crossing.txt"


def det(x, y, score=0.9):
    return Detection(Box2D(x, y, x + 60, y + 120), score)


class TestRunSequence:
    def test_empty_stream(self):
        output = run_sequence([], {"mode": "2d"})
        assert output.records == ()
        assert output.n_frames == 0

    def test_single_frame_ids_count_up(self):
        output = run_sequence([[det(0, 0), det(300, 0), det(600, 0)]], {"mode": "2d"})
        assert [r.track_id for r in output.records] == [1, 2, 3]
        assert all(r.frame == 1 for r in output.records)

    def test_error_carries_frame_context(self):
        from motrack.geometry import Box3D

        frames = [[det(0, 0)], [Detection(Box3D(0, 0, 0, 0, 1, 1, 1), 0.9)]]
        with pytest.raises(ValueError, match="frame 2"):
            run_sequence(frames, {"mode": "2d"})

    def test_golden_crossing_trace(self):
        spec, seed = crossing_scenario()
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "2d"})
        buf = io.StringIO()
        formats.write_mot_results(output, buf)
        assert buf.getvalue() == GOLDEN.read_text()

    @pytest.mark.parametrize("strategy", list(MotionStrategy), ids=lambda s: s.value)
    def test_golden_mixed_3d_trace(self, strategy):
        config = dataclasses.replace(default_config(Mode.BOX_3D), motion_strategy=strategy)
        output = run_sequence(mixed_class_frames(1), config)
        buf = io.StringIO()
        formats.write_3d_results(output, buf)
        golden = DATA / f"golden_mixed_3d_{strategy.value}.txt"
        assert buf.getvalue() == golden.read_text()

    def test_config_snapshot_replays_exactly(self):
        spec, seed = crossing_scenario()
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "2d", "tau": 0.5})
        replayed = run_sequence(frames, output.config)
        assert replayed.records == output.records

    def test_tracker_step_counts_frames(self):
        tracker = Tracker({"mode": "2d"})
        tracker.step([det(0, 0)])
        tracker.step([det(2, 0)])
        output = tracker.output()
        assert output.n_frames == 2
        assert output.mode is Mode.BOX_2D
        assert [(r.frame, r.track_id) for r in output.records] == [(1, 1), (2, 1)]


class TestTrackOutput:
    def test_duplicate_frame_id_rejected(self):
        box = Box2D(0, 0, 1, 1)
        records = (TrackRecord(1, 1, box, 0.9), TrackRecord(1, 1, box, 0.8))
        with pytest.raises(ValueError):
            TrackOutput(records, Mode.BOX_2D, 1)

    def test_decreasing_frames_rejected(self):
        box = Box2D(0, 0, 1, 1)
        records = (TrackRecord(2, 1, box, 0.9), TrackRecord(1, 1, box, 0.8))
        with pytest.raises(ValueError):
            TrackOutput(records, Mode.BOX_2D, 2)

    def test_grouping_helpers(self):
        box = Box2D(0, 0, 1, 1)
        records = (
            TrackRecord(1, 1, box, 0.9),
            TrackRecord(1, 2, box, 0.8),
            TrackRecord(2, 1, box, 0.7),
        )
        output = TrackOutput(records, Mode.BOX_2D, 2)
        assert {f: len(v) for f, v in records_by_frame(output).items()} == {1: 2, 2: 1}
        assert output.slice_frames(2, 2).records == records[2:]


_POOL_ARRAYS = ("means", "covs", "ids", "class_ids", "active", "frames_since_match", "last_score")


def assert_same_pool(a, b):
    for name in _POOL_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.next_id, a.last_frame) == (b.next_id, b.last_frame)


def assert_same_result(a, b, removed_before=()):
    """Equal results, with a's removals preceded by the given skipped-frame ones."""
    assert a.frame == b.frame
    removed = np.array([*removed_before, *b.diagnostics.removed_ids.tolist()], dtype=np.int64)
    assert a.diagnostics == dataclasses.replace(b.diagnostics, removed_ids=removed)
    for name in ("track_ids", "class_ids", "scores", "boxes"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@settings(max_examples=80, deadline=None)
@given(stream=detection_streams(), data=st.data())
def test_frame_gap_equals_stepping_empty_frames(stream, data):
    """Jumping g frames ahead is g - 1 empty steps followed by the step, and
    the jump reports every track the empty steps removed."""
    config, frames = stream
    gaps = data.draw(st.lists(st.integers(1, 7), min_size=len(frames), max_size=len(frames)))
    numbers = np.cumsum(gaps).tolist()
    gapped, explicit = Tracker(config), Tracker(config)
    gapped_removed = []
    for number, detections in zip(numbers, frames):
        skipped_removed = []
        for empty in range(explicit.pool.last_frame + 1, number):
            skipped_removed += explicit.step([], frame=empty).diagnostics.removed_track_ids
        got, want = gapped.step(detections, frame=number), explicit.step(detections, frame=number)
        assert_same_result(got, want, skipped_removed)
        assert_same_pool(gapped.pool, explicit.pool)
        gapped_removed += got.diagnostics.removed_track_ids
    assert len(set(gapped_removed)) == len(gapped_removed)
    a, b = gapped.output(), explicit.output()
    for name in ("frames", "track_ids", "class_ids", "scores", "boxes"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.n_frames == b.n_frames


def test_huge_frame_gap_is_bounded(monkeypatch):
    """Only track_buffer + 1 skipped frames do work: the jump to frame 10**9
    predicts that many times plus once for the frame itself."""
    from motrack import motion

    spec, seed = crossing_scenario()
    _, frames = generate_scenario(spec, seed)
    config = validate_config({"mode": "2d"})
    gapped, explicit = Tracker(config), Tracker(config)
    for detections in frames[:10]:
        gapped.step(detections)
        explicit.step(detections)
    assert len(gapped.pool.ids) > 0
    removed = []
    for _ in range(config.track_buffer + 1):
        removed += explicit.step([]).diagnostics.removed_track_ids
    assert len(explicit.pool.ids) == 0

    predicts = []
    original = motion.predict_arrays
    monkeypatch.setattr(motion, "predict_arrays",
                        lambda *args: predicts.append(1) or original(*args))
    result = gapped.step(frames[10], frame=10**9)
    monkeypatch.undo()
    assert len(predicts) == config.track_buffer + 2
    assert_same_result(result, explicit.step(frames[10], frame=10**9), removed)
    assert_same_pool(gapped.pool, explicit.pool)


@pytest.mark.parametrize("mode", ["2d", "3d"])
def test_columns_build_no_record_objects(monkeypatch, mode):
    """Parsing, stepping, output, writing and every metric run on columns:
    no Detection, TrackRecord or box object is constructed on the way."""
    from motrack import association, geometry, metrics

    if mode == "2d":
        gt, frames = generate_scenario(*crossing_scenario())
        write, parse, parse_results = (formats.write_mot_results, formats.parse_mot_detections,
                                       formats.parse_mot_results)
    else:
        gt, frames = generate_scenario(*motion_ablation_suite(1)[0])
        write, parse, parse_results = (formats.write_3d_results, formats.parse_3d_detections,
                                       formats.parse_3d_results)
    det_text, gt_text = io.StringIO(), io.StringIO()
    formats.write_detections(frames, Mode(mode), det_text)
    write(gt, gt_text)

    built = []
    for cls in (association.Detection, association.TrackRecord, geometry.Box2D, geometry.Box3D):
        def spy(self, *args, __init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            __init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)

    tracker = Tracker({"mode": mode})
    for detections in parse(det_text.getvalue()):
        tracker.step(detections)
    output = tracker.output()
    write(output, io.StringIO())
    truth = parse_results(gt_text.getvalue())
    metrics.clear_mot(truth, output)
    metrics.idf1(truth, output)
    metrics.amota(truth, output)
    assert built == []
    assert len(output.records) == len(output.track_ids) > 0  # built on demand
    assert set(built) == {"TrackRecord", "Box2D" if mode == "2d" else "Box3D"}


class TestValidateConfig:
    def test_2d_defaults(self):
        config = validate_config({"mode": "2d"})
        assert config.tau == 0.6
        assert config.gate_first == 0.2
        assert config.gate_second == 0.2
        assert config.track_buffer == 30
        assert config.motion_strategy is MotionStrategy.KALMAN
        assert config.adaptive_r is False

    def test_3d_lidar_defaults(self):
        config = validate_config({"mode": "3d"})
        assert config.tau == 0.2
        assert config.alpha == 10.0
        assert config.adaptive_r is True
        assert config.motion_strategy is MotionStrategy.COMPLEMENTARY
        for name, gate in DEFAULT_CLASS_GATES.items():
            assert config.gate_first[CLASS_IDS[name]] == gate
        assert config.gate_first[-1] == -0.5

    def test_3d_camera_defaults(self):
        config = validate_config({"mode": "3d", "modality": "camera"})
        assert config.tau == 0.25
        assert config.alpha == 100.0

    def test_out_of_range_tau_rejected(self):
        with pytest.raises(ValueError):
            validate_config({"mode": "2d", "tau": 1.5})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            validate_config({"mode": "2d", "speed": 11})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            validate_config({"mode": "4d"})

    def test_motion_string_coerced(self):
        config = validate_config({"mode": "3d", "motion_strategy": "dv"})
        assert config.motion_strategy is MotionStrategy.DETECTED_VELOCITY

    def test_overrides_stick(self):
        config = validate_config({"mode": "2d", "tau": 0.45, "track_buffer": 10})
        assert config.tau == 0.45
        assert config.track_buffer == 10

    def test_passthrough_of_built_config(self):
        config = TrackerConfig(tau=0.7)
        assert validate_config(config) is config

    def test_default_config_modality(self):
        assert default_config(Mode.BOX_3D, "camera").tau == 0.25
        assert default_config(Mode.BOX_3D) == default_config(Mode.BOX_3D, "lidar")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            validate_config({"mode": "3d", "alpha": -1.0})

    def test_alpha_needs_adaptive_scaling(self):
        with pytest.raises(ValueError, match="adaptive_r"):
            validate_config({"mode": "2d", "alpha": 10.0})
        with pytest.raises(ValueError, match="adaptive_r"):
            validate_config({"mode": "3d", "alpha": 5.0, "adaptive_r": False})
        assert validate_config({"mode": "2d", "alpha": 10.0, "adaptive_r": True}).alpha == 10.0
        assert validate_config({"mode": "3d", "alpha": 5.0}).alpha == 5.0
        # Turning scaling off without naming alpha keeps the profile's value.
        assert validate_config({"mode": "3d", "adaptive_r": False}).alpha == 10.0

    def test_noise_key_rejected(self):
        # The noise scales are constants; alpha and adaptive_r are the only knobs.
        with pytest.raises(ValueError, match="unknown config keys: \\['noise'\\]"):
            validate_config({"mode": "3d", "noise": {"alpha": 5.0, "adaptive": False}})

    def test_modality_only_picks_defaults(self):
        assert "modality" not in TrackerConfig.__dataclass_fields__
        with pytest.raises(ValueError, match="unknown modality"):
            validate_config({"mode": "3d", "modality": "radar"})
