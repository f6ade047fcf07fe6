import dataclasses
import io
from pathlib import Path

import pytest

from motrack import formats
from motrack.association import Detection, Mode, MotionStrategy, TrackerConfig
from motrack.geometry import Box2D
from motrack.simulate import crossing_scenario, generate_scenario
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
from test_association import mixed_class_frames

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
        assert {f: len(v) for f, v in output.frames().items()} == {1: 2, 2: 1}
        assert output.slice_frames(2, 2).records == records[2:]


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
        assert default_config(Mode.BOX_3D).modality == "lidar"
