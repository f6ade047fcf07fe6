import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import formats
from motrack.association import Detection, Mode, MotionStrategy, TrackerConfig
from motrack.geometry import MAX_3D_MAGNITUDE, MAX_ALPHA, Box2D, Box3D
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
from oracle_utils import detection_frame, output_of, records_by_frame, slice_frames
from test_association import detection_streams, diagnostic_tuples, mixed_class_frames

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_crossing.txt"


def det(x, y, score=0.9):
    return Detection(Box2D(x, y, x + 60, y + 120), score)


def frame_2d(*detections):
    return detection_frame(detections, Mode.BOX_2D)


class TestRunSequence:
    def test_empty_stream(self):
        output = run_sequence([], {"mode": "2d"})
        assert output.records == ()
        assert output.n_frames == 0

    def test_single_frame_ids_count_up(self):
        output = run_sequence([frame_2d(det(0, 0), det(300, 0), det(600, 0))], {"mode": "2d"})
        assert [r.track_id for r in output.records] == [1, 2, 3]
        assert all(r.frame == 1 for r in output.records)

    def test_error_carries_frame_context(self):
        from motrack.geometry import Box3D

        frames = [frame_2d(det(0, 0)), frame_2d(Detection(Box3D(0, 0, 0, 0, 1, 1, 1), 0.9))]
        with pytest.raises(ValueError, match="frame 2"):
            run_sequence(frames, {"mode": "2d"})

    def test_huge_2d_boxes_keep_their_ids(self):
        # Valid boxes near +-1.7e308: their centers must not overflow, and
        # the gap between them overflows to no overlap, without a warning
        # (RuntimeWarnings are errors under the test configuration).
        left, right = Box2D(-1.7e308, 0, -1.6e308, 1), Box2D(1.6e308, 0, 1.7e308, 1)
        frames = [frame_2d(Detection(left, 0.9), Detection(right, 0.9))] * 3
        output = run_sequence(frames, {"mode": "2d"})
        assert [(r.frame, r.track_id) for r in output.records] == [
            (f, i) for f in (1, 2, 3) for i in (1, 2)]

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
        tracker.step(frame_2d(det(0, 0)))
        tracker.step(frame_2d(det(2, 0)))
        output = tracker.output()
        assert output.n_frames == 2
        assert output.mode is Mode.BOX_2D
        assert [(r.frame, r.track_id) for r in output.records] == [(1, 1), (2, 1)]


def random_output(mode, n):
    """An n-row output of random boxes, one row per frame."""
    rng = np.random.default_rng(0)
    if mode is Mode.BOX_2D:
        corners = rng.uniform(0.0, 1000.0, (n, 2))
        boxes = np.hstack((corners, corners + rng.uniform(1.0, 100.0, (n, 2))))
    else:
        boxes = np.column_stack((rng.uniform(-50.0, 50.0, (n, 3)), rng.uniform(-3.0, 3.0, n),
                                 rng.uniform(0.5, 5.0, (n, 3))))
    return TrackOutput(np.arange(1, n + 1), np.ones(n, dtype=np.int64),
                       np.zeros(n, dtype=np.int64), rng.uniform(0.0, 1.0, n), boxes, mode, n)


# Traced bytes per record when every record of an output is kept: about 376
# (2D) and 480 (3D) with plain box views, 440 and 544 when each box also
# builds a dict of its fields. The bounds lie between.
@pytest.mark.parametrize("mode, bound", [(Mode.BOX_2D, 408), (Mode.BOX_3D, 512)],
                         ids=["2d", "3d"])
def test_records_memory_per_row(mode, bound):
    n = 20_000
    output = random_output(mode, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = tuple(output.records)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(records) == n
    assert per_row < bound


def test_records_iterate_in_bounded_memory():
    """Iterating every record of a 20,000-row output, keeping none, holds one
    batch of rows at a time: the traced peak stays under 1 MB, where building
    all the rows at once peaks at about 10 MB."""
    n = 20_000
    output = random_output(Mode.BOX_2D, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        count = sum(1 for _ in output.records)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    print(f"\niterating {count} records: traced peak {peak / 1e6:.3f} MB")
    assert count == n
    assert peak < 1_000_000


def view_owner(name, mode, filled):
    """What holds the view name: a frame of 5 detections (none if not
    filled), the FrameResult of stepping it a second time, or the output of
    those two steps."""
    n = 5 if filled else 0
    if mode is Mode.BOX_2D:
        detections = [det(300 * k, 0) for k in range(n)]
    else:
        detections = [Detection(Box3D(10.0 * k, 0.0, 0.0, 0.5 * k, 4.0, 2.0, 1.5), 0.9, k % 3,
                                (1.0, 0.5) if k % 2 else None) for k in range(n)]
    frame = detection_frame(detections, mode)
    if name == "detections":
        return frame
    tracker = Tracker(default_config(mode))
    tracker.step(frame)
    result = tracker.step(frame)
    return result if name == "tracks" else tracker.output()


def expected_rows(name, owner):
    """The rows of owner's view name as a tuple, built from its columns."""
    box = Box3D if owner.boxes.shape[1] == 7 else Box2D
    rows = owner.boxes.tolist()
    if name == "detections":
        return tuple(Detection(box(*row), score, class_id, tuple(velocity) if has else None)
                     for row, score, class_id, velocity, has in zip(
                         rows, owner.scores.tolist(), owner.class_ids.tolist(),
                         owner.velocities.tolist(), owner.has_velocity.tolist()))
    frames = owner.frames.tolist() if name == "records" else [owner.frame] * len(rows)
    return tuple(TrackRecord(frame, track_id, box(*row), score, class_id)
                 for frame, track_id, row, score, class_id in zip(
                     frames, owner.track_ids.tolist(), rows, owner.scores.tolist(),
                     owner.class_ids.tolist()))


@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("mode", [Mode.BOX_2D, Mode.BOX_3D], ids=["2d", "3d"])
@pytest.mark.parametrize("name", ["records", "tracks", "detections"])
def test_row_view_contract(monkeypatch, name, mode, filled):
    """records, tracks and detections are read-only sequences of their rows:
    batched iteration, indexing and slicing agree with the tuple of the rows,
    and a view equals that tuple or another view of them, and hashes not."""
    from motrack import association

    monkeypatch.setattr(association, "_VIEW_ROWS", 2)  # iteration crosses batches
    owner = view_owner(name, mode, filled)
    view, expected = getattr(owner, name), expected_rows(name, owner)
    n = len(expected)
    assert n == ((10 if name == "records" else 5) if filled else 0)
    assert len(view) == n
    assert bool(view) is filled
    assert tuple(view) == expected
    assert [view[i] for i in range(-n, n)] == list(expected + expected)
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            view[index]
    for part in (slice(None), slice(1, 4), slice(-3, None), slice(None, None, -2),
                 slice(3, 1), slice(n + 2, n + 4)):
        assert type(view[part]) is tuple
        assert view[part] == expected[part]
    assert view == expected and expected == view
    other = getattr(owner, name)
    assert other is not view and view == other
    assert (view != ()) is filled and (() != view) is filled
    if filled:
        assert view != expected[:-1] and view != expected[1:] + expected[:1]
        assert view != getattr(view_owner(name, mode, False), name)
    assert view != list(expected)
    with pytest.raises(TypeError):
        hash(view)


class TestTrackOutput:
    def test_duplicate_frame_id_rejected(self):
        box = Box2D(0, 0, 1, 1)
        records = (TrackRecord(1, 1, box, 0.9), TrackRecord(1, 1, box, 0.8))
        with pytest.raises(ValueError):
            output_of(records, Mode.BOX_2D, 1)

    def test_decreasing_frames_rejected(self):
        box = Box2D(0, 0, 1, 1)
        records = (TrackRecord(2, 1, box, 0.9), TrackRecord(1, 1, box, 0.8))
        with pytest.raises(ValueError):
            output_of(records, Mode.BOX_2D, 2)

    def test_unequal_columns_rejected(self):
        # Two frames and ids but one class id and score: zip-based writers
        # would emit one line for the two rows.
        with pytest.raises(ValueError, match=re.escape(
                "class_ids must have shape (2,) for 2 boxes, got (1,)")):
            TrackOutput(np.array([1, 2]), np.array([1, 1]), np.array([0]), np.array([0.9]),
                        np.zeros((2, 4)), Mode.BOX_2D, 2)
        with pytest.raises(ValueError, match=re.escape(
                "scores must have shape (2,) for 2 boxes, got (3,)")):
            TrackOutput(np.array([1, 2]), np.array([1, 1]), np.array([0, 0]), np.ones(3),
                        np.zeros((2, 4)), Mode.BOX_2D, 2)

    @pytest.mark.parametrize("mode, shape", [(Mode.BOX_2D, (2, 7)), (Mode.BOX_2D, (1, 4)),
                                             (Mode.BOX_3D, (2, 4)), (Mode.BOX_3D, (14,))])
    def test_boxes_of_the_wrong_shape_rejected(self, mode, shape):
        width = 7 if mode is Mode.BOX_3D else 4
        message = (f"frames must have shape (1,) for 1 boxes, got (2,)" if shape == (1, 4)
                   else f"boxes must be rows of width {width}, got shape {shape}")
        with pytest.raises(ValueError, match=re.escape(message)):
            TrackOutput(np.array([1, 2]), np.array([1, 1]), np.array([0, 0]), np.ones(2),
                        np.zeros(shape), mode, 2)

    @pytest.mark.parametrize("frames, message", [([1, 5], "frames must lie in [1, 2], got 5"),
                                                 ([0, 1], "frames must lie in [1, 2], got 0")])
    def test_frames_outside_the_sequence_rejected(self, frames, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrackOutput(np.array(frames), np.array([1, 1]), np.array([0, 0]), np.ones(2),
                        np.zeros((2, 4)), Mode.BOX_2D, 2)

    @pytest.mark.parametrize("name", ["frames", "track_ids", "class_ids"])
    @pytest.mark.parametrize("dtype", [float, bool])
    def test_non_integer_columns_rejected(self, name, dtype):
        columns = {"frames": np.array([1]), "track_ids": np.array([1]),
                   "class_ids": np.array([0])}
        columns[name] = columns[name].astype(dtype)
        with pytest.raises(ValueError, match=f"{name} must have an integer dtype"):
            TrackOutput(columns["frames"], columns["track_ids"], columns["class_ids"],
                        np.ones(1), np.zeros((1, 4)), Mode.BOX_2D, 1)

    def test_fractional_track_id_rejected(self):
        # The evaluators would score an id of 1.5 against itself as a
        # perfect match.
        with pytest.raises(ValueError, match="track_ids must have an integer dtype, got float64"):
            TrackOutput(np.array([1]), np.array([1.5]), np.array([0]), np.ones(1),
                        np.zeros((1, 4)), Mode.BOX_2D, 1)

    @pytest.mark.parametrize("row", [[np.nan, 0.0, 10.0, 10.0], [10.0, 0.0, 0.0, 10.0]],
                             ids=["nan", "inverted"])
    def test_bad_2d_boxes_rejected(self, row):
        # clear_mot would score such a row against itself as an unmatched
        # pair: FP 1, FN 1, MOTA -1.
        with pytest.raises(ValueError, match="boxes"):
            TrackOutput(np.array([1]), np.array([1]), np.array([0]), np.ones(1),
                        np.array([row]), Mode.BOX_2D, 1)

    def test_grouping_helpers(self):
        box = Box2D(0, 0, 1, 1)
        records = (
            TrackRecord(1, 1, box, 0.9),
            TrackRecord(1, 2, box, 0.8),
            TrackRecord(2, 1, box, 0.7),
        )
        output = output_of(records, Mode.BOX_2D, 2)
        assert {f: len(v) for f, v in records_by_frame(output).items()} == {1: 2, 2: 1}
        assert slice_frames(output, 2, 2).records == records[2:]


_POOL_ARRAYS = ("means", "covs", "ids", "class_ids", "active", "frames_since_match", "last_score")


def assert_same_pool(a, b):
    for name in _POOL_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.next_id, a.last_frame) == (b.next_id, b.last_frame)


def assert_same_result(a, b, removed_before=()):
    """Equal results, with a's removals preceded by the given skipped-frame ones."""
    assert a.frame == b.frame
    removed = np.array([*removed_before, *b.diagnostics.removed_ids.tolist()], dtype=np.int64)
    assert diagnostic_tuples(a.diagnostics) == diagnostic_tuples(
        dataclasses.replace(b.diagnostics, removed_ids=removed))
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
            skipped_removed += explicit.step(detection_frame((), config.mode),
                                             frame=empty).diagnostics.removed_track_ids
        detections = detection_frame(detections, config.mode)
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
        removed += explicit.step(detection_frame((), config.mode)).diagnostics.removed_track_ids
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


def test_empty_frames_keep_no_rows():
    """Only frames that emit rows keep any: 1000 empty frames after a tracked
    sequence leave the rows, and so the output's columns, as they were."""
    spec, seed = crossing_scenario()
    _, frames = generate_scenario(spec, seed)
    tracker = Tracker({"mode": "2d"})
    for detections in frames:
        tracker.step(detections)
    before, kept = tracker.output(), len(tracker._rows)
    assert 0 < kept <= len(frames)
    for _ in range(1000):
        tracker.step(detection_frame((), Mode.BOX_2D))
    assert len(tracker._rows) == kept
    after = tracker.output()
    for name in ("frames", "track_ids", "class_ids", "scores", "boxes"):
        assert np.array_equal(getattr(after, name), getattr(before, name)), name
    assert after.n_frames == before.n_frames + 1000


@pytest.mark.parametrize("mode", ["2d", "3d"])
def test_columns_build_no_record_objects(monkeypatch, mode):
    """Parsing, stepping, output, writing and every metric run on columns:
    no Detection, TrackRecord or box object is constructed on the way, nor by
    the len of a view; listing the records builds one record and box each."""
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
    for frame in parse(det_text.getvalue()):
        result = tracker.step(frame)
    output = tracker.output()
    write(output, io.StringIO())
    truth = parse_results(gt_text.getvalue())
    metrics.clear_mot(truth, output)
    metrics.idf1(truth, output)
    metrics.amota(truth, output)
    assert built == []
    # The views' len builds nothing; iterating one builds its rows.
    assert [len(output.records), len(result.tracks), len(frame.detections)] == [
        len(output.track_ids), len(result.track_ids), len(frame)]
    assert built == []
    n = len(list(output.records))
    box = "Box2D" if mode == "2d" else "Box3D"
    assert n == len(output.track_ids) > 0
    assert sorted(built) == sorted(["TrackRecord", box] * n)


class TestValidateConfig:
    def test_2d_defaults(self):
        config = validate_config({"mode": "2d"})
        assert config.tau == 0.6
        assert config.gate_first == 0.2
        assert config.gate_second == 0.2
        assert config.track_buffer == 30
        assert config.motion_strategy is MotionStrategy.KALMAN
        assert config.alpha is None

    def test_3d_lidar_defaults(self):
        config = validate_config({"mode": "3d"})
        assert config.tau == 0.2
        assert config.alpha == 10.0
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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            validate_config({"mode": "3d", "alpha": alpha})

    def test_alpha_past_bound_rejected(self):
        # At the bound's parent this config overflowed in the Kalman update of
        # a 100 x 100 track matched by a score-0.3 detection.
        with pytest.raises(ValueError, match=re.escape(f"alpha must be at most {MAX_ALPHA!r}")):
            TrackerConfig(alpha=1e308)

    def test_alpha_at_bound_updates_largest_box_cleanly(self):
        """The noise of a height-MAX_3D_MAGNITUDE box scored 0 at alpha =
        MAX_ALPHA stays finite through the second-pass update."""
        tracker = Tracker(TrackerConfig(alpha=MAX_ALPHA))
        box = Box2D(0.0, 0.0, MAX_3D_MAGNITUDE, MAX_3D_MAGNITUDE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tracker.step(detection_frame([Detection(box, 0.9)], Mode.BOX_2D))
            result = tracker.step(detection_frame([Detection(box, 0.0)], Mode.BOX_2D))
        assert result.diagnostics.second_matches == ((0, 1),)
        assert np.isfinite(tracker.pool.means).all() and np.isfinite(tracker.pool.covs).all()

    def test_non_finite_scalar_gate_rejected(self):
        with pytest.raises(ValueError, match="gate_first must be finite"):
            TrackerConfig(gate_first=math.inf)

    def test_non_integer_track_buffer_rejected(self):
        with pytest.raises(ValueError, match="track_buffer must be an integer, got 2.5"):
            validate_config({"mode": "2d", "track_buffer": 2.5})
        assert validate_config({"mode": "2d", "track_buffer": np.int64(3)}).track_buffer == 3

    def test_string_tau_rejected(self):
        with pytest.raises(ValueError, match="tau must be a real number, got '0.5'"):
            validate_config({"mode": "2d", "tau": "0.5"})
        with pytest.raises(ValueError, match="tau must be a real number, got '0.5'"):
            TrackerConfig(tau="0.5")
        with pytest.raises(ValueError, match="tau must be a real number, got True"):
            TrackerConfig(tau=True)

    def test_string_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha must be a real number, got '5'"):
            validate_config({"mode": "2d", "alpha": "5"})
        assert validate_config({"mode": "2d", "alpha": 5}).alpha == 5

    def test_string_gates_rejected(self):
        with pytest.raises(ValueError, match="gate_first must be a real number, got '0.1'"):
            validate_config({"mode": "2d", "gate_first": "0.1"})
        with pytest.raises(ValueError, match=re.escape("gate_second[2] must be a real number, "
                                                       "got '0.1'")):
            validate_config({"mode": "3d", "gate_second": {2: "0.1", -1: -0.5}})
        with pytest.raises(ValueError, match="gate_first must be a real number, got False"):
            validate_config({"mode": "2d", "gate_first": False})
        assert validate_config({"mode": "2d", "gate_first": np.float32(0.25)}).gate_first == (
            np.float32(0.25))

    def test_bool_track_buffer_rejected(self):
        with pytest.raises(ValueError, match="track_buffer must be an integer, got True"):
            validate_config({"mode": "2d", "track_buffer": True})

    def test_nan_per_class_gate_rejected(self):
        with pytest.raises(ValueError, match="gate_first values must be finite"):
            validate_config({"mode": "3d", "gate_first": {0: math.nan}})
        options = formats.parse_config_text("mode = 3d\ngate_second.car = nan\n")
        with pytest.raises(ValueError, match="gate_second values must be finite"):
            validate_config(options)

    def test_mode_named_on_config(self):
        # The mode is coerced on TrackerConfig itself, so a 3D step works.
        config = TrackerConfig(mode="3D", tau=0.2, gate_first=-0.5, gate_second=-0.5)
        assert config.mode is Mode.BOX_3D
        result = Tracker(config).step(
            detection_frame([Detection(Box3D(0, 0, 0, 0, 4, 2, 1.5), 0.9)], Mode.BOX_3D))
        assert result.track_ids.tolist() == [1]
        with pytest.raises(ValueError, match=re.escape("unknown mode '4d'; expected one of "
                                                       "['2d', '3d']")):
            TrackerConfig(mode="4d")

    def test_motion_strategy_named_on_config(self):
        config = TrackerConfig(mode=Mode.BOX_3D, motion_strategy="dv")
        assert config.motion_strategy is MotionStrategy.DETECTED_VELOCITY
        replaced = dataclasses.replace(default_config(Mode.BOX_3D), motion_strategy="KF")
        assert replaced.motion_strategy is MotionStrategy.KALMAN
        with pytest.raises(ValueError, match="unknown motion strategy 'warp'"):
            validate_config({"mode": "3d", "motion_strategy": "warp"})

    @pytest.mark.parametrize("name", ["alpha", "gate_second"])
    def test_none_switches_a_stage_off(self, name):
        assert getattr(validate_config({"mode": "3d", name: None}), name) is None
        assert getattr(TrackerConfig(**{name: None}), name) is None

    @pytest.mark.parametrize("name", ["tau", "gate_first"])
    def test_none_is_no_value_of_other_fields(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got None"):
            TrackerConfig(**{name: None})

    def test_gate_keys_must_be_class_ids(self):
        with pytest.raises(ValueError, match="gate_first keys must be integer class ids"):
            validate_config({"mode": "3d", "gate_first": {"car": 0.1, "default": -0.5}})
        config = validate_config({"mode": "3d", "gate_first": {np.int64(2): 0.1, -1: -0.5}})
        assert config.gate_first == {2: 0.1, -1: -0.5}

    def test_alpha_is_taken_in_every_mode(self):
        assert validate_config({"mode": "2d", "alpha": 10.0}).alpha == 10.0
        assert validate_config({"mode": "3d", "alpha": 5.0}).alpha == 5.0
        for name in ("adaptive_r", "second_pass"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{name}'\\]"):
                validate_config({"mode": "3d", name: False})

    def test_2d_alpha_changes_the_update(self):
        """Every alpha a config holds takes effect: a 2D track updated by a
        low-score detection moves differently with scaling on and off."""
        box, moved = Box2D(0.0, 0.0, 60.0, 120.0), Box2D(8.0, 0.0, 68.0, 120.0)
        means = {}
        for alpha in (None, 5.0):
            tracker = Tracker(TrackerConfig(alpha=alpha))
            tracker.step(detection_frame([Detection(box, 0.9)], Mode.BOX_2D))
            result = tracker.step(detection_frame([Detection(moved, 0.3)], Mode.BOX_2D))
            assert result.diagnostics.second_matches == ((0, 1),)
            means[alpha] = tracker.pool.means[0]
        assert not np.allclose(means[None], means[5.0])

    def test_noise_key_rejected(self):
        # The noise scales are constants; alpha is the only knob.
        with pytest.raises(ValueError, match="unknown config keys: \\['noise'\\]"):
            validate_config({"mode": "3d", "noise": {"alpha": 5.0, "adaptive": False}})

    def test_modality_only_picks_defaults(self):
        assert "modality" not in TrackerConfig.__dataclass_fields__
        with pytest.raises(ValueError, match="unknown modality"):
            validate_config({"mode": "3d", "modality": "radar"})

    def test_unknown_modality_rejected_in_2d(self):
        with pytest.raises(ValueError, match="unknown modality 'radar'"):
            validate_config({"mode": "2d", "modality": "radar"})
        # A known modality is accepted in 2D, where it picks nothing: --mode 2d
        # may override the mode of a 3D config file.
        for modality in ("camera", "lidar"):
            assert validate_config({"mode": "2d", "modality": modality}) == TrackerConfig()
