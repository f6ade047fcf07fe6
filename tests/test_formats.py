import dataclasses
import io
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motrack import association, formats
from motrack.association import Detection, DetectionFrame, Mode, MotionStrategy
from motrack.formats import (
    parse_3d_detections,
    parse_3d_results,
    parse_config_text,
    parse_mot_detections,
    parse_mot_results,
    write_3d_results,
    write_detections,
    write_mot_results,
)
from motrack.geometry import Box2D, Box3D
from motrack.simulate import clutter_suite, generate_scenario, motion_ablation_suite
from motrack.tracker import TrackOutput, default_config, run_sequence
from oracle_utils import (
    box3d_line,
    detection_frame,
    mot_line,
    parse_3d_detections_lines,
    parse_3d_results_lines,
    parse_mot_detections_lines,
    parse_mot_results_lines,
)

DATA = Path(__file__).parent / "data"


class TestMotParsing:
    def test_single_line(self):
        frames = parse_mot_detections("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        assert len(frames) == 1
        det = frames[0][0]
        assert det.box == Box2D(10, 20, 40, 60)
        assert det.score == 0.9

    def test_empty_file(self):
        assert [list(f) for f in parse_mot_detections("")] == []

    def test_frames_are_dense(self):
        text = "3,-1,0,0,10,10,0.5,-1,-1,-1\n1,-1,0,0,10,10,0.5,-1,-1,-1\n"
        frames = parse_mot_detections(text)
        assert [len(f) for f in frames] == [1, 0, 1]

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("1,-1,10,20,30,40,0.9,-1,-1", "expected 10"),  # missing field
            ("x,-1,10,20,30,40,0.9,-1,-1,-1", "frame"),  # non-integer frame
            ("1,-1,10,20,30,40,1.5,-1,-1,-1", "score"),  # score out of range
            ("1,-1,10,20,0,40,0.9,-1,-1,-1", "size"),  # zero width
            # x + w rounds back to x, so the box has zero width.
            ("1,-1,1e10,0,1e-10,10,0.9,-1,-1,-1", "box size must be positive, got w=0.0, h=10.0"),
            ("0,-1,10,20,30,40,0.9,-1,-1,-1", "frame"),  # frame below 1
            ("1,-1,nan,20,30,40,0.9,-1,-1,-1", "corners out of order"),  # NaN x
            ("1,-1,10,nan,30,40,0.9,-1,-1,-1", "corners out of order"),  # NaN y
            ("1,-1,-inf,20,30,40,0.9,-1,-1,-1", "must be finite"),  # infinite x
            ("1,-1,1e308,20,1e308,40,0.9,-1,-1,-1", "must be finite"),  # x + w overflows
            ("1,-1,10,20,inf,40,0.9,-1,-1,-1", "must be finite"),  # infinite w
            ("1,-1,-8e307,0,1.6e308,1e308,0.9,-1,-1,-1", "area must be finite"),  # w * h overflows
            ("1,-1,-5e307,0,1e308,1,0.9,-1,-1,-1", "at most"),  # two such areas overflow
            # Past the 2D scale bounds: the height, then w / h.
            ("1,-1,0,0,1e-10,1e200,0.9,-1,-1,-1", "detection height must be at most 1e+100 "
             "and w/h, h/w at most 1e+307, got w=1e-10, h=1e+200"),
            ("1,-1,0,0,1,5e-324,0.9,-1,-1,-1", "got w=1.0, h=5e-324"),
        ],
    )
    def test_malformed_lines_report_position(self, line, message):
        text = "1,-1,10,20,30,40,0.9,-1,-1,-1\n" + line + "\n"
        with pytest.raises(ValueError, match="line 2") as err:
            parse_mot_detections(text)
        assert message in str(err.value)

    def test_results_keep_boxes_past_the_detection_scale_bound(self):
        output = parse_mot_results("1,1,0,0,1,5e-324,0.9,-1,-1,-1\n")
        assert output.boxes.tolist() == [[0.0, 0.0, 1.0, 5e-324]]

    def test_results_require_positive_ids(self):
        with pytest.raises(ValueError, match="id"):
            parse_mot_results("1,-1,10,20,30,40,0.9,-1,-1,-1\n")

    def test_results_reject_box_area_overflow(self):
        # Finite corners whose area overflows would score IoU 0 against themselves.
        text = "1,1,10,20,30,40,0.9,-1,-1,-1\n1,1,-8e307,0,1.6e308,1e308,1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="line 2: Box2D area must be finite"):
            parse_mot_results(text)


class TestMotRoundTrip:
    def test_track_output_round_trips_exactly(self):
        spec, seed = clutter_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "2d"})
        buf = io.StringIO()
        write_mot_results(output, buf)
        parsed = parse_mot_results(buf.getvalue())
        assert parsed.records == output.records
        buf2 = io.StringIO()
        write_mot_results(parsed, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_detections_round_trip_exactly(self):
        spec, seed = clutter_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        buf = io.StringIO()
        write_detections(frames, Mode.BOX_2D, buf)
        parsed = parse_mot_detections(buf.getvalue())
        assert len(parsed) == len(frames)
        for orig, back in zip(frames, parsed):
            assert [(d.box, d.score) for d in orig] == [(d.box, d.score) for d in back]

    def test_write_rejects_3d_output(self):
        spec, seed = motion_ablation_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "3d"})
        with pytest.raises(ValueError):
            write_mot_results(output, io.StringIO())

    def test_empty_output_writes_empty_file(self):
        output = run_sequence([], {"mode": "2d"})
        buf = io.StringIO()
        write_mot_results(output, buf)
        assert buf.getvalue() == ""


class Test3DFormat:
    def test_line_round_trip_with_velocity(self):
        box = Box3D(1.5, -2.25, 0.8, 0.7, 4.5, 1.9, 1.6)
        line = box3d_line(3, -1, box, 0.85, class_id=2, velocity=(1.25, -0.5))
        frames = parse_3d_detections(line + "\n")
        det = frames[2][0]
        assert det.box == box
        assert det.velocity == (1.25, -0.5)
        assert det.class_id == 2
        assert det.score == 0.85

    def test_velocity_optional(self):
        box = Box3D(0, 0, 0.8, 0.0, 4, 2, 1.5)
        line = box3d_line(1, -1, box, 0.5, class_id=2)
        det = parse_3d_detections(line + "\n")[0][0]
        assert det.velocity is None

    def test_half_velocity_rejected(self):
        text = "1,-1,car,0,0,0.8,0,4,2,1.5,1.0,,0.5\n"
        with pytest.raises(ValueError, match="vx and vy"):
            parse_3d_detections(text)

    def test_unknown_class_rejected(self):
        text = "1,-1,spaceship,0,0,0.8,0,4,2,1.5,,,0.5\n"
        with pytest.raises(ValueError, match="class"):
            parse_3d_detections(text)

    def test_results_round_trip(self):
        spec, seed = motion_ablation_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "3d"})
        buf = io.StringIO()
        write_3d_results(output, buf)
        parsed = parse_3d_results(buf.getvalue())
        assert parsed.records == output.records

    def test_write_rejects_2d_output(self):
        output = run_sequence([], {"mode": "2d"})
        with pytest.raises(ValueError, match="3D result format needs a 3D output"):
            write_3d_results(output, io.StringIO())

    @pytest.mark.parametrize("strategy", list(MotionStrategy), ids=lambda s: s.value)
    def test_yaw_outside_the_range_is_wrapped_where_it_enters(self, strategy):
        # A frame built with yaw 4.0 once spawned a track whose output column
        # read 4.0 while its record read -2.2831853071795862, and writing and
        # parsing the output changed it.
        def frame(x):
            return DetectionFrame(np.array([[x, 0.0, 0.8, 4.0, 4.5, 1.9, 1.6],
                                            [x, 9.0, 0.8, -7.0, 4.5, 1.9, 1.6]]),
                                  np.array([0.9, 0.9]), np.array([2, 2]),
                                  np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([True, False]))

        config = dataclasses.replace(default_config(Mode.BOX_3D), motion_strategy=strategy)
        output = run_sequence([frame(0.0), frame(0.5), frame(1.0)], config)
        yaws = output.boxes[:, 3]
        assert len(yaws) == 6 and ((yaws > -math.pi) & (yaws <= math.pi)).all()
        assert [record.box.theta for record in output.records] == yaws.tolist()
        buf = io.StringIO()
        write_3d_results(output, buf)
        parsed = parse_3d_results(buf.getvalue())
        for name in ("frames", "track_ids", "class_ids", "scores", "boxes"):
            assert np.array_equal(getattr(parsed, name), getattr(output, name)), name

    def test_3d_detections_round_trip(self):
        spec, seed = motion_ablation_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        buf = io.StringIO()
        write_detections(frames, Mode.BOX_3D, buf)
        parsed = parse_3d_detections(buf.getvalue())
        for orig, back in zip(frames, parsed):
            assert [(d.box, d.score, d.velocity) for d in orig] == [
                (d.box, d.score, d.velocity) for d in back
            ]

    def test_invalid_box_reports_line(self):
        text = "1,-1,car,0,0,0.8,0,-4,2,1.5,,,0.5\n"
        with pytest.raises(ValueError, match="line 1"):
            parse_3d_detections(text)

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("1,-1,car,0,0,0.8,0,4,2,1.5,nan,0.5,0.5", "velocity must be finite"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,0.5,inf,0.5", "velocity must be finite"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,1e400,0,0.5", "velocity must be finite"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,0,-1.0000000000000002e+100,0.5",
             "detection velocity must be finite and at most 1e+100 in magnitude"),
            ("1,-1,car,0,1.0000000000000002e+100,0.8,0,4,2,1.5,,,0.5",
             "detection x, y, z, l, w and h must be at most 1e+100 in magnitude"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,,0.5,0.5", "vx and vy"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,x,0.5,0.5", "vx is not a number"),
            ("1,-1,car,nan,0,0.8,0,4,2,1.5,,,0.5", "must be finite"),
            ("1,-1,car,0,0,0.8,inf,4,2,1.5,,,0.5", "must be finite"),
            ("1,-1,car,0,0,0.8,0,nan,2,1.5,,,0.5", "dimensions must be positive"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,,,-0.5", "score"),
            ("1,-1,car,0,0,0.8,0,4,2,1.5,,", "expected 13"),
            ("1.0,-1,car,0,0,0.8,0,4,2,1.5,,,0.5", "frame is not an integer"),
            ("99999999999999999999,-1,car,0,0,0.8,0,4,2,1.5,,,0.5", "frame is out of range"),
        ],
    )
    def test_malformed_lines_report_position(self, line, message):
        text = "1,-1,car,0,0,0.8,0,4,2,1.5,,,0.5\n\n" + line + "\n"
        with pytest.raises(ValueError, match="line 3") as err:
            parse_3d_detections(text)
        assert message in str(err.value)


class TestColumns:
    def test_golden_files_rewrite_byte_identical(self):
        for path in sorted(DATA.glob("golden_*.txt")):
            text = path.read_text()
            buf = io.StringIO()
            if "_3d_" in path.name:
                write_3d_results(parse_3d_results(text), buf)
            else:
                write_mot_results(parse_mot_results(text), buf)
            assert buf.getvalue() == text, path.name

    def test_writers_equal_line_oracle(self):
        spec, seed = clutter_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "2d"})
        buf = io.StringIO()
        write_mot_results(output, buf)
        assert buf.getvalue() == "".join(
            mot_line(r.frame, r.track_id, r.box, r.score) + "\n" for r in output.records)

        spec, seed = motion_ablation_suite(1)[0]
        _, frames = generate_scenario(spec, seed)
        output = run_sequence(frames, {"mode": "3d"})
        buf = io.StringIO()
        write_3d_results(output, buf)
        assert buf.getvalue() == "".join(
            box3d_line(r.frame, r.track_id, r.box, r.score, r.class_id) + "\n"
            for r in output.records)
        buf = io.StringIO()
        write_detections(frames, Mode.BOX_3D, buf)
        assert buf.getvalue() == "".join(
            box3d_line(f, -1, d.box, d.score, d.class_id, d.velocity) + "\n"
            for f, dets in enumerate(frames, start=1) for d in dets)

    @pytest.mark.parametrize("mode", [Mode.BOX_2D, Mode.BOX_3D])
    def test_write_detections_rejects_boxes_of_the_other_mode(self, mode):
        # 3D rows written as MOT lines came out as 2D boxes; 2D rows failed
        # to unpack as 3D ones.
        other = Box3D(0, 0, 0.8, 0, 4, 2, 1.5) if mode is Mode.BOX_2D else Box2D(0, 0, 10, 20)
        frame = detection_frame([Detection(other, 0.9)], mode)
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(
                f"{type(other).__name__} detection in {mode.value} mode")):
            write_detections([frame], mode, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("parse", [parse_mot_detections, parse_3d_detections])
    def test_huge_frame_index_in_bounded_memory(self, parse):
        line = ("1000000000,-1,10,20,30,40,0.9,-1,-1,-1" if parse is parse_mot_detections
                else "1000000000,-1,car,0,0,0.8,0,4,2,1.5,,,0.9")
        tracemalloc.start()
        try:
            frames = parse(line + "\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frames) == 10**9
        assert peak < 5 * 2**20
        assert len(frames[0]) == 0 and len(frames[-1]) == 1
        assert frames[10**9 - 1][0].score == 0.9

    def test_frames_are_views_over_sorted_columns(self):
        text = ("2,-1,0,0,10,10,0.5,-1,-1,-1\n1,-1,5,5,10,10,0.7,-1,-1,-1\n"
                "2,-1,1,1,10,10,0.6,-1,-1,-1\n")
        frames = parse_mot_detections(text)
        assert frames[1].boxes.tolist() == [[0, 0, 10, 10], [1, 1, 11, 11]]
        assert frames[1].scores.tolist() == [0.5, 0.6]
        assert not frames[1].has_velocity.any()
        assert [d.score for d in frames[1]] == [0.5, 0.6]  # built on demand, file order


_DETECTION_FILES = {
    "2d": (parse_mot_detections,
           "3,-1,0,0,10,10,0.5,-1,-1,-1\n1,-1,-0.0,5,10,10,0.7,-1,-1,-1\n"
           "3,-1,1,1,10,10,0.6,-1,-1,-1\n"),
    # Yaws 4.0, -7.0 and -pi lie outside (-pi, pi]; vx/vy are empty or signed zeros.
    "3d": (parse_3d_detections,
           "1,-1,car,0,0,0.8,4.0,4,2,1.5,,,0.9\n"
           "1,-1,car,5,0,0.8,-0.0,4,2,1.5,0.5,-0.0,0.8\n"
           "4,-1,pedestrian,1,2,0.8,-7.0,1,1,1.8,,,0.7\n"
           "2,-1,car,0,0,0.8,3.141592653589793,4,2,1.5,-0.0,0.0,0.6\n"
           "4,-1,car,0,0,-0.0,-3.141592653589793,4,2,1.5,,,0.5\n"),
}


@pytest.mark.parametrize("mode", list(_DETECTION_FILES))
def test_parsed_frames_are_not_checked_again(mode):
    """The parser checks every row, wraps the 3D yaws and zeroes empty
    velocities once, so its frame views run no row rules; each equals the
    frame the constructor builds of its columns, bit for bit."""
    parse, text = _DETECTION_FILES[mode]
    frames = parse(text)
    with mock.patch.object(association, "row_rules", wraps=association.row_rules) as rules:
        views = list(frames)
    assert not rules.called
    assert [len(view) for view in views] == ([1, 0, 2] if mode == "2d" else [2, 1, 0, 2])
    columns = [field.name for field in dataclasses.fields(DetectionFrame)]
    for view in views:
        built = DetectionFrame(*(getattr(view, name) for name in columns))
        for name in columns:
            got, want = getattr(view, name), getattr(built, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
    if mode == "3d":
        assert [view.boxes[:, 3].tolist() for view in views] == [
            [4.0 - math.tau, -0.0], [math.pi], [], [-7.0 + math.tau, math.pi]]
        assert not views[3].has_velocity.any() and views[3].velocities.tolist() == [[0, 0]] * 2


# --- columnar parsers against the line-by-line oracle ----------------------------

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                   0.1, 1 / 3, 123456.78901234567, 1e16, 1.7976931348623157e308]
_ANGLES = [math.pi, -math.pi, 3 * math.pi, -7.0, 2 * math.tau + 0.1, math.nextafter(math.pi, 4)]
_CORRUPT = ["", " ", "abc", "nan", "inf", "-inf", "1e400", "-1e400", "0", "-0.0", "-5", "1.0",
            "1_0", "0x10", "1,2", "car", "99", "-1"]


def _number(draw, values, positive=False) -> str:
    value = draw(st.one_of(st.sampled_from(values), st.floats(
        min_value=1e-3 if positive else -1e4, max_value=1e4, allow_subnormal=False)))
    value = (abs(value) or 1.0) if positive else value
    formats = [repr(value), f"{value:.17g}"] + ([] if positive else [f"{value:.3f}"])
    text = draw(st.sampled_from(formats))
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", "  "]))


@st.composite
def record_files(draw, three_d: bool):
    lines = []
    ids = st.integers(1, 5) if draw(st.booleans()) else st.just(-1)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        frame = str(draw(st.integers(1, 6)))
        track_id = str(draw(ids))
        score = _number(draw, [0.0, -0.0, 1.0, 5e-324, 0.5], positive=False)
        score = score if 0.0 <= float(score) <= 1.0 else "0.5"
        if three_d:
            label = draw(st.sampled_from(["car", "pedestrian", " truck ", "2", "-3", "99"]))
            params = [_number(draw, _SPECIAL_FLOATS) for _ in range(3)]
            params.append(_number(draw, _ANGLES + _SPECIAL_FLOATS[:6]))
            params += [_number(draw, _SPECIAL_FLOATS[4:], positive=True) for _ in range(3)]
            velocity = (["", ""] if draw(st.booleans())
                        else [_number(draw, _SPECIAL_FLOATS) for _ in range(2)])
            fields = [frame, track_id, label, *params, *velocity, score]
        else:
            xy = [_number(draw, _SPECIAL_FLOATS) for _ in range(2)]
            wh = [_number(draw, _SPECIAL_FLOATS[4:], positive=True) for _ in range(2)]
            fields = [frame, track_id, *xy, *wh, score, "-1", "-1", " -1"]
        lines.append(fields)
    records = [i for i, line in enumerate(lines) if isinstance(line, list)]
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        # Two corruptions may hit one line, which pins the order of its checks.
        line = lines[draw(st.sampled_from(records))]
        line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_CORRUPT))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join((",".join(line) if isinstance(line, list) else line) + ending
                   for line in lines)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def _box_bits(box) -> list[str]:
    return [float(getattr(box, name)).hex() for name in box.__dataclass_fields__]


def _detection_bits(frames) -> list:
    return [[(_box_bits(d.box), d.score.hex(), d.class_id,
              None if d.velocity is None else [v.hex() for v in d.velocity]) for d in frame]
            for frame in frames]


def _record_bits(output) -> list:
    return [output.n_frames] + [(r.frame, r.track_id, r.class_id, _box_bits(r.box),
                                 float(r.score).hex()) for r in output.records]


@pytest.mark.parametrize("three_d", [False, True])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_columnar_parsers_equal_line_oracle(three_d, data):
    """Same frames, records and bits, or the same error line and message. Part
    of the examples parse in chunks of a few lines, so rows and line numbers
    also cross chunk boundaries."""
    text = data.draw(record_files(three_d))
    chunk_chars = data.draw(st.sampled_from([formats._CHUNK_CHARS, 1, 40, 100]))
    pairs = ((parse_3d_detections, parse_3d_detections_lines, _detection_bits),
             (parse_3d_results, parse_3d_results_lines, _record_bits)) if three_d else (
        (parse_mot_detections, parse_mot_detections_lines, _detection_bits),
        (parse_mot_results, parse_mot_results_lines, _record_bits))
    default, formats._CHUNK_CHARS = formats._CHUNK_CHARS, chunk_chars
    try:
        for columnar, oracle, bits in pairs:
            got, want = _outcome(columnar, text), _outcome(oracle, text)
            assert got[0] == want[0], (got, want)
            if got[0] == "error":
                assert got[1] == want[1]
            else:
                assert bits(got[1]) == bits(want[1])
    finally:
        formats._CHUNK_CHARS = default


@st.composite
def track_outputs(draw, three_d):
    """Random outputs: unique (frame, id) rows sorted by frame, any finite
    floats in range, -0.0 and subnormals included."""
    keys = draw(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**9)),
                         max_size=25, unique=True))
    keys.sort(key=lambda key: key[0])
    n = len(keys)
    coord = st.floats(-1e6, 1e6, allow_subnormal=True)
    size = st.floats(0.0, 1e4, exclude_min=True, allow_subnormal=True)
    score = st.floats(0.0, 1.0)
    frames = np.array([f for f, _ in keys], dtype=np.int64).reshape(n)
    ids = np.array([i for _, i in keys], dtype=np.int64).reshape(n)
    scores = np.array(draw(st.lists(score, min_size=n, max_size=n)), dtype=float)
    if three_d:
        theta = st.floats(-math.pi, math.pi, exclude_min=True)
        rows = draw(st.lists(st.tuples(coord, coord, coord, theta, size, size, size),
                             min_size=n, max_size=n))
        classes = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                           dtype=np.int64)
        boxes = np.array(rows, dtype=float).reshape(n, 7)
        return TrackOutput(frames, ids, classes, scores, boxes, Mode.BOX_3D,
                           int(frames.max(initial=0)))
    rows = draw(st.lists(st.tuples(coord, coord, size, size), min_size=n, max_size=n))
    corners = np.array(rows, dtype=float).reshape(n, 4)
    corners[:, 2:] += corners[:, :2]  # x2 = x1 + w, rounded as a tracker's box would be
    keep = (corners[:, 2:] > corners[:, :2]).all(axis=1)
    return TrackOutput(frames[keep], ids[keep], np.zeros(int(keep.sum()), dtype=np.int64),
                       scores[keep], corners[keep], Mode.BOX_2D, int(frames.max(initial=0)))


def _hex(column: np.ndarray) -> list[str]:
    return [float(value).hex() for value in column.ravel().tolist()]


@settings(max_examples=150, deadline=None)
@given(output=track_outputs(three_d=True))
def test_3d_writer_round_trips_bit_exact(output):
    buf = io.StringIO()
    write_3d_results(output, buf)
    parsed = parse_3d_results(buf.getvalue())
    for name in ("frames", "track_ids", "class_ids"):
        assert getattr(parsed, name).tolist() == getattr(output, name).tolist()
    assert _hex(parsed.scores) == _hex(output.scores)
    assert _hex(parsed.boxes) == _hex(output.boxes)


@settings(max_examples=150, deadline=None)
@given(output=track_outputs(three_d=False))
def test_mot_writer_round_trips_corners_within_rounding(output):
    """MOT text stores w = x2 - x1 and h = y2 - y1, so x1, y1, frames, ids and
    scores come back bit-exact while x2 = x1 + w and y2 = y1 + h are rounded
    twice: within 2 ulp of the larger corner coordinate."""
    buf = io.StringIO()
    write_mot_results(output, buf)
    parsed = parse_mot_results(buf.getvalue())
    for name in ("frames", "track_ids"):
        assert getattr(parsed, name).tolist() == getattr(output, name).tolist()
    assert _hex(parsed.scores) == _hex(output.scores)
    assert _hex(parsed.boxes[:, :2]) == _hex(output.boxes[:, :2])
    ulp = np.spacing(np.maximum(np.abs(output.boxes[:, :2]), np.abs(output.boxes[:, 2:])))
    assert np.all(np.abs(parsed.boxes[:, 2:] - output.boxes[:, 2:]) <= 2 * ulp)


def test_mot_writer_corner_drift_example():
    """The drift stated in the README, both ways round: corners x1 = 1.1,
    x2 = 7.7 are written as w = 6.6 and read back as x2 = 7.699999999999999,
    and a parsed x = 0.1, w = 0.2 is rewritten as w = 0.20000000000000004."""
    output = TrackOutput(np.array([1]), np.array([1]), np.array([0]), np.array([0.5]),
                         np.array([[1.1, 1.1, 7.7, 7.7]]), Mode.BOX_2D, 1)
    buf = io.StringIO()
    write_mot_results(output, buf)
    assert buf.getvalue() == "1,1,1.1,1.1,6.6,6.6,0.5,-1,-1,-1\n"
    parsed = parse_mot_results(buf.getvalue())
    assert parsed.boxes.tolist() == [[1.1, 1.1, 7.699999999999999, 7.699999999999999]]
    buf = io.StringIO()
    write_mot_results(parse_mot_results("1,1,0.1,0.1,0.2,0.2,0.5,-1,-1,-1\n"), buf)
    assert buf.getvalue() == "1,1,0.1,0.1,0.20000000000000004,0.20000000000000004,0.5,-1,-1,-1\n"


class TestConfigFile:
    def test_scalars_and_comments(self):
        text = """
        # tracker settings
        mode = 2d
        tau = 0.45          # split threshold
        track_buffer = 12
        adaptive_r = true
        motion_strategy = kf
        """
        options = parse_config_text(text)
        assert options == {
            "mode": "2d",
            "tau": 0.45,
            "track_buffer": 12,
            "adaptive_r": True,
            "motion_strategy": "kf",
        }

    def test_per_class_gates(self):
        text = "mode = 3d\ngate_first.car = -0.1\ngate_first.default = -0.5\n"
        options = parse_config_text(text)
        assert options["gate_first"] == {2: -0.1, -1: -0.5}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("tau = 0.5\nwarp_speed = 9\n")

    def test_unknown_class_label_rejected(self):
        with pytest.raises(ValueError, match="class"):
            parse_config_text("gate_first.dragon = -0.5\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("tau 0.5\n")

    def test_scalar_and_table_conflict_rejected(self):
        with pytest.raises(ValueError, match="gate_first"):
            parse_config_text("gate_first = 0.2\ngate_first.car = -0.1\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="adaptive_r"):
            parse_config_text("adaptive_r = maybe\n")

    @pytest.mark.parametrize(("text", "message"), [
        ("tau = abc\n", "line 1: tau is not a number: 'abc'"),
        ("mode = 3d\ntrack_buffer = 2.5\n", "line 2: track_buffer is not an integer: '2.5'"),
        ("tau.car = 1\n", "line 1: unknown per-class key 'tau.car'"),
    ])
    def test_bad_values_report_line(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config_text(text)

    def test_false_bools(self):
        assert parse_config_text("adaptive_r = off\nsecond_pass = No\n") == {
            "adaptive_r": False, "second_pass": False}
