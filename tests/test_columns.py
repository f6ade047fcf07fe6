"""Hostile columns and file lines: DetectionFrame and TrackOutput check their
columns once, on construction, with the shared column check and row rules of
association, and the parsers check file rows with the same rules.

Each malformed draw breaks one column and must raise a ValueError naming it
when the frame or output is built; each well-formed draw must step or
evaluate cleanly, RuntimeWarnings being errors under the test configuration.
Drawn frames written as file lines must fail at the broken row's line with
the constructor's rule text, or parse back to the same columns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import association, formats
from motrack.association import DetectionFrame, Mode, TrackerConfig, TrackPool
from motrack.geometry import MAX_2D_ASPECT, MAX_3D_MAGNITUDE
from motrack.metrics import amota, clear_mot, idf1
from motrack.tracker import TrackOutput, default_config
from oracle_utils import wrap_angle

_DEFECTS = ("unequal_length", "float_ids", "non_finite_box", "bad_box_extent")
# The row defects a result line can carry, and those a detection line of a
# MOT (no velocity) or 3D file can carry.
_ROW_DEFECTS_2D = ("non_finite_box", "bad_box_extent", "zero_size", "score_out_of_range")
_DETECTION_ROW_DEFECTS = {False: _ROW_DEFECTS_2D + ("past_scale",),
                          True: _ROW_DEFECTS_2D + ("past_bound", "non_finite_velocity")}
_DETECTION_DEFECTS = _DEFECTS + ("zero_size", "past_bound", "past_scale", "score_out_of_range",
                                 "velocity_shape", "non_finite_velocity")
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
_PAST_BOUND = np.nextafter(MAX_3D_MAGNITUDE, np.inf)


def box_rows(draw, n: int, is_3d: bool) -> np.ndarray:
    """n parameter rows that keep the box rules, packed so that some overlap."""
    coord = st.floats(0.0, 100.0)
    if is_3d:
        return np.array([[draw(st.floats(0.0, 6.0)), draw(st.floats(0.0, 6.0)), 0.8,
                          draw(st.floats(-3.0, 3.0)), draw(st.floats(0.5, 5.0)),
                          draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))]
                         for _ in range(n)]).reshape(n, 7)
    rows = []
    for _ in range(n):
        x, y = draw(coord), draw(coord)
        rows.append([x, y, x + draw(st.floats(1.0, 60.0)), y + draw(st.floats(1.0, 60.0))])
    return np.array(rows).reshape(n, 4)


def break_column(draw, columns: dict, defect: str, ids: tuple[str, ...], row: int) -> str:
    """Apply one defect to the columns in place, at the given row where it
    breaks one; returns the column it breaks."""
    boxes = columns["boxes"]
    width = boxes.shape[1]
    if defect == "unequal_length":
        name = draw(st.sampled_from(sorted(columns)))
        column = columns[name]
        columns[name] = (column[:-1] if draw(st.booleans())
                         else np.concatenate((column, column[:1])))
        return name
    if defect == "float_ids":
        name = draw(st.sampled_from(ids))
        columns[name] = columns[name].astype(float)
        return name
    boxes = boxes.copy()
    columns["boxes"] = boxes
    if defect == "non_finite_box":
        boxes[row, draw(st.integers(0, width - 1))] = draw(_NON_FINITE)
    elif defect == "zero_size" and width == 4:  # x1 == x2 or y1 == y2
        axis = draw(st.integers(0, 1))
        boxes[row, axis + 2] = boxes[row, axis]
    elif defect == "zero_size":
        boxes[row, draw(st.integers(4, 6))] = 0.0
    elif defect == "past_scale" and width == 4:  # past the height, w/h or h/w bound
        boxes[row] = draw(st.sampled_from([[0.0, 0.0, 1.0, _PAST_BOUND],
                                           [0.0, 0.0, 2.0 * MAX_2D_ASPECT, 1.0],
                                           [0.0, 0.0, 0.5 / MAX_2D_ASPECT, 1.0]]))
    elif defect in ("past_bound", "past_scale"):  # x, y, z (either sign), l, w or h
        index = draw(st.sampled_from([0, 1, 2, 4, 5, 6]))
        boxes[row, index] = -_PAST_BOUND if index < 3 and draw(st.booleans()) else _PAST_BOUND
    elif width == 4:  # corners swapped: x1 > x2 or y1 > y2
        axis = draw(st.integers(0, 1))
        boxes[row, [axis, axis + 2]] = boxes[row, [axis + 2, axis]]
    else:  # a length, width or height of 0 or less
        boxes[row, draw(st.integers(4, 6))] = draw(st.floats(-10.0, 0.0))
    return "boxes"


@st.composite
def detection_frames(draw, defects=_DETECTION_DEFECTS, is_3d=None):
    """(columns, defect, broken column name, broken row) of a frame of 1-5
    rows, 3D if is_3d (drawn if None); defect None leaves the columns well
    formed."""
    if is_3d is None:
        is_3d = draw(st.booleans())
    n = draw(st.integers(1, 5))
    columns = {
        "boxes": box_rows(draw, n, is_3d),
        "scores": np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))),
        "class_ids": np.array(draw(st.lists(st.sampled_from([2, 4]), min_size=n, max_size=n)),
                              dtype=np.int64),
        "velocities": np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                                             max_size=2 * n))).reshape(n, 2),
        "has_velocity": np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                 dtype=bool),
    }
    defect = draw(st.sampled_from((None,) + defects))
    row = draw(st.integers(0, n - 1))
    if defect is None:
        name = None
    elif defect == "score_out_of_range":
        name = "scores"
        columns[name][row] = draw(st.sampled_from([np.nan, np.inf, -0.1, 1.5, -np.inf]))
    elif defect == "velocity_shape":
        name = "velocities"
        columns[name] = draw(st.sampled_from([columns[name].ravel(), np.zeros((n, 3)),
                                              np.zeros((n + 1, 2))]))
    elif defect == "non_finite_velocity" or (
            defect == "past_bound" and (not is_3d or draw(st.booleans()))):
        name = "velocities"
        columns[name][row, draw(st.integers(0, 1))] = (
            draw(_NON_FINITE) if defect == "non_finite_velocity"
            else draw(st.sampled_from([_PAST_BOUND, -_PAST_BOUND])))
        columns["has_velocity"][row] = True
    else:
        name = break_column(draw, columns, defect, ("class_ids",), row)
    return columns, defect, name, row


@st.composite
def track_outputs(draw):
    """(columns, n_frames, defect, broken column name) of an output of 1-6
    rows over frames 1-3; defect None leaves the columns well formed."""
    is_3d = draw(st.booleans())
    frames = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)))
    n = len(frames)
    columns = {
        "frames": np.array(frames, dtype=np.int64),
        # Ids count up within each frame, so no (frame, id) pair repeats.
        "track_ids": np.array([frames[:i].count(f) + 1 for i, f in enumerate(frames)],
                              dtype=np.int64),
        "class_ids": np.zeros(n, dtype=np.int64),
        "scores": np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))),
        "boxes": box_rows(draw, n, is_3d),
    }
    defect = draw(st.none() | st.sampled_from(_DEFECTS))
    name = None if defect is None else break_column(
        draw, columns, defect, ("frames", "track_ids", "class_ids"), draw(st.integers(0, n - 1)))
    return columns, 3, defect, name


def build_output(columns, n_frames):
    mode = Mode.BOX_3D if columns["boxes"].shape[-1] == 7 else Mode.BOX_2D
    return TrackOutput(columns["frames"], columns["track_ids"], columns["class_ids"],
                       columns["scores"], columns["boxes"], mode, n_frames)


@settings(max_examples=300, deadline=None)
@given(detection_frames(), detection_frames(defects=()))
def test_hostile_detection_columns(drawn, follow):
    columns, defect, name, _ = drawn
    if defect is not None:
        with pytest.raises(ValueError, match=name):
            DetectionFrame(**columns)
        return
    # Well formed: the frame steps, and so does a second one against its tracks.
    frame = DetectionFrame(**columns)
    is_3d = frame.boxes.shape[1] == 7
    config = default_config(Mode.BOX_3D) if is_3d else TrackerConfig()
    pool = TrackPool()
    association.step(pool, 1, frame, config)
    second = follow[0]
    if (second["boxes"].shape[1] == 7) == is_3d:
        association.step(pool, 2, DetectionFrame(**second), config)
    assert len(frame.detections) == len(frame)


@settings(max_examples=300, deadline=None)
@given(track_outputs())
def test_hostile_output_columns(drawn):
    columns, n_frames, defect, name = drawn
    if defect is not None:
        with pytest.raises(ValueError, match=name):
            build_output(columns, n_frames)
        return
    # Well formed: every metric evaluates the output against itself.
    output = build_output(columns, n_frames)
    clear_mot(output, output)
    idf1(output, output)
    amota(output, output)
    assert len(output.records) == len(output.frames)


_YAWS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-10.0, 10.0),
                  st.sampled_from([math.pi, -math.pi, math.tau, -0.0]))


@settings(max_examples=200, deadline=None)
@given(detection_frames(defects=(), is_3d=True), st.data())
def test_3d_rows_enter_with_wrapped_yaws_and_set_velocities(drawn, data):
    # Any finite yaw is wrapped to (-pi, pi] where the rows enter, and a row
    # without has_velocity enters with velocity 0, whatever it held; the
    # columns given are not modified, and the object views read the columns.
    columns = drawn[0]
    n = len(columns["scores"])
    yaws = data.draw(st.lists(_YAWS, min_size=n, max_size=n))
    columns["boxes"][:, 3] = yaws
    has = columns["has_velocity"]
    unset = 2 * int((~has).sum())
    columns["velocities"][~has] = np.reshape(
        data.draw(st.lists(st.floats(), min_size=unset, max_size=unset)), (-1, 2))
    given = {name: column.copy() for name, column in columns.items()}
    frame = DetectionFrame(**columns)
    output = TrackOutput(np.ones(n, dtype=np.int64), np.arange(1, n + 1), columns["class_ids"],
                         columns["scores"], columns["boxes"], Mode.BOX_3D, 1)
    wrapped = [t if -math.pi < t <= math.pi else wrap_angle(t) for t in yaws]
    for boxes in (frame.boxes, output.boxes):
        assert [t.hex() for t in boxes[:, 3].tolist()] == [t.hex() for t in wrapped]
        assert np.array_equal(np.delete(boxes, 3, axis=1), np.delete(given["boxes"], 3, axis=1))
        assert (boxes is columns["boxes"]) == (wrapped == yaws)
    assert np.array_equal(frame.velocities, np.where(has[:, None], given["velocities"], 0.0))
    for name, column in given.items():
        assert np.array_equal(columns[name], column, equal_nan=True), name
    assert [d.box.theta for d in frame.detections] == frame.boxes[:, 3].tolist()
    assert [r.box.theta for r in output.records] == output.boxes[:, 3].tolist()
    assert [d.velocity for d in frame.detections] == [
        tuple(v) if h else None for v, h in zip(frame.velocities.tolist(), has.tolist())]


def file_text(columns: dict, results: bool) -> str:
    """The rows as the writers format them: frame 1, ids -1 or 1..n."""
    boxes, scores = columns["boxes"], columns["scores"]
    n = len(scores)
    frames, ids = np.ones(n, dtype=np.int64), np.arange(1, n + 1) if results else np.full(n, -1)
    if boxes.shape[1] == 4:
        return "".join(formats._mot_text(frames, ids, scores, boxes))
    velocities = None if results else columns["velocities"]
    return "".join(formats._3d_text(frames, ids, columns["class_ids"], scores, boxes,
                                    velocities, columns["has_velocity"]))


def read_back(columns: dict, results: bool) -> dict:
    """The columns a file of the rows holds: MOT text stores w = x2 - x1 and
    h = y2 - y1, and the parser adds them back; a MOT file has no classes or
    velocities, and only a 3D detection file has velocities."""
    boxes = columns["boxes"].copy()
    n = len(boxes)
    class_ids, velocities, has_velocity = columns["class_ids"], np.zeros((n, 2)), np.zeros(n, bool)
    if boxes.shape[1] == 4:
        with np.errstate(over="ignore", invalid="ignore"):
            boxes[:, 2:] = boxes[:, :2] + (boxes[:, 2:] - boxes[:, :2])
        class_ids = np.zeros(n, dtype=np.int64)
    elif not results:
        has_velocity = columns["has_velocity"]
        velocities = np.where(has_velocity[:, None], columns["velocities"], 0.0)
    return {"boxes": boxes, "scores": columns["scores"], "class_ids": class_ids,
            "velocities": velocities, "has_velocity": has_velocity}


_PARSERS = {(False, False): formats.parse_mot_detections, (False, True): formats.parse_mot_results,
            (True, False): formats.parse_3d_detections, (True, True): formats.parse_3d_results}


@pytest.mark.parametrize("is_3d, results", [(False, False), (False, True), (True, False),
                                             (True, True)],
                         ids=["mot_detections", "mot_results", "3d_detections", "3d_results"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_file_lines(is_3d, results, data):
    # Result files keep the rules of scored boxes, without the detection-only
    # ones, and a MOT line has no velocity.
    defects = _ROW_DEFECTS_2D if results else _DETECTION_ROW_DEFECTS[is_3d]
    columns, defect, _, row = data.draw(detection_frames(defects, is_3d))
    parse = _PARSERS[is_3d, results]
    text = file_text(columns, results)
    held = read_back(columns, results)
    if defect is not None:
        # A result row breaks the rule a detection row with its box and score
        # breaks first: the detection-only rules are not drawn for it.
        with pytest.raises(ValueError) as built:
            DetectionFrame(**held)
        column_row, rule = str(built.value).split(": ", 1)
        assert column_row.endswith(f" row {row}")
        with pytest.raises(ValueError) as parsed:
            parse(text)
        assert str(parsed.value) == f"line {row + 1}: {rule}"
        return
    parsed = parse(text)
    if results:
        got = {"boxes": parsed.boxes, "scores": parsed.scores, "class_ids": parsed.class_ids}
        assert parsed.track_ids.tolist() == list(range(1, len(parsed.track_ids) + 1))
    else:
        frame = parsed[0]
        got = {name: getattr(frame, name) for name in held}
    for name, column in got.items():
        assert column.dtype == held[name].dtype and np.array_equal(column, held[name]), name
