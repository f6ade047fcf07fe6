"""Hostile columns: DetectionFrame and TrackOutput check their columns once,
on construction, with one shared check (association.check_columns).

Each malformed draw breaks one column and must raise a ValueError naming it
when the frame or output is built; each well-formed draw must step or
evaluate cleanly, RuntimeWarnings being errors under the test configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import association
from motrack.association import DetectionFrame, Mode, TrackerConfig, TrackPool
from motrack.metrics import amota, clear_mot, idf1
from motrack.tracker import TrackOutput, default_config

_DEFECTS = ("unequal_length", "float_ids", "non_finite_box", "bad_box_extent")
_DETECTION_DEFECTS = _DEFECTS + ("score_out_of_range", "velocity_shape", "non_finite_velocity")
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def box_rows(draw, n: int, is_3d: bool) -> np.ndarray:
    """n parameter rows that Box2D / Box3D accept, packed so that some overlap."""
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


def break_column(draw, columns: dict, defect: str, ids: tuple[str, ...]) -> str:
    """Apply one defect to the columns in place; returns the column it breaks."""
    boxes = columns["boxes"]
    n, width = boxes.shape
    row = draw(st.integers(0, n - 1))
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
    elif width == 4:  # corners swapped: x1 > x2 or y1 > y2
        axis = draw(st.integers(0, 1))
        boxes[row, [axis, axis + 2]] = boxes[row, [axis + 2, axis]]
    else:  # a length, width or height of 0 or less
        boxes[row, draw(st.integers(4, 6))] = draw(st.floats(-10.0, 0.0))
    return "boxes"


@st.composite
def detection_frames(draw, defects=_DETECTION_DEFECTS):
    """(columns, defect, broken column name) of a frame of 1-5 rows; defect
    None leaves the columns well formed."""
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
    defect = draw(st.none() | st.sampled_from(defects)) if defects else None
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
    elif defect == "non_finite_velocity":
        name = "velocities"
        columns[name][row, draw(st.integers(0, 1))] = draw(_NON_FINITE)
        columns["has_velocity"][row] = True
    else:
        name = break_column(draw, columns, defect, ("class_ids",))
    return columns, defect, name


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
        draw, columns, defect, ("frames", "track_ids", "class_ids"))
    return columns, 3, defect, name


def build_output(columns, n_frames):
    mode = Mode.BOX_3D if columns["boxes"].shape[-1] == 7 else Mode.BOX_2D
    return TrackOutput(columns["frames"], columns["track_ids"], columns["class_ids"],
                       columns["scores"], columns["boxes"], mode, n_frames)


@settings(max_examples=300, deadline=None)
@given(detection_frames(), detection_frames(defects=()))
def test_hostile_detection_columns(drawn, follow):
    columns, defect, name = drawn
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
