"""Sequence-level orchestration: config resolution, frame loop, output assembly.

Tracker.step takes a frame's detections as a DetectionFrame, the columns the
parsers and the simulator build. Each frame's output rows are kept as columns
and concatenated once by output() into a TrackOutput, which is those columns
and is built from nothing else.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .association import (
    DEFAULT_GATE_KEY,
    DetectionFrame,
    FrameResult,
    Mode,
    MotionStrategy,
    TrackerConfig,
    TrackPool,
    TrackRecord,
    _enum_member,
    _record_view,
    _wrap_yaw,
    box_width,
    check_columns,
    check_rows,
    row_rules,
    step,
)

# Class vocabulary for per-class 3D association gates. Ids follow list order.
CLASS_NAMES = ("bicycle", "bus", "car", "motorcycle", "pedestrian", "trailer", "truck")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}

# Per-class GIoU gates for 3D matching; classes outside the table use the
# global default.
DEFAULT_CLASS_GATES = {
    "bicycle": -0.7,
    "bus": -0.2,
    "car": -0.1,
    "motorcycle": -0.5,
    "pedestrian": -0.7,
    "trailer": -0.4,
    "truck": -0.1,
}
DEFAULT_GIOU_GATE = -0.5

_TAU_3D_DEFAULTS = {"lidar": 0.2, "camera": 0.25}
_ALPHA_DEFAULTS = {"lidar": 10.0, "camera": 100.0}


@dataclass(frozen=True, eq=False)
class TrackOutput:
    """Whole-sequence tracking result as columns, plus the config that produced it.

    Row i is one confirmed box: frames[i] (the frame number), track_ids[i],
    class_ids[i], scores[i] and boxes[i], a parameter row (x1, y1, x2, y2 or
    x, y, z, theta, l, w, h). The columns are checked as a DetectionFrame's
    are (check_columns: boxes of width box_width(mode), integer frames,
    track_ids and class_ids; row_rules of the boxes alone, scores being left
    to the metrics) and kept as given, without copying, except that a 3D yaw
    outside (-pi, pi] is wrapped into it in a copy of boxes. Rows are sorted by
    frame, each (frame, id) pair once, and every frame lies in [1, n_frames].
    records yields the same rows as TrackRecords, built on demand and never
    cached (a _Rows view: len builds nothing, iteration builds a batch at a
    time, unhashable).
    """

    frames: np.ndarray
    track_ids: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray
    boxes: np.ndarray
    mode: Mode
    n_frames: int
    config: TrackerConfig | None = None

    def __post_init__(self):
        frames, track_ids = self.frames, self.track_ids
        check_columns(self.boxes, {"frames": frames, "track_ids": track_ids,
                                   "class_ids": self.class_ids, "scores": self.scores},
                      ("frames", "track_ids", "class_ids"), (box_width(self.mode),))
        check_rows(row_rules(self.boxes))
        object.__setattr__(self, "boxes", _wrap_yaw(self.boxes))
        if np.any(frames[1:] < frames[:-1]):
            raise ValueError("record frames must be non-decreasing")
        order = np.lexsort((track_ids, frames))
        if np.any((np.diff(frames[order]) == 0) & (np.diff(track_ids[order]) == 0)):
            raise ValueError("duplicate (frame, id) pair in records")
        if len(frames) and (frames[0] < 1 or frames[-1] > self.n_frames):
            raise ValueError(f"frames must lie in [1, {self.n_frames}], got "
                             f"{frames[0] if frames[0] < 1 else frames[-1]}")

    @property
    def records(self) -> Sequence[TrackRecord]:
        return _record_view(self.frames, self.track_ids, self.class_ids, self.scores, self.boxes)


def default_config(mode: Mode = Mode.BOX_2D, modality: str | None = None) -> TrackerConfig:
    """Reference configuration for a mode.

    modality picks the 3D profile (lidar when None). 2D has one profile but
    still rejects an unknown modality; a known one is accepted, so a 3D
    config file can be run with its mode overridden to 2D.
    """
    modality = modality or "lidar"
    if modality not in _TAU_3D_DEFAULTS:
        raise ValueError(f"unknown modality {modality!r}; expected 'camera' or 'lidar'")
    if mode is Mode.BOX_2D:
        return TrackerConfig()
    gates = {CLASS_IDS[name]: gate for name, gate in DEFAULT_CLASS_GATES.items()}
    gates[DEFAULT_GATE_KEY] = DEFAULT_GIOU_GATE
    return TrackerConfig(
        mode=Mode.BOX_3D,
        tau=_TAU_3D_DEFAULTS[modality],
        gate_first=gates,
        gate_second=dict(gates),
        motion_strategy=MotionStrategy.COMPLEMENTARY,
        alpha=_ALPHA_DEFAULTS[modality],
    )


# modality is no config field: it only picks the defaults the fields start from.
_CONFIG_FIELDS = set(TrackerConfig.__dataclass_fields__) | {"modality"}


def validate_config(raw: Mapping[str, object] | TrackerConfig) -> TrackerConfig:
    """Normalize a raw config mapping: apply defaults, coerce enums, check ranges.

    Accepts an already-built TrackerConfig unchanged (its invariants were
    checked on construction). Unknown keys and out-of-range values raise
    ValueError with a descriptive message.
    """
    if isinstance(raw, TrackerConfig):
        return raw
    options = dict(raw)
    unknown = set(options) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    mode = _enum_member(Mode, options.pop("mode", Mode.BOX_2D), "mode")
    base = default_config(mode, options.pop("modality", None))
    try:
        config = replace(base, **options)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid tracker config: {exc}") from exc
    return config


class Tracker:
    """Online tracker over one sequence; feed frames in order, read results back.

    Holds the mutable track pool, so one instance per sequence. Never looks
    ahead: each step sees only the current frame's detections.
    """

    def __init__(self, config: TrackerConfig | Mapping[str, object] | None = None):
        self.config = validate_config(config if config is not None else {})
        self.pool = TrackPool()
        # Per frame that emitted rows: (frame, track ids, class ids, scores,
        # boxes).
        self._rows: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def step(self, detections: DetectionFrame, frame: int | None = None) -> FrameResult:
        """Process one frame; frame index defaults to the next in sequence.

        Frame indices must increase. Skipping from frame j to frame j + g
        behaves exactly like stepping g - 1 frames with no detections and then
        this one: tracks age by one frame per skipped frame and are removed
        once past the rebirth buffer. Skipped frames emit no rows, and only
        the first track_buffer + 1 of them can do any work. Tracks removed in
        the skipped frames are listed first in this frame's removed_track_ids.
        """
        if frame is None:
            frame = self.pool.last_frame + 1
        result = step(self.pool, frame, detections, self.config)
        if len(result.track_ids):
            self._rows.append((frame, result.track_ids, result.class_ids, result.scores,
                               result.boxes))
        return result

    def output(self) -> TrackOutput:
        """Assemble the rows emitted so far, concatenated once."""
        rows = self._rows
        width = box_width(self.config.mode)
        return TrackOutput(
            np.repeat(np.array([r[0] for r in rows], dtype=np.int64), [len(r[1]) for r in rows]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [r[1] for r in rows]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [r[2] for r in rows]),
            np.concatenate([np.zeros(0)] + [r[3] for r in rows]),
            np.concatenate([np.zeros((0, width))] + [r[4] for r in rows]),
            self.config.mode, self.pool.last_frame, self.config,
        )


def run_sequence(
    frames: Iterable[DetectionFrame],
    config: TrackerConfig | Mapping[str, object] | None = None,
) -> TrackOutput:
    """Fold the per-frame association over an ordered detection stream.

    Frames are numbered from 1 in stream order. The first frame simply spawns
    tracks for all its high-score detections (there is nothing to match yet).
    Association errors are re-raised with the offending frame index attached.
    """
    tracker = Tracker(config)
    for index, detections in enumerate(frames, start=1):
        try:
            tracker.step(detections, frame=index)
        except ValueError as exc:
            raise ValueError(f"frame {index}: {exc}") from exc
    return tracker.output()
