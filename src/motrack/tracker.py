"""Sequence-level orchestration: config resolution, frame loop, output assembly.

Tracker.step takes a frame's detections as a DetectionFrame (the parsers'
columns) or as a Detection list, which it turns into columns once. Each
frame's output rows are kept as columns and concatenated once by output().
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .association import (
    DEFAULT_GATE_KEY,
    Detection,
    DetectionFrame,
    FrameResult,
    Mode,
    MotionStrategy,
    TrackerConfig,
    TrackPool,
    TrackRecord,
    box_width,
    records_from_columns,
    step,
)
from .geometry import box2d_array, box3d_array

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


class TrackOutput:
    """Whole-sequence tracking result as columns, plus the config that produced it.

    Row i is one confirmed box: frames[i] (the frame number), track_ids[i],
    class_ids[i], scores[i] and boxes[i], a parameter row in the box2d_array
    / box3d_array layout. Rows are sorted by frame and each (frame, id) pair
    occurs once. records holds the same rows as TrackRecords, built on first
    use; an output constructed from records keeps them as given.
    """

    def __init__(
        self,
        records: Sequence[TrackRecord],
        mode: Mode,
        n_frames: int,
        config: TrackerConfig | None = None,
    ):
        records = tuple(records)
        boxes = [rec.box for rec in records]
        self._set_columns(
            np.array([rec.frame for rec in records], dtype=np.int64),
            np.array([rec.track_id for rec in records], dtype=np.int64),
            np.array([rec.class_id for rec in records], dtype=np.int64),
            np.array([rec.score for rec in records], dtype=float),
            box3d_array(boxes) if mode is Mode.BOX_3D else box2d_array(boxes),
            mode, n_frames, config,
        )
        self.__dict__["records"] = records

    @classmethod
    def from_columns(
        cls,
        frames: np.ndarray,
        track_ids: np.ndarray,
        class_ids: np.ndarray,
        scores: np.ndarray,
        boxes: np.ndarray,
        mode: Mode,
        n_frames: int,
        config: TrackerConfig | None = None,
    ) -> "TrackOutput":
        """An output over the given columns, which it keeps without copying."""
        output = cls.__new__(cls)
        output._set_columns(frames, track_ids, class_ids, scores, boxes, mode, n_frames, config)
        return output

    def _set_columns(self, frames, track_ids, class_ids, scores, boxes, mode, n_frames, config):
        if np.any(frames[1:] < frames[:-1]):
            raise ValueError("record frames must be non-decreasing")
        order = np.lexsort((track_ids, frames))
        if np.any((np.diff(frames[order]) == 0) & (np.diff(track_ids[order]) == 0)):
            raise ValueError("duplicate (frame, id) pair in records")
        self.frames, self.track_ids, self.class_ids = frames, track_ids, class_ids
        self.scores, self.boxes = scores, boxes
        self.mode, self.n_frames, self.config = mode, n_frames, config

    @cached_property
    def records(self) -> tuple[TrackRecord, ...]:
        return records_from_columns(self.frames, self.track_ids, self.class_ids, self.scores,
                                    self.boxes)

    def slice_frames(self, first: int, last: int) -> "TrackOutput":
        """Restrict to frames in [first, last]."""
        start = np.searchsorted(self.frames, first, side="left")
        stop = np.searchsorted(self.frames, last, side="right")
        return TrackOutput.from_columns(
            self.frames[start:stop], self.track_ids[start:stop], self.class_ids[start:stop],
            self.scores[start:stop], self.boxes[start:stop], self.mode, self.n_frames,
            self.config,
        )


def default_config(mode: Mode = Mode.BOX_2D, modality: str | None = None) -> TrackerConfig:
    """Reference configuration for a mode.

    modality picks the 3D profile (lidar when None); 2D has one profile.
    """
    if mode is Mode.BOX_2D:
        return TrackerConfig()
    modality = modality or "lidar"
    if modality not in _TAU_3D_DEFAULTS:
        raise ValueError(f"unknown modality {modality!r}; expected 'camera' or 'lidar'")
    gates = {CLASS_IDS[name]: gate for name, gate in DEFAULT_CLASS_GATES.items()}
    gates[DEFAULT_GATE_KEY] = DEFAULT_GIOU_GATE
    return TrackerConfig(
        mode=Mode.BOX_3D,
        tau=_TAU_3D_DEFAULTS[modality],
        gate_first=gates,
        gate_second=dict(gates),
        motion_strategy=MotionStrategy.COMPLEMENTARY,
        alpha=_ALPHA_DEFAULTS[modality],
        adaptive_r=True,
    )


# modality is no config field: it only picks the defaults the fields start from.
_CONFIG_FIELDS = set(TrackerConfig.__dataclass_fields__) | {"modality"}


def validate_config(raw: Mapping[str, object] | TrackerConfig) -> TrackerConfig:
    """Normalize a raw config mapping: apply defaults, coerce enums, check ranges.

    Accepts an already-built TrackerConfig unchanged (its invariants were
    checked on construction). Unknown keys, out-of-range values and an alpha
    set while adaptive_r is off (where alpha has no effect) raise ValueError
    with a descriptive message.
    """
    if isinstance(raw, TrackerConfig):
        return raw
    options = dict(raw)
    unknown = set(options) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    mode = options.pop("mode", Mode.BOX_2D)
    if isinstance(mode, str):
        try:
            mode = Mode(mode.lower())
        except ValueError:
            raise ValueError(f"unknown mode {mode!r}; expected '2d' or '3d'") from None
    modality = options.pop("modality", None)
    base = default_config(mode, modality)

    if "motion_strategy" in options and isinstance(options["motion_strategy"], str):
        try:
            options["motion_strategy"] = MotionStrategy(options["motion_strategy"].lower())
        except ValueError:
            choices = [m.value for m in MotionStrategy]
            raise ValueError(
                f"unknown motion strategy {options['motion_strategy']!r}; "
                f"expected one of {choices}"
            ) from None
    try:
        config = replace(base, **options)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid tracker config: {exc}") from exc
    if "alpha" in options and not config.adaptive_r:
        raise ValueError("alpha only scales the measurement noise when adaptive_r is on, "
                         "and it is off here: drop alpha or set adaptive_r")
    return config


class Tracker:
    """Online tracker over one sequence; feed frames in order, read results back.

    Holds the mutable track pool, so one instance per sequence. Never looks
    ahead: each step sees only the current frame's detections.
    """

    def __init__(self, config: TrackerConfig | Mapping[str, object] | None = None):
        self.config = validate_config(config if config is not None else {})
        self.pool = TrackPool()
        # Per emitted frame: (frame, track ids, class ids, scores, boxes).
        self._rows: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def step(
        self, detections: DetectionFrame | Sequence[Detection], frame: int | None = None
    ) -> FrameResult:
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
        if not isinstance(detections, DetectionFrame):
            detections = DetectionFrame.from_detections(detections, self.config.mode)
        result = step(self.pool, frame, detections, self.config)
        self._rows.append((frame, result.track_ids, result.class_ids, result.scores,
                           result.boxes))
        return result

    def output(self) -> TrackOutput:
        """Assemble the rows emitted so far, concatenated once."""
        rows = self._rows
        width = box_width(self.config.mode)
        return TrackOutput.from_columns(
            np.repeat(np.array([r[0] for r in rows], dtype=np.int64), [len(r[1]) for r in rows]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [r[1] for r in rows]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [r[2] for r in rows]),
            np.concatenate([np.zeros(0)] + [r[3] for r in rows]),
            np.concatenate([np.zeros((0, width))] + [r[4] for r in rows]),
            self.config.mode, self.pool.last_frame, self.config,
        )


def run_sequence(
    frames: Iterable[Sequence[Detection]],
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
