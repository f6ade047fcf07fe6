"""Sequence-level orchestration: config resolution, frame loop, output assembly."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .association import (
    DEFAULT_GATE_KEY,
    Detection,
    FrameResult,
    Mode,
    MotionStrategy,
    TrackerConfig,
    TrackPool,
    TrackRecord,
    step,
)
from .motion import NoiseConfig

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


@dataclass(frozen=True)
class TrackOutput:
    """Whole-sequence tracking result plus the config that produced it."""

    records: tuple[TrackRecord, ...]
    mode: Mode
    n_frames: int
    config: TrackerConfig | None = None

    def __post_init__(self):
        if not self.records:
            return
        keys = np.empty((len(self.records), 2), dtype=np.int64)
        for i, rec in enumerate(self.records):
            keys[i, 0] = rec.frame
            keys[i, 1] = rec.track_id
        if np.any(np.diff(keys[:, 0]) < 0):
            raise ValueError("record frames must be non-decreasing")
        if len(np.unique(keys, axis=0)) != len(self.records):
            raise ValueError("duplicate (frame, id) pair in records")

    def frames(self) -> dict[int, list[TrackRecord]]:
        """Records grouped by frame index."""
        grouped: dict[int, list[TrackRecord]] = {}
        for rec in self.records:
            grouped.setdefault(rec.frame, []).append(rec)
        return grouped

    def slice_frames(self, first: int, last: int) -> "TrackOutput":
        """Restrict to frames in [first, last]."""
        kept = tuple(r for r in self.records if first <= r.frame <= last)
        return TrackOutput(kept, self.mode, self.n_frames, self.config)


def default_config(mode: Mode = Mode.BOX_2D, modality: str | None = None) -> TrackerConfig:
    """Reference configuration for a mode (3D defaults to the lidar profile)."""
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
        modality=modality,
    )


_CONFIG_FIELDS = {f for f in TrackerConfig.__dataclass_fields__}


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
    if "noise" in options and isinstance(options["noise"], Mapping):
        options["noise"] = NoiseConfig(**options["noise"])
    try:
        return replace(base, **options)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid tracker config: {exc}") from exc


class Tracker:
    """Online tracker over one sequence; feed frames in order, read results back.

    Holds the mutable track pool, so one instance per sequence. Never looks
    ahead: each step sees only the current frame's detections.
    """

    def __init__(self, config: TrackerConfig | Mapping[str, object] | None = None):
        self.config = validate_config(config if config is not None else {})
        self.pool = TrackPool()
        self.records: list[TrackRecord] = []

    def step(self, detections: Sequence[Detection], frame: int | None = None) -> FrameResult:
        """Process one frame; frame index defaults to the next in sequence."""
        if frame is None:
            frame = self.pool.last_frame + 1
        result = step(self.pool, frame, detections, self.config)
        self.records.extend(result.tracks)
        return result

    def output(self) -> TrackOutput:
        """Assemble the records emitted so far."""
        return TrackOutput(tuple(self.records), self.config.mode, self.pool.last_frame,
                           self.config)


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
