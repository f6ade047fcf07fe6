"""Two-stage data association and track lifecycle management.

Each frame the detections are split by confidence at tau. High-score boxes are
matched first against every track (lost ones included); low-score boxes are
matched second against whatever is left, recovering occluded objects while
unmatched low boxes are discarded as background. Tracks unmatched by both
passes turn Lost and are dropped once they exceed the rebirth buffer; leftover
high-score boxes start new tracks.

Tracks live in one struct-of-arrays pool, one row per track. A frame's
detections arrive as columns (DetectionFrame: parameter rows, scores, class
ids, velocities), every stage runs on arrays, and the frame's output is the
active rows as columns too (FrameResult). Detection and TrackRecord objects
are built only when a caller asks for them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import motion
from .assignment import solve_assignment
from .geometry import (
    Box,
    Box2D,
    Box3D,
    box2d_array,
    box3d_array,
    giou_3d_pairs,
    iou_matrix_2d,
)

# Fallback key in per-class gate maps.
DEFAULT_GATE_KEY = -1


class Mode(enum.Enum):
    BOX_2D = "2d"
    BOX_3D = "3d"


class MotionStrategy(enum.Enum):
    KALMAN = "kf"
    DETECTED_VELOCITY = "dv"
    COMPLEMENTARY = "complementary"


@dataclass(frozen=True)
class Detection:
    """One detector output: a box, its confidence, class, and optional velocity."""

    box: Box
    score: float
    class_id: int = 0
    velocity: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1], got {self.score}")
        if self.velocity is not None:
            vx, vy = self.velocity
            if not (math.isfinite(vx) and math.isfinite(vy)):
                raise ValueError(f"detection velocity must be finite, got {self.velocity}")
            object.__setattr__(self, "velocity", (float(vx), float(vy)))


def box_width(mode: Mode) -> int:
    """Columns of a parameter row: box2d_array's 4 or box3d_array's 7."""
    return 7 if mode is Mode.BOX_3D else 4


def _box_type(rows: np.ndarray) -> type:
    return Box3D if rows.shape[1] == 7 else Box2D


@dataclass(frozen=True, eq=False)
class DetectionFrame:
    """One frame's detections as columns, row k being detection k.

    boxes holds parameter rows in the box2d_array / box3d_array layout, scores
    and class_ids one value per row, and velocities the planar (vx, vy) of the
    rows where has_velocity is set (0 elsewhere). Iterating or indexing yields
    Detection objects, built on first use.
    """

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray
    velocities: np.ndarray
    has_velocity: np.ndarray

    @classmethod
    def from_detections(cls, detections: Sequence[Detection], mode: Mode) -> "DetectionFrame":
        """Columns of a detection list; every box must be of the mode's type."""
        box_type = Box3D if mode is Mode.BOX_3D else Box2D
        for det in detections:
            if not isinstance(det.box, box_type):
                raise ValueError(f"{type(det.box).__name__} detection in {mode.value} mode")
        boxes = [det.box for det in detections]
        frame = cls(
            boxes=box3d_array(boxes) if box_type is Box3D else box2d_array(boxes),
            scores=np.array([det.score for det in detections], dtype=float),
            class_ids=np.array([det.class_id for det in detections], dtype=np.int64),
            velocities=np.array([det.velocity or (0.0, 0.0) for det in detections],
                                dtype=float).reshape(-1, 2),
            has_velocity=np.array([det.velocity is not None for det in detections], dtype=bool),
        )
        frame.__dict__["detections"] = tuple(detections)
        return frame

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        box_type = _box_type(self.boxes)
        return tuple(
            Detection(box_type(*row), score, class_id, (vx, vy) if has else None)
            for row, score, class_id, (vx, vy), has in zip(
                self.boxes.tolist(), self.scores.tolist(), self.class_ids.tolist(),
                self.velocities.tolist(), self.has_velocity.tolist())
        )

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __getitem__(self, index: int) -> Detection:
        return self.detections[index]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking hyperparameters; defaults are the 2D ones.

    Gates may be scalars or per-class maps keyed by class id (key -1 supplies
    the fallback). alpha and adaptive_r are the only noise settings: with
    adaptive_r set, a detection of score s is measured with noise
    alpha * (1 - s)^2 * R (see motion.update_arrays); the noise scales
    themselves are fixed. second_pass disables the low-score association for
    the single-stage baseline.
    """

    mode: Mode = Mode.BOX_2D
    tau: float = 0.6
    gate_first: float | Mapping[int, float] = 0.2
    gate_second: float | Mapping[int, float] = 0.2
    track_buffer: int = 30
    motion_strategy: MotionStrategy = MotionStrategy.KALMAN
    alpha: float = 100.0
    adaptive_r: bool = False
    second_pass: bool = True

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.track_buffer < 1:
            raise ValueError(f"track_buffer must be >= 1, got {self.track_buffer}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.mode is Mode.BOX_2D and self.motion_strategy is not MotionStrategy.KALMAN:
            raise ValueError("detected-velocity strategies require 3D mode")
        for name in ("gate_first", "gate_second"):
            gate = getattr(self, name)
            if isinstance(gate, Mapping):
                object.__setattr__(self, name, dict(gate))
            elif not math.isfinite(gate):
                raise ValueError(f"{name} must be finite")


def resolve_gate(gate: float | Mapping[int, float], class_id: int) -> float:
    """Gate for one detection class; per-class maps fall back to DEFAULT_GATE_KEY."""
    if isinstance(gate, Mapping):
        if class_id in gate:
            return float(gate[class_id])
        if DEFAULT_GATE_KEY in gate:
            return float(gate[DEFAULT_GATE_KEY])
        raise ValueError(f"no gate configured for class {class_id} and no default")
    return float(gate)


def _empty(*shape, dtype=float):
    return field(default_factory=lambda: np.zeros(shape, dtype=dtype))


@dataclass
class TrackPool:
    """Mutable per-sequence track store: row k of every array is one track.

    Rows stay in id order and ids are never reused. means (K, D) and covs
    (K, 3, obs_dim) hold the Kalman states, the covariance as one
    (position, velocity) block per observed channel (see motion); active
    marks the tracks matched or started in the last frame, the others are
    lost and wait out the rebirth buffer. A fresh pool has zero rows and
    takes its state size from the first frame.
    """

    means: np.ndarray = _empty(0, 0)
    covs: np.ndarray = _empty(0, 3, 0)
    ids: np.ndarray = _empty(0, dtype=np.int64)
    class_ids: np.ndarray = _empty(0, dtype=np.int64)
    active: np.ndarray = _empty(0, dtype=bool)
    frames_since_match: np.ndarray = _empty(0, dtype=np.int64)
    last_score: np.ndarray = _empty(0)
    next_id: int = 1
    last_frame: int = 0


@dataclass(frozen=True)
class TrackRecord:
    """One confirmed box: frame, identity, geometry, confidence, class."""

    frame: int
    track_id: int
    box: Box
    score: float
    class_id: int = 0


def records_from_columns(
    frames: np.ndarray,
    track_ids: np.ndarray,
    class_ids: np.ndarray,
    scores: np.ndarray,
    boxes: np.ndarray,
) -> tuple[TrackRecord, ...]:
    """TrackRecords of output columns, one per row; boxes are checked on construction."""
    box_type = _box_type(boxes)
    return tuple(
        TrackRecord(frame, track_id, box_type(*row), score, class_id)
        for frame, track_id, row, score, class_id in zip(
            frames.tolist(), track_ids.tolist(), boxes.tolist(), scores.tolist(),
            class_ids.tolist())
    )


def _pairs(rows: np.ndarray, ids: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(zip(rows.tolist(), ids.tolist()))


@dataclass(frozen=True, eq=False)
class FrameDiagnostics:
    """How each input detection index was consumed, plus lifecycle events.

    Held as the index arrays step computes: the detection rows matched in each
    pass or spawning a track with the track ids they went to, the discarded
    low rows, and the ids lost or removed this frame. The tuple fields
    (first_matches, second_matches and new_tracks as (detection index, track
    id) pairs; discarded_low, lost_track_ids, removed_track_ids) are built on
    first read, and equality compares them.
    """

    first_rows: np.ndarray
    first_ids: np.ndarray
    second_rows: np.ndarray
    second_ids: np.ndarray
    new_rows: np.ndarray
    new_ids: np.ndarray
    discarded_rows: np.ndarray
    lost_ids: np.ndarray
    removed_ids: np.ndarray

    @cached_property
    def first_matches(self) -> tuple[tuple[int, int], ...]:
        return _pairs(self.first_rows, self.first_ids)

    @cached_property
    def second_matches(self) -> tuple[tuple[int, int], ...]:
        return _pairs(self.second_rows, self.second_ids)

    @cached_property
    def new_tracks(self) -> tuple[tuple[int, int], ...]:
        return _pairs(self.new_rows, self.new_ids)

    @cached_property
    def discarded_low(self) -> tuple[int, ...]:
        return tuple(self.discarded_rows.tolist())

    @cached_property
    def lost_track_ids(self) -> tuple[int, ...]:
        return tuple(self.lost_ids.tolist())

    @cached_property
    def removed_track_ids(self) -> tuple[int, ...]:
        return tuple(self.removed_ids.tolist())

    def _fields(self) -> tuple:
        return (self.first_matches, self.second_matches, self.new_tracks, self.discarded_low,
                self.lost_track_ids, self.removed_track_ids)

    def __eq__(self, other):
        if not isinstance(other, FrameDiagnostics):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


@dataclass(frozen=True, eq=False)
class FrameResult:
    """Confirmed boxes and identities emitted for one frame, as columns.

    Row k is one active track: track_ids, class_ids, scores and the parameter
    row boxes[k], in id order. tracks holds the same rows as TrackRecords,
    built on first use.
    """

    frame: int
    track_ids: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray
    boxes: np.ndarray
    diagnostics: FrameDiagnostics

    @cached_property
    def tracks(self) -> tuple[TrackRecord, ...]:
        return records_from_columns(np.full(len(self.track_ids), self.frame), self.track_ids,
                                    self.class_ids, self.scores, self.boxes)


def predict_tracks(
    pool: TrackPool, config: TrackerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance the pool's states and pick the box each track exposes to matching.

    Returns the advanced means and covariances, the match boxes as parameter
    rows, and a mask of the tracks scored against backward-shifted detections
    instead of raw ones. Kalman-only scores raw detections against
    forward-predicted boxes. Detected-velocity-only holds tracks at their last
    box (random-walk covariance growth) and scores backward-shifted detections
    against them. The complementary strategy shifts detections backward for
    active tracks and forward-predicts lost tracks for rebirth.
    """
    strategy = config.motion_strategy
    is_3d = config.mode is Mode.BOX_3D
    means, covs = pool.means, pool.covs
    if not len(means):
        if is_3d:
            dim, obs = motion.STATE_DIM_3D, motion.OBS_DIM_3D
        else:
            dim, obs = motion.STATE_DIM_2D, motion.OBS_DIM_2D
        means, covs = np.zeros((0, dim)), np.zeros((0, 3, obs))

    if strategy is MotionStrategy.DETECTED_VELOCITY:
        wants_backward = np.ones(len(means), dtype=bool)
        new_means, new_covs = motion.inflate_arrays(means, covs, is_3d)
    else:
        wants_backward = (pool.active.copy() if strategy is MotionStrategy.COMPLEMENTARY
                          else np.zeros(len(means), dtype=bool))
        new_means, new_covs = motion.predict_arrays(means, covs, is_3d)
    match_means = np.where(wants_backward[:, None], means, new_means)
    return new_means, new_covs, motion.box_rows(match_means, is_3d), wants_backward


def _row_gates(class_ids: np.ndarray, gate: float | Mapping[int, float]) -> np.ndarray:
    """Admission threshold of each detection row, resolved by its class."""
    if isinstance(gate, Mapping):
        return np.array([resolve_gate(gate, c) for c in class_ids.tolist()])
    return np.full(len(class_ids), float(gate))


def step(
    pool: TrackPool,
    frame: int,
    detections: DetectionFrame,
    config: TrackerConfig,
) -> FrameResult:
    """Run one frame of the two-stage association over the track pool.

    The pool advances exactly once per frame: matched tracks are updated and
    set active, leftover tracks turn lost (and are removed past the buffer),
    and unmatched high-score detections spawn new tracks. Returns the active
    tracks for the frame.

    A frame more than one past the last behaves exactly as if every skipped
    frame had been stepped with no detections first. Every track is removed
    after track_buffer + 1 empty frames, so at most that many skipped frames
    do any work, however large the gap. The skipped frames' removals lead
    this frame's removed_track_ids, so each removed track is reported once.
    """
    if frame <= pool.last_frame:
        raise ValueError(
            f"frame index must increase, got {frame} after {pool.last_frame}"
        )
    is_3d = config.mode is Mode.BOX_3D
    raw = detections.boxes
    if len(raw) and raw.shape[1] != box_width(config.mode):
        raise ValueError(
            f"{_box_type(raw).__name__} detection in {config.mode.value} mode"
        )
    gap_removed = []
    for _ in range(min(frame - pool.last_frame - 1, config.track_buffer + 1)):
        if not len(pool.ids):
            break
        empty = DetectionFrame.from_detections((), config.mode)
        gap_removed.append(step(pool, pool.last_frame + 1, empty, config).diagnostics.removed_ids)

    scores = detections.scores
    det_classes = detections.class_ids
    high_idx = np.nonzero(scores > config.tau)[0]
    low_idx = np.nonzero(scores <= config.tau)[0]

    means, covs, match_rows, wants_backward = predict_tracks(pool, config)
    back = raw
    if wants_backward.any():
        # Shift detections back one frame by their detected planar velocity;
        # those without one (velocity 0) keep their raw box.
        back = raw.copy()
        back[:, :2] -= detections.velocities

    def run_pass(rows, cols, gate):
        same_class = det_classes[rows][:, None] == pool.class_ids[cols][None, :]
        gates = np.where(same_class, _row_gates(det_classes[rows], gate)[:, None], np.inf)
        if is_3d:
            # Score each same-class pair once, against backward-shifted
            # detections for the columns that want them and raw ones
            # otherwise; cross-class entries are gated out and keep a
            # placeholder 0. GIoU gates may be negative, so both are shifted
            # until every admissible pair is worth matching over leaving both
            # sides unmatched.
            r, c = np.nonzero(same_class)
            det, trk = rows[r], cols[c]
            source = np.where(wants_backward[trk][:, None], back[det], raw[det])
            values = np.zeros(same_class.shape)
            values[r, c] = giou_3d_pairs(source, match_rows[trk])
            assign = solve_assignment(values + 1.0, gates + 1.0)
        else:
            assign = solve_assignment(iou_matrix_2d(raw[rows], match_rows[cols]), gates)
        det, trk = rows[assign.matches[:, 0]], cols[assign.matches[:, 1]]
        if len(det):
            zs = motion._measurement_stack(raw[det], is_3d)
            means[trk], covs[trk] = motion.update_arrays(
                means[trk], covs[trk], zs, scores[det], config.alpha, config.adaptive_r, is_3d
            )
        rows_left = rows[assign.unmatched_detections]
        cols_left = cols[assign.unmatched_tracklets]
        return det, trk, rows_left, cols_left

    first_det, first_trk, high_left, cols_left = run_pass(
        high_idx, np.arange(len(means)), config.gate_first
    )
    if config.second_pass:
        second_det, second_trk, low_left, cols_left = run_pass(
            low_idx, cols_left, config.gate_second
        )
    else:
        second_det = second_trk = np.zeros(0, dtype=np.intp)
        low_left = low_idx

    lost = np.zeros(len(means), dtype=bool)
    lost[cols_left] = True
    since_match = np.where(lost, pool.frames_since_match + 1, 0)
    removed = since_match > config.track_buffer
    keep = ~removed
    last_score = pool.last_score.copy()
    last_score[first_trk] = scores[first_det]
    last_score[second_trk] = scores[second_det]

    spawn_means, spawn_covs = motion.init_arrays(
        motion._measurement_stack(raw[high_left], is_3d), is_3d
    )
    spawn_ids = np.arange(pool.next_id, pool.next_id + len(high_left))
    diagnostics = FrameDiagnostics(
        first_det, pool.ids[first_trk], second_det, pool.ids[second_trk], high_left, spawn_ids,
        low_left, pool.ids[lost & keep], np.concatenate((*gap_removed, pool.ids[removed])),
    )

    pool.means = np.concatenate((means[keep], spawn_means))
    pool.covs = np.concatenate((covs[keep], spawn_covs))
    pool.ids = np.concatenate((pool.ids[keep], spawn_ids))
    pool.class_ids = np.concatenate((pool.class_ids[keep], det_classes[high_left]))
    pool.active = np.concatenate((~lost[keep], np.ones(len(high_left), dtype=bool)))
    pool.frames_since_match = np.concatenate(
        (since_match[keep], np.zeros(len(high_left), dtype=np.int64))
    )
    pool.last_score = np.concatenate((last_score[keep], scores[high_left]))
    pool.next_id += len(high_left)
    pool.last_frame = frame

    out = np.nonzero(pool.active)[0]
    # Output rows are matched or spawned this frame, so their yaw is already
    # wrapped by the update or the measurement.
    boxes = motion.box_rows(pool.means[out], is_3d)
    if not np.isfinite(boxes).all():
        box_type = _box_type(boxes)
        for row in boxes.tolist():
            box_type(*row)  # raises for the first row that is not a box
    return FrameResult(frame, pool.ids[out], pool.class_ids[out], pool.last_score[out],
                       boxes, diagnostics)
