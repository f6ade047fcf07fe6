"""Two-stage data association and track lifecycle management.

Each frame the detections are split by confidence at tau. High-score boxes are
matched first against every track (lost ones included); low-score boxes are
matched second against whatever is left, recovering occluded objects while
unmatched low boxes are discarded as background. Tracks unmatched by both
passes turn Lost and are dropped once they exceed the rebirth buffer; leftover
high-score boxes start new tracks.

Each stage runs once per frame. One similarity kernel call scores every
same-class (detection, track) pair either pass can use; one admission mask
gates that table, each row under its own pass's gate, and the two passes
solve blocks of it; one Kalman update applies the matches of both, and the
spawns share its measurement call.

Tracks live in one struct-of-arrays pool, one row per track. A frame's
detections arrive as columns (DetectionFrame: parameter rows, scores, class
ids, velocities), every stage runs on arrays, and the frame's output is the
active rows as columns too (FrameResult). Detection and TrackRecord objects
are built only when a caller asks for them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import motion
from .assignment import _solve
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

    Rows stay in id order and ids are never reused; step rebuilds the arrays
    only in a frame that spawns or removes a track. means (K, D) and covs
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
    match_means = (np.where(wants_backward[:, None], means, new_means) if wants_backward.any()
                   else new_means)
    return new_means, new_covs, motion.box_rows(match_means, is_3d), wants_backward


def _row_gates(class_ids: np.ndarray, gate: float | Mapping[int, float]) -> np.ndarray:
    """Admission threshold of each detection row, resolved once per class.

    Classes are resolved in the order their first rows come, so a class with
    no gate raises exactly where resolving row by row would.
    """
    if isinstance(gate, Mapping):
        rows = class_ids.tolist()
        by_class = {c: resolve_gate(gate, c) for c in dict.fromkeys(rows)}
        return np.array([by_class[c] for c in rows], dtype=float)
    return np.full(len(class_ids), float(gate))


def step(
    pool: TrackPool,
    frame: int,
    detections: DetectionFrame,
    config: TrackerConfig,
) -> FrameResult:
    """Run one frame of the two-stage association over the track pool.

    The frame is scored once: the high rows, and the low rows too when
    second_pass is on, against every predicted track, in one kernel call. That
    table is checked for finite values once and gated by one admission mask,
    each row under its own gate (gate_first for the high rows, gate_second
    for the low ones) on its same-class pairs. The first pass matches the high
    rows against all tracks, the second the low rows against the tracks still
    unmatched, each on its block of the table and mask; a block whose
    admissible pairs already form a matching is matched without the solver
    (see solve_assignment). Both passes read the predicted boxes, and a track
    is matched at most once, so one Kalman update afterwards applies the
    matches of both.

    The pool advances exactly once per frame: matched tracks are updated and
    set active, leftover tracks turn lost (and are removed past the buffer),
    and unmatched high-score detections spawn new tracks. A frame that spawns
    and removes nothing keeps the pool's rows, so only its states and flags
    are replaced and nothing is concatenated. Returns the active tracks for
    the frame; its arrays are copies, so later frames never change them.

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
    high_idx = (scores > config.tau).nonzero()[0]
    low_idx = (scores <= config.tau).nonzero()[0]

    means, covs, match_rows, wants_backward = predict_tracks(pool, config)
    n_high = len(high_idx)
    scored = np.concatenate((high_idx, low_idx)) if config.second_pass else high_idx
    same_class = det_classes[scored][:, None] == pool.class_ids[None, :]
    if is_3d:
        # Each same-class pair is scored once, against the backward-shifted
        # detection for the columns that want one and the raw one otherwise;
        # cross-class entries keep a placeholder 0 and are gated out. Shifting
        # back by the detected planar velocity leaves rows without one
        # (velocity 0) unchanged.
        r, c = np.nonzero(same_class)
        det = scored[r]
        source = raw[det]
        shift = wants_backward[c]
        source[shift, :2] -= detections.velocities[det[shift]]
        sim = np.zeros(same_class.shape)
        sim[r, c] = giou_3d_pairs(source, match_rows[c])
    else:
        sim = iou_matrix_2d(raw[scored], match_rows)

    if not np.isfinite(sim).all():
        raise ValueError("similarity matrix entries must be finite")

    # One admission mask for the whole table: each row's gate (gate_first for
    # the high rows, gate_second for the low ones) on its same-class pairs.
    row_gates = np.empty((len(scored), 1))
    row_gates[:n_high, 0] = _row_gates(det_classes[high_idx], config.gate_first)
    if config.second_pass:
        row_gates[n_high:, 0] = _row_gates(det_classes[low_idx], config.gate_second)
    if is_3d:
        # GIoU gates may be negative, so values and gates are shifted until
        # every admissible pair is worth matching over leaving both sides
        # unmatched.
        values = sim + 1.0
        row_gates += 1.0
    else:
        values = sim
    admissible = same_class & (values >= row_gates)

    first = _solve(values[:n_high], admissible[:n_high])
    first_det = high_idx[first.matches[:, 0]]
    first_trk = first.matches[:, 1]
    high_left = high_idx[first.unmatched_detections]
    cols_left = first.unmatched_tracklets
    if config.second_pass:
        second = _solve(values[n_high:, cols_left], admissible[n_high:, cols_left])
        second_det = low_idx[second.matches[:, 0]]
        second_trk = cols_left[second.matches[:, 1]]
        low_left = low_idx[second.unmatched_detections]
        cols_left = cols_left[second.unmatched_tracklets]
    else:
        second_det = second_trk = np.zeros(0, dtype=np.intp)
        low_left = low_idx

    # One measurement call for both passes' matches and the spawns, and one
    # update of the matched rows: the update works row by row and each track
    # is matched at most once.
    matched_det = np.concatenate((first_det, second_det))
    matched_trk = np.concatenate((first_trk, second_trk))
    n_matched, n_new = len(matched_det), len(high_left)
    measured = np.concatenate((matched_det, high_left)) if n_new else matched_det
    zs = motion._measurement_stack(raw[measured], is_3d)
    if n_matched:
        means[matched_trk], covs[matched_trk] = motion.update_arrays(
            means[matched_trk], covs[matched_trk], zs[:n_matched], scores[matched_det],
            config.alpha, config.adaptive_r, is_3d
        )

    lost = np.zeros(len(means), dtype=bool)
    lost[cols_left] = True
    since_match = np.where(lost, pool.frames_since_match + 1, 0)
    keep = since_match <= config.track_buffer
    pool.last_score[matched_trk] = scores[matched_det]

    spawn_ids = np.arange(pool.next_id, pool.next_id + n_new)
    diagnostics = FrameDiagnostics(
        first_det, pool.ids[first_trk], second_det, pool.ids[second_trk], high_left, spawn_ids,
        low_left, pool.ids[lost & keep], np.concatenate((*gap_removed, pool.ids[~keep])),
    )

    if n_new or not keep.all():
        # The rows change: drop the removed tracks and append the spawns.
        spawn_means, spawn_covs = motion.init_arrays(zs[n_matched:], is_3d)
        pool.means = np.concatenate((means[keep], spawn_means))
        pool.covs = np.concatenate((covs[keep], spawn_covs))
        pool.ids = np.concatenate((pool.ids[keep], spawn_ids))
        pool.class_ids = np.concatenate((pool.class_ids[keep], det_classes[high_left]))
        pool.active = np.concatenate((~lost[keep], np.ones(n_new, dtype=bool)))
        pool.frames_since_match = np.concatenate(
            (since_match[keep], np.zeros(n_new, dtype=np.int64))
        )
        pool.last_score = np.concatenate((pool.last_score[keep], scores[high_left]))
        pool.next_id += n_new
    else:
        # Same rows as before: ids and classes stay, the states and flags
        # computed this frame replace the old ones.
        pool.means, pool.covs = means, covs
        pool.active = ~lost
        pool.frames_since_match = since_match
    pool.last_frame = frame

    out = pool.active.nonzero()[0]
    # Output rows are matched or spawned this frame, so their yaw is already
    # wrapped by the update or the measurement.
    boxes = motion.box_rows(pool.means[out], is_3d)
    if not np.isfinite(boxes).all():
        box_type = _box_type(boxes)
        for row in boxes.tolist():
            box_type(*row)  # raises for the first row that is not a box
    return FrameResult(frame, pool.ids[out], pool.class_ids[out], pool.last_score[out],
                       boxes, diagnostics)
