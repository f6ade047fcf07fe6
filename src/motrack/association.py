"""Two-stage data association and track lifecycle management.

Each frame the detections are split by confidence at tau. High-score boxes are
matched first against every track (lost ones included); low-score boxes are
matched second against whatever is left, recovering occluded objects while
unmatched low boxes are discarded as background. Tracks unmatched by both
passes turn Lost and are dropped once they exceed the rebirth buffer; leftover
high-score boxes start new tracks.

Tracks live in one struct-of-arrays pool, one row per track. Each frame turns
its detections into parameter rows once, runs every stage on arrays, and
builds boxes only for the tracks it outputs.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
from .motion import NoiseConfig

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


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking hyperparameters; defaults are the 2D ones.

    Gates may be scalars or per-class maps keyed by class id (key -1 supplies
    the fallback). alpha and adaptive_r control the confidence-scaled
    measurement uncertainty; second_pass disables the low-score association for
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
    modality: str | None = None
    second_pass: bool = True
    noise: NoiseConfig | None = None

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.track_buffer < 1:
            raise ValueError(f"track_buffer must be >= 1, got {self.track_buffer}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.modality not in (None, "camera", "lidar"):
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.mode is Mode.BOX_2D and self.motion_strategy is not MotionStrategy.KALMAN:
            raise ValueError("detected-velocity strategies require 3D mode")
        for name in ("gate_first", "gate_second"):
            gate = getattr(self, name)
            if isinstance(gate, Mapping):
                object.__setattr__(self, name, dict(gate))
            elif not math.isfinite(gate):
                raise ValueError(f"{name} must be finite")

    def effective_noise(self) -> NoiseConfig:
        base = self.noise if self.noise is not None else NoiseConfig()
        return dataclasses.replace(base, alpha=self.alpha, adaptive=self.adaptive_r)


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
    (K, D, D) hold the Kalman states; active marks the tracks matched or
    started in the last frame, the others are lost and wait out the rebirth
    buffer. A fresh pool has zero rows and takes its state size from the first
    frame.
    """

    means: np.ndarray = _empty(0, 0)
    covs: np.ndarray = _empty(0, 0, 0)
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


@dataclass(frozen=True)
class FrameDiagnostics:
    """How each input detection index was consumed, plus lifecycle events."""

    first_matches: tuple[tuple[int, int], ...]
    second_matches: tuple[tuple[int, int], ...]
    new_tracks: tuple[tuple[int, int], ...]
    discarded_low: tuple[int, ...]
    lost_track_ids: tuple[int, ...]
    removed_track_ids: tuple[int, ...]


@dataclass(frozen=True)
class FrameResult:
    """Confirmed boxes and identities emitted for one frame."""

    frame: int
    tracks: tuple[TrackRecord, ...]
    diagnostics: FrameDiagnostics


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
    noise = config.effective_noise()
    strategy = config.motion_strategy
    is_3d = config.mode is Mode.BOX_3D
    means, covs = pool.means, pool.covs
    if not len(means):
        dim = motion.STATE_DIM_3D if is_3d else motion.STATE_DIM_2D
        means, covs = np.zeros((0, dim)), np.zeros((0, dim, dim))

    if strategy is MotionStrategy.DETECTED_VELOCITY:
        wants_backward = np.ones(len(means), dtype=bool)
        new_means, new_covs = motion.inflate_arrays(means, covs, noise, is_3d)
    else:
        wants_backward = (pool.active.copy() if strategy is MotionStrategy.COMPLEMENTARY
                          else np.zeros(len(means), dtype=bool))
        new_means, new_covs = motion.predict_arrays(means, covs, noise, is_3d)
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
    detections: Sequence[Detection],
    config: TrackerConfig,
) -> FrameResult:
    """Run one frame of the two-stage association over the track pool.

    The pool advances exactly once per frame: matched tracks are updated and
    set active, leftover tracks turn lost (and are removed past the buffer),
    and unmatched high-score detections spawn new tracks. Returns the active
    tracks for the frame.
    """
    if frame <= pool.last_frame:
        raise ValueError(
            f"frame index must increase, got {frame} after {pool.last_frame}"
        )
    is_3d = config.mode is Mode.BOX_3D
    box_type = Box3D if is_3d else Box2D
    for det in detections:
        if not isinstance(det.box, box_type):
            raise ValueError(
                f"{type(det.box).__name__} detection in {config.mode.value} mode"
            )

    noise = config.effective_noise()
    boxes = [det.box for det in detections]
    raw = box3d_array(boxes) if is_3d else box2d_array(boxes)
    scores = np.array([det.score for det in detections], dtype=float)
    det_classes = np.array([det.class_id for det in detections], dtype=np.int64)
    high_idx = np.nonzero(scores > config.tau)[0]
    low_idx = np.nonzero(scores <= config.tau)[0]

    means, covs, match_rows, wants_backward = predict_tracks(pool, config)
    back = raw
    if wants_backward.any():
        # Shift detections back one frame by their detected planar velocity;
        # those without one keep their raw box.
        velocities = np.array([det.velocity or (0.0, 0.0) for det in detections])
        back = raw.copy()
        back[:, :2] -= velocities.reshape(-1, 2)

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
                means[trk], covs[trk], zs, scores[det], noise, is_3d
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
        motion._measurement_stack(raw[high_left], is_3d), noise, is_3d
    )
    spawn_ids = np.arange(pool.next_id, pool.next_id + len(high_left))
    diagnostics = FrameDiagnostics(
        first_matches=tuple(zip(first_det.tolist(), pool.ids[first_trk].tolist())),
        second_matches=tuple(zip(second_det.tolist(), pool.ids[second_trk].tolist())),
        new_tracks=tuple(zip(high_left.tolist(), spawn_ids.tolist())),
        discarded_low=tuple(low_left.tolist()),
        lost_track_ids=tuple(pool.ids[lost & keep].tolist()),
        removed_track_ids=tuple(pool.ids[removed].tolist()),
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
    tracks = tuple(
        TrackRecord(frame, track_id, box_type(*row), score, class_id)
        for track_id, row, score, class_id in zip(
            pool.ids[out].tolist(),
            motion.box_rows(pool.means[out], is_3d).tolist(),
            pool.last_score[out].tolist(),
            pool.class_ids[out].tolist(),
        )
    )
    return FrameResult(frame=frame, tracks=tracks, diagnostics=diagnostics)
