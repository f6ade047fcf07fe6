"""Two-stage data association and track lifecycle management.

Each frame the detections are split by confidence at tau. High-score boxes are
matched first against every track (lost ones included); low-score boxes are
matched second against whatever is left, recovering occluded objects while
unmatched low boxes are discarded as background. Tracks unmatched by both
passes turn Lost and are dropped once they exceed the rebirth buffer; leftover
high-score boxes start new tracks.
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
from .geometry import Box, Box2D, Box3D, Metric, box3d_array, giou_3d_pairs, similarity_matrix
from .motion import (
    KalmanState,
    MissingVelocityError,
    NoiseConfig,
    backward_predict,
    kf_init,
    state_to_box,
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


class TrackStatus(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"


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

    @property
    def metric(self) -> Metric:
        return Metric.IOU_2D if self.mode is Mode.BOX_2D else Metric.GIOU_3D

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


@dataclass
class Tracklet:
    """One tracked identity and its bookkeeping."""

    track_id: int
    state: KalmanState
    class_id: int
    status: TrackStatus
    last_matched_frame: int
    frames_since_match: int = 0
    last_score: float = 0.0

    @classmethod
    def spawn(cls, detection: Detection, track_id: int, frame: int,
              noise: NoiseConfig) -> "Tracklet":
        return cls(
            track_id=track_id,
            state=kf_init(detection.box, noise),
            class_id=detection.class_id,
            status=TrackStatus.ACTIVE,
            last_matched_frame=frame,
            last_score=detection.score,
        )

    @property
    def box(self) -> Box:
        return state_to_box(self.state)


@dataclass
class TrackPool:
    """Mutable per-sequence track store; ids are never reused."""

    tracklets: list[Tracklet] = field(default_factory=list)
    next_id: int = 1
    last_frame: int = 0


@dataclass(frozen=True)
class TrackView:
    track_id: int
    box: Box
    score: float
    class_id: int


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
    tracks: tuple[TrackView, ...]
    diagnostics: FrameDiagnostics


def split_detections(
    detections: Sequence[Detection], tau: float
) -> tuple[list[Detection], list[Detection]]:
    """Partition detections into high (score > tau) and low lists, order kept."""
    high = [d for d in detections if d.score > tau]
    low = [d for d in detections if d.score <= tau]
    return high, low


@dataclass(frozen=True)
class TrackPrediction:
    """Motion-prediction output for one frame.

    states are the advanced Kalman states (one per track, applied by the
    caller). match_boxes is the box each track exposes to similarity scoring;
    wants_backward marks tracks scored against backward-shifted detections
    instead of raw ones. means/covs alias the states in batch layout so the
    update step can slice matched rows without restacking.
    """

    states: tuple[KalmanState, ...]
    match_boxes: tuple[Box, ...]
    wants_backward: tuple[bool, ...]
    means: np.ndarray | None = None
    covs: np.ndarray | None = None


def predict_tracks(
    tracklets: Sequence[Tracklet],
    config: TrackerConfig,
    detections: Sequence[Detection],
) -> tuple[TrackPrediction, list[Box]]:
    """Advance track states and pick the boxes both sides expose to matching.

    Kalman-only scores raw detections against forward-predicted boxes.
    Detected-velocity-only holds tracks at their last box (random-walk
    covariance growth) and scores backward-shifted detections against them.
    The complementary strategy shifts detections backward for active tracks
    and forward-predicts lost tracks for rebirth. Detections without a
    velocity fall back to their raw box.
    """
    noise = config.effective_noise()
    strategy = config.motion_strategy
    is_3d = config.mode is Mode.BOX_3D

    if tracklets:
        means = np.stack([t.state.mean for t in tracklets])
        covs = np.stack([t.state.covariance for t in tracklets])
        if strategy is MotionStrategy.DETECTED_VELOCITY:
            means, covs = motion.inflate_arrays(means, covs, noise, is_3d)
        else:
            means, covs = motion.predict_arrays(means, covs, noise, is_3d)
        states = tuple(motion.states_from_arrays(means, covs))
    else:
        means = covs = None
        states = ()

    if strategy is MotionStrategy.DETECTED_VELOCITY:
        match_boxes = tuple(t.box for t in tracklets)
        wants_backward = tuple(True for _ in tracklets)
    elif strategy is MotionStrategy.COMPLEMENTARY:
        match_boxes = tuple(
            t.box if t.status is TrackStatus.ACTIVE else state_to_box(states[j])
            for j, t in enumerate(tracklets)
        )
        wants_backward = tuple(t.status is TrackStatus.ACTIVE for t in tracklets)
    else:
        match_boxes = tuple(state_to_box(s) for s in states)
        wants_backward = tuple(False for _ in tracklets)

    if any(wants_backward):
        backward_boxes: list[Box] = []
        for det in detections:
            try:
                backward_boxes.append(backward_predict(det.box, det.velocity))
            except MissingVelocityError:
                backward_boxes.append(det.box)
    else:
        backward_boxes = [det.box for det in detections]

    return (
        TrackPrediction(states, match_boxes, wants_backward, means, covs),
        backward_boxes,
    )


def _row_gates(detections: Sequence[Detection], gate: float | Mapping[int, float]) -> np.ndarray:
    """Admission threshold of each detection row, resolved by its class."""
    if isinstance(gate, Mapping):
        return np.array([resolve_gate(gate, d.class_id) for d in detections])
    return np.full(len(detections), float(gate))


def step(
    pool: TrackPool,
    frame: int,
    detections: Sequence[Detection],
    config: TrackerConfig,
) -> FrameResult:
    """Run one frame of the two-stage association over the track pool.

    The pool is mutated in place: states advance exactly once, matched tracks
    are updated and set active, leftover tracks turn lost (and are removed past
    the buffer), and unmatched high-score detections spawn new tracks. Returns
    the active tracks for the frame.
    """
    if frame <= pool.last_frame:
        raise ValueError(
            f"frame index must increase, got {frame} after {pool.last_frame}"
        )
    box_type = Box2D if config.mode is Mode.BOX_2D else Box3D
    for det in detections:
        if not isinstance(det.box, box_type):
            raise ValueError(
                f"{type(det.box).__name__} detection in {config.mode.value} mode"
            )

    noise = config.effective_noise()
    high_idx = [i for i, d in enumerate(detections) if d.score > config.tau]
    low_idx = [i for i, d in enumerate(detections) if d.score <= config.tau]

    prediction, backward_boxes = predict_tracks(pool.tracklets, config, detections)
    for tracklet, state in zip(pool.tracklets, prediction.states):
        tracklet.state = state
    raw_boxes = [det.box for det in detections]
    det_classes = np.array([d.class_id for d in detections], dtype=np.intp)
    trk_classes = np.array([t.class_id for t in pool.tracklets], dtype=np.intp)
    if config.metric is Metric.GIOU_3D:
        # Box parameters of both sides, built once and shared by both passes.
        raw_params = box3d_array(raw_boxes)
        trk_params = box3d_array(prediction.match_boxes)
        wants_backward = np.array(prediction.wants_backward, dtype=bool)
        back_params = (box3d_array(backward_boxes) if wants_backward.any()
                       else raw_params)

    def same_class_giou(rows: np.ndarray, cols: np.ndarray, same_class: np.ndarray) -> np.ndarray:
        # Score each same-class pair once, against backward-shifted
        # detections for the columns that want them and raw ones otherwise;
        # cross-class entries are gated out and keep a placeholder 0.
        r, c = np.nonzero(same_class)
        det, trk = rows[r], cols[c]
        source = np.where(wants_backward[trk][:, None], back_params[det], raw_params[det])
        values = np.zeros(same_class.shape)
        values[r, c] = giou_3d_pairs(source, trk_params[trk])
        return values

    def run_pass(det_indices, col_indices, gate):
        rows = np.array(det_indices, dtype=np.intp)
        cols = np.array(col_indices, dtype=np.intp)
        dets = [detections[i] for i in det_indices]
        same_class = det_classes[rows][:, None] == trk_classes[cols][None, :]
        gates = np.where(same_class, _row_gates(dets, gate)[:, None], np.inf)
        if config.metric is Metric.GIOU_3D:
            # GIoU gates may be negative; shift so every admissible pair is
            # worth matching over leaving both sides unmatched.
            values = same_class_giou(rows, cols, same_class)
            assign = solve_assignment(values + 1.0, gates + 1.0)
        else:
            values = similarity_matrix(
                [raw_boxes[i] for i in det_indices],
                [prediction.match_boxes[j] for j in col_indices],
                config.metric,
            ).values
            assign = solve_assignment(values, gates)
        matched = []
        if assign.matches:
            # Matched tracks still hold rows of the prediction batch, so the
            # update can slice them out instead of restacking.
            sel = cols[[c for _, c in assign.matches]]
            boxes = [dets[r].box for r, _ in assign.matches]
            scores = [dets[r].score for r, _ in assign.matches]
            new_means, new_covs = motion.update_arrays(
                prediction.means[sel], prediction.covs[sel], boxes, scores, noise,
                config.mode is Mode.BOX_3D,
            )
            new_states = motion.states_from_arrays(new_means, new_covs)
            for (r, c), state in zip(assign.matches, new_states):
                det = dets[r]
                tracklet = pool.tracklets[col_indices[c]]
                tracklet.state = state
                tracklet.status = TrackStatus.ACTIVE
                tracklet.frames_since_match = 0
                tracklet.last_matched_frame = frame
                tracklet.last_score = det.score
                matched.append((det_indices[r], tracklet.track_id))
        rem_dets = [det_indices[r] for r in assign.unmatched_detections]
        rem_cols = [col_indices[c] for c in assign.unmatched_tracklets]
        return matched, rem_dets, rem_cols

    all_cols = list(range(len(pool.tracklets)))
    first_matches, high_remaining, cols_remaining = run_pass(
        high_idx, all_cols, config.gate_first
    )

    if config.second_pass:
        second_matches, low_remaining, cols_remaining = run_pass(
            low_idx, cols_remaining, config.gate_second
        )
    else:
        second_matches, low_remaining = [], list(low_idx)

    lost_ids = []
    removed_ids = []
    surviving = []
    remaining_set = set(cols_remaining)
    for j, tracklet in enumerate(pool.tracklets):
        if j in remaining_set:
            tracklet.status = TrackStatus.LOST
            tracklet.frames_since_match += 1
            if tracklet.frames_since_match > config.track_buffer:
                removed_ids.append(tracklet.track_id)
                continue
            lost_ids.append(tracklet.track_id)
        surviving.append(tracklet)
    pool.tracklets = surviving

    new_tracks = []
    for i in high_remaining:
        tracklet = Tracklet.spawn(detections[i], pool.next_id, frame, noise)
        pool.next_id += 1
        pool.tracklets.append(tracklet)
        new_tracks.append((i, tracklet.track_id))

    pool.last_frame = frame
    views = tuple(
        TrackView(t.track_id, t.box, t.last_score, t.class_id)
        for t in pool.tracklets
        if t.status is TrackStatus.ACTIVE
    )
    diagnostics = FrameDiagnostics(
        first_matches=tuple(first_matches),
        second_matches=tuple(second_matches),
        new_tracks=tuple(new_tracks),
        discarded_low=tuple(low_remaining),
        lost_track_ids=tuple(lost_ids),
        removed_track_ids=tuple(removed_ids),
    )
    return FrameResult(frame=frame, tracks=views, diagnostics=diagnostics)
