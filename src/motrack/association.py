"""Two-stage data association and track lifecycle management.

Each frame the detections are split by confidence at tau. High-score boxes are
matched first against every track (lost ones included); low-score boxes are
matched second against whatever is left, recovering occluded objects while
unmatched low boxes are discarded as background. Tracks unmatched by both
passes turn Lost and are dropped once they exceed the rebirth buffer; leftover
high-score boxes start new tracks.

Each stage runs once per frame. One similarity kernel call scores every
same-class (detection, track) pair, the low rows always included; one
admission mask gates that table, each row under its own pass's gate (a
switched-off second pass, gate_second None, admits none), and the two passes
solve blocks of it; one Kalman update applies the matches of both, and the
spawns share its measurement call.

Tracks live in one struct-of-arrays pool, one row per track. A frame's
detections arrive as columns (DetectionFrame: parameter rows, scores, class
ids, velocities, checked when built), every stage runs on arrays, and the
frame's output is the active rows as columns too (FrameResult). Detection and
TrackRecord objects are views of those rows: a sequence over the columns
(DetectionFrame.detections, FrameResult.tracks, TrackOutput.records) builds
them on demand, a batch at a time when iterated, and caches none; its len
builds nothing, and it is unhashable.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Collection, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from . import motion
from .assignment import solve_assignment
from .geometry import (MAX_2D_ASPECT, MAX_3D_MAGNITUDE, MAX_ALPHA, MAX_BOX2D_AREA,
                       MAX_TRACK_BUFFER, Box, Box2D, Box3D, giou_3d_pairs, iou_2d_pairs,
                       wrap_angles)

# Fallback key in per-class gate maps.
DEFAULT_GATE_KEY = -1

_VIEW_ROWS = 1024  # row objects a view builds per batch when iterated


class Mode(enum.Enum):
    BOX_2D = "2d"
    BOX_3D = "3d"


class MotionStrategy(enum.Enum):
    KALMAN = "kf"
    DETECTED_VELOCITY = "dv"
    COMPLEMENTARY = "complementary"


def _enum_member(kind: type[enum.Enum], value: object, name: str) -> enum.Enum:
    """The member of kind that value is, or that it names by value in any case."""
    if isinstance(value, kind):
        return value
    try:
        return kind(value.lower())
    except (AttributeError, ValueError):
        choices = [member.value for member in kind]
        raise ValueError(f"unknown {name} {value!r}; expected one of {choices}") from None


@dataclass(frozen=True)
class Detection:
    """One detector output: a box, its confidence, class, and optional
    velocity; a view of one row of a DetectionFrame."""

    box: Box
    score: float
    class_id: int = 0
    velocity: tuple[float, float] | None = None


class _Rows(Sequence):
    """A read-only sequence of row objects over columns, built on demand.

    make(*values) builds row k from the k-th value of each column (boxes give
    their rows as lists). len builds nothing; iterating builds _VIEW_ROWS rows
    at a time, an int index one row and a slice a tuple of its rows. Nothing
    is cached, so only the rows a caller keeps stay alive. A view equals a
    tuple or another view whose rows are equal in order, and is unhashable.
    """

    __slots__ = ("_make", "_columns")

    def __init__(self, make: Callable[..., object], *columns: np.ndarray):
        self._make = make
        self._columns = columns

    def _build(self, part: slice) -> list:
        return list(map(self._make, *(column[part].tolist() for column in self._columns)))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator:
        for start in range(0, len(self), _VIEW_ROWS):
            yield from self._build(slice(start, start + _VIEW_ROWS))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._build(index))
        row = range(len(self))[index]
        return self._build(slice(row, row + 1))[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Rows)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def box_width(mode: Mode) -> int:
    """Columns of a parameter row: x1, y1, x2, y2 or x, y, z, theta, l, w, h."""
    return 7 if mode is Mode.BOX_3D else 4


def _box_type(rows: np.ndarray) -> type:
    return Box3D if rows.shape[1] == 7 else Box2D


def _mode_of(rows: np.ndarray) -> Mode:
    """The mode of parameter rows: 3D if they are 7 wide, else 2D."""
    return Mode.BOX_3D if rows.shape[1] == 7 else Mode.BOX_2D


def check_mode(boxes: np.ndarray, mode: Mode) -> None:
    """Raise a ValueError unless boxes are parameter rows of the mode's width."""
    if boxes.shape[1] != box_width(mode):
        raise ValueError(f"{_box_type(boxes).__name__} detection in {mode.value} mode")


def check_columns(boxes: np.ndarray, columns: Mapping[str, np.ndarray],
                  ids: Collection[str]) -> None:
    """Raise a ValueError naming the first column of a frame or an output of
    the wrong shape or dtype: boxes must be rows of width 4 or 7, every other
    column one value per box, those named in ids of an integer dtype."""
    if boxes.ndim != 2 or boxes.shape[1] not in (4, 7):
        raise ValueError(f"boxes must be rows of width 4 or 7, got shape {boxes.shape}")
    n = len(boxes)
    for name, column in columns.items():
        if column.shape != (n,):
            raise ValueError(f"{name} must have shape {(n,)} for {n} boxes, got {column.shape}")
        if name in ids and column.dtype.kind not in "iu":
            raise ValueError(f"{name} must have an integer dtype, got {column.dtype}")


def row_rules(boxes: np.ndarray, scores: np.ndarray | None = None,
              velocities: np.ndarray | None = None, has_velocity: np.ndarray | None = None,
              ) -> list[tuple[str, np.ndarray, Callable[[int], str]]]:
    """The rules rows of the given columns keep, in order, each (the column it
    checks, a mask of the rows breaking it, the message for row i): the box
    rules, which run nowhere else; with scores, a positive 2D size (the 2D
    Kalman measurement divides by the height) and scores in [0, 1]; with
    velocities (detections), the bounds of geometry: 2D heights, 3D x, y, z,
    l, w, h and set velocities within MAX_3D_MAGNITUDE in magnitude, 2D w/h
    and h/w within MAX_2D_ASPECT."""
    finite = ~np.isfinite(boxes).all(axis=1)
    if boxes.shape[1] == 7:
        rules = [("boxes", ~(boxes[:, 4:] > 0.0).all(axis=1), lambda i:
                  "Box3D dimensions must be positive, got l={}, w={}, h={}".format(
                      *boxes[i, 4:].tolist())),
                 ("boxes", finite, lambda i: "Box3D fields must be finite")]
    else:
        x1, y1, x2, y2 = boxes.T
        with np.errstate(over="ignore", invalid="ignore"):
            sizes = boxes[:, 2:] - boxes[:, :2]
            area = sizes[:, 0] * sizes[:, 1]
        rules = [("boxes", ~((x1 <= x2) & (y1 <= y2)), lambda i:
                  "Box2D corners out of order: ({}, {}, {}, {})".format(*boxes[i].tolist())),
                 ("boxes", finite, lambda i: "Box2D coordinates must be finite"),
                 ("boxes", ~(area <= MAX_BOX2D_AREA), lambda i: "Box2D area must be finite and "
                  "at most {!r}, got {} x {}".format(MAX_BOX2D_AREA, *sizes[i].tolist()))]
        if scores is not None:
            rules.append(("boxes", ~((x1 < x2) & (y1 < y2)), lambda i: "box size must be "
                          "positive, got w={}, h={}".format(*sizes[i].tolist())))
    if scores is not None:
        rules.append(("scores", ~((scores >= 0.0) & (scores <= 1.0)),
                      lambda i: f"score must be in [0, 1], got {float(scores[i])}"))
    if velocities is not None:
        bound = f"at most {MAX_3D_MAGNITUDE!r} in magnitude"
        if boxes.shape[1] == 7:
            fields = boxes[:, [0, 1, 2, 4, 5, 6]]
            rules.append(("boxes", ~(np.abs(fields) <= MAX_3D_MAGNITUDE).all(axis=1), lambda i:
                          f"detection x, y, z, l, w and h must be {bound}, "
                          f"got {tuple(fields[i].tolist())}"))
        else:
            width, height = sizes.T
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scale = ((height <= MAX_3D_MAGNITUDE) & (width / height <= MAX_2D_ASPECT)
                         & (height / width <= MAX_2D_ASPECT))
            rules.append(("boxes", ~scale, lambda i: "detection height must be at most "
                          f"{MAX_3D_MAGNITUDE!r} and w/h, h/w at most {MAX_2D_ASPECT!r}, "
                          "got w={}, h={}".format(*sizes[i].tolist())))
        too_large = ~(np.abs(velocities) <= MAX_3D_MAGNITUDE).all(axis=1)
        rules.append(("velocities", has_velocity & too_large, lambda i: "detection velocity "
                      f"must be finite and {bound}, got {tuple(velocities[i].tolist())}"))
    return rules


def _wrap_yaw(boxes: np.ndarray) -> np.ndarray:
    """3D parameter rows with their yaws wrapped (wrap_angles), copied only if one moves."""
    if boxes.shape[1] != 7:
        return boxes
    yaws = wrap_angles(boxes[:, 3])
    if np.may_share_memory(yaws, boxes):
        return boxes
    return np.concatenate((boxes[:, :3], yaws[:, None], boxes[:, 4:]), axis=1)


def check_rows(rules: list[tuple[str, np.ndarray, Callable[[int], str]]]) -> None:
    """Raise a ValueError at the first row breaking a rule, with its column."""
    bad = np.array([rule[1] for rule in rules])
    if bad.any():
        row = int(bad.any(axis=0).argmax())
        column, _, describe = rules[int(bad[:, row].argmax())]
        raise ValueError(f"{column} row {row}: {describe(row)}")


@dataclass(frozen=True, eq=False)
class DetectionFrame:
    """One frame's detections as columns, row k being detection k.

    boxes holds parameter rows, (x1, y1, x2, y2) or (x, y, z, theta, l, w, h);
    scores and class_ids one value per row, and velocities the planar (vx, vy)
    of the rows where has_velocity is set. The columns are checked once, here
    (check_columns, row_rules), and kept as given but for 3D yaws, wrapped to
    (-pi, pi], and unset velocities, zeroed, each in a copy made only then.
    The parsers' frames are views of rows checked as they were read, built by
    _of_checked without a second check. detections, and iterating or
    indexing the frame, yield the rows as Detection objects, built on demand
    and never cached (a _Rows view: len builds nothing, iteration builds a
    batch at a time, unhashable).
    """

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray
    velocities: np.ndarray
    has_velocity: np.ndarray

    def __post_init__(self):
        check_columns(self.boxes, {"scores": self.scores, "class_ids": self.class_ids,
                                   "has_velocity": self.has_velocity}, ("class_ids",))
        n = len(self.boxes)
        if self.velocities.shape != (n, 2):
            raise ValueError(f"velocities must have shape {(n, 2)} for {n} boxes, "
                             f"got {self.velocities.shape}")
        if self.has_velocity.dtype != bool:
            raise ValueError(f"has_velocity must have a bool dtype, got {self.has_velocity.dtype}")
        check_rows(row_rules(self.boxes, self.scores, self.velocities, self.has_velocity))
        object.__setattr__(self, "boxes", _wrap_yaw(self.boxes))
        unset = ~self.has_velocity & (self.velocities != 0.0).any(axis=1)
        if unset.any():
            object.__setattr__(self, "velocities", np.where(unset[:, None], 0.0, self.velocities))

    @classmethod
    def _of_checked(cls, boxes: np.ndarray, scores: np.ndarray, class_ids: np.ndarray,
                    velocities: np.ndarray, has_velocity: np.ndarray) -> DetectionFrame:
        """The frame of columns that already pass the constructor's checks,
        3D yaws wrapped and unset velocities zeroed, built without checking
        them again: equal bit for bit to the frame the constructor builds."""
        frame = object.__new__(cls)
        for name, column in (("boxes", boxes), ("scores", scores), ("class_ids", class_ids),
                             ("velocities", velocities), ("has_velocity", has_velocity)):
            object.__setattr__(frame, name, column)
        return frame

    @property
    def detections(self) -> Sequence[Detection]:
        box_type = _box_type(self.boxes)
        return _Rows(lambda row, score, class_id, velocity, has:
                     Detection(box_type(*row), score, class_id, tuple(velocity) if has else None),
                     self.boxes, self.scores, self.class_ids, self.velocities, self.has_velocity)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __getitem__(self, index: int) -> Detection:
        return self.detections[index]


def _require_real(name: str, value: object) -> None:
    """Raise a ValueError naming the field unless value is a real number; a
    bool is not one."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking hyperparameters; defaults are the 2D ones.

    Gates may be scalars or per-class maps keyed by class id (key -1 supplies
    the fallback). alpha is the only noise setting: a detection of score s is
    measured with noise alpha * (1 - s)^2 * R (see motion.update_arrays),
    alpha in [0, MAX_ALPHA], or with R itself when alpha is None; the noise
    scales themselves are fixed. gate_second None drops the low-score
    association, the single-stage baseline.
    """

    mode: Mode = Mode.BOX_2D
    tau: float = 0.6
    gate_first: float | Mapping[int, float] = 0.2
    gate_second: float | Mapping[int, float] | None = 0.2
    track_buffer: int = 30
    motion_strategy: MotionStrategy = MotionStrategy.KALMAN
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", _enum_member(Mode, self.mode, "mode"))
        object.__setattr__(self, "motion_strategy", _enum_member(
            MotionStrategy, self.motion_strategy, "motion strategy"))
        _require_real("tau", self.tau)
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not isinstance(self.track_buffer, Integral) or isinstance(self.track_buffer, bool):
            raise ValueError(f"track_buffer must be an integer, got {self.track_buffer!r}")
        if not 1 <= self.track_buffer <= MAX_TRACK_BUFFER:
            raise ValueError(f"track_buffer must be in [1, {MAX_TRACK_BUFFER}], "
                             f"got {self.track_buffer}")
        if self.alpha is not None:
            _require_real("alpha", self.alpha)
            if not math.isfinite(self.alpha):
                raise ValueError(f"alpha must be finite, got {self.alpha}")
            if self.alpha < 0:
                raise ValueError(f"alpha must be non-negative, got {self.alpha}")
            if self.alpha > MAX_ALPHA:
                raise ValueError(f"alpha must be at most {MAX_ALPHA!r}, got {self.alpha}")
        if self.mode is Mode.BOX_2D and self.motion_strategy is not MotionStrategy.KALMAN:
            raise ValueError("detected-velocity strategies require 3D mode")
        gates = ("gate_first",) if self.gate_second is None else ("gate_first", "gate_second")
        for name in gates:
            gate = getattr(self, name)
            if isinstance(gate, Mapping):
                gate = dict(gate)
                object.__setattr__(self, name, gate)
                if not all(isinstance(key, Integral) for key in gate):
                    raise ValueError(f"{name} keys must be integer class ids, got {gate}")
                for key, value in gate.items():
                    _require_real(f"{name}[{key}]", value)
                if not all(map(math.isfinite, gate.values())):
                    raise ValueError(f"{name} values must be finite, got {gate}")
            else:
                _require_real(name, gate)
                if not math.isfinite(gate):
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
    (position, velocity) block per observed channel (see motion). active,
    derived from frames_since_match, marks the tracks matched or started in
    the last frame; the others are lost and wait out the rebirth buffer. A
    fresh pool has zero rows and takes its state size from the first frame.
    """

    means: np.ndarray = _empty(0, 0)
    covs: np.ndarray = _empty(0, 3, 0)
    ids: np.ndarray = _empty(0, dtype=np.int64)
    class_ids: np.ndarray = _empty(0, dtype=np.int64)
    frames_since_match: np.ndarray = _empty(0, dtype=np.int64)
    last_score: np.ndarray = _empty(0)
    next_id: int = 1
    last_frame: int = 0

    @property
    def active(self) -> np.ndarray:
        return self.frames_since_match == 0


@dataclass(frozen=True)
class TrackRecord:
    """One confirmed box: frame, identity, geometry, confidence, class."""

    frame: int
    track_id: int
    box: Box
    score: float
    class_id: int = 0


def _record_view(frames: np.ndarray, track_ids: np.ndarray, class_ids: np.ndarray,
                 scores: np.ndarray, boxes: np.ndarray) -> Sequence[TrackRecord]:
    """Output columns as a _Rows view of TrackRecords, one per row, their
    boxes unchecked views."""
    box_type = _box_type(boxes)
    return _Rows(lambda frame, track_id, class_id, score, row:
                 TrackRecord(frame, track_id, box_type(*row), score, class_id),
                 frames, track_ids, class_ids, scores, boxes)


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
    first read.
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


@dataclass(frozen=True, eq=False)
class FrameResult:
    """Confirmed boxes and identities emitted for one frame, as columns.

    Row k is one active track: track_ids, class_ids, scores and the parameter
    row boxes[k], in id order. tracks yields the same rows as TrackRecords,
    built on demand and never cached (a _Rows view: len builds nothing,
    iteration builds a batch at a time, unhashable).
    """

    frame: int
    track_ids: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray
    boxes: np.ndarray
    diagnostics: FrameDiagnostics

    @property
    def tracks(self) -> Sequence[TrackRecord]:
        return _record_view(np.broadcast_to(self.frame, len(self.track_ids)), self.track_ids,
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
    means, covs = pool.means, pool.covs
    if not len(means):
        # A fresh pool's empty states: those of zero measurements, which are
        # as wide as box rows in both modes.
        means, covs = motion.init_arrays(np.zeros((0, box_width(config.mode))))

    if strategy is MotionStrategy.DETECTED_VELOCITY:
        wants_backward = np.ones(len(means), dtype=bool)
        new_means, new_covs = motion.inflate_arrays(means, covs)
    else:
        wants_backward = (pool.active if strategy is MotionStrategy.COMPLEMENTARY
                          else np.zeros(len(means), dtype=bool))
        new_means, new_covs = motion.predict_arrays(means, covs)
    match_means = (np.where(wants_backward[:, None], means, new_means) if wants_backward.any()
                   else new_means)
    return new_means, new_covs, motion.box_rows(match_means), wants_backward


def _row_gates(class_ids: np.ndarray, gate: float | Mapping[int, float] | None) -> np.ndarray:
    """Admission threshold of each detection row, resolved once per class;
    +inf for every row when gate is None (a pass switched off admits nothing).

    Classes are resolved in the order their first rows come, so a class with
    no gate raises exactly where resolving row by row would.
    """
    if gate is None:
        return np.full(len(class_ids), np.inf)
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

    The frame is scored once: every row, high and low, against every
    predicted track, in one kernel call. That table is checked for finite
    values once and gated by one admission mask, each row under its own gate
    (gate_first for the high rows, gate_second for the low ones) on its
    same-class pairs. The first pass matches the high rows against all
    tracks, the second the low rows against the tracks still unmatched, each
    on its block of the table and mask; a block whose admissible pairs
    already form a matching is matched without the solver (see
    solve_assignment). Both passes read the predicted boxes, and a track is
    matched at most once, so one Kalman update afterwards applies the matches
    of both. Both passes run for every config: gate_second None (single
    stage) gives the low rows a +inf gate, so the second pass matches none.

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

    The frame's columns were checked when it was built; a frame whose boxes
    are not rows of the mode's width raises ValueError (check_mode) before
    the pool changes.
    """
    if frame <= pool.last_frame:
        raise ValueError(
            f"frame index must increase, got {frame} after {pool.last_frame}"
        )
    is_3d = config.mode is Mode.BOX_3D
    raw, scores = detections.boxes, detections.scores
    check_mode(raw, config.mode)
    gap_removed = []
    for _ in range(min(frame - pool.last_frame - 1, config.track_buffer + 1)):
        if not len(pool.ids):
            break
        empty = DetectionFrame(raw[:0], np.zeros(0), np.zeros(0, dtype=np.int64),
                               np.zeros((0, 2)), np.zeros(0, dtype=bool))
        gap_removed.append(step(pool, pool.last_frame + 1, empty, config).diagnostics.removed_ids)

    det_classes = detections.class_ids
    high_idx = (scores > config.tau).nonzero()[0]
    low_idx = (scores <= config.tau).nonzero()[0]

    means, covs, match_rows, wants_backward = predict_tracks(pool, config)
    n_high = len(high_idx)
    scored = np.concatenate((high_idx, low_idx))
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
        # The dense table: tables of ~50 x 50 cost more to cull by x extents
        # (as evaluation does) than to score whole.
        sim = iou_2d_pairs(raw[scored][:, None], match_rows[None])

    if not np.isfinite(sim).all():
        raise ValueError("similarity matrix entries must be finite")

    # One admission mask for the whole table: each row's gate (gate_first for
    # the high rows, gate_second for the low ones) on its same-class pairs.
    row_gates = np.concatenate((_row_gates(det_classes[high_idx], config.gate_first),
                                _row_gates(det_classes[low_idx], config.gate_second)))[:, None]
    if is_3d:
        # GIoU gates may be negative, so values and gates are shifted until
        # every admissible pair is worth matching over leaving both sides
        # unmatched.
        values = sim + 1.0
        row_gates += 1.0
    else:
        values = sim
    admissible = same_class & (values >= row_gates)

    first = solve_assignment(values[:n_high], admissible[:n_high])
    first_det = high_idx[first.matches[:, 0]]
    first_trk = first.matches[:, 1]
    high_left = high_idx[first.unmatched_detections]
    cols_left = first.unmatched_tracklets
    second = solve_assignment(values[n_high:, cols_left], admissible[n_high:, cols_left])
    second_det = low_idx[second.matches[:, 0]]
    second_trk = cols_left[second.matches[:, 1]]
    low_left = low_idx[second.unmatched_detections]
    cols_left = cols_left[second.unmatched_tracklets]

    # One measurement call for both passes' matches and the spawns, and one
    # update of the matched rows: the update works row by row and each track
    # is matched at most once.
    matched_det = np.concatenate((first_det, second_det))
    matched_trk = np.concatenate((first_trk, second_trk))
    n_matched, n_new = len(matched_det), len(high_left)
    measured = np.concatenate((matched_det, high_left)) if n_new else matched_det
    zs = motion._measurement_stack(raw[measured])
    if n_matched:
        means[matched_trk], covs[matched_trk] = motion.update_arrays(
            means[matched_trk], covs[matched_trk], zs[:n_matched], scores[matched_det],
            config.alpha)

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
        spawn_means, spawn_covs = motion.init_arrays(zs[n_matched:])
        pool.means = np.concatenate((means[keep], spawn_means))
        pool.covs = np.concatenate((covs[keep], spawn_covs))
        pool.ids = np.concatenate((pool.ids[keep], spawn_ids))
        pool.class_ids = np.concatenate((pool.class_ids[keep], det_classes[high_left]))
        pool.frames_since_match = np.concatenate(
            (since_match[keep], np.zeros(n_new, dtype=np.int64))
        )
        pool.last_score = np.concatenate((pool.last_score[keep], scores[high_left]))
        pool.next_id += n_new
    else:
        # Same rows as before: ids and classes stay, the states and counts
        # computed this frame replace the old ones.
        pool.means, pool.covs = means, covs
        pool.frames_since_match = since_match
    pool.last_frame = frame

    out = pool.active.nonzero()[0]
    # Output rows are matched or spawned this frame, so their yaw is already
    # wrapped by the update or the measurement (DetectionFrame wraps it).
    boxes = motion.box_rows(pool.means[out])
    if not np.isfinite(boxes).all():
        check_rows(row_rules(boxes))
    return FrameResult(frame, pool.ids[out], pool.class_ids[out], pool.last_score[out],
                       boxes, diagnostics)
