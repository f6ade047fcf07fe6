"""Seeded synthetic scenarios and the suites built from them.

Scenarios script ground-truth trajectories plus a detector model: position
jitter, confidence jitter, scripted occlusions that dip scores (occlusion is
score-mediated, not geometric), dropout spans that hide an object entirely,
random misses, and low-score clutter. The same (spec, seed) pair always
produces bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from .association import DetectionFrame, Mode, box_width
from .tracker import CLASS_IDS, TrackOutput


def _check_integers(spec, *names: str) -> None:
    """Reject a field named in names whose value is not an integer, bools and floats included."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MotionSegment:
    """Constant-velocity piece of a trajectory (velocities per frame)."""

    frames: int
    vx: float
    vy: float

    def __post_init__(self):
        _check_integers(self, "frames")
        if self.frames < 1:
            raise ValueError("segment length must be at least one frame")


@dataclass(frozen=True)
class ObjectSpec:
    """One simulated object: start point, box size, and velocity profile.

    2D objects use start=(x, y) and size=(w, h) in pixels; 3D objects use
    start=(x, y, z) and size=(l, w, h) in meters. The last segment extends to
    the end of the scenario. Yaw (3D) follows the heading of motion.
    """

    start: tuple[float, ...]
    size: tuple[float, ...]
    segments: tuple[MotionSegment, ...]
    class_id: int = 0

    def __post_init__(self):
        _check_integers(self, "class_id")
        if not self.segments:
            raise ValueError("object needs at least one motion segment")
        if len(self.start) not in (2, 3) or len(self.size) != len(self.start):
            raise ValueError("start/size must both be 2-D or both 3-D")
        object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class OcclusionEvent:
    """Score dip over a frame span; the detection stays present."""

    object_index: int
    first_frame: int
    last_frame: int
    score: float

    def __post_init__(self):
        _check_integers(self, "object_index", "first_frame", "last_frame")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("occlusion score must be in [0, 1]")
        if self.first_frame > self.last_frame:
            raise ValueError("occlusion span is empty")


@dataclass(frozen=True)
class DropoutSpan:
    """Frame span during which an object produces no detection at all."""

    object_index: int
    first_frame: int
    last_frame: int

    def __post_init__(self):
        _check_integers(self, "object_index", "first_frame", "last_frame")
        if self.first_frame > self.last_frame:
            raise ValueError("dropout span is empty")


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of a synthetic sequence."""

    mode: Mode
    duration: int
    world: tuple[float, float, float, float]
    objects: tuple[ObjectSpec, ...]
    occlusions: tuple[OcclusionEvent, ...] = ()
    dropouts: tuple[DropoutSpan, ...] = ()
    base_score: float = 0.95
    position_noise: float = 0.0
    score_noise: float = 0.0
    clutter_rate: float = 0.0
    clutter_scores: tuple[float, float] = (0.1, 0.4)
    miss_rate: float = 0.0
    velocity_noise: float = 0.0

    def __post_init__(self):
        _check_integers(self, "duration")
        if self.duration < 1:
            raise ValueError("duration must be at least one frame")
        for name in ("position_noise", "score_noise", "clutter_rate",
                     "miss_rate", "velocity_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.base_score <= 1.0:
            raise ValueError("base_score must be in [0, 1]")
        lo, hi = self.clutter_scores
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("clutter_scores must be an ordered range within [0, 1]")
        expected = 2 if self.mode is Mode.BOX_2D else 3
        for obj in self.objects:
            if len(obj.start) != expected:
                raise ValueError(f"{self.mode.value} scenario needs {expected}-D objects")
        for event in (*self.occlusions, *self.dropouts):
            if not 0 <= event.object_index < len(self.objects):
                raise ValueError(f"event references unknown object {event.object_index}")
            if event.first_frame < 1 or event.last_frame > self.duration:
                raise ValueError("event span must lie within the scenario duration")
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "occlusions", tuple(self.occlusions))
        object.__setattr__(self, "dropouts", tuple(self.dropouts))


def _positions(obj: ObjectSpec, duration: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame centers (duration x 2/3) and the velocity used to reach each frame."""
    dims = len(obj.start)
    pos = np.zeros((duration, dims))
    vel = np.zeros((duration, 2))
    pos[0] = obj.start
    plan = []
    for segment in obj.segments:
        plan.extend([(segment.vx, segment.vy)] * segment.frames)
    while len(plan) < duration:
        plan.append(plan[-1])
    vel[0] = plan[0]
    for frame in range(1, duration):
        vx, vy = plan[frame - 1]
        pos[frame, 0] = pos[frame - 1, 0] + vx
        pos[frame, 1] = pos[frame - 1, 1] + vy
        if dims == 3:
            pos[frame, 2] = pos[frame - 1, 2]
        vel[frame] = (vx, vy)
    return pos, vel


def _yaws(vel: np.ndarray) -> np.ndarray:
    """Heading per frame, held through zero-velocity stretches; DetectionFrame
    and TrackOutput wrap it."""
    yaw = np.zeros(len(vel))
    current = 0.0
    for i, (vx, vy) in enumerate(vel):
        if abs(vx) > 1e-12 or abs(vy) > 1e-12:
            current = math.atan2(vy, vx)
        yaw[i] = current
    return yaw


def _box_row(spec: ScenarioSpec, obj: ObjectSpec, pos, yaw: float) -> tuple[float, ...]:
    """Parameter row of an object's box centred at pos."""
    if spec.mode is Mode.BOX_2D:
        w, h = obj.size
        return (pos[0] - w / 2.0, pos[1] - h / 2.0, pos[0] + w / 2.0, pos[1] + h / 2.0)
    l, w, h = obj.size
    return (pos[0], pos[1], pos[2], yaw, l, w, h)


def generate_scenario(
    spec: ScenarioSpec, seed: int
) -> tuple[TrackOutput, list[DetectionFrame]]:
    """Realize a scenario: exact ground truth plus the noisy detection stream.

    Ground-truth identities are 1-based object indices with score 1; the gt
    columns hold every object in every frame, frame by frame in spec order.
    Each frame's detections are one DetectionFrame, objects first (spec
    order), then clutter; 3D object rows carry a velocity, clutter rows none.
    """
    rng = np.random.default_rng(seed)
    duration = spec.duration
    trajectories = [_positions(obj, duration) for obj in spec.objects]
    yaws = [_yaws(vel) for _, vel in trajectories]

    dip: dict[tuple[int, int], float] = {}
    for event in spec.occlusions:
        for frame in range(event.first_frame, event.last_frame + 1):
            dip[(event.object_index, frame)] = event.score
    hidden: set[tuple[int, int]] = set()
    for span in spec.dropouts:
        for frame in range(span.first_frame, span.last_frame + 1):
            hidden.add((span.object_index, frame))

    gt_rows = []
    frames: list[DetectionFrame] = []
    xmin, ymin, xmax, ymax = spec.world
    width = box_width(spec.mode)

    for frame in range(1, duration + 1):
        detections = []  # (box row, score, class id, velocity or None)
        for index, obj in enumerate(spec.objects):
            pos, vel = trajectories[index]
            yaw = yaws[index][frame - 1]
            gt_row = _box_row(spec, obj, pos[frame - 1], yaw)
            gt_rows.append(gt_row)
            if (index, frame) in hidden:
                continue
            if spec.miss_rate > 0 and rng.random() < spec.miss_rate:
                continue

            center = np.array(pos[frame - 1], dtype=float)
            if spec.position_noise > 0:
                center[:2] = center[:2] + rng.normal(0.0, spec.position_noise, size=2)
            score = dip.get((index, frame), spec.base_score)
            if spec.score_noise > 0:
                score = float(np.clip(score + rng.normal(0.0, spec.score_noise), 0.0, 1.0))

            velocity = None
            if spec.mode is Mode.BOX_3D:
                # vel[k] is the displacement used to reach frame k+1, so the
                # backward shift det - v lands exactly on the previous center.
                noisy = np.asarray(vel[frame - 1], dtype=float)
                if spec.velocity_noise > 0:
                    noisy = noisy + rng.normal(0.0, spec.velocity_noise, size=2)
                velocity = (float(noisy[0]), float(noisy[1]))

            box = gt_row if spec.position_noise == 0 else _box_row(spec, obj, center, yaw)
            detections.append((box, score, obj.class_id, velocity))

        if spec.clutter_rate > 0:
            for _ in range(rng.poisson(spec.clutter_rate)):
                cx = rng.uniform(xmin, xmax)
                cy = rng.uniform(ymin, ymax)
                score = float(rng.uniform(*spec.clutter_scores))
                if spec.mode is Mode.BOX_2D:
                    w = rng.uniform(30.0, 90.0)
                    h = rng.uniform(60.0, 150.0)
                    box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
                    detections.append((box, score, 0, None))
                else:
                    box = (cx, cy, 0.8, rng.uniform(-math.pi, math.pi),
                           rng.uniform(3.0, 5.0), rng.uniform(1.5, 2.1), rng.uniform(1.3, 1.9))
                    detections.append((box, score, CLASS_IDS["car"], None))
        boxes, scores, class_ids, velocities = zip(*detections) if detections else ((),) * 4
        frames.append(DetectionFrame(
            np.array(boxes, dtype=float).reshape(-1, width), np.array(scores, dtype=float),
            np.array(class_ids, dtype=np.int64),
            np.array([v or (0.0, 0.0) for v in velocities], dtype=float).reshape(-1, 2),
            np.array([v is not None for v in velocities], dtype=bool)))

    n_objects = len(spec.objects)
    gt = TrackOutput(
        np.repeat(np.arange(1, duration + 1, dtype=np.int64), n_objects),
        np.tile(np.arange(1, n_objects + 1, dtype=np.int64), duration),
        np.tile(np.array([obj.class_id for obj in spec.objects], dtype=np.int64), duration),
        np.ones(duration * n_objects),
        np.array(gt_rows, dtype=float).reshape(-1, width),
        spec.mode, duration,
    )
    return gt, frames


# --- canonical scenarios and suites -------------------------------------------


def canonical_occlusion_scenario() -> tuple[ScenarioSpec, int]:
    """One steady object whose score dips to 0.3 for frames 10-14; no noise."""
    spec = ScenarioSpec(
        mode=Mode.BOX_2D,
        duration=24,
        world=(0.0, 0.0, 1920.0, 1080.0),
        objects=(
            ObjectSpec(start=(300.0, 500.0), size=(80.0, 160.0),
                       segments=(MotionSegment(frames=40, vx=4.0, vy=0.0),)),
        ),
        occlusions=(OcclusionEvent(object_index=0, first_frame=10, last_frame=14,
                                   score=0.3),),
    )
    return spec, 0


def crossing_scenario() -> tuple[ScenarioSpec, int]:
    """Two objects whose paths cross mid-sequence; noise-free."""
    spec = ScenarioSpec(
        mode=Mode.BOX_2D,
        duration=40,
        world=(0.0, 0.0, 1920.0, 1080.0),
        objects=(
            ObjectSpec(start=(200.0, 500.0), size=(80.0, 160.0),
                       segments=(MotionSegment(frames=60, vx=20.0, vy=0.0),)),
            ObjectSpec(start=(1200.0, 540.0), size=(70.0, 150.0),
                       segments=(MotionSegment(frames=60, vx=-18.0, vy=0.0),)),
        ),
    )
    return spec, 0


def clutter_suite(n: int = 20, base_seed: int = 100) -> list[tuple[ScenarioSpec, int]]:
    """Seeded 2D benchmark suite: occlusion dips, score plateaus, and clutter.

    Each scenario holds four objects: one dips during a short occlusion, one
    settles onto a mid-range confidence plateau (0.45 or 0.55, alternating),
    and two stay clean. Clutter boxes arrive at roughly one per frame with
    scores in [0.08, 0.28].
    """
    suite = []
    anchors = ((480.0, 300.0), (1440.0, 300.0), (480.0, 780.0), (1440.0, 780.0))
    for i in range(n):
        rng = np.random.default_rng(base_seed * 1000 + i)
        objects = []
        for k, (ax, ay) in enumerate(anchors):
            start = (ax + rng.uniform(-80, 80), ay + rng.uniform(-60, 60))
            size = (rng.uniform(60, 100), rng.uniform(120, 180))
            velocity = (rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
            objects.append(ObjectSpec(start=start, size=size,
                                      segments=(MotionSegment(60, *velocity),)))
        plateau = 0.45 if i % 2 == 0 else 0.55
        spec = ScenarioSpec(
            mode=Mode.BOX_2D,
            duration=60,
            world=(0.0, 0.0, 1920.0, 1080.0),
            objects=tuple(objects),
            occlusions=(
                OcclusionEvent(object_index=0, first_frame=20, last_frame=26, score=0.35),
                OcclusionEvent(object_index=1, first_frame=25, last_frame=60, score=plateau),
            ),
            position_noise=1.0,
            score_noise=0.015,
            clutter_rate=1.0,
            clutter_scores=(0.08, 0.28),
            miss_rate=0.02,
        )
        suite.append((spec, base_seed + i))
    return suite


def motion_ablation_suite(n: int = 5, base_seed: int = 500) -> list[tuple[ScenarioSpec, int]]:
    """Seeded 3D suite with one abrupt 90-degree turn and one 5-frame dropout.

    Four car-class objects per scenario on well-separated lanes; detections
    carry lightly noised planar velocities so the detected-velocity motion
    models have something to work with.
    """
    suite = []
    car = CLASS_IDS["car"]
    for i in range(n):
        rng = np.random.default_rng(base_seed * 1000 + i)
        speed = 2.0 + 0.2 * (i % 3)
        size = (4.5, 1.9, 1.6)
        turner = ObjectSpec(
            start=(-40.0 + rng.uniform(-2, 2), -30.0, 0.8), size=size,
            segments=(MotionSegment(24, speed, 0.0), MotionSegment(40, 0.0, speed)),
            class_id=car,
        )
        dropper = ObjectSpec(
            start=(-40.0 + rng.uniform(-2, 2), -10.0, 0.8), size=size,
            segments=(MotionSegment(60, 1.8, 0.0),), class_id=car,
        )
        cruiser_a = ObjectSpec(
            start=(-40.0 + rng.uniform(-2, 2), 10.0, 0.8), size=size,
            segments=(MotionSegment(60, speed * 0.8, 0.0),), class_id=car,
        )
        cruiser_b = ObjectSpec(
            start=(40.0 + rng.uniform(-2, 2), 30.0, 0.8), size=size,
            segments=(MotionSegment(60, -1.5, 0.0),), class_id=car,
        )
        spec = ScenarioSpec(
            mode=Mode.BOX_3D,
            duration=50,
            world=(-60.0, -60.0, 60.0, 60.0),
            objects=(turner, dropper, cruiser_a, cruiser_b),
            dropouts=(DropoutSpan(object_index=1, first_frame=20, last_frame=24),),
            position_noise=0.05,
            score_noise=0.01,
            velocity_noise=0.05,
        )
        suite.append((spec, base_seed + i))
    return suite


# --- scenario (de)serialization ------------------------------------------------


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready representation of a scenario."""
    data = asdict(spec)
    data["mode"] = spec.mode.value
    return data


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Inverse of scenario_to_dict; raises ValueError on malformed input."""
    payload = dict(data)
    try:
        mode = Mode(payload.pop("mode"))
        objects = tuple(
            ObjectSpec(
                start=tuple(o["start"]),
                size=tuple(o["size"]),
                segments=tuple(MotionSegment(**s) for s in o["segments"]),
                class_id=o.get("class_id", 0),
            )
            for o in payload.pop("objects")
        )
        occlusions = tuple(OcclusionEvent(**e) for e in payload.pop("occlusions", ()))
        dropouts = tuple(DropoutSpan(**e) for e in payload.pop("dropouts", ()))
        payload["world"] = tuple(payload["world"])
        payload["clutter_scores"] = tuple(payload.get("clutter_scores", (0.1, 0.4)))
        return ScenarioSpec(mode=mode, objects=objects, occlusions=occlusions,
                            dropouts=dropouts, **payload)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scenario description: {exc}") from exc
