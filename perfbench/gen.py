"""Seeded input generator for the benchmark workloads.

Pure Python on ``random.Random``, independent of ``motrack`` (and of its
``simulate`` module), so a change to the program cannot change the inputs.
Everything is written as the text files ``motrack track`` and ``motrack eval``
read: MOT-style 2D lines ``frame,id,x,y,w,h,score,-1,-1,-1`` and 3D lines
``frame,id,class,x,y,z,theta,l,w,h,vx,vy,score``.

Object counts, frame counts, dropout episodes and clutter per frame are fixed
by the parameters, so the amount of work barely varies with the seed; only
positions, motion, noise and scores do.
"""

from __future__ import annotations

import math
import random

# Class name -> ((length, width, height) in m, typical speed in m/frame).
CLASS_SHAPES = {
    "car": ((4.5, 1.9, 1.6), 1.0),
    "pedestrian": ((0.7, 0.7, 1.75), 0.14),
    "bicycle": ((1.8, 0.6, 1.3), 0.4),
    "truck": ((8.0, 2.6, 3.2), 0.8),
    "bus": ((11.0, 2.9, 3.3), 0.7),
}


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds are hashed with SHA-512, so streams are stable across runs
    # and platforms and independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{stream}")


def _mot(frame, track_id, x, y, w, h, score):
    return f"{frame},{track_id},{x!r},{y!r},{w!r},{h!r},{score!r},-1,-1,-1"


def _line3d(frame, track_id, cls, x, y, z, theta, l, w, h, vel, score):
    vx, vy = (repr(vel[0]), repr(vel[1])) if vel is not None else ("", "")
    return (f"{frame},{track_id},{cls},{x!r},{y!r},{z!r},{theta!r},"
            f"{l!r},{w!r},{h!r},{vx},{vy},{score!r}")


def _wrap(theta: float) -> float:
    wrapped = math.remainder(theta, math.tau)
    return wrapped + math.tau if wrapped <= -math.pi else wrapped


# --- 2D ---------------------------------------------------------------------------


class _Walker2D:
    """A box centre doing a damped random walk that bounces off the image border."""

    def __init__(self, rng: random.Random, width: float, height: float):
        self.h = rng.uniform(60.0, 160.0)
        self.w = self.h * rng.uniform(0.35, 0.5)
        self.x = rng.uniform(self.w, width - self.w)
        self.y = rng.uniform(self.h, height - self.h)
        self.vx = rng.uniform(-3.0, 3.0)
        self.vy = rng.uniform(-1.5, 1.5)
        self.limits = (width, height)

    def advance(self, rng: random.Random) -> None:
        self.vx = max(-4.0, min(4.0, self.vx + rng.gauss(0.0, 0.15)))
        self.vy = max(-2.0, min(2.0, self.vy + rng.gauss(0.0, 0.1)))
        self.x += self.vx
        self.y += self.vy
        width, height = self.limits
        if not self.w / 2 < self.x < width - self.w / 2:
            self.vx = -self.vx
            self.x = min(max(self.x, self.w / 2 + 1.0), width - self.w / 2 - 1.0)
        if not self.h / 2 < self.y < height - self.h / 2:
            self.vy = -self.vy
            self.y = min(max(self.y, self.h / 2 + 1.0), height - self.h / 2 - 1.0)

    def box(self, rng: random.Random | None = None, noise: float = 0.0):
        """(x, y, w, h) top-left box, optionally jittered by noise * height."""
        x, y, w, h = self.x, self.y, self.w, self.h
        if rng is not None and noise > 0.0:
            x += rng.gauss(0.0, noise * h)
            y += rng.gauss(0.0, noise * h)
            w *= 1.0 + rng.gauss(0.0, noise)
            h *= 1.0 + rng.gauss(0.0, noise)
        return x - w / 2, y - h / 2, max(w, 2.0), max(h, 2.0)


def _random_box_2d(rng: random.Random, width: float, height: float):
    h = rng.uniform(40.0, 180.0)
    w = h * rng.uniform(0.3, 0.8)
    return rng.uniform(0.0, width - w), rng.uniform(0.0, height - h), w, h


def scene_2d(seed: int, p: dict) -> tuple[str, str, dict]:
    """A crowd of objects alive for the whole sequence: (gt text, detection text, properties).

    Each object is missed at rate ``miss_rate`` and dips to an occlusion score
    (below tau) for ``occlusion_len`` frames every ``occlusion_period``; those
    boxes are what the second pass recovers. ``clutter`` sub-tau boxes per
    frame land at random places and should be discarded.
    """
    rng = _rng(seed, "scene2d")
    width, height = p["width"], p["height"]
    period, occ_len = p["occlusion_period"], p["occlusion_len"]
    objects = [_Walker2D(rng, width, height) for _ in range(p["objects"])]
    phases = [rng.randrange(period) for _ in objects]
    gt, det = [], []
    n_det = n_low = 0
    for frame in range(1, p["frames"] + 1):
        frame_dets = []
        for k, obj in enumerate(objects):
            obj.advance(rng)
            gt.append(_mot(frame, k + 1, *obj.box(), 1.0))
            occluded = (frame + phases[k]) % period < occ_len
            if not occluded and rng.random() < p["miss_rate"]:
                continue
            if occluded:
                score = rng.uniform(*p["occlusion_score"])
                n_low += 1
            else:
                score = rng.uniform(*p["score"])
            frame_dets.append((obj.box(rng, p["noise"]), score))
        for _ in range(p["clutter"]):
            frame_dets.append((_random_box_2d(rng, width, height),
                               rng.uniform(*p["clutter_score"])))
        rng.shuffle(frame_dets)
        n_det += len(frame_dets)
        det.extend(_mot(frame, -1, *box, score) for box, score in frame_dets)
    n_clutter = p["clutter"] * p["frames"]
    props = {
        "frames": p["frames"],
        "detections": n_det,
        "clutter_per_frame": p["clutter"],
        "low_score_share": (n_low + n_clutter) / n_det,
    }
    return "\n".join(gt) + "\n", "\n".join(det) + "\n", props


# --- 3D ---------------------------------------------------------------------------


class _Mover3D:
    """An object of one class moving at constant speed with occasional abrupt turns."""

    def __init__(self, rng: random.Random, cls: str, extent: float):
        (self.l, self.w, self.h), speed = CLASS_SHAPES[cls]
        self.cls = cls
        self.speed = speed * rng.uniform(0.6, 1.4)
        self.x = rng.uniform(-extent, extent)
        self.y = rng.uniform(-extent, extent)
        self.heading = rng.uniform(-math.pi, math.pi)
        self.extent = extent

    @property
    def velocity(self) -> tuple[float, float]:
        return (self.speed * math.cos(self.heading), self.speed * math.sin(self.heading))

    def advance(self, rng: random.Random, turn_prob: float) -> None:
        if rng.random() < turn_prob:
            self.heading = _wrap(self.heading + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))
        vx, vy = self.velocity
        self.x += vx
        self.y += vy
        if abs(self.x) > self.extent or abs(self.y) > self.extent:
            self.heading = _wrap(self.heading + math.pi)
            self.x = max(-self.extent, min(self.extent, self.x))
            self.y = max(-self.extent, min(self.extent, self.y))


def _dropout_frames(frames: int, episodes: int, length: int, k: int, objects: int) -> set[int]:
    # Episode starts are spread evenly over the objects, not drawn, so the
    # number of lost tracks per frame, and with it the per-frame work, does
    # not depend on the seed; the seeded shuffle of the objects still decides
    # which object drops out when.
    dropped: set[int] = set()
    slots = objects * episodes
    for episode in range(episodes):
        slot = k + episode * objects
        start = 2 + slot * max(0, frames - length - 2) // slots
        dropped.update(range(start, start + length))
    return dropped


def scene_3d(seed: int, p: dict) -> tuple[str, str, dict]:
    """Mixed-class lidar scene: (gt text, detection text, properties).

    Objects carry detector velocities, turn abruptly with probability
    ``turn_prob`` per frame, and vanish for ``dropouts`` episodes each, so
    lost tracks stay alive. A share ``low_share`` of real detections scores
    below tau, and ``clutter`` sub-tau boxes of random classes appear per frame.
    """
    rng = _rng(seed, "scene3d")
    extent = p["extent"]
    objects = [_Mover3D(rng, cls, extent)
               for cls, count in sorted(p["classes"].items()) for _ in range(count)]
    rng.shuffle(objects)
    # Episode lengths cycle through the range by object, so the total is fixed.
    low_len, high_len = p["dropout_len"]
    dropped = [_dropout_frames(p["frames"], p["dropouts"],
                               low_len + k % (high_len - low_len + 1), k, len(objects))
               for k in range(len(objects))]
    class_names = sorted(CLASS_SHAPES)
    gt, det = [], []
    n_det = n_low = 0
    for frame in range(1, p["frames"] + 1):
        frame_dets = []
        for k, obj in enumerate(objects):
            obj.advance(rng, p["turn_prob"])
            z = obj.h / 2
            gt.append(_line3d(frame, k + 1, obj.cls, obj.x, obj.y, z, obj.heading,
                              obj.l, obj.w, obj.h, None, 1.0))
            if frame in dropped[k]:
                continue
            low = rng.random() < p["low_share"]
            score = rng.uniform(*p["low_score"]) if low else rng.uniform(*p["score"])
            n_low += low
            vx, vy = obj.velocity
            frame_dets.append(_line3d(
                frame, -1, obj.cls,
                obj.x + rng.gauss(0.0, p["noise"]), obj.y + rng.gauss(0.0, p["noise"]),
                z + rng.gauss(0.0, 0.05), _wrap(obj.heading + rng.gauss(0.0, 0.05)),
                obj.l * (1 + rng.gauss(0.0, 0.03)), obj.w * (1 + rng.gauss(0.0, 0.03)),
                obj.h * (1 + rng.gauss(0.0, 0.03)),
                (vx + rng.gauss(0.0, 0.05), vy + rng.gauss(0.0, 0.05)), score))
        for _ in range(p["clutter"]):
            cls = rng.choice(class_names)
            (l, w, h), _ = CLASS_SHAPES[cls]
            frame_dets.append(_line3d(
                frame, -1, cls, rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                h / 2, rng.uniform(-math.pi, math.pi), l, w, h,
                (rng.gauss(0.0, 0.3), rng.gauss(0.0, 0.3)), rng.uniform(*p["clutter_score"])))
        rng.shuffle(frame_dets)
        n_det += len(frame_dets)
        det.extend(frame_dets)
    counts = list(p["classes"].values())
    same_class = sum(c * c for c in counts) / sum(counts) ** 2
    props = {
        "frames": p["frames"],
        "detections": n_det,
        "clutter_per_frame": p["clutter"],
        "low_score_share": (n_low + p["clutter"] * p["frames"]) / n_det,
        "cross_class_pair_share": 1.0 - same_class,
    }
    return "\n".join(gt) + "\n", "\n".join(det) + "\n", props


# --- evaluation sequences -------------------------------------------------------------


def _lifetimes(frames: int, ids: int, min_life: float):
    # Lengths are spread evenly between min_life * frames and frames, so the
    # record count is fixed. Starts follow a fixed low-discrepancy pattern, so
    # the number of ids present per frame, which sets the cost of IDF1's
    # id x id x frame loop, does not depend on the seed either.
    shortest = max(2, int(min_life * frames))
    spans = []
    for k in range(ids):
        length = shortest + (frames - shortest) * k // max(1, ids - 1)
        start = 1 + int((frames - length) * ((k * 0.6180339887498949) % 1.0))
        spans.append((start, start + length - 1))
    return spans


def _chosen(rng: random.Random, total: int, rate: float) -> set[int]:
    """Exactly round(rate * total) of the indices 0..total-1."""
    return set(rng.sample(range(total), round(rate * total)))


def _score(rng: random.Random, bounds, rounded: bool) -> float:
    score = rng.uniform(*bounds)
    return min(1.0, max(0.01, round(score, 2))) if rounded else score


def eval_sequence(seed: int, name: str, p: dict) -> tuple[str, str, dict]:
    """Ground truth plus a synthetic prediction with misses, FPs, fragments and id swaps.

    ``p["mode"]`` is "2d" or "3d". Scores are rounded to 0.01 when
    ``p["rounded"]`` is true, else continuous (every score unique).
    """
    rng = _rng(seed, f"eval:{name}")
    frames, ids = p["frames"], p["ids"]
    is_3d = p["mode"] == "3d"
    rounded = p["rounded"]
    spans = _lifetimes(frames, ids, p["min_life"])
    n_gt = sum(b - a + 1 for a, b in spans)
    missed = _chosen(rng, n_gt, p["miss_rate"])
    fragmented = _chosen(rng, n_gt, p["frag_rate"])
    if is_3d:
        classes = sorted(CLASS_SHAPES)
        movers = [_Mover3D(rng, rng.choice(classes), 40.0) for _ in range(ids)]
    else:
        movers = [_Walker2D(rng, 1920.0, 1080.0) for _ in range(ids)]
    pred_of = list(range(1, ids + 1))
    next_id = ids + 1
    swap_frames = set(rng.sample(range(2, frames + 1), p["swaps"]))
    fp_tracks: list[list] = []  # [pred id, frames left, mover]
    gt, pred = [], []
    scores: set[float] = set()

    def emit(lines, frame, track_id, mover, noise, score):
        if lines is pred:
            scores.add(score)
        if is_3d:
            lines.append(_line3d(
                frame, track_id, mover.cls,
                mover.x + rng.gauss(0.0, noise), mover.y + rng.gauss(0.0, noise),
                mover.h / 2, mover.heading, mover.l, mover.w, mover.h, None, score))
        else:
            lines.append(_mot(frame, track_id, *mover.box(rng, noise), score))

    for frame in range(1, frames + 1):
        present = [k for k, (a, b) in enumerate(spans) if a <= frame <= b]
        if frame in swap_frames and len(present) >= 2:
            a, b = rng.sample(present, 2)
            pred_of[a], pred_of[b] = pred_of[b], pred_of[a]
        for k in present:
            mover = movers[k]
            if is_3d:
                mover.advance(rng, 0.02)
                emit(gt, frame, k + 1, mover, 0.0, 1.0)
            else:
                mover.advance(rng)
                gt.append(_mot(frame, k + 1, *mover.box(), 1.0))
            record = len(gt) - 1
            if record in fragmented:
                pred_of[k] = next_id
                next_id += 1
            if record in missed:
                continue
            emit(pred, frame, pred_of[k], mover, p["noise"],
                 _score(rng, p["tp_score"], rounded))
        fp_tracks = [t for t in fp_tracks if t[1] > 0]
        while len(fp_tracks) < p["fp_tracks"]:
            mover = (_Mover3D(rng, rng.choice(sorted(CLASS_SHAPES)), 40.0) if is_3d
                     else _Walker2D(rng, 1920.0, 1080.0))
            fp_tracks.append([next_id, rng.randint(2, 8), mover])
            next_id += 1
        for track in fp_tracks:
            track_id, _, mover = track
            if is_3d:
                mover.advance(rng, 0.0)
            else:
                mover.advance(rng)
            emit(pred, frame, track_id, mover, 0.0, _score(rng, p["fp_score"], rounded))
            track[1] -= 1
    props = {
        "mode": p["mode"],
        "gt_records": len(gt),
        "pred_records": len(pred),
        "rounded": rounded,
        "unique_scores": len(scores),
    }
    return "\n".join(gt) + "\n", "\n".join(pred) + "\n", props
