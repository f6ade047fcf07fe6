"""Box representations and the geometric similarity measures used for matching.

2D boxes are axis-aligned image rectangles (pixels); 3D boxes are yaw-rotated
cuboids in world coordinates (meters / radians). Overlap of rotated 3D boxes is
computed in bird's-eye view (BEV): footprint intersection, the polygon a
Sutherland-Hodgman clip of one footprint by the other gives, built in a fixed
number of array operations, times the vertical interval overlap. Scoring runs
on parameter rows (box2d_array, box3d_array): all 2D scoring goes through
iou_matrix_2d and all 3D scoring through one array kernel, giou_3d_pairs, over
flat arrays of box pairs. The box classes validate single boxes; record
columns hold the same parameter rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Largest 2D box area: two such areas sum to a finite union, so every box
# scores IoU 1 against itself.
MAX_BOX2D_AREA = sys.float_info.max / 2

# On-edge classification tolerance of the footprint intersection.
_CLIP_EPS = 1e-9
# Each footprint corner's (and edge's) successor along the boundary, and the
# one `shift` places on.
_NEXT_CORNER = np.array([1, 2, 3, 0])
_LATER_CORNER = {shift: np.roll(np.arange(4), -shift) for shift in (1, 2, 3)}
# The polygon of a rectangle-pair intersection in 20 slots, 5 per edge of the
# first rectangle: the ends of its piece, then up to three corners of the
# second passed on the way to the next piece.
_CHAIN_STEPS = np.arange(1, 4)[:, None]
_SLOT_INDEX = np.arange(20)[:, None]
_NEXT_SLOT = np.roll(np.arange(20), -1)


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def wrap_angles(thetas: np.ndarray) -> np.ndarray:
    """wrap_angle over an array: finite entries outside (-pi, pi] are wrapped
    one by one with its exact remainder, the rest are returned as they are."""
    outside = np.isfinite(thetas) & ~((thetas > -math.pi) & (thetas <= math.pi))
    if not outside.any():
        return thetas
    wrapped = thetas.copy()
    wrapped[outside] = [wrap_angle(t) for t in thetas[outside].tolist()]
    return wrapped


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image box given by top-left and bottom-right corners."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # The ordering test also rejects NaN corners.
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(
                f"Box2D corners out of order: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )
        if not (math.isfinite(self.x1) and math.isfinite(self.y1)
                and math.isfinite(self.x2) and math.isfinite(self.y2)):
            raise ValueError("Box2D coordinates must be finite")
        if not self.width * self.height <= MAX_BOX2D_AREA:
            raise ValueError(f"Box2D area must be finite and at most {MAX_BOX2D_AREA!r}, "
                             f"got {self.width} x {self.height}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "Box2D":
        """Build from top-left corner plus width/height."""
        return cls(x, y, x + w, y + h)

    def to_xywh(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.width, self.height)


@dataclass(frozen=True)
class Box3D:
    """Yaw-rotated cuboid: world-frame center, heading, and dimensions.

    The yaw is normalized to (-pi, pi] on construction. Length runs along the
    heading, width across it, height vertically; (x, y, z) is the volumetric
    center.
    """

    x: float
    y: float
    z: float
    theta: float
    l: float
    w: float
    h: float

    def __post_init__(self):
        # The positivity test also rejects NaN dimensions.
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError(
                f"Box3D dimensions must be positive, got l={self.l}, w={self.w}, h={self.h}"
            )
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)
                and math.isfinite(self.theta) and math.isfinite(self.l)
                and math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError("Box3D fields must be finite")
        if not -math.pi < self.theta <= math.pi:
            object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    @property
    def bev_area(self) -> float:
        return self.l * self.w

    @property
    def z_interval(self) -> tuple[float, float]:
        half = self.h / 2.0
        return (self.z - half, self.z + half)

    def bev_corners(self) -> np.ndarray:
        """Footprint corners as a (4, 2) array in counterclockwise order."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        dx, dy = self.l / 2.0, self.w / 2.0
        local = ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))
        return np.array(
            [(self.x + c * px - s * py, self.y + s * px + c * py) for px, py in local]
        )


Box = Union[Box2D, Box3D]


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two 2D boxes; 0 for disjoint or zero-area unions."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box2d_array(boxes: Sequence[Box2D]) -> np.ndarray:
    """Box corners as one (K, 4) array of (x1, y1, x2, y2) rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def box3d_array(boxes: Sequence[Box3D]) -> np.ndarray:
    """Box parameters as one (K, 7) array of (x, y, z, theta, l, w, h) rows."""
    return np.array(
        [(b.x, b.y, b.z, b.theta, b.l, b.w, b.h) for b in boxes], dtype=float
    ).reshape(-1, 7)


def _bev_corners(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Footprint corner coordinates (xs, ys) of (K, 7) parameter rows, each
    (4, K): corner i of every box in row i, counterclockwise from front left."""
    x, y, theta = params[:, 0], params[:, 1], params[:, 3]
    c, s = np.cos(theta), np.sin(theta)
    half_l, half_w = params[:, 4] / 2.0, params[:, 5] / 2.0
    # The centre plus or minus the half-length vector (c, s) * half_l and
    # the half-width vector (-s, c) * half_w.
    lx, ly, wx, wy = c * half_l, s * half_l, s * half_w, c * half_w
    front_x, back_x, front_y, back_y = x + lx, x - lx, y + ly, y - ly
    return (np.stack((front_x - wx, back_x - wx, back_x + wx, front_x + wx)),
            np.stack((front_y + wy, back_y + wy, back_y - wy, front_y - wy)))


def _fixed_order_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 (20 slots) in one fixed order, however many pairs the
    other axis holds."""
    values = values[:10] + values[10:]
    values = values[:5] + values[5:]
    return (values[0] + values[1]) + (values[2] + values[3]) + values[4]


def _bev_intersection_areas(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Footprint intersection areas of n rectangle pairs; returns (n,).

    xs and ys are (4, 2, n): corner i, counterclockwise, of each pair's first
    (a, xs[i, 0]) and second (b, xs[i, 1]) rectangle. The result is the
    polygon a Sutherland-Hodgman clip of a by b's edges 0..3 in turn gives,
    with the clip's tolerance, built in a fixed number of array operations.
    Each edge of a is cut to the piece that survives b's four edges; the
    polygon runs through the pieces in a's order, and from each piece that
    left through an edge of b along b, past its corners, to the next piece.
    Its vertices go to 20 fixed slots (per edge of a: the piece's two ends
    and up to three corners of b), unused slots repeat the vertex before
    them, and the shoelace formula runs over all of them. Pairs run along the
    last axis and every sum runs in a fixed order, so each pair is computed
    exactly as it would be alone.
    """
    n = xs.shape[2]
    pair = np.arange(n)
    ex = xs[_NEXT_CORNER] - xs
    ey = ys[_NEXT_CORNER] - ys
    # Corner i of a against edge k of b, (4, 4, n), positive to the edge's
    # left, with the clip's arithmetic. Edge i of a runs from corner i to
    # corner i + 1 and meets the line of edge k of b at its parameter t.
    dx = xs[:, None, 0] - xs[None, :, 1]
    dy = ys[:, None, 0] - ys[None, :, 1]
    side = ex[None, :, 1] * dy - ey[None, :, 1] * dx
    step = side - side[_NEXT_CORNER]
    t = np.divide(side, step, out=np.zeros_like(step), where=step != 0.0)

    # The piece of each edge of a that survives b's edges 0..3 in turn, as
    # the edge parameters of its (start, end), (4, 2, n). As in the clip, an
    # end up to _CLIP_EPS / |edge| outside b's edge counts as inside, and an
    # end outside moves to where the edge meets that edge's line (which may
    # lie past the other end, as the clip's crossing does). moved_by keeps the
    # edge of b that last moved each end, -1 for none.
    ends = np.zeros((4, 2, n))
    ends[:, 1] = 1.0
    moved_by = np.full((4, 2, n), -1)
    alive = np.ones((4, n), dtype=bool)
    for k in range(4):
        inside = side[:, k, None] - ends * step[:, k, None] >= -_CLIP_EPS
        moved = inside[:, ::-1] & ~inside
        ends = np.where(moved, t[:, k, None], ends)
        moved_by = np.where(moved, k, moved_by)
        alive &= inside[:, 0] | inside[:, 1]
    entered, left = moved_by[:, 0], moved_by[:, 1]

    # A piece that left through edge e of b is followed along b, past b's
    # corners e + 1 .. f, to the next live piece, which entered through f.
    next_entered = entered
    for shift in (3, 2, 1):
        later = _LATER_CORNER[shift]
        next_entered = np.where(alive[later], entered[later], next_entered)
    along_b = alive & (left >= 0) & (next_entered >= 0)
    passed = along_b[:, None] & (_CHAIN_STEPS <= ((next_entered - left) % 4)[:, None])
    corner = (left[:, None] + _CHAIN_STEPS) % 4

    # The polygon in 20 slots, 5 per edge of a: its piece's ends, then the
    # corners of b passed after it. An unused slot repeats the last used slot
    # before it, cyclically, and adds nothing to the shoelace sum.
    used = np.concatenate((alive[:, None], alive[:, None], passed), axis=1).reshape(20, n)
    last = np.maximum.accumulate(np.where(used, _SLOT_INDEX, -1), axis=0)
    last = np.where(last < 0, last[-1], last)
    px = np.concatenate((xs[:, 0, None] + ends * ex[:, 0, None], xs[corner, 1, pair]),
                        axis=1).reshape(20, n)[last, pair]
    py = np.concatenate((ys[:, 0, None] + ends * ey[:, 0, None], ys[corner, 1, pair]),
                        axis=1).reshape(20, n)[last, pair]
    area = np.abs(_fixed_order_sum(px * py[_NEXT_SLOT] - px[_NEXT_SLOT] * py)) / 2.0

    # With no piece left the slots are all one point. Then a's boundary misses
    # b, so b lies inside a, and the clip keeps all of it, exactly when its
    # corner 0 does.
    none_left = ~alive.any(axis=0)
    if none_left.any():
        b_inside_a = (ey[:, 0] * dx[:, 0] - ex[:, 0] * dy[:, 0]).min(axis=0) >= 0.0
        area_b = np.abs(ex[0, 1] * ey[1, 1] - ey[0, 1] * ex[1, 1])
        area = np.where(none_left & b_inside_a, area_b, area)
    return area


def giou_3d_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU of P box pairs given as (P, 7) parameter rows; returns (P,).

    Row layout is that of box3d_array. This is the one GIoU kernel: the
    overlap volume is the BEV footprint intersection (a fixed-shape
    rectangle-pair intersection, run only for pairs whose footprints can
    meet) times the vertical interval overlap; the enclosing region is the
    axis-aligned BEV bounding box of both footprints times the union of the
    vertical extents (see giou_3d).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 7:
        raise ValueError(f"pair arrays must both be (P, 7), got {a.shape} and {b.shape}")
    n_pairs = a.shape[0]
    if n_pairs == 0:
        return np.zeros(0)
    xs, ys = _bev_corners(np.concatenate((a, b)))
    xs, ys = xs.reshape(4, 2, n_pairs), ys.reshape(4, 2, n_pairs)

    half_a, half_b = a[:, 6] / 2.0, b[:, 6] / 2.0
    za0, za1 = a[:, 2] - half_a, a[:, 2] + half_a
    zb0, zb1 = b[:, 2] - half_b, b[:, 2] + half_b
    overlap_h = np.minimum(za1, zb1) - np.maximum(za0, zb0)
    # Only footprints whose circumscribed circles meet can intersect. Points
    # of a up to _CLIP_EPS / edge length outside b count as inside, so b's
    # circle is widened by a few of those before pairs are skipped.
    reach = (np.hypot(a[:, 4], a[:, 5]) + np.hypot(b[:, 4], b[:, 5])) / 2.0 \
        + 3.0 * _CLIP_EPS / np.minimum(b[:, 4], b[:, 5])
    near = np.nonzero(
        (overlap_h > 0.0) & (np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]) <= reach)
    )[0]
    inter = np.zeros(n_pairs)
    if near.size:
        inter[near] = _bev_intersection_areas(xs[..., near], ys[..., near]) * overlap_h[near]
    union = a[:, 4] * a[:, 5] * a[:, 6] + b[:, 4] * b[:, 5] * b[:, 6] - inter

    span_x = xs.max(axis=(0, 1)) - xs.min(axis=(0, 1))
    span_y = ys.max(axis=(0, 1)) - ys.min(axis=(0, 1))
    enclosing = span_x * span_y * (np.maximum(za1, zb1) - np.minimum(za0, zb0))

    return inter / union - (enclosing - union) / enclosing


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Intersection area of two yaw-rotated footprint rectangles, in square meters."""
    xs, ys = _bev_corners(box3d_array((a, b)))
    return float(_bev_intersection_areas(xs[..., None], ys[..., None])[0])


def giou_3d(a: Box3D, b: Box3D) -> float:
    """Generalized IoU of two 3D boxes, in (-1, 1].

    The overlap volume is the BEV footprint intersection times the vertical
    interval overlap. The enclosing region is the axis-aligned BEV bounding box
    of both footprints times the union of the vertical extents, so the result
    never exceeds the plain IoU and approaches -1 for far-separated boxes.

    Because that enclosure is axis-aligned rather than the convex hull, two
    identical boxes score 1 only at yaw 0 or a quarter turn: a 4 m x 2 m box
    against itself at yaw 0.3 scores about 0.586 (its footprint fills 8 of the
    13.65 square meters of its axis-aligned bounding box).
    """
    return float(giou_3d_pairs(box3d_array((a,)), box3d_array((b,)))[0])


def iou_matrix_2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (M, 4) corner row against every (N, 4) row; returns (M, N).

    Row layout is that of box2d_array. Disjoint pairs and zero-area unions
    score 0.
    """
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
