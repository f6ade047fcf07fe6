"""Box representations and the geometric similarity measures used for matching.

2D boxes are axis-aligned image rectangles (pixels); 3D boxes are yaw-rotated
cuboids in world coordinates (meters / radians). Overlap of rotated 3D boxes is
computed in bird's-eye view (BEV): footprint intersection, the polygon a
Sutherland-Hodgman clip of one footprint by the other gives, built in a fixed
number of array operations, times the vertical interval overlap. Scoring runs
on parameter rows, (x1, y1, x2, y2) corners in 2D and (x, y, z, theta, l, w,
h) in 3D: all 2D scoring goes through iou_2d_pairs, over rows paired by
broadcasting (association's dense detections x tracks table, evaluation's
candidate pairs), and all 3D scoring through one array kernel, giou_3d_pairs,
over flat arrays of box pairs. The box classes are plain views of one such
row each: rows are checked where they enter (association.row_rules), never
the boxes built from them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

# Largest 2D box area: two such areas sum to a finite union, so every box
# scores IoU 1 against itself.
MAX_BOX2D_AREA = sys.float_info.max / 2

# B, the largest |x|, |y|, |z|, l, w, h, |vx|, |vy| of a 3D detection. The GIoU
# enclosure volume, 3D tracking's largest product, is finite while its spans are
# below 5.6e102 = 560B. Shifted detections lie within 2B + B / sqrt(2) < 3B of the
# origin; Kalman estimates within 2B, drifting at most B / 4 per lost frame (gains
# do not depend on the values), so spans stay below 560B for tracks lost < 2000
# frames, and a track is lost at most track_buffer <= MAX_TRACK_BUFFER frames.
MAX_3D_MAGNITUDE = 1e100
MAX_TRACK_BUFFER = 1000
# A 2D detection has a height of at most B and w/h, h/w of at most A. The 2D
# filter divides w by h and squares height-scaled noise: over L < 2000 lost
# frames a height variance grows to about L^2 (h / 16)^2 + L^3 (h / 160)^2 / 3
# < 1.3e5 h^2, and aspect estimates, sums of w/h measurements whose coefficients
# add up to less than 1.01 + 0.002 L (the aspect noise is fixed), stay within 5A.
MAX_2D_ASPECT = 1e307
# The largest alpha. With adaptive noise a 2D measurement of height h <= B has
# position variance alpha (1 - s)^2 (h / 20)^2 <= 2.5e297, and the filter adds
# it to a variance below 1.3e5 h^2 = 1.3e205 (above), so every sum and the gain
# times it stay finite with a factor 1e10 to spare; 3D noise does not scale.
MAX_ALPHA = 1e100

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


def wrap_angles(thetas: np.ndarray) -> np.ndarray:
    """Angles wrapped to (-pi, pi], exactly: this is the one yaw rule.

    Each finite entry is reduced by fmod, which is exact, then moved by at
    most one turn, exact by Sterbenz's lemma as the remainder lies within a
    factor 2 of tau. The input itself is returned when every entry lies in
    (-pi, pi]; non-finite entries are left as they are.
    """
    if ((thetas > -math.pi) & (thetas <= math.pi)).all():
        return thetas
    wrapped = np.fmod(thetas, math.tau, out=thetas.astype(float), where=np.isfinite(thetas))
    # Subtracting the step (0 for most entries) keeps the sign of a zero.
    wrapped -= np.where(wrapped > math.pi, math.tau,
                        np.where(wrapped <= -math.pi, -math.tau, 0.0))
    return wrapped


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image box given by top-left and bottom-right corners; a
    view of one checked (x1, y1, x2, y2) row."""

    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True)
class Box3D:
    """Yaw-rotated cuboid: world-frame center, heading, and dimensions; a view
    of one checked (x, y, z, theta, l, w, h) row, whose yaw was wrapped to
    (-pi, pi] where the row entered. Length runs along the heading, width
    across it, height vertically; (x, y, z) is the volumetric center.
    """

    x: float
    y: float
    z: float
    theta: float
    l: float
    w: float
    h: float


Box = Union[Box2D, Box3D]


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
    """Generalized IoU of P box pairs given as (P, 7) parameter rows; returns
    (P,), each in (-1, 1].

    Rows are (x, y, z, theta, l, w, h). This is the one GIoU kernel. The
    overlap volume is the BEV footprint intersection (a fixed-shape
    rectangle-pair intersection, run only for pairs whose footprints can
    meet) times the vertical interval overlap. The enclosing region is the
    axis-aligned BEV bounding box of both footprints times the union of the
    vertical extents, so the result never exceeds the plain IoU and
    approaches -1 for far-separated boxes.

    Because that enclosure is axis-aligned rather than the convex hull, two
    identical boxes score 1 only at yaw 0 or a quarter turn: a 4 m x 2 m box
    against itself at yaw 0.3 scores about 0.586 (its footprint fills 8 of the
    13.65 square meters of its axis-aligned bounding box).
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


def iou_2d_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (..., 4) corner rows a and b, paired by broadcasting; returns
    the broadcast leading shape.

    Rows are (x1, y1, x2, y2) corners. Every pair is scored on its own:
    ``a[:, None]`` against ``b[None]`` gives the (M, N) table of all pairs,
    and two (P, 4) arrays give P pairs. Disjoint pairs and zero-area unions
    score 0. A gap between boxes too far apart for a float overflows to
    -inf, which is no overlap.
    """
    ax1, ay1, ax2, ay2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bx2, by2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    with np.errstate(over="ignore"):
        iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
        ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
