"""Box representations and the geometric similarity measures used for matching.

2D boxes are axis-aligned image rectangles (pixels); 3D boxes are yaw-rotated
cuboids in world coordinates (meters / radians). Overlap of rotated 3D boxes is
computed in bird's-eye view (BEV): footprint intersection via convex polygon
clipping, times the vertical interval overlap. Scoring runs on parameter rows
(box2d_array, box3d_array): all 2D scoring goes through iou_matrix_2d and all
3D scoring through one array kernel, giou_3d_pairs, over flat arrays of box
pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# On-edge classification tolerance for polygon clipping.
_CLIP_EPS = 1e-9


class Metric(enum.Enum):
    """Similarity metric for a detection/tracklet box pair."""

    IOU_2D = "iou_2d"
    GIOU_3D = "giou_3d"


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
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
    """Footprint corner coordinates (xs, ys), each (P, 4), counterclockwise."""
    x, y, theta, l, w = params[:, 0], params[:, 1], params[:, 3], params[:, 4], params[:, 5]
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    dx, dy = l / 2.0, w / 2.0
    px = np.stack((dx, -dx, -dx, dx), axis=1)
    py = np.stack((dy, dy, -dy, -dy), axis=1)
    return x[:, None] + c * px - s * py, y[:, None] + s * px + c * py


def _clip_against_edge(xs, ys, counts, ax, ay, bx, by):
    """One Sutherland-Hodgman stage for a batch of convex polygons.

    Row p holds a polygon with counts[p] vertices in xs/ys[p, :counts[p]]; it
    is clipped by the half-plane left of the directed edge (ax, ay) -> (bx, by)
    (all (P,) arrays). Each vertex emits the crossing into or out of the
    half-plane (if any), then itself if inside, which is the scalar algorithm
    with every row advanced in lockstep.
    """
    rows = np.arange(xs.shape[0])[:, None]
    k = np.arange(xs.shape[1])
    valid = k < counts[:, None]
    prev = np.where(k == 0, np.maximum(counts - 1, 0)[:, None], k - 1)
    ex, ey = (bx - ax)[:, None], (by - ay)[:, None]
    side = ex * (ys - ay[:, None]) - ey * (xs - ax[:, None])
    side_prev = side[rows, prev]
    inside = side >= -_CLIP_EPS
    crosses = valid & (inside != (side_prev >= -_CLIP_EPS))
    keeps = valid & inside

    px, py = xs[rows, prev], ys[rows, prev]
    dx, dy = xs - px, ys - py
    denom = ex * dy - ey * dx
    steep = np.abs(denom) > _CLIP_EPS * _CLIP_EPS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -side_prev / denom
        # A grazing segment along the clip edge keeps its endpoint.
        cross_x = np.where(steep, px + t * dx, xs)
        cross_y = np.where(steep, py + t * dy, ys)

    emitted = crosses + keeps.astype(np.intp)
    slot = np.cumsum(emitted, axis=1) - emitted
    new_counts = emitted.sum(axis=1)
    width = int(new_counts.max(initial=0))
    # Points that are not emitted land in a spill column, cut off at the end.
    out_x = np.zeros((xs.shape[0], width + 1))
    out_y = np.zeros_like(out_x)
    at = np.where(crosses, slot, width)
    out_x[rows, at] = cross_x
    out_y[rows, at] = cross_y
    at = np.where(keeps, slot + crosses, width)
    out_x[rows, at] = xs
    out_y[rows, at] = ys
    return out_x[:, :width], out_y[:, :width], new_counts


def _bev_intersection_areas(
    corners_a: tuple[np.ndarray, np.ndarray], corners_b: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Footprint intersection areas of P rectangle pairs, each given as (P, 4) corners."""
    xs, ys = corners_a
    counts = np.full(xs.shape[0], 4, dtype=np.intp)
    bx, by = corners_b
    for i in range(4):
        j = (i + 1) % 4
        xs, ys, counts = _clip_against_edge(
            xs, ys, counts, bx[:, i], by[:, i], bx[:, j], by[:, j]
        )
    # Shoelace formula, summed vertex by vertex in polygon order.
    total = np.zeros(xs.shape[0])
    k = np.arange(xs.shape[1])
    nxt = np.where(k + 1 < counts[:, None], k + 1, 0)
    rows = np.arange(xs.shape[0])[:, None]
    xn, yn = xs[rows, nxt], ys[rows, nxt]
    terms = np.where(k < counts[:, None], xs * yn - xn * ys, 0.0)
    for col in range(xs.shape[1]):
        total = total + terms[:, col]
    return np.where(counts >= 3, np.abs(total) / 2.0, 0.0)


def giou_3d_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU of P box pairs given as (P, 7) parameter rows; returns (P,).

    Row layout is that of box3d_array. This is the one GIoU kernel: the
    overlap volume is the BEV footprint intersection (a batched convex clip
    and the shoelace formula, run only for pairs whose footprints can meet)
    times the vertical interval overlap; the enclosing region is the
    axis-aligned BEV bounding box of both footprints times the union of the
    vertical extents (see giou_3d).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 7:
        raise ValueError(f"pair arrays must both be (P, 7), got {a.shape} and {b.shape}")
    if a.shape[0] == 0:
        return np.zeros(0)
    corners_a, corners_b = _bev_corners(a), _bev_corners(b)

    half_a, half_b = a[:, 6] / 2.0, b[:, 6] / 2.0
    za0, za1 = a[:, 2] - half_a, a[:, 2] + half_a
    zb0, zb1 = b[:, 2] - half_b, b[:, 2] + half_b
    overlap_h = np.minimum(za1, zb1) - np.maximum(za0, zb0)
    # Only footprints whose circumscribed circles meet can intersect. The
    # clip counts points up to _CLIP_EPS / edge length outside b as inside,
    # so b's circle is widened by a few of those before pairs are skipped.
    reach = (np.hypot(a[:, 4], a[:, 5]) + np.hypot(b[:, 4], b[:, 5])) / 2.0 \
        + 3.0 * _CLIP_EPS / np.minimum(b[:, 4], b[:, 5])
    near = np.nonzero(
        (overlap_h > 0.0) & (np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]) <= reach)
    )[0]
    inter = np.zeros(a.shape[0])
    if near.size:
        area = _bev_intersection_areas(
            (corners_a[0][near], corners_a[1][near]), (corners_b[0][near], corners_b[1][near])
        )
        inter[near] = area * overlap_h[near]
    union = a[:, 4] * a[:, 5] * a[:, 6] + b[:, 4] * b[:, 5] * b[:, 6] - inter

    xs = np.concatenate((corners_a[0], corners_b[0]), axis=1)
    ys = np.concatenate((corners_a[1], corners_b[1]), axis=1)
    span_x = xs.max(axis=1) - xs.min(axis=1)
    span_y = ys.max(axis=1) - ys.min(axis=1)
    enclosing = span_x * span_y * (np.maximum(za1, zb1) - np.minimum(za0, zb0))

    return inter / union - (enclosing - union) / enclosing


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Intersection area of two yaw-rotated footprint rectangles, in square meters."""
    corners_a, corners_b = _bev_corners(box3d_array((a,))), _bev_corners(box3d_array((b,)))
    return float(_bev_intersection_areas(corners_a, corners_b)[0])


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


def _check_dimensionality(boxes: Sequence[Box], metric: Metric, kind: str) -> None:
    wanted = Box2D if metric is Metric.IOU_2D else Box3D
    for box in boxes:
        if not isinstance(box, wanted):
            raise ValueError(
                f"{metric.value} cannot score a {type(box).__name__} {kind} box"
            )


def similarity_matrix(
    detections: Sequence[Box], tracklets: Sequence[Box], metric: Metric
) -> np.ndarray:
    """Score every detection box (rows) against every tracklet box (columns).

    The metric's dimensionality must match the boxes or a ValueError is
    raised. Returns an (M, N) array, empty when either side is empty.
    """
    _check_dimensionality(detections, metric, "detection")
    _check_dimensionality(tracklets, metric, "tracklet")
    if metric is Metric.IOU_2D:
        return iou_matrix_2d(box2d_array(detections), box2d_array(tracklets))
    rows, cols = box3d_array(detections), box3d_array(tracklets)
    return giou_3d_pairs(
        np.repeat(rows, len(cols), axis=0), np.tile(cols, (len(rows), 1))
    ).reshape(len(rows), len(cols))
