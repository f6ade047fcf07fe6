"""Host-speed calibration: a fixed kernel timed between the program's calls.

On a shared VM the same work runs up to 2x slower for minutes at a time, so
a raw wall time says as much about the host as about the program. The
benchmark therefore times this kernel, which belongs to the benchmark and not
to the program, at short intervals between the program's calls. Each timed
call is scaled by ``reference / host``, where ``host`` is the kernel's median
time over the samples taken within ``WINDOW_S`` of the call. A time then reads
as it would on the host the reference was recorded on, in its usual state. A
change to the program cannot change the kernel.

The kernel does what the program does per frame, on its own data: an IoU
matrix of 40 x 40 boxes in numpy, a Hungarian assignment in scipy, a Python
loop over the matches, a few small matrix products, and the overlap of
rotated rectangles by polygon clipping on numpy scalars. It never calls
``motrack``. Garbage collection is off while it runs, so its time does not
depend on how many objects the program keeps alive.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

_rng = np.random.default_rng(0)
_A = _rng.random((40, 4)) * 100.0
_A[:, 2:] += _A[:, :2]
_B = _A + _rng.normal(0.0, 3.0, _A.shape)
_F = np.eye(8) + np.eye(8, k=4)
# (x, y, length, width, yaw) footprints, walked in turn so the kernel's data
# does not all sit in the first-level cache.
_POOL = [(x, y, 4.5, 1.9, yaw) for x, y, yaw in (_rng.random((400, 3)) * 6.0).tolist()]


def _corners(x: float, y: float, length: float, width: float, yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = length / 2.0, width / 2.0
    return np.array([(x + c * px - s * py, y + s * px + c * py)
                     for px, py in ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))])


def _clip(subject: list, clip: list) -> list:
    """Sutherland-Hodgman: the part of convex polygon ``subject`` inside ``clip``."""
    out = subject
    for k in range(len(clip)):
        if not out:
            break
        (ax, ay), (bx, by) = clip[k], clip[(k + 1) % len(clip)]
        ex, ey = bx - ax, by - ay
        points, out = out, []
        px, py = points[-1]
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        for qx, qy in points:
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if q_in != p_in:
                dx, dy = qx - px, qy - py
                den = ex * dy - ey * dx
                t = -(ex * (py - ay) - ey * (px - ax)) / den if den else 0.0
                out.append((px + t * dx, py + t * dy))
            if q_in:
                out.append((qx, qy))
            px, py, p_in = qx, qy, q_in
    return out


def _area(points: list) -> float:
    return 0.5 * abs(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                         in zip(points, points[1:] + points[:1])))


_next = 0


def kernel() -> float:
    """Small numpy and scipy calls, then polygon clipping: about 0.7 ms."""
    global _next
    a, b = _A, _B
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    iou = inter / (area_a[:, None] + area_b[None, :] - inter)
    rows, cols = linear_sum_assignment(-iou)
    total = float(sum(iou[i, j] for i, j in zip(rows.tolist(), cols.tolist()) if iou[i, j] > 0.3))
    cov = np.eye(8)
    for _ in range(10):
        cov = _F @ cov @ _F.T + 0.01
    for _ in range(8):
        box_a, box_b = _POOL[_next % len(_POOL)], _POOL[(7 * _next + 3) % len(_POOL)]
        _next += 1
        corners_a, corners_b = _corners(*box_a), _corners(*box_b)
        overlap = _area(_clip([tuple(p) for p in corners_a], [tuple(p) for p in corners_b]))
        both = np.vstack((corners_a, corners_b))
        spans = both.max(axis=0) - both.min(axis=0)
        total += overlap / (spans[0] * spans[1])
    return total


INTERVAL_S = 0.01  # work between two samples, checked between calls
WINDOW_S = 0.2  # a call's factor comes from the samples this close to its midpoint,
MIN_SAMPLES = 5  # or from this many nearest samples when fewer are that close
BURST = 5  # samples before and after each round or pass


class Calibrator:
    """Times the kernel every ``INTERVAL_S`` of work; gives the host factor at a time.

    ``reference_s`` is the kernel's median time on the reference host.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.times: list[float] = []  # midpoint of each sample, increasing
        self.durations: list[float] = []
        self.last = time.perf_counter()

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.last = end

    def tick(self) -> None:
        """Between two program calls: sample if ``INTERVAL_S`` has passed."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self._sample()

    def burst_samples(self) -> None:
        """At the start and the end of a round or pass, so every call has samples near it."""
        for _ in range(BURST):
            self._sample()

    def factor(self, at: float) -> float:
        """``reference / host`` at time ``at``: the median kernel time within
        ``WINDOW_S``, or over the ``MIN_SAMPLES`` samples nearest to it."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            left = at - self.times[lo - 1] if lo > 0 else math.inf
            right = self.times[hi] - at if hi < len(self.times) else math.inf
            if left <= right:
                lo -= 1
            else:
                hi += 1
        return self.reference_s / statistics.median(self.durations[lo:hi])

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Durations of the (start, end) calls, each scaled by the factor at its midpoint."""
        return [(end - start) * self.factor((start + end) / 2) for start, end in spans]
