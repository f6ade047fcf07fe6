"""Independent oracles used by the tests: sampling/rasterization-based geometry
checks, a scalar polygon-clipping GIoU, an exhaustive gated-matching
optimizer, and line-by-line record parsers and writers. These deliberately
avoid the batched clipping kernel, the Hungarian code paths and the columnar
parsers they verify."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from motrack.geometry import Box2D, Box3D


def iou_2d_monte_carlo(a: Box2D, b: Box2D, n: int = 200_000, seed: int = 0) -> float:
    """IoU estimated by uniform sampling over the joint bounding box."""
    rng = np.random.default_rng(seed)
    xmin, xmax = min(a.x1, b.x1), max(a.x2, b.x2)
    ymin, ymax = min(a.y1, b.y1), max(a.y2, b.y2)
    xs = rng.uniform(xmin, xmax, n)
    ys = rng.uniform(ymin, ymax, n)
    in_a = (xs >= a.x1) & (xs <= a.x2) & (ys >= a.y1) & (ys <= a.y2)
    in_b = (xs >= b.x1) & (xs <= b.x2) & (ys >= b.y1) & (ys <= b.y2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def _footprint_mask(box: Box3D, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Point-in-rotated-rectangle test in the box's local frame."""
    dx = xs - box.x
    dy = ys - box.y
    c, s = np.cos(box.theta), np.sin(box.theta)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (np.abs(u) <= box.l / 2.0) & (np.abs(v) <= box.w / 2.0)


def giou_3d_voxel(a: Box3D, b: Box3D, cell: float = 0.02) -> float:
    """GIoU with footprint areas measured on a raster grid at the given pitch.

    The vertical direction is axis-aligned for both boxes, so the z overlap is
    exact interval arithmetic; the rotated-footprint areas (the part the
    clipping code computes) come from counting grid-cell centers.
    """
    corners = np.vstack(
        [np.asarray(box.bev_corners()) for box in (a, b)]
    )
    xmin, ymin = corners.min(axis=0) - cell
    xmax, ymax = corners.max(axis=0) + cell
    gx = np.arange(xmin + cell / 2.0, xmax, cell)
    gy = np.arange(ymin + cell / 2.0, ymax, cell)
    xs, ys = np.meshgrid(gx, gy, indexing="ij")
    in_a = _footprint_mask(a, xs, ys)
    in_b = _footprint_mask(b, xs, ys)
    cell_area = cell * cell
    area_a = np.count_nonzero(in_a) * cell_area
    area_b = np.count_nonzero(in_b) * cell_area
    inter_area = np.count_nonzero(in_a & in_b) * cell_area

    za0, za1 = a.z_interval
    zb0, zb1 = b.z_interval
    overlap_h = max(0.0, min(za1, zb1) - max(za0, zb0))
    inter = inter_area * overlap_h
    union = area_a * a.h + area_b * b.h - inter

    spans = corners.max(axis=0) - corners.min(axis=0)
    enclosing = spans[0] * spans[1] * (max(za1, zb1) - min(za0, zb0))
    return inter / union - (enclosing - union) / enclosing


# On-edge classification tolerance for polygon clipping (as in the kernel).
_CLIP_EPS = 1e-9


def polygon_area(points) -> float:
    """Shoelace area of a simple polygon given as a vertex list."""
    if len(points) < 3:
        return 0.0
    total = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def clip_convex(subject, clip):
    """Sutherland-Hodgman clip of a convex subject polygon by a CCW convex clip polygon."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_pts = output
        output = []
        px, py = input_pts[-1]
        prev_inside = ex * (py - ay) - ey * (px - ax) >= -_CLIP_EPS
        for cx, cy in input_pts:
            cur_inside = ex * (cy - ay) - ey * (cx - ax) >= -_CLIP_EPS
            if cur_inside != prev_inside:
                dx, dy = cx - px, cy - py
                denom = ex * dy - ey * dx
                if abs(denom) > _CLIP_EPS * _CLIP_EPS:
                    t = -(ex * (py - ay) - ey * (px - ax)) / denom
                    output.append((px + t * dx, py + t * dy))
                else:
                    # Grazing segment along the clip edge; keep the endpoint.
                    output.append((cx, cy))
            if cur_inside:
                output.append((cx, cy))
            px, py, prev_inside = cx, cy, cur_inside
    return output


def bev_intersection_area_clip(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area by scalar Sutherland-Hodgman clipping."""
    corners_a = [tuple(p) for p in a.bev_corners()]
    corners_b = [tuple(p) for p in b.bev_corners()]
    return polygon_area(clip_convex(corners_a, corners_b))


def giou_3d_clip(a: Box3D, b: Box3D) -> float:
    """Scalar reference GIoU: one Python clip per pair, with the same
    axis-aligned BEV enclosure as the kernel."""
    za0, za1 = a.z_interval
    zb0, zb1 = b.z_interval
    overlap_h = min(za1, zb1) - max(za0, zb0)
    inter = bev_intersection_area_clip(a, b) * overlap_h if overlap_h > 0.0 else 0.0
    union = a.volume + b.volume - inter

    corners = np.vstack((a.bev_corners(), b.bev_corners()))
    spans = corners.max(axis=0) - corners.min(axis=0)
    enclosing = spans[0] * spans[1] * (max(za1, zb1) - min(za0, zb0))

    return inter / union - (enclosing - union) / enclosing


def giou_3d_pairs_clip(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """giou_3d_clip over (P, 7) parameter rows: a drop-in for the batched kernel."""
    return np.array(
        [giou_3d_clip(Box3D(*p), Box3D(*q)) for p, q in zip(a.tolist(), b.tolist())],
        dtype=float,
    )


def giou_3d_axis_aligned(a: Box3D, b: Box3D) -> float:
    """Closed form for yaw-free boxes: rectangle overlap and an axis-aligned
    enclosing volume."""
    assert a.theta == 0.0 and b.theta == 0.0
    ix = max(0.0, min(a.x + a.l / 2, b.x + b.l / 2) - max(a.x - a.l / 2, b.x - b.l / 2))
    iy = max(0.0, min(a.y + a.w / 2, b.y + b.w / 2) - max(a.y - a.w / 2, b.y - b.w / 2))
    iz = max(0.0, min(a.z + a.h / 2, b.z + b.h / 2) - max(a.z - a.h / 2, b.z - b.h / 2))
    inter = ix * iy * iz
    union = a.volume + b.volume - inter
    cx = max(a.x + a.l / 2, b.x + b.l / 2) - min(a.x - a.l / 2, b.x - b.l / 2)
    cy = max(a.y + a.w / 2, b.y + b.w / 2) - min(a.y - a.w / 2, b.y - b.w / 2)
    cz = max(a.z + a.h / 2, b.z + b.h / 2) - min(a.z - a.h / 2, b.z - b.h / 2)
    enclosing = cx * cy * cz
    return inter / union - (enclosing - union) / enclosing


def _reference_similarity(gt, threshold):
    """(similarity, gate) for one gt/prediction record pair: 2D IoU against
    the IoU threshold, or 3D threshold minus BEV centre distance against 0
    (admissible iff the distance is at most the threshold)."""
    from motrack.association import Mode
    from motrack.geometry import iou_2d

    if gt.mode is Mode.BOX_2D:
        threshold = 0.5 if threshold is None else threshold
        return (lambda g, p: iou_2d(g.box, p.box)), threshold
    threshold = 2.0 if threshold is None else threshold

    def closeness(g, p):
        dx, dy = g.box.x - p.box.x, g.box.y - p.box.y
        return threshold - math.sqrt(dx * dx + dy * dy)

    return closeness, 0.0


def clear_counts_reference(gt, pred, threshold: float | None = None):
    """From-scratch CLEAR counter for 2D or 3D outputs: persistence plus
    exhaustive optimal per-frame matching. Returns (mota, fp, fn, ids)."""
    similarity, gate = _reference_similarity(gt, threshold)
    gt_frames, pred_frames = records_by_frame(gt), records_by_frame(pred)
    fp = fn = ids = 0
    persisting: dict[int, int] = {}
    last: dict[int, int] = {}
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        g = gt_frames.get(frame, [])
        p = pred_frames.get(frame, [])
        matches: dict[int, int] = {}
        used: set[int] = set()
        pid_idx = {rec.track_id: j for j, rec in enumerate(p)}
        for i, rec in enumerate(g):
            j = pid_idx.get(persisting.get(rec.track_id))
            if j is not None and j not in used and similarity(rec, p[j]) >= gate:
                matches[i] = j
                used.add(j)

        rows = [i for i in range(len(g)) if i not in matches]
        cols = frozenset(j for j in range(len(p)) if j not in used)
        best = (0.0, ())

        def search(k, free, total, chosen):
            nonlocal best
            if total > best[0] + 1e-15:
                best = (total, tuple(chosen))
            if k == len(rows):
                return
            search(k + 1, free, total, chosen)
            for j in free:
                value = similarity(g[rows[k]], p[j])
                if value >= gate:
                    chosen.append((rows[k], j))
                    search(k + 1, free - {j}, total + value, chosen)
                    chosen.pop()

        search(0, cols, 0.0, [])
        matches.update(best[1])
        for i, j in matches.items():
            gid, pid = g[i].track_id, p[j].track_id
            if gid in last and last[gid] != pid:
                ids += 1
            last[gid] = pid
        fp += len(p) - len(matches)
        fn += len(g) - len(matches)
        persisting = {g[i].track_id: p[j].track_id for i, j in matches.items()}

    total_gt = len(gt.records)
    mota = 1.0 - (ids + fp + fn) / total_gt if total_gt else float("nan")
    return mota, fp, fn, ids


def records_by_frame(output) -> dict[int, list]:
    """A TrackOutput's records grouped by frame number."""
    grouped: dict[int, list] = {}
    for rec in output.records:
        grouped.setdefault(rec.frame, []).append(rec)
    return grouped


def trajectories(output) -> dict[int, dict[int, object]]:
    """A TrackOutput's records grouped by identity, then frame."""
    grouped: dict[int, dict[int, object]] = {}
    for rec in output.records:
        grouped.setdefault(rec.track_id, {})[rec.frame] = rec
    return grouped


def idf1_reference(gt, pred, threshold: float | None = None) -> float:
    """IDF1 by enumerating every one-to-one trajectory mapping (small inputs)."""
    from itertools import permutations

    similarity, gate = _reference_similarity(gt, threshold)
    gt_traj, pred_traj = trajectories(gt), trajectories(pred)
    if not gt_traj or not pred_traj:
        return 0.0
    gt_ids, pred_ids = sorted(gt_traj), sorted(pred_traj)
    overlap = {}
    for gid in gt_ids:
        for pid in pred_ids:
            shared = gt_traj[gid].keys() & pred_traj[pid].keys()
            overlap[(gid, pid)] = sum(
                1 for f in shared
                if similarity(gt_traj[gid][f], pred_traj[pid][f]) >= gate
            )
    short, long_, flip = (gt_ids, pred_ids, False) if len(gt_ids) <= len(pred_ids) \
        else (pred_ids, gt_ids, True)
    best = 0
    for perm in permutations(long_, len(short)):
        total = sum(
            overlap[(a, b)] if not flip else overlap[(b, a)]
            for a, b in zip(short, perm)
        )
        best = max(best, total)
    return 2.0 * best / (2.0 * best + (len(pred.records) - best) + (len(gt.records) - best))


def amota_reference(gt, pred, threshold: float | None = None, n_points: int = 40):
    """The exhaustive AMOTA sweep: for every unique score, drop the records
    scored below it, rebuild the output and recount CLEAR from scratch; then
    pick, per recall point, the highest score among those with the lowest
    recall that still reaches it. Returns (amota, smota values, recalls)."""
    from motrack.tracker import TrackOutput

    total_gt = len(gt.records)
    sweeps = []
    for score in sorted({rec.score for rec in pred.records}, reverse=True):
        kept = tuple(rec for rec in pred.records if rec.score >= score)
        subset = TrackOutput(kept, pred.mode, pred.n_frames, pred.config)
        _, fp, fn, ids = clear_counts_reference(gt, subset, threshold)
        sweeps.append((score, (total_gt - fn) / total_gt, fp + fn + ids))

    recalls = tuple(k / n_points for k in range(1, n_points + 1))
    values = []
    for r in recalls:
        reachable = [entry for entry in sweeps if entry[1] >= r]
        if not reachable:
            values.append(0.0)
            continue
        lowest = min(recall for _, recall, _ in reachable)
        _, _, errors = max((e for e in reachable if e[1] == lowest), key=lambda e: e[0])
        penalty = errors - (1.0 - r) * total_gt
        values.append(max(0.0, min(1.0, 1.0 - penalty / (r * total_gt))))
    return float(np.mean(values)), tuple(values), recalls


def best_gated_matching(values: np.ndarray, gate) -> float:
    """Exhaustive maximum total similarity over gated partial matchings.

    Complete search (memoized over column bitmasks), independent of the
    Hungarian solver. Leaving a pair unmatched contributes zero.
    """
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape
    gate_arr = np.broadcast_to(np.asarray(gate, dtype=float), values.shape)
    admissible = values >= gate_arr

    @lru_cache(maxsize=None)
    def best(row: int, free_cols: int) -> float:
        if row == n_rows:
            return 0.0
        result = best(row + 1, free_cols)
        for col in range(n_cols):
            if free_cols & (1 << col) and admissible[row, col]:
                candidate = values[row, col] + best(row + 1, free_cols & ~(1 << col))
                if candidate > result:
                    result = candidate
        return result

    try:
        return best(0, (1 << n_cols) - 1)
    finally:
        best.cache_clear()


# --- line-by-line record parsers and writers ------------------------------------
#
# The slow oracle of motrack.formats: one line at a time, one object per
# record. Same formats, same checks in the same order, same messages.

def _fail(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


def _parse_float(token: str, line_no: int, name: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise _fail(line_no, f"{name} is not a number: {token!r}") from None


def _parse_int(token: str, line_no: int, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _fail(line_no, f"{name} is not an integer: {token!r}") from None


def _split_line(line: str, line_no: int, expected: int) -> list[str]:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != expected:
        raise _fail(line_no, f"expected {expected} comma-separated fields, got {len(fields)}")
    return fields


def _iter_lines(text: str):
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield line_no, line


def _dense_frames(parsed) -> list[list]:
    n_frames = max((frame for frame, _ in parsed), default=0)
    frames: list[list] = [[] for _ in range(n_frames)]
    for frame, det in parsed:
        frames[frame - 1].append(det)
    return frames


def _results_output(records: list, mode):
    from motrack.tracker import TrackOutput

    records.sort(key=lambda r: r.frame)
    n_frames = max((r.frame for r in records), default=0)
    return TrackOutput(tuple(records), mode, n_frames)


def _parse_mot_line(line: str, line_no: int):
    fields = _split_line(line, line_no, 10)
    frame = _parse_int(fields[0], line_no, "frame")
    track_id = _parse_int(fields[1], line_no, "id")
    x = _parse_float(fields[2], line_no, "x")
    y = _parse_float(fields[3], line_no, "y")
    w = _parse_float(fields[4], line_no, "w")
    h = _parse_float(fields[5], line_no, "h")
    score = _parse_float(fields[6], line_no, "score")
    for name, token in zip(("u1", "u2", "u3"), fields[7:]):
        _parse_float(token, line_no, name)
    if frame < 1:
        raise _fail(line_no, f"frame must be >= 1, got {frame}")
    if w <= 0 or h <= 0:
        raise _fail(line_no, f"box size must be positive, got w={w}, h={h}")
    if not 0.0 <= score <= 1.0:
        raise _fail(line_no, f"score must be in [0, 1], got {score}")
    try:
        box = Box2D.from_xywh(x, y, w, h)
    except ValueError as exc:
        raise _fail(line_no, str(exc)) from None
    return frame, track_id, box, score


def parse_mot_detections_lines(text: str) -> list[list]:
    from motrack.association import Detection

    return _dense_frames([(frame, Detection(box, score))
                          for line_no, line in _iter_lines(text)
                          for frame, _, box, score in [_parse_mot_line(line, line_no)]])


def parse_mot_results_lines(text: str):
    from motrack.association import Mode, TrackRecord

    records = []
    for line_no, line in _iter_lines(text):
        frame, track_id, box, score = _parse_mot_line(line, line_no)
        if track_id < 1:
            raise _fail(line_no, f"result id must be >= 1, got {track_id}")
        records.append(TrackRecord(frame, track_id, box, score))
    return _results_output(records, Mode.BOX_2D)


def _class_id(token: str, line_no: int) -> int:
    from motrack.tracker import CLASS_IDS

    if token in CLASS_IDS:
        return CLASS_IDS[token]
    try:
        return int(token)
    except ValueError:
        raise _fail(line_no, f"unknown class label {token!r}") from None


def _parse_3d_line(line: str, line_no: int):
    fields = _split_line(line, line_no, 13)
    frame = _parse_int(fields[0], line_no, "frame")
    track_id = _parse_int(fields[1], line_no, "id")
    class_id = _class_id(fields[2], line_no)
    numbers = [_parse_float(fields[k], line_no, name)
               for k, name in ((3, "x"), (4, "y"), (5, "z"), (6, "theta"),
                               (7, "l"), (8, "w"), (9, "h"))]
    velocity = None
    if fields[10] or fields[11]:
        if not (fields[10] and fields[11]):
            raise _fail(line_no, "vx and vy must both be present or both empty")
        velocity = (_parse_float(fields[10], line_no, "vx"),
                    _parse_float(fields[11], line_no, "vy"))
    score = _parse_float(fields[12], line_no, "score")
    if frame < 1:
        raise _fail(line_no, f"frame must be >= 1, got {frame}")
    if not 0.0 <= score <= 1.0:
        raise _fail(line_no, f"score must be in [0, 1], got {score}")
    try:
        box = Box3D(*numbers)
    except ValueError as exc:
        raise _fail(line_no, str(exc)) from None
    return frame, track_id, class_id, box, velocity, score


def parse_3d_detections_lines(text: str) -> list[list]:
    from motrack.association import Detection

    parsed = []
    for line_no, line in _iter_lines(text):
        frame, _, class_id, box, velocity, score = _parse_3d_line(line, line_no)
        try:
            parsed.append((frame, Detection(box, score, class_id, velocity)))
        except ValueError as exc:
            raise _fail(line_no, str(exc)) from None
    return _dense_frames(parsed)


def parse_3d_results_lines(text: str):
    from motrack.association import Mode, TrackRecord

    records = []
    for line_no, line in _iter_lines(text):
        frame, track_id, class_id, box, _, score = _parse_3d_line(line, line_no)
        if track_id < 1:
            raise _fail(line_no, f"result id must be >= 1, got {track_id}")
        records.append(TrackRecord(frame, track_id, box, score, class_id))
    return _results_output(records, Mode.BOX_3D)


def mot_line(frame: int, track_id: int, box: Box2D, score: float) -> str:
    x, y, w, h = box.to_xywh()
    return f"{frame},{track_id},{x!r},{y!r},{w!r},{h!r},{float(score)!r},-1,-1,-1"


def box3d_line(frame: int, track_id: int, box: Box3D, score: float, class_id: int = 0,
               velocity: tuple[float, float] | None = None) -> str:
    from motrack.tracker import CLASS_NAMES

    name = CLASS_NAMES[class_id] if 0 <= class_id < len(CLASS_NAMES) else str(class_id)
    planar = f"{float(velocity[0])!r},{float(velocity[1])!r}" if velocity is not None else ","
    values = (box.x, box.y, box.z, box.theta, box.l, box.w, box.h)
    return (f"{frame},{track_id},{name},"
            + ",".join(repr(float(v)) for v in values) + f",{planar},{float(score)!r}")
