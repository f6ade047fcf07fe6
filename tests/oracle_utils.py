"""Independent oracles used by the tests: sampling/rasterization-based geometry
checks, a scalar polygon-clipping GIoU, an exhaustive gated-matching
optimizer, a dense gated Hungarian assignment, a two-pass association step, a
dense CLEAR frame step, evaluation tables and IDF1 overlaps scored one frame
at a time, an incremental AMOTA sweep that carries identities in its frame
state, and line-by-line record parsers and writers. Each deliberately avoids
the code path it verifies: the batched clipping kernel, the Hungarian solver,
the solver's conflict-free short path, the once-per-frame scoring and update,
the padded blocks of frames the evaluators score at once, the sparse tables,
AMOTA's count of identity switches over spells of matches and the columnar
parsers.

wrap_angle is the reference yaw wrap, an exact remainder taken one angle at a
time, and box2d and box3d the reference box rules, scalar tests of one box
with the messages of motrack.association.row_rules. A few helpers are thin
wrappers the tests share rather than oracles: box2d_array and box3d_array
(the parameter rows of Box2D / Box3D objects), block_tables (every frame's
table from the evaluators' own block scorer), the gate-taking solve_gated,
the scalar giou_3d and bev_intersection_area over the array kernels,
output_of (a TrackOutput over TrackRecords' columns), detection_frame (a
DetectionFrame over Detections' columns) and slice_frames over the
TrackOutput constructor."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from motrack.geometry import MAX_2D_ASPECT, MAX_3D_MAGNITUDE, MAX_BOX2D_AREA, Box2D, Box3D


def wrap_angle(theta: float) -> float:
    """theta wrapped to (-pi, pi]: its exact remainder by tau, moved up a turn
    at -pi."""
    wrapped = math.remainder(theta, math.tau)
    return wrapped + math.tau if wrapped <= -math.pi else wrapped


def box2d(x1: float, y1: float, x2: float, y2: float) -> Box2D:
    """The Box2D of corners that keep the box rules, checked one scalar at a
    time; raises a ValueError with row_rules' message at the first broken."""
    # The ordering test also rejects NaN corners.
    if not (x1 <= x2 and y1 <= y2):
        raise ValueError(f"Box2D corners out of order: ({x1}, {y1}, {x2}, {y2})")
    if not all(map(math.isfinite, (x1, y1, x2, y2))):
        raise ValueError("Box2D coordinates must be finite")
    width, height = x2 - x1, y2 - y1
    if not width * height <= MAX_BOX2D_AREA:
        raise ValueError(f"Box2D area must be finite and at most {MAX_BOX2D_AREA!r}, "
                         f"got {width} x {height}")
    return Box2D(x1, y1, x2, y2)


def box3d(x: float, y: float, z: float, theta: float, l: float, w: float, h: float) -> Box3D:
    """The Box3D of parameters that keep the box rules, checked one scalar at
    a time, with its yaw wrapped by wrap_angle; raises a ValueError with
    row_rules' message at the first rule broken."""
    # The positivity test also rejects NaN dimensions.
    if not (l > 0 and w > 0 and h > 0):
        raise ValueError(f"Box3D dimensions must be positive, got l={l}, w={w}, h={h}")
    if not all(map(math.isfinite, (x, y, z, theta, l, w, h))):
        raise ValueError("Box3D fields must be finite")
    return Box3D(x, y, z, wrap_angle(theta), l, w, h)


def box2d_array(boxes) -> np.ndarray:
    """Box2D corners as one (K, 4) array of (x1, y1, x2, y2) rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def box3d_array(boxes) -> np.ndarray:
    """Box3D parameters as one (K, 7) array of (x, y, z, theta, l, w, h) rows."""
    return np.array(
        [(b.x, b.y, b.z, b.theta, b.l, b.w, b.h) for b in boxes], dtype=float
    ).reshape(-1, 7)


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two 2D boxes; 0 for disjoint or zero-area unions."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


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


def giou_3d(a: Box3D, b: Box3D) -> float:
    """GIoU of one box pair through the program's kernel, giou_3d_pairs."""
    from motrack.geometry import giou_3d_pairs

    return float(giou_3d_pairs(box3d_array((a,)), box3d_array((b,)))[0])


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area of one box pair through the program's
    kernel, in square meters."""
    from motrack.geometry import _bev_corners, _bev_intersection_areas

    xs, ys = _bev_corners(box3d_array((a, b)))
    return float(_bev_intersection_areas(xs[..., None], ys[..., None])[0])


def giou_3d_voxel(a: Box3D, b: Box3D, cell: float = 0.02) -> float:
    """GIoU with footprint areas measured on a raster grid at the given pitch.

    The vertical direction is axis-aligned for both boxes, so the z overlap is
    exact interval arithmetic; the rotated-footprint areas (the part the
    clipping code computes) come from counting grid-cell centers.
    """
    corners = np.vstack((bev_corners(a), bev_corners(b)))
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

    za0, za1 = _z_interval(a)
    zb0, zb1 = _z_interval(b)
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


def bev_corners(box: Box3D) -> np.ndarray:
    """Footprint corners as a (4, 2) array in counterclockwise order, one
    corner at a time in scalar math."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    dx, dy = box.l / 2.0, box.w / 2.0
    local = ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))
    return np.array([(box.x + c * px - s * py, box.y + s * px + c * py) for px, py in local])


def _z_interval(box: Box3D) -> tuple[float, float]:
    half = box.h / 2.0
    return (box.z - half, box.z + half)


def bev_intersection_area_clip(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area by scalar Sutherland-Hodgman clipping."""
    corners_a = [tuple(p) for p in bev_corners(a)]
    corners_b = [tuple(p) for p in bev_corners(b)]
    return polygon_area(clip_convex(corners_a, corners_b))


def giou_3d_clip(a: Box3D, b: Box3D) -> float:
    """Scalar reference GIoU: one Python clip per pair, with the same
    axis-aligned BEV enclosure as the kernel."""
    za0, za1 = _z_interval(a)
    zb0, zb1 = _z_interval(b)
    overlap_h = min(za1, zb1) - max(za0, zb0)
    inter = bev_intersection_area_clip(a, b) * overlap_h if overlap_h > 0.0 else 0.0
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter

    corners = np.vstack((bev_corners(a), bev_corners(b)))
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
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter
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


def output_of(records, mode, n_frames: int):
    """A TrackOutput over the columns of the given TrackRecords, in their
    order; mode picks the box width when there are none."""
    from motrack.association import Mode
    from motrack.tracker import TrackOutput

    records = tuple(records)
    boxes = [rec.box for rec in records]
    return TrackOutput(
        np.array([rec.frame for rec in records], dtype=np.int64),
        np.array([rec.track_id for rec in records], dtype=np.int64),
        np.array([rec.class_id for rec in records], dtype=np.int64),
        np.array([rec.score for rec in records], dtype=float),
        box3d_array(boxes) if mode is Mode.BOX_3D else box2d_array(boxes),
        n_frames,
    )


def detection_frame(detections, mode):
    """The DetectionFrame of a Detection list, rows in list order: 3D
    parameter rows if the boxes are Box3Ds, 2D corners if they are Box2Ds,
    and the mode's (0, width) rows for an empty list."""
    from motrack.association import DetectionFrame, Mode

    detections = list(detections)
    boxes = [det.box for det in detections]
    is_3d = isinstance(boxes[0], Box3D) if boxes else mode is Mode.BOX_3D
    return DetectionFrame(
        box3d_array(boxes) if is_3d else box2d_array(boxes),
        np.array([det.score for det in detections], dtype=float),
        np.array([det.class_id for det in detections], dtype=np.int64),
        np.array([det.velocity or (0.0, 0.0) for det in detections], dtype=float).reshape(-1, 2),
        np.array([det.velocity is not None for det in detections], dtype=bool),
    )


def detection_columns(frames) -> list[tuple[list, ...]]:
    """Each DetectionFrame's columns as lists, for comparing two streams."""
    return [tuple(getattr(frame, name).tolist()
                  for name in ("boxes", "scores", "class_ids", "velocities", "has_velocity"))
            for frame in frames]


def slice_frames(output, first: int, last: int):
    """The records of a TrackOutput in frames [first, last], as a TrackOutput."""
    from motrack.tracker import TrackOutput

    start = np.searchsorted(output.frames, first, side="left")
    stop = np.searchsorted(output.frames, last, side="right")
    return TrackOutput(
        output.frames[start:stop], output.track_ids[start:stop], output.class_ids[start:stop],
        output.scores[start:stop], output.boxes[start:stop], output.n_frames,
    )


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
    total_gt = len(gt.records)
    sweeps = []
    for score in sorted({rec.score for rec in pred.records}, reverse=True):
        kept = tuple(rec for rec in pred.records if rec.score >= score)
        subset = output_of(kept, pred.mode, pred.n_frames)
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


# --- per-frame evaluation tables ------------------------------------------------
#
# The slow oracle of the block scorer in motrack.metrics: each frame that has
# rows is scored by a similarity call of its own on its unpadded gt x
# prediction matrix, and its table is built from that frame's pairs alone.

def frame_similarity(gt_boxes, pr_boxes, mode, threshold):
    """Similarity values plus the admission gate for one frame's matching.
    A gap too large for a float overflows: to no overlap in 2D, and in 3D to
    a center distance of inf, so a closeness of -inf, which no gate admits."""
    from motrack.association import Mode
    from motrack.geometry import iou_2d_pairs

    with np.errstate(over="ignore"):
        if mode is Mode.BOX_2D:
            return iou_2d_pairs(gt_boxes[:, None], pr_boxes[None]), threshold
        dx = gt_boxes[:, None, 0] - pr_boxes[None, :, 0]
        dy = gt_boxes[:, None, 1] - pr_boxes[None, :, 1]
        dist = np.sqrt(dx * dx + dy * dy)
    return threshold - dist, 0.0


def admissible(similarity, gate):
    """Rows, columns and similarities of one frame's pairs whose similarity
    reaches the gate, in row-major order. NaN and +inf are rejected; -inf
    reaches no gate."""
    if similarity.size and not similarity.max() < np.inf:
        raise ValueError("similarity matrix entries must be finite")
    at = (similarity >= gate).ravel().nonzero()[0]
    rows, cols = np.divmod(at, max(similarity.shape[1], 1))
    return rows, cols, similarity.ravel()[at]


def frame_table(gt_ids, pr_ids, scores, rows, cols, values):
    """One frame's motrack.metrics._FrameTable from its ids, scores and
    admissible pairs, with Python sets for the isolation test."""
    from motrack.metrics import _FrameTable

    order = np.argsort(scores[cols], kind="stable")
    rows, cols = rows[order], cols[order]
    gids, pids = gt_ids[rows].tolist(), pr_ids[cols].tolist()
    pair_values = values[order].tolist()
    isolated = (len(set(gids)) == len(gids) == len(set(pids))
                and all(value > 0.0 for value in pair_values))
    score_list = scores.tolist()
    return _FrameTable(gt_ids.tolist(), pr_ids.tolist(), score_list,
                       max(score_list, default=-math.inf), list(zip(gids, pids)),
                       scores[cols].tolist(), pair_values, isolated)


def frame_pairs_reference(gt, pred, threshold):
    """Per frame that has rows, in frame order: its gt and prediction record
    slices and its admissible (row, column, similarity) arrays and gate."""
    frames = sorted(set(gt.frames.tolist()) | set(pred.frames.tolist()))
    for frame in frames:
        gt_rows = slice(*np.searchsorted(gt.frames, [frame, frame + 1]).tolist())
        pr_rows = slice(*np.searchsorted(pred.frames, [frame, frame + 1]).tolist())
        similarity, gate = frame_similarity(gt.boxes[gt_rows], pred.boxes[pr_rows], gt.mode,
                                            threshold)
        yield gt_rows, pr_rows, *admissible(similarity, gate), gate


def frame_tables_reference(gt, pred, threshold):
    """The table of each frame that has rows, one frame at a time."""
    for gt_rows, pr_rows, rows, cols, values, _ in frame_pairs_reference(gt, pred, threshold):
        yield frame_table(gt.track_ids[gt_rows], pred.track_ids[pr_rows],
                          pred.scores[pr_rows], rows, cols, values)


def block_tables(gt, pred, threshold):
    """The table of each frame that has rows, in frame order, from the
    evaluators' block scorer and table builder: the input the sweep oracle
    shares with the program."""
    from motrack import metrics

    for block in metrics._blocks(gt, pred, threshold):
        isolated = metrics._isolated(block)
        yield from metrics._block_tables(block, isolated, gt.track_ids, pred.track_ids,
                                         pred.scores, np.ones(len(isolated), dtype=bool))


def clear_from_frame_tables(gt, pred, threshold):
    """(fp, fn, ids) of clear_mot's frame loop run on the per-frame tables:
    every prediction kept, matches persisting from frame to frame, and an
    identity switch wherever a gt id's match differs from its last one. Each
    frame's FP and FN are its own predictions and gt minus its matches."""
    from motrack.metrics import _frame_step

    fp = fn = ids = 0
    persisting: dict[int, int] = {}
    last_match: dict[int, int] = {}
    for table in frame_tables_reference(gt, pred, threshold):
        persisting = _frame_step(table, None, persisting)
        ids += sum(1 for gid, pid in persisting.items() if last_match.get(gid, pid) != pid)
        last_match.update(persisting)
        fp += len(table.pr_ids) - len(persisting)
        fn += len(table.gt_ids) - len(persisting)
    return fp, fn, ids


def idf1_from_frame_pairs(gt, pred, threshold):
    """IDF1 from the per-frame admissible pairs: the (gt id, prediction id)
    overlap counts, one optimal assignment on them, and the same arithmetic
    as motrack.metrics.idf1."""
    if not len(gt.track_ids) or not len(pred.track_ids):
        return 0.0
    gt_index, pr_index = np.unique(gt.track_ids), np.unique(pred.track_ids)
    overlap = np.zeros((len(gt_index), len(pr_index)))
    for gt_rows, pr_rows, rows, cols, _, _ in frame_pairs_reference(gt, pred, threshold):
        for gid, pid in zip(gt.track_ids[gt_rows][rows].tolist(),
                            pred.track_ids[pr_rows][cols].tolist()):
            overlap[np.searchsorted(gt_index, gid), np.searchsorted(pr_index, pid)] += 1.0
    matches = solve_gated(overlap, 0.5).matches
    idtp = int(overlap[matches[:, 0], matches[:, 1]].sum())
    idfp = len(pred.track_ids) - idtp
    idfn = len(gt.track_ids) - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


def dense_frame_step(gt_ids, pr_ids, values, gate, persisting, last_match):
    """CLEAR counts of one frame on its dense gt x prediction similarity:
    (fp, fn, ids, matches as gt id -> pred id).

    A pair from ``persisting`` is kept while it still clears the gate, in gt
    order; the rest is solved on the whole free block of every free row and
    every free column. Neither dict is modified.
    """
    if not gt_ids or not pr_ids:
        return len(pr_ids), len(gt_ids), 0, {}

    matches: dict[int, int] = {}
    used_cols: set[int] = set()
    pid_to_col = {pid: j for j, pid in enumerate(pr_ids)}
    for i, gid in enumerate(gt_ids):
        pid = persisting.get(gid)
        if pid is None:
            continue
        j = pid_to_col.get(pid)
        if j is None or j in used_cols:
            continue
        if values[i, j] >= gate:
            matches[i] = j
            used_cols.add(j)

    free_rows = [i for i in range(len(gt_ids)) if i not in matches]
    free_cols = [j for j in range(len(pr_ids)) if j not in used_cols]
    if free_rows and free_cols:
        assign = solve_gated(values[free_rows][:, free_cols], gate)
        for r, c in assign.matches.tolist():
            matches[free_rows[r]] = free_cols[c]

    ids = 0
    matched: dict[int, int] = {}
    for i, j in matches.items():
        gid, pid = gt_ids[i], pr_ids[j]
        if gid in last_match and last_match[gid] != pid:
            ids += 1
        matched[gid] = pid
    return len(pr_ids) - len(matches), len(gt_ids) - len(matches), ids, matched


def _kept_frame_step(table, min_score, state):
    """One frame's (fp, fn, ids) and leaving state (persisting pairs, last
    matched pred per gt id), keeping predictions scored >= min_score. FP and
    FN are the frame's kept predictions and gt minus its matches. A frame
    left with neither gt nor kept predictions is skipped, so match persistence
    carries across it."""
    from motrack.metrics import _frame_step

    n_kept = sum(1 for score in table.scores if score >= min_score)
    if not table.gt_ids and not n_kept:
        return (0, 0, 0), state
    persisting, last_match = state
    matched = _frame_step(table, min_score, persisting)
    fp, fn = n_kept - len(matched), len(table.gt_ids) - len(matched)
    ids = sum(1 for gid, pid in matched.items() if last_match.get(gid, pid) != pid)
    if matched:
        last_match = {**last_match, **matched}
    return (fp, fn, ids), (matched, last_match)


def sweep_reference(tables):
    """The incremental sweep that carries identities in the frame state:
    (score, fp, fn, ids) at each unique score, descending.

    Each frame keeps the state entering it, its persisting pairs and a merged
    map of every gt id's last matched prediction, and its counts at the
    previous score. A lower score recounts from the first frame holding it,
    and a cascade of recounts runs until a frame hands on the state the next
    frame entered with, so a changed last match cascades until its gt id is
    matched again. It shares only the per-frame matching with the sweep in
    ``motrack.metrics``, not the state or the identity-switch bookkeeping.
    """
    n = len(tables)
    frames_at = {}
    for i, table in enumerate(tables):
        for score in dict.fromkeys(table.scores):
            frames_at.setdefault(score, []).append(i)
    entering = [({}, {})] * n
    counts = [(0, len(table.gt_ids), 0) for table in tables]
    fp, fn, ids = 0, sum(c[1] for c in counts), 0
    points = []
    for score in sorted(frames_at, reverse=True):
        changed = frames_at[score] + [n]
        k, i = 0, changed[0]
        state = entering[i]
        while i < n:
            entering[i] = state
            new, state = _kept_frame_step(tables[i], score, state)
            old = counts[i]
            counts[i] = new
            fp += new[0] - old[0]
            fn += new[1] - old[1]
            ids += new[2] - old[2]
            i += 1
            if i == changed[k + 1]:
                k += 1
            elif state == entering[i]:
                # Nothing differs until the next frame holding this score.
                k += 1
                i = changed[k]
                if i < n:
                    state = entering[i]
        points.append((score, fp, fn, ids))
    return points


def solve_gated(values, gate):
    """solve_assignment with every pair admissible that reaches the gate, a
    scalar or an array broadcastable to the values' shape."""
    from motrack.assignment import solve_assignment

    values = np.asarray(values, dtype=float)
    return solve_assignment(values, values >= gate)


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


def dense_assignment(sim, gate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_gated with the solver on every table: (matches, unmatched
    rows, unmatched columns) of the dense gated Hungarian solve.

    Every pair is weighed, inadmissible and negative ones at 0, and the
    solver's pairs that are not admissible or are negative are dropped. The
    program skips the solver when the admissible pairs already form a
    matching; this reference never does.
    """
    from scipy.optimize import linear_sum_assignment

    values = np.asarray(sim, dtype=float)
    n_rows, n_cols = values.shape
    admissible = values >= np.asarray(gate, dtype=float)
    rows = cols = np.zeros(0, dtype=np.intp)
    if admissible.any():
        rows, cols = linear_sum_assignment(
            np.where(admissible, np.maximum(values, 0.0), 0.0), maximize=True
        )
        keep = admissible[rows, cols] & (values[rows, cols] >= 0.0)
        rows, cols = rows[keep], cols[keep]
    return (np.array((rows, cols), dtype=np.intp).T, np.setdiff1d(np.arange(n_rows), rows),
            np.setdiff1d(np.arange(n_cols), cols))


# --- two-pass association step --------------------------------------------------
#
# The slow oracle of motrack.association.step: each pass scores its own
# detection rows against its own track columns with a kernel call of its own,
# and updates its matches with a measurement and update call of its own; the
# spawns are measured by a third call. Same pool, same outputs.

def two_pass_step(pool, frame: int, detections, config):
    """association.step with every stage run once per pass."""
    from motrack import motion
    from motrack.association import (
        FrameDiagnostics,
        FrameResult,
        Mode,
        _box_type,
        box_width,
        predict_tracks,
        resolve_gate,
    )
    from motrack.geometry import giou_3d_pairs, iou_2d_pairs

    if frame <= pool.last_frame:
        raise ValueError(f"frame index must increase, got {frame} after {pool.last_frame}")
    is_3d = config.mode is Mode.BOX_3D
    raw = detections.boxes
    if raw.shape[1] != box_width(config.mode):
        raise ValueError(f"{_box_type(raw).__name__} detection in {config.mode.value} mode")
    gap_removed = []
    for _ in range(min(frame - pool.last_frame - 1, config.track_buffer + 1)):
        if not len(pool.ids):
            break
        empty = detection_frame((), config.mode)
        gap_removed.append(
            two_pass_step(pool, pool.last_frame + 1, empty, config).diagnostics.removed_ids)

    scores = detections.scores
    det_classes = detections.class_ids
    high_idx = np.nonzero(scores > config.tau)[0]
    low_idx = np.nonzero(scores <= config.tau)[0]

    means, covs, match_rows, wants_backward = predict_tracks(pool, config)
    back = raw
    if wants_backward.any():
        back = raw.copy()
        back[:, :2] -= detections.velocities

    def run_pass(rows, cols, gate):
        same_class = det_classes[rows][:, None] == pool.class_ids[cols][None, :]
        row_gates = np.array([resolve_gate(gate, c) for c in det_classes[rows].tolist()])
        gates = np.where(same_class, row_gates.reshape(-1, 1), np.inf)
        if is_3d:
            r, c = np.nonzero(same_class)
            det, trk = rows[r], cols[c]
            source = np.where(wants_backward[trk][:, None], back[det], raw[det])
            values = np.zeros(same_class.shape)
            values[r, c] = giou_3d_pairs(source, match_rows[trk])
            assign = solve_gated(values + 1.0, gates + 1.0)
        else:
            assign = solve_gated(iou_2d_pairs(raw[rows][:, None], match_rows[cols][None]), gates)
        det, trk = rows[assign.matches[:, 0]], cols[assign.matches[:, 1]]
        if len(det):
            zs = motion._measurement_stack(raw[det])
            means[trk], covs[trk] = motion.update_arrays(
                means[trk], covs[trk], zs, scores[det], config.alpha
            )
        return det, trk, rows[assign.unmatched_detections], cols[assign.unmatched_tracklets]

    first_det, first_trk, high_left, cols_left = run_pass(
        high_idx, np.arange(len(means)), config.gate_first
    )
    if config.gate_second is not None:
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

    spawn_means, spawn_covs = motion.init_arrays(motion._measurement_stack(raw[high_left]))
    spawn_ids = np.arange(pool.next_id, pool.next_id + len(high_left))
    diagnostics = FrameDiagnostics(
        first_det, pool.ids[first_trk], second_det, pool.ids[second_trk], high_left, spawn_ids,
        low_left, pool.ids[lost & keep], np.concatenate((*gap_removed, pool.ids[removed])),
    )

    pool.means = np.concatenate((means[keep], spawn_means))
    pool.covs = np.concatenate((covs[keep], spawn_covs))
    pool.ids = np.concatenate((pool.ids[keep], spawn_ids))
    pool.class_ids = np.concatenate((pool.class_ids[keep], det_classes[high_left]))
    pool.frames_since_match = np.concatenate(
        (since_match[keep], np.zeros(len(high_left), dtype=np.int64))
    )
    pool.last_score = np.concatenate((last_score[keep], scores[high_left]))
    pool.next_id += len(high_left)
    pool.last_frame = frame

    out = np.nonzero(pool.active)[0]
    boxes = motion.box_rows(pool.means[out])
    if not np.isfinite(boxes).all():
        for row in boxes.tolist():
            (box3d if is_3d else box2d)(*row)
    return FrameResult(frame, pool.ids[out], pool.class_ids[out], pool.last_score[out],
                       boxes, diagnostics)


# --- line-by-line record parsers and writers ------------------------------------
#
# The slow oracle of motrack.formats: one line at a time, one object per
# record, each row checked by box2d / box3d and scalar tests. Same formats,
# same checks in the same order, same messages.

def _fail(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


def _strict(kind, token: str):
    """kind(token), rejecting the digit separator '_' that int and float accept."""
    if "_" in token:
        raise ValueError(token)
    return kind(token)


def _parse_float(token: str, line_no: int, name: str) -> float:
    try:
        return _strict(float, token)
    except ValueError:
        raise _fail(line_no, f"{name} is not a number: {token!r}") from None


def _parse_int(token: str, line_no: int, name: str) -> int:
    try:
        return _strict(int, token)
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
    records.sort(key=lambda r: r.frame)
    n_frames = max((r.frame for r in records), default=0)
    return output_of(records, mode, n_frames)


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
    try:
        box = box2d(x, y, x + w, y + h)
    except ValueError as exc:
        raise _fail(line_no, str(exc)) from None
    if not (box.x1 < box.x2 and box.y1 < box.y2):
        raise _fail(line_no, f"box size must be positive, got w={box.x2 - box.x1}, "
                             f"h={box.y2 - box.y1}")
    if not 0.0 <= score <= 1.0:
        raise _fail(line_no, f"score must be in [0, 1], got {score}")
    return frame, track_id, box, score


def parse_mot_detections_lines(text: str) -> list[list]:
    from motrack.association import Detection

    parsed = []
    for line_no, line in _iter_lines(text):
        frame, _, box, score = _parse_mot_line(line, line_no)
        w, h = box.x2 - box.x1, box.y2 - box.y1
        if not (h <= MAX_3D_MAGNITUDE and w / h <= MAX_2D_ASPECT and h / w <= MAX_2D_ASPECT):
            raise _fail(line_no, f"detection height must be at most {MAX_3D_MAGNITUDE!r} and "
                                 f"w/h, h/w at most {MAX_2D_ASPECT!r}, got w={w}, h={h}")
        parsed.append((frame, Detection(box, score)))
    return _dense_frames(parsed)


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
        return _strict(int, token)
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
    try:
        box = box3d(*numbers)
    except ValueError as exc:
        raise _fail(line_no, str(exc)) from None
    if not 0.0 <= score <= 1.0:
        raise _fail(line_no, f"score must be in [0, 1], got {score}")
    return frame, track_id, class_id, box, velocity, score


def parse_3d_detections_lines(text: str) -> list[list]:
    from motrack.association import Detection

    parsed = []
    for line_no, line in _iter_lines(text):
        frame, _, class_id, box, velocity, score = _parse_3d_line(line, line_no)
        bound = f"at most {MAX_3D_MAGNITUDE!r} in magnitude"
        fields = (box.x, box.y, box.z, box.l, box.w, box.h)
        if not all(abs(value) <= MAX_3D_MAGNITUDE for value in fields):
            raise _fail(line_no, f"detection x, y, z, l, w and h must be {bound}, got {fields}")
        if velocity is not None and not all(abs(v) <= MAX_3D_MAGNITUDE for v in velocity):
            raise _fail(line_no, f"detection velocity must be finite and {bound}, "
                                 f"got {velocity}")
        parsed.append((frame, Detection(box, score, class_id, velocity)))
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
    x, y, w, h = box.x1, box.y1, box.x2 - box.x1, box.y2 - box.y1
    return f"{frame},{track_id},{x!r},{y!r},{w!r},{h!r},{float(score)!r},-1,-1,-1"


def box3d_line(frame: int, track_id: int, box: Box3D, score: float, class_id: int = 0,
               velocity: tuple[float, float] | None = None) -> str:
    from motrack.tracker import CLASS_NAMES

    name = CLASS_NAMES[class_id] if 0 <= class_id < len(CLASS_NAMES) else str(class_id)
    planar = f"{float(velocity[0])!r},{float(velocity[1])!r}" if velocity is not None else ","
    values = (box.x, box.y, box.z, box.theta, box.l, box.w, box.h)
    return (f"{frame},{track_id},{name},"
            + ",".join(repr(float(v)) for v in values) + f",{planar},{float(score)!r}")
