import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motrack.association import check_rows, row_rules
from motrack.geometry import (
    Box2D,
    Box3D,
    giou_3d_pairs,
    iou_2d_pairs,
    wrap_angles,
)
from oracle_utils import (
    bev_intersection_area,
    bev_intersection_area_clip,
    box2d_array,
    box3d_array,
    giou_3d,
    giou_3d_clip,
    giou_3d_voxel,
    iou_2d,
    iou_2d_monte_carlo,
    wrap_angle,
)


def random_box3d(rng) -> Box3D:
    return Box3D(
        x=rng.uniform(-2.0, 2.0),
        y=rng.uniform(-2.0, 2.0),
        z=rng.uniform(-0.5, 0.5),
        theta=rng.uniform(-math.pi, math.pi),
        l=rng.uniform(0.8, 4.5),
        w=rng.uniform(0.8, 2.5),
        h=rng.uniform(0.8, 2.0),
    )


def check_box(*row: float) -> None:
    """Check one parameter row against the box rules, where rows enter."""
    check_rows(row_rules(np.array([row], dtype=float)))


class TestBoxValidation:
    """The box rules run on rows (association.row_rules); Box2D and Box3D are
    unchecked views of rows that passed them."""

    def test_corners_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="Box2D corners out of order"):
            check_box(5.0, 0.0, 1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="Box2D coordinates must be finite"):
            check_box(0.0, 0.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="Box3D fields must be finite"):
            check_box(0.0, math.nan, 0.0, 0.0, 1.0, 1.0, 1.0)

    def test_area_overflow_rejected(self):
        with pytest.raises(ValueError, match="area must be finite"):
            check_box(-8e307, 0.0, 8e307, 1e308)
        # An area of 8e307 is within the bound, so this row passes.
        check_box(-4e307, 0.0, 4e307, 1.0)

    def test_area_whose_union_overflows_rejected(self):
        # Two areas above half the largest float overflow the union, and such
        # a box would score IoU 0 against itself.
        with pytest.raises(ValueError, match="area must be finite and at most"):
            check_box(-5e307, 0.0, 5e307, 1.0)
        largest = np.array([(-4e307, 0.0, 4e307, 1.0), (0.0, 0.0, 4e307, 2.0)])
        with np.errstate(all="raise"):
            iou = iou_2d_pairs(largest[:, None], largest[None])
        assert iou[0, 0] == iou[1, 1] == 1.0
        assert iou[0, 1] == iou[1, 0] == pytest.approx(1.0 / 3.0)

    def test_non_positive_dimensions_rejected(self):
        with pytest.raises(ValueError, match="Box3D dimensions must be positive"):
            check_box(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)

    def test_boxes_are_unchecked_views(self):
        assert Box2D(5.0, 0.0, 1.0, math.nan).x1 == 5.0
        assert Box3D(0.0, 0.0, 0.0, 3.0 * math.pi, 0.0, 1.0, 1.0).theta == 3.0 * math.pi

    def test_wrap_angle_interval(self):
        thetas = np.array([-math.pi, math.pi, 0.0, 7.5, -9.1, math.tau, 5e-324])
        for theta, wrapped in zip(thetas.tolist(), wrap_angles(thetas).tolist()):
            assert -math.pi < wrapped <= math.pi
            assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-12)

    def test_wrap_angles_returns_its_input_in_range_and_keeps_non_finite(self):
        thetas = np.array([-3.0, 0.0, math.pi])
        assert wrap_angles(thetas) is thetas
        wrapped = wrap_angles(np.array([np.inf, -np.inf, np.nan, 4.0, -0.0]))
        assert wrapped[:2].tolist() == [np.inf, -np.inf] and np.isnan(wrapped[2])
        assert [t.hex() for t in wrapped[3:].tolist()] == [wrap_angle(4.0).hex(), (-0.0).hex()]

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([math.pi, -math.pi, 3 * math.pi, math.tau,
                                               -math.tau, math.nextafter(math.pi, 4.0),
                                               1e308, -1e308, 5e-324, -0.0]),
                              st.floats(-20.0, 20.0)), max_size=8))
    def test_wrap_angles_equals_wrap_angle_bitwise(self, thetas):
        wrapped = wrap_angles(np.array(thetas, dtype=float)).tolist()
        expected = [t if -math.pi < t <= math.pi else wrap_angle(t) for t in thetas]
        assert [t.hex() for t in wrapped] == [t.hex() for t in expected]


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        (Box2D(0, 0, 1, 1), Box2D(0, 0, 1, 1), 1.0),  # identical
        (Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6), 0.0),  # disjoint
        (Box2D(0, 0, 1, 1), Box2D(0.5, 0, 1.5, 1), 1.0 / 3.0),  # half shift
        (Box2D(0, 0, 20, 20), Box2D(5, 5, 15, 15), 0.25),  # containment
        (Box2D(0, 0, 1, 1), Box2D(1, 0, 2, 1), 0.0),  # touching edge
        (Box2D(3, 3, 3, 3), Box2D(0, 0, 10, 10), 0.0),  # zero-area box
        (Box2D(2, 2, 2, 2), Box2D(2, 2, 2, 2), 0.0),  # both degenerate
    ],
)
def test_iou_2d_cases(a, b, expected):
    assert iou_2d(a, b) == pytest.approx(expected, abs=1e-9)


def test_iou_2d_against_sampling_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        x1, y1 = rng.uniform(0, 50, 2)
        a = Box2D(x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40))
        x2, y2 = rng.uniform(0, 50, 2)
        b = Box2D(x2, y2, x2 + rng.uniform(5, 40), y2 + rng.uniform(5, 40))
        assert iou_2d(a, b) == pytest.approx(
            iou_2d_monte_carlo(a, b, seed=trial), abs=0.01
        )


def test_iou_2d_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x1, y1, x2, y2 = rng.uniform(0, 20, 4)
        a = Box2D(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        x1, y1, x2, y2 = rng.uniform(0, 20, 4)
        b = Box2D(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        assert iou_2d(a, b) == iou_2d(b, a)
        assert 0.0 <= iou_2d(a, b) <= 1.0
    box = Box2D(1, 1, 4, 6)
    assert iou_2d(box, box) == 1.0


class TestBevIntersection:
    def test_identical_footprints(self):
        a = Box3D(0, 0, 0, 0.0, 4.0, 2.0, 1.0)
        assert bev_intersection_area(a, a) == pytest.approx(8.0, abs=1e-12)

    def test_far_apart(self):
        a = Box3D(0, 0, 0, 0.4, 4.0, 2.0, 1.0)
        b = Box3D(50, 50, 0, 1.1, 4.0, 2.0, 1.0)
        assert bev_intersection_area(a, b) == 0.0

    def test_rotated_square_octagon(self):
        a = Box3D(0, 0, 0, 0.0, 1.0, 1.0, 1.0)
        b = Box3D(0, 0, 0, math.pi / 4.0, 1.0, 1.0, 1.0)
        assert bev_intersection_area(a, b) == pytest.approx(
            2.0 * (math.sqrt(2.0) - 1.0), abs=1e-9
        )

    def test_symmetry_and_min_area_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_box3d(rng), random_box3d(rng)
            area_ab = bev_intersection_area(a, b)
            area_ba = bev_intersection_area(b, a)
            assert area_ab == pytest.approx(area_ba, abs=1e-9)
            assert area_ab <= min(a.l * a.w, b.l * b.w) + 1e-9


class TestGiou3D:
    def test_identical_axis_aligned_box(self):
        box = Box3D(1.0, -2.0, 0.5, 0.0, 4.0, 2.0, 1.5)
        assert giou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_far_separation_approaches_minus_one(self):
        a = Box3D(0, 0, 0, 0.0, 1, 1, 1)
        b = Box3D(100, 0, 0, 0.0, 1, 1, 1)
        assert -1.0 < giou_3d(a, b) < -0.9

    def test_range_symmetry_and_iou_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b = random_box3d(rng), random_box3d(rng)
            value = giou_3d(a, b)
            assert -1.0 < value <= 1.0
            assert value == pytest.approx(giou_3d(b, a), abs=1e-9)
            overlap_h = max(0.0, min(a.z + a.h / 2, b.z + b.h / 2)
                            - max(a.z - a.h / 2, b.z - b.h / 2))
            inter = bev_intersection_area(a, b) * overlap_h
            iou = inter / (a.l * a.w * a.h + b.l * b.w * b.h - inter)
            assert value <= iou + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = random_box3d(rng), random_box3d(rng)
            dx, dy, dz = rng.uniform(-30, 30, 3)
            a2 = Box3D(a.x + dx, a.y + dy, a.z + dz, a.theta, a.l, a.w, a.h)
            b2 = Box3D(b.x + dx, b.y + dy, b.z + dz, b.theta, b.l, b.w, b.h)
            assert giou_3d(a2, b2) == pytest.approx(giou_3d(a, b), abs=1e-6)

    def test_quarter_turn_invariance(self):
        # The enclosing region is axis-aligned, so only quarter turns of the
        # whole scene preserve it exactly.
        rng = np.random.default_rng(6)
        for _ in range(25):
            a, b = random_box3d(rng), random_box3d(rng)
            rotated = []
            for box in (a, b):
                rotated.append(
                    Box3D(-box.y, box.x, box.z, box.theta + math.pi / 2.0,
                          box.l, box.w, box.h)
                )
            assert giou_3d(*rotated) == pytest.approx(giou_3d(a, b), abs=1e-6)

    def test_against_voxel_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a, b = random_box3d(rng), random_box3d(rng)
            assert giou_3d(a, b) == pytest.approx(giou_3d_voxel(a, b), abs=0.02)


class TestSimilarityMatrix:
    """All-pairs scores over parameter rows, as association and metrics use them."""

    @staticmethod
    def iou_matrix(dets, trks):
        return iou_2d_pairs(box2d_array(dets)[:, None], box2d_array(trks)[None])

    @staticmethod
    def giou_matrix(dets, trks):
        rows, cols = box3d_array(dets), box3d_array(trks)
        return giou_3d_pairs(np.repeat(rows, len(cols), axis=0),
                             np.tile(cols, (len(rows), 1))).reshape(len(rows), len(cols))

    def test_single_identical_pair(self):
        box = Box2D(0, 0, 10, 10)
        sim = self.iou_matrix([box], [box])
        assert sim.shape == (1, 1)
        assert sim[0, 0] == 1.0

    def test_empty_rows(self):
        boxes = [Box2D(0, 0, 1, 1), Box2D(1, 1, 2, 2), Box2D(2, 2, 3, 3)]
        assert self.iou_matrix([], boxes).shape == (0, 3)
        assert self.iou_matrix(boxes, []).shape == (3, 0)
        assert self.giou_matrix([], [Box3D(0, 0, 0, 0, 1, 1, 1)]).shape == (0, 1)

    def test_matches_elementwise_iou(self):
        rng = np.random.default_rng(1)
        dets = [Box2D(x, y, x + w, y + h)
                for x, y, w, h in rng.uniform(1, 30, (4, 4))]
        trks = [Box2D(x, y, x + w, y + h)
                for x, y, w, h in rng.uniform(1, 30, (3, 4))]
        sim = self.iou_matrix(dets, trks)
        for i, det in enumerate(dets):
            for j, trk in enumerate(trks):
                assert sim[i, j] == pytest.approx(iou_2d(det, trk), abs=1e-12)

    def test_batch_axes_score_each_batch_alone(self):
        rng = np.random.default_rng(3)
        corners = rng.uniform(0, 30, (2, 3, 9, 2))
        boxes = np.concatenate([corners, corners + rng.uniform(0, 20, (2, 3, 9, 2))], axis=-1)
        a, b = boxes[0, :, :4], boxes[1, :, 4:]
        sim = iou_2d_pairs(a[:, :, None], b[:, None])
        assert sim.shape == (3, 4, 5)
        for k in range(3):
            assert np.array_equal(sim[k], iou_2d_pairs(a[k][:, None], b[k][None]))
        # Flat pairs score exactly as the table's cells do.
        k, i, j = np.indices(sim.shape).reshape(3, -1)
        assert np.array_equal(iou_2d_pairs(a[k, i], b[k, j]), sim.ravel())

    def test_matches_elementwise_giou(self):
        rng = np.random.default_rng(2)
        dets = [random_box3d(rng) for _ in range(3)]
        trks = [random_box3d(rng) for _ in range(2)]
        sim = self.giou_matrix(dets, trks)
        for i, det in enumerate(dets):
            for j, trk in enumerate(trks):
                assert sim[i, j] == giou_3d(det, trk)

    def test_dimension_mismatch_rejected(self):
        from motrack.association import Detection, Mode, TrackerConfig, TrackPool, step
        from oracle_utils import detection_frame

        box2d = Box2D(0, 0, 1, 1)
        box3d = Box3D(0, 0, 0, 0, 1, 1, 1)
        with pytest.raises(ValueError):
            giou_3d_pairs(box2d_array([box2d]), box2d_array([box2d]))
        # Columns of 7-parameter rows stepped in 2D mode, and of corners in 3D.
        with pytest.raises(ValueError, match="Box3D detection in 2d mode"):
            step(TrackPool(), 1, detection_frame([Detection(box3d, 0.9)], Mode.BOX_3D),
                 TrackerConfig())
        with pytest.raises(ValueError, match="Box2D detection in 3d mode"):
            step(TrackPool(), 1, detection_frame([Detection(box2d, 0.9)], Mode.BOX_2D),
                 TrackerConfig(mode=Mode.BOX_3D))

    def test_box2d_array_rows_are_corners(self):
        boxes = [Box2D(0, 1, 2, 3), Box2D(5, 6, 12, 14)]
        assert box2d_array(boxes).tolist() == [[0, 1, 2, 3], [5, 6, 12, 14]]
        assert box2d_array([]).shape == (0, 4)


# --- batched kernel against the scalar Sutherland-Hodgman oracle --------------

ORACLE_TOL = 1e-9


@st.composite
def random_boxes(draw):
    return Box3D(
        x=draw(st.floats(-5.0, 5.0)),
        y=draw(st.floats(-5.0, 5.0)),
        z=draw(st.floats(-1.0, 1.0)),
        theta=draw(st.floats(-math.pi, math.pi)),
        l=draw(st.floats(0.2, 5.0)),
        w=draw(st.floats(0.2, 5.0)),
        h=draw(st.floats(0.2, 3.0)),
    )


@st.composite
def snapped_boxes(draw):
    # Half-meter grid, eighth-turn yaws: collinear edges and shared vertices.
    return Box3D(
        x=draw(st.integers(-6, 6)) / 2.0,
        y=draw(st.integers(-6, 6)) / 2.0,
        z=draw(st.integers(-2, 2)) / 2.0,
        theta=draw(st.integers(-3, 4)) * math.pi / 4.0,
        l=draw(st.integers(1, 8)) / 2.0,
        w=draw(st.integers(1, 8)) / 2.0,
        h=draw(st.integers(1, 4)) / 2.0,
    )


def _along(box: Box3D, forward: float, left: float) -> tuple[float, float]:
    """World offset of a displacement given in the box's heading frame."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    return c * forward - s * left, s * forward + c * left


def _moved(box: Box3D, forward: float = 0.0, left: float = 0.0, **fields) -> Box3D:
    dx, dy = _along(box, forward, left)
    params = {"x": box.x + dx, "y": box.y + dy, "z": box.z, "theta": box.theta,
              "l": box.l, "w": box.w, "h": box.h}
    params.update(fields)
    return Box3D(**params)


@st.composite
def degenerate_pairs(draw):
    a = draw(random_boxes() | snapped_boxes())
    kind = draw(st.sampled_from((
        "identical", "quarter_turn_same_footprint", "quarter_turn", "half_turn",
        "shared_edge", "half_overlap_collinear", "touching_corner", "contained",
        "far_apart", "nearly_parallel",
    )))
    if kind == "identical":
        b = a
    elif kind == "quarter_turn_same_footprint":
        b = _moved(a, theta=a.theta + math.pi / 2.0, l=a.w, w=a.l)
    elif kind == "quarter_turn":
        b = _moved(a, theta=a.theta + math.pi / 2.0)
    elif kind == "half_turn":
        b = _moved(a, theta=a.theta + math.pi)
    elif kind == "shared_edge":
        b = _moved(a, forward=a.l, w=draw(st.sampled_from((a.w, a.w / 2.0, 2.0 * a.w))))
    elif kind == "half_overlap_collinear":
        b = _moved(a, forward=a.l / 2.0)
    elif kind == "touching_corner":
        b = _moved(a, forward=a.l, left=a.w)
    elif kind == "contained":
        scale = draw(st.floats(0.1, 1.0))
        b = _moved(a, forward=draw(st.floats(-0.4, 0.4)) * a.l * (1.0 - scale),
                   l=a.l * scale, w=a.w * scale)
    elif kind == "far_apart":
        b = _moved(a, forward=draw(st.floats(20.0, 1000.0)),
                   left=draw(st.floats(-1000.0, 1000.0)))
    else:
        b = _moved(a, forward=draw(st.floats(-1.0, 1.0)),
                   theta=a.theta + draw(st.floats(1e-12, 1e-6)))
    return (b, a) if draw(st.booleans()) else (a, b)


def _assert_matches_oracle(a: Box3D, b: Box3D) -> None:
    assert abs(giou_3d(a, b) - giou_3d_clip(a, b)) <= ORACLE_TOL
    assert abs(bev_intersection_area(a, b) - bev_intersection_area_clip(a, b)) <= ORACLE_TOL


class TestKernelAgainstClipOracle:
    @settings(max_examples=300, deadline=None)
    @given(random_boxes(), random_boxes())
    def test_random_boxes(self, a, b):
        _assert_matches_oracle(a, b)

    @settings(max_examples=300, deadline=None)
    @given(snapped_boxes(), snapped_boxes())
    def test_snapped_boxes(self, a, b):
        _assert_matches_oracle(a, b)

    @settings(max_examples=500, deadline=None)
    @given(degenerate_pairs())
    # Contained at an eighth turn, sharing two edges: their crossings are
    # rounding noise and must not become vertices (true GIoU -0.2917).
    @example(pair=(Box3D(0.0, 0.0, 0.0, math.pi / 4, 0.5, 1.5, 0.5),
                   Box3D(0.0, 0.0, 0.0, math.pi / 4, 0.5, 0.5, 0.5)))
    # Exactly collinear edges: half overlap along the length, yaw 0.
    @example(pair=(Box3D(0.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.0),
                   Box3D(2.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.0)))
    # Exactly parallel, disjoint edges: a corner-to-corner overlap.
    @example(pair=(Box3D(0.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.0),
                   Box3D(3.0, 1.5, 0.0, 0.0, 4.0, 2.0, 1.0)))
    # Long edges a billionth of a radian apart, crossing mid-edge: a kernel
    # that skips near-parallel crossings loses two slivers of 3e-9 m^2 each.
    @example(pair=(Box3D(0.0, 0.0, 0.0, 0.0, 1.0, 5.0, 1.0),
                   Box3D(0.0, 0.0, 0.0, 1e-9, 1.0, 5.0, 1.0)))
    # Corners of the second box under 1e-9 m outside the first: the clip does
    # not take them, so neither may the kernel.
    @example(pair=(Box3D(0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 1.0),
                   Box3D(1e-9, 0.0, 0.0, 1e-9, 1.0, 0.5, 1.0)))
    # Corners of each box within the clip's tolerance of the other: the clip
    # keeps the first box's corner and never makes the second's.
    @example(pair=(Box3D(-1.9999999992928932, 0.9999999992928932, 0.0, -0.7853981623974483,
                         0.5, 1.0, 1.5),
                   Box3D(-2.0, 1.0, 0.0, -0.7853981633974483, 0.5, 1.0, 1.5)))
    # A crossing the clip computes beyond the edge it cuts (a spike of zero
    # area); its tolerance loses 2.4e-8 m^2 here, which the kernel must share.
    @example(pair=(Box3D(0.3, -0.2, 0.0, 3.009125347912295e-210, 0.4580095834435551,
                         0.3333333333333333, 0.2),
                   Box3D(0.3, -0.19999999779635744, 0.0, 1e-10, 0.4580095834435551,
                         0.3333333333333333, 0.2)))
    def test_degenerate_pairs(self, pair):
        _assert_matches_oracle(*pair)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(degenerate_pairs(), min_size=1, max_size=12))
    def test_batch_equals_single_pairs(self, pairs):
        # Each row of a batch is computed exactly as it would be alone.
        values = giou_3d_pairs(box3d_array([a for a, _ in pairs]),
                               box3d_array([b for _, b in pairs]))
        assert values.tolist() == [giou_3d(a, b) for a, b in pairs]

    def test_exact_cases(self):
        a = Box3D(0.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.0)
        assert bev_intersection_area(a, _moved(a, forward=4.0)) == 0.0  # shared edge
        assert bev_intersection_area(a, _moved(a, forward=2.0)) == pytest.approx(4.0, abs=1e-12)
        inner = _moved(a, l=1.0, w=1.0)
        assert bev_intersection_area(a, inner) == pytest.approx(1.0, abs=1e-12)
        assert bev_intersection_area(inner, a) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_batches_emit_no_runtime_warning(self):
        box = Box3D(1.0, 2.0, 0.5, 0.3, 4.0, 2.0, 1.5)
        square = Box3D(0.0, 0.0, 0.0, math.pi / 4, 2.0, 2.0, 1.0)
        batches = (
            [(box, box), (square, square)],
            [(box, _moved(box, forward=box.l)), (square, _moved(square, left=square.w)),
             (square, _moved(square, forward=square.l / 2, w=square.w / 2))],
        )
        for pairs in batches:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                values = giou_3d_pairs(box3d_array([a for a, _ in pairs]),
                                       box3d_array([b for _, b in pairs]))
            assert np.isfinite(values).all()

    def test_empty_and_mismatched_batches(self):
        assert giou_3d_pairs(np.zeros((0, 7)), np.zeros((0, 7))).shape == (0,)
        with pytest.raises(ValueError):
            giou_3d_pairs(np.zeros((2, 7)), np.zeros((3, 7)))
        with pytest.raises(ValueError):
            giou_3d_pairs(np.zeros(14), np.zeros(14))


class TestGiouEnclosure:
    """The enclosure is the axis-aligned BEV box, not the convex hull; changing
    that changes every 3D matching score and the recorded benchmark outputs."""

    def test_identical_rotated_box_scores_below_one(self):
        theta = 0.3
        box = Box3D(0.0, 0.0, 0.0, theta, 4.0, 2.0, 1.5)
        c, s = math.cos(theta), math.sin(theta)
        aabb_area = (4.0 * c + 2.0 * s) * (4.0 * s + 2.0 * c)
        assert giou_3d(box, box) == pytest.approx(8.0 / aabb_area, abs=1e-12)
        assert giou_3d(box, box) == pytest.approx(0.586, abs=5e-4)

    def test_identical_box_at_quarter_turns_scores_one(self):
        for theta in (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0):
            box = Box3D(1.0, 2.0, 0.5, theta, 4.0, 2.0, 1.5)
            assert giou_3d(box, box) == pytest.approx(1.0, abs=1e-12)
