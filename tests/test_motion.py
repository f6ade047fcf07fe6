import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalman_utils import (
    State,
    dense_covariance,
    dense_inflate,
    dense_init,
    dense_predict,
    dense_update,
    kf_init,
    kf_predict,
    kf_update,
    measure,
)
from motrack import association
from motrack.association import Detection, Mode, MotionStrategy, TrackPool
from motrack.geometry import Box2D, Box3D, giou_3d_pairs
from motrack.motion import (
    box_rows,
    inflate_arrays,
    init_arrays,
    predict_arrays,
    update_arrays,
)
from motrack.tracker import default_config
from oracle_utils import box3d_array
from test_association import step

ALPHA = 10.0  # the 3D lidar default


def min_eigenvalue(state: State) -> float:
    return float(np.linalg.eigvalsh(state.covariance).min())


def assert_valid_covariance(state: State):
    assert np.allclose(state.covariance, state.covariance.T, atol=1e-9)
    assert min_eigenvalue(state) >= -1e-8


class TestInit:
    def test_2d_mean_is_center_aspect_height(self):
        state = kf_init(Box2D(0, 0, 10, 20))
        assert np.allclose(state.mean, [5, 10, 0.5, 20, 0, 0, 0, 0])
        assert_valid_covariance(state)

    def test_3d_mean_matches_box(self):
        state = kf_init(Box3D(1, 2, 0, 0, 4, 2, 1.5))
        assert np.allclose(state.mean, [1, 2, 0, 0, 4, 2, 1.5, 0, 0, 0])
        assert_valid_covariance(state)


class TestPredict:
    def test_position_advances_by_velocity(self):
        state = kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5))
        mean = state.mean.copy()
        mean[7:] = [1.0, -2.0, 0.0]
        state = State(mean, state.covariance)
        predicted = kf_predict(state)
        assert np.allclose(predicted.mean[:3], [1.0, -2.0, 0.0])
        assert np.allclose(predicted.mean[7:], [1.0, -2.0, 0.0])

    def test_zero_velocity_keeps_position_grows_covariance(self):
        state = kf_init(Box2D(10, 10, 60, 130))
        predicted = kf_predict(state)
        assert np.allclose(predicted.mean, state.mean)
        assert np.all(np.diag(predicted.covariance) > np.diag(state.covariance))

    def test_k_steps_give_exact_linear_trajectory(self):
        state = kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5))
        mean = state.mean.copy()
        mean[7] = 1.0
        state = State(mean, state.covariance)
        for k in range(1, 25):
            state = kf_predict(state)
            assert state.mean[0] == float(k)

    def test_inflate_holds_mean(self):
        means, covs = init_arrays(measure(Box2D(0, 0, 50, 100)))
        held_means, held_covs = inflate_arrays(means, covs)
        assert np.array_equal(held_means, means)
        # Position and velocity variances grow on every channel; b stays put.
        assert np.all(held_covs[0, [0, 2]] > covs[0, [0, 2]])
        assert np.array_equal(held_covs[0, 1], covs[0, 1])


class TestUpdate:
    def test_score_zero_equals_plain_update_when_alpha_one(self):
        # alpha * (1 - s)^2 == 1 at s=0, alpha=1: identical to the base noise.
        state = kf_predict(kf_init(Box2D(0, 0, 40, 80)))
        measured = Box2D(4, 4, 46, 88)
        posterior_a = kf_update(state, measured, 0.0, 1.0)
        posterior_b = kf_update(state, measured, 0.5, None)
        assert np.allclose(posterior_a.mean, posterior_b.mean, atol=1e-12)

    def test_score_one_pins_posterior_to_measurement(self):
        state = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5)))
        measured = Box3D(0.8, -0.4, 0.2, 0.1, 4.1, 2.1, 1.4)
        posterior = kf_update(state, measured, 1.0, ALPHA)
        assert np.allclose(posterior.mean[:3], [0.8, -0.4, 0.2], atol=1e-6)

    def test_posterior_distance_decreases_with_score(self):
        state = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5)))
        measured = Box3D(1.0, 1.0, 0.5, 0.0, 4, 2, 1.5)
        target = np.array([1.0, 1.0, 0.5])
        distances = []
        for score in (0.0, 0.25, 0.5, 0.75, 1.0):
            posterior = kf_update(state, measured, score, ALPHA)
            distances.append(np.abs(posterior.mean[:3] - target))
        for lo, hi in zip(distances[1:], distances[:-1]):
            assert np.all(lo < hi)

    def test_posterior_between_prior_and_measurement(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            state = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5)))
            x, y, z = rng.uniform(-2, 2, 3)
            measured = Box3D(x, y, z, 0.0, 4, 2, 1.5)
            score = rng.uniform(0.0, 1.0)
            posterior = kf_update(state, measured, score, ALPHA)
            for axis, target in zip(range(3), (x, y, z)):
                lo, hi = sorted((state.mean[axis], target))
                assert lo - 1e-9 <= posterior.mean[axis] <= hi + 1e-9

    def test_update_with_predicted_box_keeps_mean(self):
        state = kf_init(Box2D(5, 5, 55, 105))
        mean = state.mean.copy()
        mean[4:6] = [2.0, 1.0]
        state = State(mean, state.covariance)
        predicted = kf_predict(state)
        predicted_box = Box2D(*box_rows(predicted.mean[None])[0])
        posterior = kf_update(predicted, predicted_box, 0.9, None)
        assert np.allclose(posterior.mean[:4], predicted.mean[:4], atol=1e-9)

    def test_noiseless_track_error_vanishes(self):
        velocity = np.array([1.2, -0.7, 0.0])
        position = np.zeros(3)
        state = kf_init(Box3D(*position, 0.0, 4, 2, 1.5))
        errors = []
        for _ in range(50):
            position = position + velocity
            state = kf_predict(state)
            state = kf_update(state, Box3D(*position, 0.0, 4, 2, 1.5), 0.9, ALPHA)
            errors.append(float(np.linalg.norm(state.mean[:3] - position)))
            assert_valid_covariance(state)
        assert errors[-1] < 1e-6
        settled = errors[10:]
        assert all(b <= a or b < 1e-9 for a, b in zip(settled, settled[1:]))

    def test_covariance_psd_through_random_sequences(self):
        rng = np.random.default_rng(12)
        state = kf_init(Box2D(0, 0, 60, 120))
        for _ in range(200):
            if rng.random() < 0.5:
                state = kf_predict(state)
            else:
                x, y = rng.uniform(-5, 5, 2)
                state = kf_update(
                    state, Box2D(x, y, x + 60, y + 120), rng.uniform(0, 1), None
                )
            assert_valid_covariance(state)

    def test_theta_innovation_wraps(self):
        state = kf_init(Box3D(0, 0, 0, 3.1, 4, 2, 1.5))
        measured = Box3D(0, 0, 0, -3.1, 4, 2, 1.5)
        posterior = kf_update(state, measured, 0.9, ALPHA)
        # A wrapped residual pulls theta across the pi boundary instead of
        # spinning it the long way through zero.
        assert abs(posterior.mean[3]) > 3.1 - 1e-9

    def test_dimension_mismatch_rejected(self):
        state = kf_init(Box2D(0, 0, 10, 10))
        with pytest.raises(ValueError):
            kf_update(state, Box3D(0, 0, 0, 0, 1, 1, 1), 0.5, ALPHA)
        means, covs = init_arrays(measure(Box2D(0, 0, 10, 10)))
        with pytest.raises(ValueError):  # one measurement row for two states
            update_arrays(np.repeat(means, 2, axis=0), np.repeat(covs, 2, axis=0),
                          measure(Box2D(0, 0, 10, 10)), [0.5, 0.5], ALPHA)

    @pytest.mark.parametrize("width", [0, 3, 5, 9, 11])
    def test_rows_of_neither_mode_rejected(self, width):
        # Every function reads the mode from its arrays: widths 4 and 8 are
        # 2D rows and states, 7 and 10 3D ones, and no other width is either.
        rows = np.ones((2, width))
        message = f"rows of width {width} are neither 2D nor 3D rows or states"
        for call in (lambda: init_arrays(rows), lambda: box_rows(rows),
                     lambda: predict_arrays(rows, np.ones((2, 3, width)))):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_score_out_of_range_rejected(self):
        state = kf_init(Box2D(0, 0, 10, 10))
        with pytest.raises(ValueError):
            kf_update(state, Box2D(0, 0, 10, 10), 1.5, ALPHA)


class TestBatchConsistency:
    def test_batch_matches_scalar_ops(self):
        rng = np.random.default_rng(8)
        starts = [Box3D(*rng.uniform(-5, 5, 3), 0.2, 4, 2, 1.5) for _ in range(7)]
        states = [kf_init(box) for box in starts]
        means, covs = init_arrays(np.concatenate([measure(b) for b in starts]))
        for single, mean, cov in zip(states, means, dense_covariance(covs, True)):
            assert np.array_equal(single.mean, mean)
            assert np.array_equal(single.covariance, cov)
        means, covs = predict_arrays(means, covs)
        for single, mean, cov in zip(states, means, dense_covariance(covs, True)):
            expect = kf_predict(single)
            assert np.array_equal(expect.mean, mean)
            assert np.array_equal(expect.covariance, cov)
        boxes = [Box3D(*rng.uniform(-5, 5, 3), 0.1, 4, 2, 1.5) for _ in range(7)]
        scores = rng.uniform(0, 1, 7).tolist()
        zs = np.concatenate([measure(b) for b in boxes])
        new_means, _ = update_arrays(means, covs, zs, scores, ALPHA)
        dense = dense_covariance(covs, True)
        for mean, cov, box, score, batched in zip(means, dense, boxes, scores, new_means):
            expect = kf_update(State(mean, cov), box, score, ALPHA)
            assert np.array_equal(expect.mean, batched)


class TestBackwardPredict:
    """The detected-velocity backward shift, watched through the detection
    rows association.step hands to the GIoU kernel."""

    CONFIG = dataclasses.replace(
        default_config(Mode.BOX_3D), motion_strategy=MotionStrategy.DETECTED_VELOCITY
    )

    def scored_rows(self, monkeypatch, box, velocity):
        """Detection rows scored when box arrives next to a track at its position."""
        scored = []

        def kernel_spy(a, b):
            scored.extend(map(tuple, a.tolist()))
            return giou_3d_pairs(a, b)

        pool = TrackPool()
        step(pool, 1, [Detection(box, 0.9, 2, (0.0, 0.0))], self.CONFIG)
        monkeypatch.setattr(association, "giou_3d_pairs", kernel_spy)
        step(pool, 2, [Detection(box, 0.9, 2, velocity)], self.CONFIG)
        return scored

    def test_planar_shift(self, monkeypatch):
        box = Box3D(10, 5, 0, 0.3, 4, 2, 1.5)
        (row,) = self.scored_rows(monkeypatch, box, (1.0, -2.0))
        assert row[:2] == (9.0, 7.0)
        assert row[2:] == tuple(box3d_array([box])[0, 2:])

    def test_zero_velocity_identity(self, monkeypatch):
        box = Box3D(10, 5, 0, 0.3, 4, 2, 1.5)
        (row,) = self.scored_rows(monkeypatch, box, (0.0, 0.0))
        assert row == tuple(box3d_array([box])[0])

    def test_two_frame_scenario_recovers_previous_box(self, monkeypatch):
        previous = Box3D(3.0, -1.0, 0.4, 0.7, 4, 2, 1.5)
        velocity = (0.8, 0.5)
        current = Box3D(previous.x + velocity[0], previous.y + velocity[1],
                        previous.z, previous.theta, previous.l, previous.w, previous.h)
        (row,) = self.scored_rows(monkeypatch, current, velocity)
        assert abs(row[0] - previous.x) < 1e-9
        assert abs(row[1] - previous.y) < 1e-9


# -- block closed forms against the dense oracle --------------------------------

# Score regimes of an update: anywhere, near 0 or 1, or exactly 0 or 1.
_SCORE_REGIMES = ("uniform", "near0", "near1", "zero", "one")


def _scores(rng, regime, k):
    if regime == "uniform":
        return rng.uniform(0.0, 1.0, k)
    if regime == "near0":
        return rng.uniform(0.0, 1e-6, k)
    if regime == "near1":
        return 1.0 - rng.uniform(0.0, 1e-6, k)
    return np.full(k, 0.0 if regime == "zero" else 1.0)


def _measurements(rng, means, covs, is_3d, spread, yaw_near_pi):
    """Measurement rows around the tracks' positions, spread in prior std units."""
    obs = covs.shape[2]
    zs = means[:, :obs] + spread * np.sqrt(covs[:, 0]) * rng.standard_normal(means[:, :obs].shape)
    if is_3d:
        zs[:, 4:] = np.abs(zs[:, 4:]) + 0.1
        if yaw_near_pi:
            zs[:, 3] = rng.choice([-1.0, 1.0], len(zs)) * (math.pi - rng.uniform(0, 1e-9, len(zs)))
        else:
            zs[:, 3] = rng.uniform(-math.pi, math.pi, len(zs))
    else:
        zs[:, 2:] = np.abs(zs[:, 2:]) + 1e-3
    return zs


def _fresh_measurements(rng, k, is_3d, yaw_near_pi):
    if is_3d:
        zs = np.concatenate((rng.uniform(-50, 50, (k, 3)), rng.uniform(-math.pi, math.pi, (k, 1)),
                             rng.uniform(0.3, 10.0, (k, 3))), axis=1)
        if yaw_near_pi:
            zs[:, 3] = rng.choice([-1.0, 1.0], k) * (math.pi - rng.uniform(0, 1e-9, k))
        return zs
    return np.concatenate((rng.uniform(-1e3, 1e3, (k, 2)), rng.uniform(0.2, 3.0, (k, 1)),
                           rng.uniform(5.0, 1000.0, (k, 1))), axis=1)


def _assert_matches_dense(means, covs, want_means, want_covs, prior_means, prior_covs, is_3d):
    """Means and expanded covariances within 1e-12 relative of the dense oracle.

    A covariance entry is compared at the scale sqrt(P_ii * P_jj) of its row
    and column variances, each the larger of the prior's and the result's: the
    operands' magnitude. An update's velocity variance c - b^2/s can cancel
    five digits of the prior's, and then neither filter is within 1e-12 of the
    exact result at the result's own scale. A mean entry is compared at the
    magnitude of its prior, its increment and its result; yaw by its wrapped
    angular difference.
    """
    got = dense_covariance(covs, is_3d)
    blocks = dense_covariance(np.ones_like(covs), is_3d) != 0
    assert np.all(want_covs[:, ~blocks[0]] == 0.0)  # the oracle stays block diagonal too
    var = np.maximum(np.abs(np.diagonal(want_covs, axis1=1, axis2=2)),
                     np.abs(np.diagonal(prior_covs, axis1=1, axis2=2)))
    scale = np.sqrt(var[:, :, None] * var[:, None, :])
    assert np.all(np.abs(got - want_covs) <= 1e-12 * scale)
    diff = means - want_means
    scale = np.abs(prior_means) + np.abs(want_means - prior_means) + np.abs(want_means)
    if is_3d:
        diff[:, 3] = np.angle(np.exp(1j * diff[:, 3]))
        scale[:, 3] = math.pi
    assert np.all(np.abs(diff) <= 1e-12 * scale)


def _assert_blocks_psd(covs):
    a, b, c = covs[:, 0], covs[:, 1], covs[:, 2]
    assert np.all(a >= 0.0) and np.all(c >= 0.0)
    assert np.all(a * c - b * b >= -1e-12 * a * c)


_OPS = st.tuples(
    st.sampled_from(("init", "predict", "inflate", "update", "update", "update")),
    st.integers(0, 2**32 - 1),
    st.sampled_from(_SCORE_REGIMES),
    st.sampled_from((0.1, 1.0, 10.0)),
    st.booleans(),
)


# In 2D the 11th operation cancels a velocity variance from 2.15 to 2.44e-4,
# which fails a bound scaled by the result's variances alone.
_CANCELLATION_OPS = [
    ("init", 636, "uniform", 1.0, False), ("update", 4830, "near1", 10.0, False),
    ("update", 0, "uniform", 0.1, False), ("predict", 0, "uniform", 0.1, False),
    ("inflate", 0, "uniform", 0.1, False), ("update", 27224, "uniform", 1.0, False),
    ("predict", 0, "uniform", 0.1, False), ("update", 1444, "uniform", 10.0, False),
    ("predict", 0, "uniform", 0.1, False), ("update", 0, "near0", 0.1, False),
    ("update", 0, "near1", 0.1, False),
] + [("init", 0, "uniform", 0.1, False)] * 39


@pytest.mark.parametrize("is_3d", [False, True], ids=["2d", "3d"])
@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), alpha=st.sampled_from((None, 0.0, 1.0, 10.0, 100.0)),
       ops=st.lists(_OPS, min_size=50, max_size=60))
@example(k=4, alpha=10.0, ops=_CANCELLATION_OPS)
def test_block_filter_matches_dense_oracle(is_3d, k, alpha, ops):
    """At least 200 x 50 = 10^4 operations per dimension, each run on
    identical input states by the block closed forms and by the dense filter."""
    rng = np.random.default_rng(0)
    means, covs = init_arrays(_fresh_measurements(rng, k, is_3d, False))
    for kind, seed, regime, spread, yaw_near_pi in ops:
        rng = np.random.default_rng(seed)
        dense = dense_covariance(covs, is_3d)
        if kind == "init":
            zs = _fresh_measurements(rng, k, is_3d, yaw_near_pi)
            new = init_arrays(zs)
            want = dense_init(zs, is_3d)
            _assert_matches_dense(*new, *want, *want, is_3d)
            # Start the fresh tracks moving, so predicts carry positions along.
            new[0][:, covs.shape[2]:] = rng.normal(0.0, spread, (k, means.shape[1] - covs.shape[2]))
        elif kind == "predict":
            new = predict_arrays(means, covs)
            _assert_matches_dense(*new, *dense_predict(means, dense, is_3d), means, dense, is_3d)
        elif kind == "inflate":
            new = inflate_arrays(means, covs)
            _assert_matches_dense(*new, *dense_inflate(means, dense, is_3d), means, dense, is_3d)
        else:
            zs = _measurements(rng, means, covs, is_3d, spread, yaw_near_pi)
            scores = _scores(rng, regime, k)
            new = update_arrays(means, covs, zs, scores, alpha)
            want = dense_update(means, dense, zs, scores, alpha, is_3d)
            _assert_matches_dense(*new, *want, means, dense, is_3d)
        means, covs = new
        _assert_blocks_psd(covs)
