import dataclasses

import numpy as np
import pytest

from kalman_utils import State, kf_init, kf_predict, kf_update, measure
from motrack import association
from motrack.association import Detection, Mode, MotionStrategy, TrackPool, step
from motrack.geometry import Box2D, Box3D, box3d_array, giou_3d_pairs
from motrack.motion import (
    NoiseConfig,
    box_rows,
    inflate_arrays,
    init_arrays,
    predict_arrays,
    update_arrays,
)
from motrack.tracker import default_config

NOISE = NoiseConfig()
NOISE_PLAIN = NoiseConfig(adaptive=False)


def min_eigenvalue(state: State) -> float:
    return float(np.linalg.eigvalsh(state.covariance).min())


def assert_valid_covariance(state: State):
    assert np.allclose(state.covariance, state.covariance.T, atol=1e-9)
    assert min_eigenvalue(state) >= -1e-8


class TestInit:
    def test_2d_mean_is_center_aspect_height(self):
        state = kf_init(Box2D(0, 0, 10, 20), NOISE)
        assert np.allclose(state.mean, [5, 10, 0.5, 20, 0, 0, 0, 0])
        assert_valid_covariance(state)

    def test_3d_mean_matches_box(self):
        state = kf_init(Box3D(1, 2, 0, 0, 4, 2, 1.5), NOISE)
        assert np.allclose(state.mean, [1, 2, 0, 0, 4, 2, 1.5, 0, 0, 0])
        assert_valid_covariance(state)

    def test_degenerate_2d_box_rejected(self):
        with pytest.raises(ValueError):
            kf_init(Box2D(0, 0, 0, 10), NOISE)
        with pytest.raises(ValueError):
            kf_init(Box2D(0, 0, 10, 0), NOISE)

    def test_noise_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(pos_std=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(alpha=-1.0)


class TestPredict:
    def test_position_advances_by_velocity(self):
        state = kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5), NOISE)
        mean = state.mean.copy()
        mean[7:] = [1.0, -2.0, 0.0]
        state = State(mean, state.covariance)
        predicted = kf_predict(state, NOISE)
        assert np.allclose(predicted.mean[:3], [1.0, -2.0, 0.0])
        assert np.allclose(predicted.mean[7:], [1.0, -2.0, 0.0])

    def test_zero_velocity_keeps_position_grows_covariance(self):
        state = kf_init(Box2D(10, 10, 60, 130), NOISE)
        predicted = kf_predict(state, NOISE)
        assert np.allclose(predicted.mean, state.mean)
        assert np.all(np.diag(predicted.covariance) > np.diag(state.covariance))

    def test_k_steps_give_exact_linear_trajectory(self):
        state = kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5), NOISE)
        mean = state.mean.copy()
        mean[7] = 1.0
        state = State(mean, state.covariance)
        for k in range(1, 25):
            state = kf_predict(state, NOISE)
            assert state.mean[0] == float(k)

    def test_inflate_holds_mean(self):
        means, covs = init_arrays(measure(Box2D(0, 0, 50, 100)), NOISE, False)
        held_means, held_covs = inflate_arrays(means, covs, NOISE, False)
        assert np.array_equal(held_means, means)
        assert np.all(np.diag(held_covs[0]) > np.diag(covs[0]))


class TestUpdate:
    def test_score_zero_equals_plain_update_when_alpha_one(self):
        # alpha * (1 - s)^2 == 1 at s=0, alpha=1: identical to the base noise.
        noise_adaptive = NoiseConfig(alpha=1.0, adaptive=True)
        state = kf_predict(kf_init(Box2D(0, 0, 40, 80), NOISE), NOISE)
        measured = Box2D(4, 4, 46, 88)
        posterior_a = kf_update(state, measured, 0.0, noise_adaptive)
        posterior_b = kf_update(state, measured, 0.5, NOISE_PLAIN)
        assert np.allclose(posterior_a.mean, posterior_b.mean, atol=1e-12)

    def test_score_one_pins_posterior_to_measurement(self):
        state = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5), NOISE), NOISE)
        measured = Box3D(0.8, -0.4, 0.2, 0.1, 4.1, 2.1, 1.4)
        posterior = kf_update(state, measured, 1.0, NOISE)
        assert np.allclose(posterior.mean[:3], [0.8, -0.4, 0.2], atol=1e-6)

    def test_posterior_distance_decreases_with_score(self):
        state = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5), NOISE), NOISE)
        measured = Box3D(1.0, 1.0, 0.5, 0.0, 4, 2, 1.5)
        target = np.array([1.0, 1.0, 0.5])
        distances = []
        for score in (0.0, 0.25, 0.5, 0.75, 1.0):
            posterior = kf_update(state, measured, score, NOISE)
            distances.append(np.abs(posterior.mean[:3] - target))
        for lo, hi in zip(distances[1:], distances[:-1]):
            assert np.all(lo < hi)

    def test_posterior_between_prior_and_measurement(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            state = kf_predict(kf_init(Box3D(0, 0, 0, 0, 4, 2, 1.5), NOISE), NOISE)
            x, y, z = rng.uniform(-2, 2, 3)
            measured = Box3D(x, y, z, 0.0, 4, 2, 1.5)
            score = rng.uniform(0.0, 1.0)
            posterior = kf_update(state, measured, score, NOISE)
            for axis, target in zip(range(3), (x, y, z)):
                lo, hi = sorted((state.mean[axis], target))
                assert lo - 1e-9 <= posterior.mean[axis] <= hi + 1e-9

    def test_update_with_predicted_box_keeps_mean(self):
        state = kf_init(Box2D(5, 5, 55, 105), NOISE_PLAIN)
        mean = state.mean.copy()
        mean[4:6] = [2.0, 1.0]
        state = State(mean, state.covariance)
        predicted = kf_predict(state, NOISE_PLAIN)
        predicted_box = Box2D(*box_rows(predicted.mean[None], False)[0])
        posterior = kf_update(predicted, predicted_box, 0.9, NOISE_PLAIN)
        assert np.allclose(posterior.mean[:4], predicted.mean[:4], atol=1e-9)

    def test_noiseless_track_error_vanishes(self):
        velocity = np.array([1.2, -0.7, 0.0])
        position = np.zeros(3)
        noise = NOISE
        state = kf_init(Box3D(*position, 0.0, 4, 2, 1.5), noise)
        errors = []
        for _ in range(50):
            position = position + velocity
            state = kf_predict(state, noise)
            state = kf_update(state, Box3D(*position, 0.0, 4, 2, 1.5), 0.9, noise)
            errors.append(float(np.linalg.norm(state.mean[:3] - position)))
            assert_valid_covariance(state)
        assert errors[-1] < 1e-6
        settled = errors[10:]
        assert all(b <= a or b < 1e-9 for a, b in zip(settled, settled[1:]))

    def test_covariance_psd_through_random_sequences(self):
        rng = np.random.default_rng(12)
        state = kf_init(Box2D(0, 0, 60, 120), NOISE_PLAIN)
        for _ in range(200):
            if rng.random() < 0.5:
                state = kf_predict(state, NOISE_PLAIN)
            else:
                x, y = rng.uniform(-5, 5, 2)
                state = kf_update(
                    state, Box2D(x, y, x + 60, y + 120), rng.uniform(0, 1), NOISE_PLAIN
                )
            assert_valid_covariance(state)

    def test_theta_innovation_wraps(self):
        state = kf_init(Box3D(0, 0, 0, 3.1, 4, 2, 1.5), NOISE)
        measured = Box3D(0, 0, 0, -3.1, 4, 2, 1.5)
        posterior = kf_update(state, measured, 0.9, NOISE)
        # A wrapped residual pulls theta across the pi boundary instead of
        # spinning it the long way through zero.
        assert abs(posterior.mean[3]) > 3.1 - 1e-9

    def test_dimension_mismatch_rejected(self):
        state = kf_init(Box2D(0, 0, 10, 10), NOISE)
        with pytest.raises(ValueError):
            kf_update(state, Box3D(0, 0, 0, 0, 1, 1, 1), 0.5, NOISE)
        means, covs = init_arrays(measure(Box2D(0, 0, 10, 10)), NOISE, False)
        with pytest.raises(ValueError):  # one measurement row for two states
            update_arrays(np.repeat(means, 2, axis=0), np.repeat(covs, 2, axis=0),
                          measure(Box2D(0, 0, 10, 10)), [0.5, 0.5], NOISE, False)

    def test_score_out_of_range_rejected(self):
        state = kf_init(Box2D(0, 0, 10, 10), NOISE)
        with pytest.raises(ValueError):
            kf_update(state, Box2D(0, 0, 10, 10), 1.5, NOISE)


class TestBatchConsistency:
    def test_batch_matches_scalar_ops(self):
        rng = np.random.default_rng(8)
        starts = [Box3D(*rng.uniform(-5, 5, 3), 0.2, 4, 2, 1.5) for _ in range(7)]
        states = [kf_init(box, NOISE) for box in starts]
        means, covs = init_arrays(np.concatenate([measure(b) for b in starts]), NOISE, True)
        for single, mean, cov in zip(states, means, covs):
            assert np.array_equal(single.mean, mean)
            assert np.array_equal(single.covariance, cov)
        means, covs = predict_arrays(means, covs, NOISE, True)
        for single, mean, cov in zip(states, means, covs):
            expect = kf_predict(single, NOISE)
            assert np.array_equal(expect.mean, mean)
            assert np.array_equal(expect.covariance, cov)
        boxes = [Box3D(*rng.uniform(-5, 5, 3), 0.1, 4, 2, 1.5) for _ in range(7)]
        scores = rng.uniform(0, 1, 7).tolist()
        zs = np.concatenate([measure(b) for b in boxes])
        new_means, _ = update_arrays(means, covs, zs, scores, NOISE, True)
        for mean, cov, box, score, batched in zip(means, covs, boxes, scores, new_means):
            expect = kf_update(State(mean, cov), box, score, NOISE)
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
