"""Constant-velocity Kalman filtering for 2D and 3D box tracking.

2D tracks use an 8-dim state (center x, center y, aspect ratio w/h, height,
plus their per-frame velocities) with noise scales proportional to the box
height. 3D tracks use a 10-dim state (x, y, z, yaw, l, w, h plus world-frame
center velocities) with fixed metric noise scales. Measurement uncertainty can
be scaled by detection confidence: R_hat = alpha * (1 - score)^2 * R, floored
elementwise to keep the innovation covariance invertible at score 1.

The transition couples each observed channel only with its own velocity,
the observation selects the observed channels, and every noise term is
diagonal. So the covariance never leaves a block layout: one independent 2x2
(position, velocity) block per observed channel, 1x1 for the 3D channels
without a velocity (yaw, l, w, h). Covariances are stored as those blocks and
every operation is its elementwise closed form; the dense filter this
reproduces lives in the tests as the oracle.

Every operation works on a batch of K tracks, one row each: means (K, D) and
covariance blocks covs (K, 3, obs_dim), where covs[:, 0], covs[:, 1] and
covs[:, 2] are each channel's position variance a, position-velocity
covariance b and velocity variance c (b = c = 0 without a velocity). One
association step predicts, updates or starts every track it touches at once.
Boxes enter as measurement rows (_measurement_stack) and leave as box
parameter rows (box_rows), in the layouts of geometry.box2d_array and
geometry.box3d_array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STATE_DIM_2D = 8
OBS_DIM_2D = 4
STATE_DIM_3D = 10
OBS_DIM_3D = 7

# Aspect-ratio channel scales for the 2D filter (not height-proportional).
_ASPECT_INIT_STD = 1e-2
_ASPECT_Q_STD = 1e-2
_ASPECT_R_STD = 1e-1
_ASPECT_VEL_INIT_STD = 1e-5
_ASPECT_VEL_Q_STD = 1e-5

_THETA_INDEX = 3  # yaw position in the 3D state and measurement vectors


@dataclass(frozen=True)
class NoiseConfig:
    """Process/measurement noise scales and the confidence-adaptive knobs.

    pos_weight / vel_weight scale the height-proportional 2D noise; the *_std
    fields are fixed 3D scales in meters (radians for yaw, meters-per-frame
    for velocity). alpha controls the magnitude of the confidence-scaled
    measurement uncertainty; min_noise_floor keeps it positive at score 1.
    """

    pos_weight: float = 1.0 / 20.0
    vel_weight: float = 1.0 / 160.0
    pos_std: float = 0.5
    yaw_std: float = 0.1
    size_std: float = 0.3
    vel_std: float = 0.5
    alpha: float = 10.0
    adaptive: bool = True
    min_noise_floor: float = 1e-4

    def __post_init__(self):
        for name in ("pos_weight", "vel_weight", "pos_std", "yaw_std", "size_std",
                     "vel_std", "min_noise_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"NoiseConfig.{name} must be positive")
        if self.alpha < 0:
            raise ValueError("NoiseConfig.alpha must be non-negative")


def _measurement_stack(rows: np.ndarray, is_3d: bool) -> np.ndarray:
    """Measurement rows (K, obs_dim) of box parameter rows.

    3D rows are measured as they are. 2D corner rows become (center x,
    center y, w/h, h) and must have positive area.
    """
    if is_3d:
        return rows
    size = rows[:, 2:] - rows[:, :2]
    if np.any(size <= 0):
        raise ValueError("2D Kalman measurements require a positive-area box")
    centers = (rows[:, :2] + rows[:, 2:]) / 2.0
    return np.concatenate((centers, size[:, :1] / size[:, 1:], size[:, 1:]), axis=1)


def box_rows(means: np.ndarray, is_3d: bool) -> np.ndarray:
    """Box parameter rows of the states' estimates; degenerate sizes are clamped tiny."""
    if is_3d:
        rows = means[:, :7].copy()
        size = rows[:, 4:]
        rows[:, 4:] = np.where(size > 1e-6, size, 1e-6)
        return rows
    height = np.where(means[:, 3:4] < 1e-6, 1e-6, means[:, 3:4])
    width = means[:, 2:3] * height
    width = np.where(width < 1e-6, 1e-6, width)
    half = np.concatenate((width, height), axis=1) / 2.0
    return np.concatenate((means[:, :2] - half, means[:, :2] + half), axis=1)


def _obs_stds_3d(noise: NoiseConfig) -> np.ndarray:
    """Fixed 3D scales of the observed channels (x, y, z, yaw, l, w, h)."""
    return np.array([noise.pos_std] * 3 + [noise.yaw_std] + [noise.size_std] * 3)


def _q_blocks(
    means: np.ndarray, noise: NoiseConfig, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Process-noise variances of each channel's position and velocity.

    Two arrays that broadcast against (K, obs_dim); velocity noise is zero on
    the channels without a velocity.
    """
    if is_3d:
        return _obs_stds_3d(noise) ** 2, np.array([noise.vel_std] * 3 + [0.0] * 4) ** 2
    heights = means[:, 3:4]
    pos = heights * np.array([noise.pos_weight, noise.pos_weight, 0.0, noise.pos_weight])
    pos[:, 2] = _ASPECT_Q_STD
    vel = heights * np.array([noise.vel_weight, noise.vel_weight, 0.0, noise.vel_weight])
    vel[:, 2] = _ASPECT_VEL_Q_STD
    return pos**2, vel**2


def _r_diags(zs: np.ndarray, noise: NoiseConfig, is_3d: bool) -> np.ndarray:
    """Per-measurement base noise variances, shape (K, obs_dim)."""
    k = zs.shape[0]
    if is_3d:
        return np.broadcast_to(_obs_stds_3d(noise) ** 2, (k, OBS_DIM_3D)).copy()
    heights = zs[:, 3]
    stds = np.empty((k, OBS_DIM_2D))
    stds[:, 0] = stds[:, 1] = stds[:, 3] = noise.pos_weight * heights
    stds[:, 2] = _ASPECT_R_STD
    return stds**2


def _wrap_theta(rows: np.ndarray) -> None:
    """Wrap the yaw column of 3D rows to (-pi, pi] in place."""
    theta = rows[:, _THETA_INDEX]
    theta = np.arctan2(np.sin(theta), np.cos(theta))
    theta[theta <= -math.pi] += math.tau
    rows[:, _THETA_INDEX] = theta


def init_arrays(zs: np.ndarray, noise: NoiseConfig, is_3d: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start one track per measurement row: positions measured, velocities zero."""
    k, obs = zs.shape
    covs = np.zeros((k, 3, obs))
    if is_3d:
        means = np.concatenate((zs, np.zeros((k, 3))), axis=1)
        covs[:, 0] = (2.0 * _obs_stds_3d(noise)) ** 2
        covs[:, 2, :3] = np.array([10.0 * noise.vel_std] * 3) ** 2
    else:
        means = np.concatenate((zs, np.zeros((k, 4))), axis=1)
        p = 2.0 * noise.pos_weight
        v = 10.0 * noise.vel_weight
        pos = zs[:, 3:4] * np.array([p, p, 0.0, p])
        pos[:, 2] = _ASPECT_INIT_STD
        vel = zs[:, 3:4] * np.array([v, v, 0.0, v])
        vel[:, 2] = _ASPECT_VEL_INIT_STD
        covs[:, 0] = pos**2
        covs[:, 2] = vel**2
    return means, covs


def predict_arrays(
    means: np.ndarray, covs: np.ndarray, noise: NoiseConfig, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step: positions advance by velocities, covariances grow.

    Per block: a' = (a + b) + (b + c) + q_pos, b' = b + c, c' = c + q_vel.
    """
    obs = covs.shape[2]
    q_pos, q_vel = _q_blocks(means, noise, is_3d)
    new_means = means.copy()
    new_means[:, : means.shape[1] - obs] += means[:, obs:]
    a, b, c = covs[:, 0], covs[:, 1], covs[:, 2]
    new_covs = np.empty_like(covs)
    new_covs[:, 1] = b + c
    new_covs[:, 0] = (a + b) + new_covs[:, 1] + q_pos
    new_covs[:, 2] = c + q_vel
    return new_means, new_covs


def inflate_arrays(
    means: np.ndarray, covs: np.ndarray, noise: NoiseConfig, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk step used when no motion model applies: means copied, variances grown."""
    q_pos, q_vel = _q_blocks(means, noise, is_3d)
    new_covs = covs.copy()
    new_covs[:, 0] += q_pos
    new_covs[:, 2] += q_vel
    return means.copy(), new_covs


def update_arrays(
    means: np.ndarray,
    covs: np.ndarray,
    zs: np.ndarray,
    scores: np.ndarray,
    noise: NoiseConfig,
    is_3d: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman measurement update of K states by K measurement rows.

    When adaptive scaling is enabled the base measurement covariance R becomes
    alpha * (1 - score)^2 * R, floored elementwise at min_noise_floor. The yaw
    innovation (3D) is wrapped to (-pi, pi] before applying the gain, and the
    updated yaw after. Per block, with s = a + r, the gain is (a/s, b/s) and
    the posterior (a*r/s, b*r/s, c - b^2/s): each channel is measured alone,
    so the innovation covariance is diagonal and no solve is needed.
    """
    obs = OBS_DIM_3D if is_3d else OBS_DIM_2D
    if zs.shape != (means.shape[0], obs):
        raise ValueError("measurement dimensionality does not match the states")
    scores = np.asarray(scores, dtype=float)
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise ValueError("scores must be in [0, 1]")

    r = _r_diags(zs, noise, is_3d)
    if noise.adaptive:
        r = noise.alpha * (1.0 - scores[:, None]) ** 2 * r
    r = np.maximum(r, noise.min_noise_floor)

    innovation = zs - means[:, :obs]
    if is_3d:
        _wrap_theta(innovation)
    # gain[:, 0] weights the innovation into positions, gain[:, 1] into velocities.
    gain = covs[:, :2] / (covs[:, 0] + r)[:, None]
    increment = gain * innovation[:, None]
    new_means = means.copy()
    new_means[:, :obs] += increment[:, 0]
    new_means[:, obs:] += increment[:, 1, : means.shape[1] - obs]
    if is_3d:
        _wrap_theta(new_means)
    new_covs = np.empty_like(covs)
    new_covs[:, :2] = gain * r[:, None]
    new_covs[:, 2] = covs[:, 2] - gain[:, 1] * covs[:, 1]
    return new_means, new_covs
