"""Constant-velocity Kalman filtering for 2D and 3D box tracking.

2D tracks use an 8-dim state (center x, center y, aspect ratio w/h, height,
plus their per-frame velocities) with noise scales proportional to the box
height. 3D tracks use a 10-dim state (x, y, z, yaw, l, w, h plus world-frame
center velocities) with fixed metric noise scales. Measurement uncertainty can
be scaled by detection confidence: R_hat = alpha * (1 - score)^2 * R, floored
elementwise to keep the innovation covariance invertible at score 1.

Every operation works on a batch of K tracks, one row each: means (K, D) and
covariances (K, D, D), so one association step predicts, updates or starts
every track it touches at once. Boxes enter as measurement rows
(_measurement_stack) and leave as box parameter rows (box_rows), in the
layouts of geometry.box2d_array and geometry.box3d_array.
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


def _transition_2d() -> np.ndarray:
    f = np.eye(STATE_DIM_2D)
    for k in range(4):
        f[k, 4 + k] = 1.0
    return f


def _transition_3d() -> np.ndarray:
    # Only the center moves; yaw and size carry no velocity in the state.
    f = np.eye(STATE_DIM_3D)
    f[0, 7] = f[1, 8] = f[2, 9] = 1.0
    return f


_F_2D = _transition_2d()
_F_3D = _transition_3d()


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


def _q_diags(means: np.ndarray, noise: NoiseConfig, is_3d: bool) -> np.ndarray:
    """Per-track process-noise variances, shape (K, state_dim)."""
    k = means.shape[0]
    if is_3d:
        stds = np.array([noise.pos_std] * 3 + [noise.yaw_std] + [noise.size_std] * 3
                        + [noise.vel_std] * 3)
        return np.broadcast_to(stds**2, (k, STATE_DIM_3D)).copy()
    heights = means[:, 3]
    stds = np.empty((k, STATE_DIM_2D))
    stds[:, 0] = stds[:, 1] = stds[:, 3] = noise.pos_weight * heights
    stds[:, 2] = _ASPECT_Q_STD
    stds[:, 4] = stds[:, 5] = stds[:, 7] = noise.vel_weight * heights
    stds[:, 6] = _ASPECT_VEL_Q_STD
    return stds**2


def _r_diags(zs: np.ndarray, noise: NoiseConfig, is_3d: bool) -> np.ndarray:
    """Per-measurement base noise variances, shape (K, obs_dim)."""
    k = zs.shape[0]
    if is_3d:
        stds = np.array([noise.pos_std] * 3 + [noise.yaw_std] + [noise.size_std] * 3)
        return np.broadcast_to(stds**2, (k, OBS_DIM_3D)).copy()
    heights = zs[:, 3]
    stds = np.empty((k, OBS_DIM_2D))
    stds[:, 0] = stds[:, 1] = stds[:, 3] = noise.pos_weight * heights
    stds[:, 2] = _ASPECT_R_STD
    return stds**2


def init_arrays(zs: np.ndarray, noise: NoiseConfig, is_3d: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start one track per measurement row: observed block set, velocities zero."""
    k = zs.shape[0]
    if is_3d:
        means = np.concatenate((zs, np.zeros((k, 3))), axis=1)
        obs_stds = np.array([noise.pos_std] * 3 + [noise.yaw_std] + [noise.size_std] * 3)
        stds = np.concatenate([2.0 * obs_stds, [10.0 * noise.vel_std] * 3])[None, :]
    else:
        means = np.concatenate((zs, np.zeros((k, 4))), axis=1)
        p = 2.0 * noise.pos_weight
        v = 10.0 * noise.vel_weight
        stds = zs[:, 3:4] * np.array([p, p, 0.0, p, v, v, 0.0, v])
        stds[:, 2] = _ASPECT_INIT_STD
        stds[:, 6] = _ASPECT_VEL_INIT_STD
    dim = means.shape[1]
    idx = np.arange(dim)
    covs = np.zeros((k, dim, dim))
    covs[:, idx, idx] = stds**2
    return means, covs


def predict_arrays(
    means: np.ndarray, covs: np.ndarray, noise: NoiseConfig, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step: positions advance by velocities, covariances grow."""
    f = _F_3D if is_3d else _F_2D
    new_means = means @ f.T
    new_covs = np.matmul(f, np.matmul(covs, f.T))
    dim = means.shape[1]
    idx = np.arange(dim)
    new_covs[:, idx, idx] += _q_diags(means, noise, is_3d)
    new_covs = (new_covs + new_covs.transpose(0, 2, 1)) / 2.0
    return new_means, new_covs


def inflate_arrays(
    means: np.ndarray, covs: np.ndarray, noise: NoiseConfig, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk step used when no motion model applies: means copied, covariances grown."""
    covs = covs.copy()
    dim = means.shape[1]
    idx = np.arange(dim)
    covs[:, idx, idx] += _q_diags(means, noise, is_3d)
    return means.copy(), covs


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
    innovation (3D) is wrapped to (-pi, pi] before applying the gain; the
    posterior covariance uses the Joseph form to stay PSD.
    """
    obs = OBS_DIM_3D if is_3d else OBS_DIM_2D
    if zs.shape != (means.shape[0], obs):
        raise ValueError("measurement dimensionality does not match the states")
    scores = np.asarray(scores, dtype=float)
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise ValueError("scores must be in [0, 1]")
    dim = means.shape[1]
    k = means.shape[0]

    r = _r_diags(zs, noise, is_3d)
    if noise.adaptive:
        r = noise.alpha * (1.0 - scores[:, None]) ** 2 * r
    r = np.maximum(r, noise.min_noise_floor)

    # The observation matrix selects the leading block, so projections are slices.
    innovation = zs - means[:, :obs]
    if is_3d:
        theta = innovation[:, _THETA_INDEX]
        theta = np.arctan2(np.sin(theta), np.cos(theta))
        theta[theta <= -math.pi] += math.tau
        innovation[:, _THETA_INDEX] = theta
    s = covs[:, :obs, :obs].copy()
    oidx = np.arange(obs)
    s[:, oidx, oidx] += r
    pht = covs[:, :, :obs]
    gain = np.linalg.solve(s, pht.transpose(0, 2, 1)).transpose(0, 2, 1)

    new_means = means + np.matmul(gain, innovation[:, :, None])[:, :, 0]
    if is_3d:
        theta = new_means[:, _THETA_INDEX]
        theta = np.arctan2(np.sin(theta), np.cos(theta))
        theta[theta <= -math.pi] += math.tau
        new_means[:, _THETA_INDEX] = theta
    ikh = np.broadcast_to(np.eye(dim), (k, dim, dim)).copy()
    ikh[:, :, :obs] -= gain
    new_covs = np.matmul(ikh, np.matmul(covs, ikh.transpose(0, 2, 1)))
    new_covs += np.matmul(gain * r[:, None, :], gain.transpose(0, 2, 1))
    new_covs = (new_covs + new_covs.transpose(0, 2, 1)) / 2.0
    return new_means, new_covs
