"""Constant-velocity Kalman filtering for 2D and 3D box tracking.

2D tracks use an 8-dim state (center x, center y, aspect ratio w/h, height,
plus their per-frame velocities) with noise scales proportional to the box
height. 3D tracks use a 10-dim state (x, y, z, yaw, l, w, h plus world-frame
center velocities) with fixed metric noise scales. The scales are module
constants; the only noise setting is the confidence scaling of update_arrays,
R_hat = alpha * (1 - score)^2 * R, floored elementwise to keep the innovation
covariance invertible at score 1.

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

import numpy as np

STATE_DIM_2D = 8
OBS_DIM_2D = 4
STATE_DIM_3D = 10
OBS_DIM_3D = 7

# 2D noise standard deviations as fractions of the box height.
_POS_WEIGHT = 1.0 / 20.0
_VEL_WEIGHT = 1.0 / 160.0

# Aspect-ratio channel scales for the 2D filter (not height-proportional).
_ASPECT_INIT_STD = 1e-2
_ASPECT_Q_STD = 1e-2
_ASPECT_R_STD = 1e-1
_ASPECT_VEL_INIT_STD = 1e-5
_ASPECT_VEL_Q_STD = 1e-5

# 3D noise standard deviations of the observed channels (x, y, z in meters,
# yaw in radians, l, w, h in meters) and of the center velocities (meters per
# frame).
_POS_STD = 0.5
_YAW_STD = 0.1
_SIZE_STD = 0.3
_VEL_STD = 0.5
_OBS_STDS_3D = np.array([_POS_STD] * 3 + [_YAW_STD] + [_SIZE_STD] * 3)

# Process-noise scales per observed channel: 3D variances, 2D multiples of the
# box height (the aspect-ratio channel is set apart).
_Q_POS_VARS_3D = _OBS_STDS_3D**2
_Q_VEL_VARS_3D = np.array([_VEL_STD] * 3 + [0.0] * 4) ** 2
_Q_POS_WEIGHTS_2D = np.array([_POS_WEIGHT, _POS_WEIGHT, 0.0, _POS_WEIGHT])
_Q_VEL_WEIGHTS_2D = np.array([_VEL_WEIGHT, _VEL_WEIGHT, 0.0, _VEL_WEIGHT])

# Floor of the measurement variances after confidence scaling.
_MIN_NOISE_FLOOR = 1e-4

_THETA_INDEX = 3  # yaw position in the 3D state and measurement vectors


def _measurement_stack(rows: np.ndarray, is_3d: bool) -> np.ndarray:
    """Measurement rows (K, obs_dim) of box parameter rows.

    3D rows are measured as they are. 2D corner rows become (center x,
    center y, w/h, h) and must have positive area.
    """
    if is_3d:
        return rows
    size = rows[:, 2:] - rows[:, :2]
    if (size <= 0).any():
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
    rows = np.empty((len(means), 4))
    # rows[:, 2:] holds the half sizes (width, height) until the top-left
    # corner is written; np.maximum keeps a NaN size NaN.
    half = rows[:, 2:]
    np.maximum(means[:, 3:4], 1e-6, out=half[:, 1:])
    np.multiply(means[:, 2:3], half[:, 1:], out=half[:, :1])
    np.maximum(half[:, :1], 1e-6, out=half[:, :1])
    half /= 2.0
    np.subtract(means[:, :2], half, out=rows[:, :2])
    half += means[:, :2]
    return rows


def _q_blocks(means: np.ndarray, is_3d: bool) -> tuple[np.ndarray, np.ndarray]:
    """Process-noise variances of each channel's position and velocity.

    Two arrays that broadcast against (K, obs_dim); velocity noise is zero on
    the channels without a velocity.
    """
    if is_3d:
        return _Q_POS_VARS_3D, _Q_VEL_VARS_3D
    heights = means[:, 3:4]
    pos = heights * _Q_POS_WEIGHTS_2D
    pos[:, 2] = _ASPECT_Q_STD
    vel = heights * _Q_VEL_WEIGHTS_2D
    vel[:, 2] = _ASPECT_VEL_Q_STD
    return pos**2, vel**2


def _r_diags(zs: np.ndarray, is_3d: bool) -> np.ndarray:
    """Per-measurement base noise variances, shape (K, obs_dim)."""
    k = zs.shape[0]
    if is_3d:
        return np.broadcast_to(_OBS_STDS_3D**2, (k, OBS_DIM_3D)).copy()
    heights = zs[:, 3]
    stds = np.empty((k, OBS_DIM_2D))
    stds[:, 0] = stds[:, 1] = stds[:, 3] = _POS_WEIGHT * heights
    stds[:, 2] = _ASPECT_R_STD
    return stds**2


def _wrap_theta(rows: np.ndarray) -> None:
    """Wrap the yaw column of 3D rows to (-pi, pi] in place."""
    theta = rows[:, _THETA_INDEX]
    theta = np.arctan2(np.sin(theta), np.cos(theta))
    theta[theta <= -math.pi] += math.tau
    rows[:, _THETA_INDEX] = theta


def init_arrays(zs: np.ndarray, is_3d: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start one track per measurement row: positions measured, velocities zero."""
    k, obs = zs.shape
    covs = np.zeros((k, 3, obs))
    if is_3d:
        means = np.concatenate((zs, np.zeros((k, 3))), axis=1)
        covs[:, 0] = (2.0 * _OBS_STDS_3D) ** 2
        covs[:, 2, :3] = np.array([10.0 * _VEL_STD] * 3) ** 2
    else:
        means = np.concatenate((zs, np.zeros((k, 4))), axis=1)
        p = 2.0 * _POS_WEIGHT
        v = 10.0 * _VEL_WEIGHT
        pos = zs[:, 3:4] * np.array([p, p, 0.0, p])
        pos[:, 2] = _ASPECT_INIT_STD
        vel = zs[:, 3:4] * np.array([v, v, 0.0, v])
        vel[:, 2] = _ASPECT_VEL_INIT_STD
        covs[:, 0] = pos**2
        covs[:, 2] = vel**2
    return means, covs


def predict_arrays(
    means: np.ndarray, covs: np.ndarray, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step: positions advance by velocities, covariances grow.

    Per block: a' = (a + b) + (b + c) + q_pos, b' = b + c, c' = c + q_vel.
    """
    obs = covs.shape[2]
    q_pos, q_vel = _q_blocks(means, is_3d)
    new_means = means.copy()
    new_means[:, : means.shape[1] - obs] += means[:, obs:]
    a, b, c = covs[:, 0], covs[:, 1], covs[:, 2]
    new_covs = np.empty_like(covs)
    new_covs[:, 1] = b + c
    new_covs[:, 0] = (a + b) + new_covs[:, 1] + q_pos
    new_covs[:, 2] = c + q_vel
    return new_means, new_covs


def inflate_arrays(
    means: np.ndarray, covs: np.ndarray, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk step used when no motion model applies: means copied, variances grown."""
    q_pos, q_vel = _q_blocks(means, is_3d)
    new_covs = covs.copy()
    new_covs[:, 0] += q_pos
    new_covs[:, 2] += q_vel
    return means.copy(), new_covs


def update_arrays(
    means: np.ndarray,
    covs: np.ndarray,
    zs: np.ndarray,
    scores: np.ndarray,
    alpha: float,
    adaptive: bool,
    is_3d: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman measurement update of K states by K measurement rows.

    When adaptive is set the base measurement covariance R becomes
    alpha * (1 - score)^2 * R; either way R is floored elementwise at 1e-4.
    The yaw innovation (3D) is wrapped to (-pi, pi] before applying the gain,
    and the updated yaw after. Per block, with s = a + r, the gain is
    (a/s, b/s) and the posterior (a*r/s, b*r/s, c - b^2/s): each channel is
    measured alone, so the innovation covariance is diagonal and no solve is
    needed.
    """
    obs = OBS_DIM_3D if is_3d else OBS_DIM_2D
    if zs.shape != (means.shape[0], obs):
        raise ValueError("measurement dimensionality does not match the states")
    scores = np.asarray(scores, dtype=float)
    if ((scores < 0.0) | (scores > 1.0)).any():
        raise ValueError("scores must be in [0, 1]")

    r = _r_diags(zs, is_3d)
    if adaptive:
        r = alpha * (1.0 - scores[:, None]) ** 2 * r
    r = np.maximum(r, _MIN_NOISE_FLOOR)

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
