"""Constant-velocity Kalman filtering for 2D and 3D box tracking.

2D tracks use an 8-dim state (center x, center y, aspect ratio w/h, height,
plus their per-frame velocities), 3D tracks a 10-dim state (x, y, z, yaw, l,
w, h plus world-frame center velocities). The noise scales are one module
table per mode; every noise standard deviation is fixed + weight * h, h the
box height: 2D scales with the height except for the aspect ratio, and all of
3D is fixed (metric scales). The only noise setting is the confidence scaling
of update_arrays, R_hat = alpha * (1 - score)^2 * R, floored elementwise to
keep the innovation covariance invertible at score 1.

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
parameter rows (box_rows): (x1, y1, x2, y2) corners in 2D, (x, y, z, theta,
l, w, h) in 3D.
"""

from __future__ import annotations

import numpy as np

from .geometry import wrap_angles

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


def _table_2d(weight: float, aspect_std: float) -> tuple[np.ndarray, np.ndarray]:
    """(weights, fixed) of a 2D noise term: height-proportional except the aspect ratio."""
    return np.array([weight, weight, 0.0, weight]), np.array([0.0, 0.0, aspect_std, 0.0])


# The noise scales, one table per mode. Each term (process noise of the
# positions and of the velocities, measurement noise, initial position and
# velocity uncertainty) maps to per-channel weights and fixed standard
# deviations, std = fixed + weight * h with h the box height, the last
# observed channel. Channels without a velocity have zero velocity terms.
_NOISE_2D = {
    "q_pos": _table_2d(_POS_WEIGHT, _ASPECT_Q_STD),
    "q_vel": _table_2d(_VEL_WEIGHT, _ASPECT_VEL_Q_STD),
    "r": _table_2d(_POS_WEIGHT, _ASPECT_R_STD),
    "init_pos": _table_2d(2.0 * _POS_WEIGHT, _ASPECT_INIT_STD),
    "init_vel": _table_2d(10.0 * _VEL_WEIGHT, _ASPECT_VEL_INIT_STD),
}
_VEL_STDS_3D = np.array([_VEL_STD] * 3 + [0.0] * 4)
_NOISE_3D = {term: (np.zeros(OBS_DIM_3D), fixed) for term, fixed in (
    ("q_pos", _OBS_STDS_3D), ("q_vel", _VEL_STDS_3D), ("r", _OBS_STDS_3D),
    ("init_pos", 2.0 * _OBS_STDS_3D), ("init_vel", 10.0 * _VEL_STDS_3D),
)}

# Floor of the measurement variances after confidence scaling.
_MIN_NOISE_FLOOR = 1e-4

_THETA_INDEX = 3  # yaw position in the 3D state and measurement vectors


def _measurement_stack(rows: np.ndarray, is_3d: bool) -> np.ndarray:
    """Measurement rows (K, obs_dim) of box parameter rows.

    3D rows are measured as they are. 2D corner rows become (center x,
    center y, w/h, h); detections have positive sizes (association.row_rules).
    """
    if is_3d:
        return rows
    size = rows[:, 2:] - rows[:, :2]
    # Halved before the sum, so corners near +-1.7e308 do not overflow.
    half = rows / 2.0
    centers = half[:, :2] + half[:, 2:]
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


def _variances(term: str, rows: np.ndarray, is_3d: bool) -> np.ndarray:
    """Variances (K, obs_dim) of one noise term for state or measurement rows:
    std = fixed + weight * h per channel, h the row's last observed channel."""
    weight, fixed = (_NOISE_3D if is_3d else _NOISE_2D)[term]
    obs = len(weight)
    return (fixed + weight * rows[:, obs - 1 : obs]) ** 2


def init_arrays(zs: np.ndarray, is_3d: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start one track per measurement row: positions measured, velocities zero."""
    k, obs = zs.shape
    dim = STATE_DIM_3D if is_3d else STATE_DIM_2D
    means = np.concatenate((zs, np.zeros((k, dim - obs))), axis=1)
    covs = np.zeros((k, 3, obs))
    covs[:, 0] = _variances("init_pos", zs, is_3d)
    covs[:, 2] = _variances("init_vel", zs, is_3d)
    return means, covs


def predict_arrays(
    means: np.ndarray, covs: np.ndarray, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step: positions advance by velocities, covariances grow.

    Per block: a' = (a + b) + (b + c) + q_pos, b' = b + c, c' = c + q_vel.
    """
    obs = covs.shape[2]
    new_means = means.copy()
    new_means[:, : means.shape[1] - obs] += means[:, obs:]
    a, b, c = covs[:, 0], covs[:, 1], covs[:, 2]
    new_covs = np.empty_like(covs)
    new_covs[:, 1] = b + c
    new_covs[:, 0] = (a + b) + new_covs[:, 1] + _variances("q_pos", means, is_3d)
    new_covs[:, 2] = c + _variances("q_vel", means, is_3d)
    return new_means, new_covs


def inflate_arrays(
    means: np.ndarray, covs: np.ndarray, is_3d: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk step used when no motion model applies: means copied, variances grown."""
    new_covs = covs.copy()
    new_covs[:, 0] += _variances("q_pos", means, is_3d)
    new_covs[:, 2] += _variances("q_vel", means, is_3d)
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

    r = _variances("r", zs, is_3d)
    if adaptive:
        r = alpha * (1.0 - scores[:, None]) ** 2 * r
    r = np.maximum(r, _MIN_NOISE_FLOOR)

    innovation = zs - means[:, :obs]
    if is_3d:
        innovation[:, _THETA_INDEX] = wrap_angles(innovation[:, _THETA_INDEX])
    # gain[:, 0] weights the innovation into positions, gain[:, 1] into velocities.
    gain = covs[:, :2] / (covs[:, 0] + r)[:, None]
    increment = gain * innovation[:, None]
    new_means = means.copy()
    new_means[:, :obs] += increment[:, 0]
    new_means[:, obs:] += increment[:, 1, : means.shape[1] - obs]
    if is_3d:
        new_means[:, _THETA_INDEX] = wrap_angles(new_means[:, _THETA_INDEX])
    new_covs = np.empty_like(covs)
    new_covs[:, :2] = gain * r[:, None]
    new_covs[:, 2] = covs[:, 2] - gain[:, 1] * covs[:, 1]
    return new_means, new_covs
