"""Single-track Kalman steps and the dense Kalman filter oracle for the tests.

motrack.motion stores each track's covariance as per-channel (position,
velocity) blocks. The kf_* helpers run one of its batched functions on a batch
of one (K = 1) and hand back a plain (mean, covariance) pair, the covariance
expanded to the dense (D, D) matrix, so a test can follow one filter through
time without handling batch axes or the block layout.

The dense_* functions are the textbook filter over dense (K, D, D)
covariances: transition matrices, a batched solve for the gain and the
Joseph-form posterior. They are the oracle the block closed forms are checked
against; dense_covariance and blocks_of convert between the two layouts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from motrack import motion
from motrack.geometry import Box2D, Box3D

from oracle_utils import box2d_array, box3d_array


class State(NamedTuple):
    mean: np.ndarray
    covariance: np.ndarray


def measure(box: Box2D | Box3D) -> np.ndarray:
    """The (1, obs_dim) measurement row of one box."""
    if isinstance(box, Box3D):
        return motion._measurement_stack(box3d_array([box]), True)
    return motion._measurement_stack(box2d_array([box]), False)


def _is_3d(state: State) -> bool:
    return state.mean.size == motion.STATE_DIM_3D


def _dims(is_3d: bool) -> tuple[int, int]:
    if is_3d:
        return motion.STATE_DIM_3D, motion.OBS_DIM_3D
    return motion.STATE_DIM_2D, motion.OBS_DIM_2D


def dense_covariance(covs: np.ndarray, is_3d: bool) -> np.ndarray:
    """The dense (K, D, D) covariances of block covariances (K, 3, obs_dim)."""
    dim, obs = _dims(is_3d)
    k = covs.shape[0]
    pos = np.arange(obs)
    vel = np.arange(dim - obs)
    dense = np.zeros((k, dim, dim))
    dense[:, pos, pos] = covs[:, 0]
    dense[:, vel, obs + vel] = dense[:, obs + vel, vel] = covs[:, 1, : dim - obs]
    dense[:, obs + vel, obs + vel] = covs[:, 2, : dim - obs]
    return dense


def blocks_of(dense: np.ndarray, is_3d: bool) -> np.ndarray:
    """The block covariances (K, 3, obs_dim) of dense ones; off-block entries are dropped."""
    dim, obs = _dims(is_3d)
    pos = np.arange(obs)
    vel = np.arange(dim - obs)
    covs = np.zeros((dense.shape[0], 3, obs))
    covs[:, 0] = dense[:, pos, pos]
    covs[:, 1, : dim - obs] = dense[:, vel, obs + vel]
    covs[:, 2, : dim - obs] = dense[:, obs + vel, obs + vel]
    return covs


def kf_init(box: Box2D | Box3D) -> State:
    is_3d = isinstance(box, Box3D)
    means, covs = motion.init_arrays(measure(box), is_3d)
    return State(means[0], dense_covariance(covs, is_3d)[0])


def kf_predict(state: State) -> State:
    is_3d = _is_3d(state)
    means, covs = motion.predict_arrays(
        state.mean[None], blocks_of(state.covariance[None], is_3d), is_3d
    )
    return State(means[0], dense_covariance(covs, is_3d)[0])


def kf_update(
    state: State, box: Box2D | Box3D, score: float, alpha: float, adaptive: bool
) -> State:
    is_3d = _is_3d(state)
    means, covs = motion.update_arrays(
        state.mean[None], blocks_of(state.covariance[None], is_3d), measure(box), [score],
        alpha, adaptive, is_3d,
    )
    return State(means[0], dense_covariance(covs, is_3d)[0])


# -- dense oracle -------------------------------------------------------------


def _transition(is_3d: bool) -> np.ndarray:
    dim, obs = _dims(is_3d)
    f = np.eye(dim)
    for k in range(dim - obs):
        f[k, obs + k] = 1.0
    return f


def _dense_q(means: np.ndarray, is_3d: bool) -> np.ndarray:
    """Per-track process-noise variances, shape (K, D)."""
    k = means.shape[0]
    if is_3d:
        stds = np.array([motion._POS_STD] * 3 + [motion._YAW_STD] + [motion._SIZE_STD] * 3
                        + [motion._VEL_STD] * 3)
        return np.broadcast_to(stds**2, (k, motion.STATE_DIM_3D)).copy()
    heights = means[:, 3]
    stds = np.empty((k, motion.STATE_DIM_2D))
    stds[:, 0] = stds[:, 1] = stds[:, 3] = motion._POS_WEIGHT * heights
    stds[:, 2] = motion._ASPECT_Q_STD
    stds[:, 4] = stds[:, 5] = stds[:, 7] = motion._VEL_WEIGHT * heights
    stds[:, 6] = motion._ASPECT_VEL_Q_STD
    return stds**2


def _dense_r(zs: np.ndarray, is_3d: bool) -> np.ndarray:
    """Per-measurement base noise variances, shape (K, obs_dim)."""
    k = zs.shape[0]
    if is_3d:
        stds = np.array([motion._POS_STD] * 3 + [motion._YAW_STD] + [motion._SIZE_STD] * 3)
        return np.broadcast_to(stds**2, (k, motion.OBS_DIM_3D)).copy()
    heights = zs[:, 3]
    stds = np.empty((k, motion.OBS_DIM_2D))
    stds[:, 0] = stds[:, 1] = stds[:, 3] = motion._POS_WEIGHT * heights
    stds[:, 2] = motion._ASPECT_R_STD
    return stds**2


def dense_init(zs: np.ndarray, is_3d: bool):
    k = zs.shape[0]
    if is_3d:
        means = np.concatenate((zs, np.zeros((k, 3))), axis=1)
        obs_stds = np.array([motion._POS_STD] * 3 + [motion._YAW_STD] + [motion._SIZE_STD] * 3)
        stds = np.concatenate([2.0 * obs_stds, [10.0 * motion._VEL_STD] * 3])[None, :]
    else:
        means = np.concatenate((zs, np.zeros((k, 4))), axis=1)
        p = 2.0 * motion._POS_WEIGHT
        v = 10.0 * motion._VEL_WEIGHT
        stds = zs[:, 3:4] * np.array([p, p, 0.0, p, v, v, 0.0, v])
        stds[:, 2] = motion._ASPECT_INIT_STD
        stds[:, 6] = motion._ASPECT_VEL_INIT_STD
    dim = means.shape[1]
    idx = np.arange(dim)
    covs = np.zeros((k, dim, dim))
    covs[:, idx, idx] = stds**2
    return means, covs


def dense_predict(means, covs, is_3d: bool):
    f = _transition(is_3d)
    new_means = means @ f.T
    new_covs = np.matmul(f, np.matmul(covs, f.T))
    idx = np.arange(means.shape[1])
    new_covs[:, idx, idx] += _dense_q(means, is_3d)
    new_covs = (new_covs + new_covs.transpose(0, 2, 1)) / 2.0
    return new_means, new_covs


def dense_inflate(means, covs, is_3d: bool):
    covs = covs.copy()
    idx = np.arange(means.shape[1])
    covs[:, idx, idx] += _dense_q(means, is_3d)
    return means.copy(), covs


def _dense_wrap(rows: np.ndarray) -> None:
    theta = np.arctan2(np.sin(rows[:, 3]), np.cos(rows[:, 3]))
    theta[theta <= -math.pi] += math.tau
    rows[:, 3] = theta


def dense_update(means, covs, zs, scores, alpha: float, adaptive: bool, is_3d: bool):
    """Gain by a batched solve, posterior in Joseph form."""
    dim, obs = _dims(is_3d)
    k = means.shape[0]
    scores = np.asarray(scores, dtype=float)
    r = _dense_r(zs, is_3d)
    if adaptive:
        r = alpha * (1.0 - scores[:, None]) ** 2 * r
    r = np.maximum(r, motion._MIN_NOISE_FLOOR)

    innovation = zs - means[:, :obs]
    if is_3d:
        _dense_wrap(innovation)
    s = covs[:, :obs, :obs].copy()
    oidx = np.arange(obs)
    s[:, oidx, oidx] += r
    gain = np.linalg.solve(s, covs[:, :, :obs].transpose(0, 2, 1)).transpose(0, 2, 1)

    new_means = means + np.matmul(gain, innovation[:, :, None])[:, :, 0]
    if is_3d:
        _dense_wrap(new_means)
    ikh = np.broadcast_to(np.eye(dim), (k, dim, dim)).copy()
    ikh[:, :, :obs] -= gain
    new_covs = np.matmul(ikh, np.matmul(covs, ikh.transpose(0, 2, 1)))
    new_covs += np.matmul(gain * r[:, None, :], gain.transpose(0, 2, 1))
    new_covs = (new_covs + new_covs.transpose(0, 2, 1)) / 2.0
    return new_means, new_covs
