"""Single-track Kalman steps for the tests.

Each helper runs one batched function of motrack.motion on a batch of one
(K = 1) and hands back a plain (mean, covariance) pair, so a test can follow
one filter through time without handling batch axes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from motrack import motion
from motrack.geometry import Box2D, Box3D, box2d_array, box3d_array


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


def kf_init(box: Box2D | Box3D, noise: motion.NoiseConfig) -> State:
    means, covs = motion.init_arrays(measure(box), noise, isinstance(box, Box3D))
    return State(means[0], covs[0])


def kf_predict(state: State, noise: motion.NoiseConfig) -> State:
    means, covs = motion.predict_arrays(
        state.mean[None], state.covariance[None], noise, _is_3d(state)
    )
    return State(means[0], covs[0])


def kf_update(
    state: State, box: Box2D | Box3D, score: float, noise: motion.NoiseConfig
) -> State:
    means, covs = motion.update_arrays(
        state.mean[None], state.covariance[None], measure(box), [score], noise, _is_3d(state)
    )
    return State(means[0], covs[0])
