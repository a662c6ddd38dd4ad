"""Reference implementations that the tests compare production code with.

Each is the textbook form of something the library computes another
way, and each is compared with that production code in the tests:

    huber_loss, covariance_loss   the two terms of
                                  motion_model.combined_loss
    state_boxminus                the inverse of preintegration.state_boxplus,
                                  read by the finite-difference Jacobians
                                  of tests/test_preintegration.py
"""

import numpy as np

from bodyframe_io.errors import DataError
from bodyframe_io.motion_model import HUBER_DELTA
from bodyframe_io.preintegration import NavState
from bodyframe_io.so3 import log_so3


def huber_loss(pred, truth, delta=HUBER_DELTA):
    """Componentwise Huber loss summed over the residual's components."""
    e = np.asarray(pred, dtype=float) - np.asarray(truth, dtype=float)
    if not np.all(np.isfinite(e)):
        raise DataError("huber_loss requires finite inputs")
    a = np.abs(e)
    per = np.where(a <= delta, 0.5 * e * e, delta * (a - 0.5 * delta))
    return float(np.sum(per))


def covariance_loss(pred, truth, eta_v):
    """Gaussian NLL core e' Sigma^-1 e + ln det Sigma, Sigma = diag(eta^2)."""
    e = np.asarray(pred, dtype=float) - np.asarray(truth, dtype=float)
    eta = np.asarray(eta_v, dtype=float)
    if np.any(eta <= 0.0):
        raise DataError("eta_v must be strictly positive")
    return float(np.sum(e * e / (eta * eta)) + np.sum(np.log(eta * eta)))


def state_boxminus(x1: NavState, x0: NavState) -> np.ndarray:
    """Inverse retraction: the 15-vector error taking x0 to x1."""
    return np.concatenate(
        [
            log_so3(x1.r @ x0.r.T),
            x1.v - x0.v,
            x1.p - x0.p,
            x1.b_a - x0.b_a,
            x1.b_g - x0.b_g,
        ]
    )
