"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bodyframe_io import ekf


class CovarianceSpy:
    """The error covariances a filter run computes, in order: propagated
    holds one P per ekf_propagate call, updated one per ekf_update call.
    The filter propagates each frame once, and an update follows the
    propagate of the frame it ends, so the P a frame ends with is the
    last one computed before the next frame's propagate."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.propagated = []
        self.updated = []
        self._frames = []

    def per_frame(self) -> np.ndarray:
        """The P each frame 1..n-1 ends with, (n - 1, 15, 15): the updated
        one at an update frame, the propagated one elsewhere."""
        return np.array(self._frames)


@pytest.fixture
def covariance_spy(monkeypatch):
    """A CovarianceSpy fed by wrapping ekf.ekf_propagate and ekf.ekf_update."""
    spy = CovarianceSpy()
    propagate, update = ekf.ekf_propagate, ekf.ekf_update

    def spy_propagate(p_cov, a_mat, q_mat):
        out = propagate(p_cov, a_mat, q_mat)
        spy.propagated.append(out)
        spy._frames.append(out)
        return out

    def spy_update(fs, z):
        out = update(fs, z)
        spy.updated.append(out.P)
        spy._frames[-1] = out.P
        return out

    monkeypatch.setattr(ekf, "ekf_propagate", spy_propagate)
    monkeypatch.setattr(ekf, "ekf_update", spy_update)
    return spy
