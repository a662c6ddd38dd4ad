"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bodyframe_io import ekf


class CovarianceSpy:
    """The error covariances a filter run computes, in order: propagated
    holds one P per ekf_propagate call, updated one per ekf_update call."""

    def __init__(self):
        self.propagated = []
        self.updated = []

    def per_frame(self, update_frames) -> np.ndarray:
        """The P each frame 1..n-1 ends with, (n - 1, 15, 15): the updated
        one at an update frame, the propagated one elsewhere."""
        final = np.array(self.propagated)
        final[np.asarray(update_frames, dtype=int) - 1] = self.updated
        return final


@pytest.fixture
def covariance_spy(monkeypatch):
    """A CovarianceSpy fed by wrapping ekf.ekf_propagate and ekf.ekf_update."""
    spy = CovarianceSpy()
    propagate, update = ekf.ekf_propagate, ekf.ekf_update

    def spy_propagate(p_cov, a_mat, q_mat):
        out = propagate(p_cov, a_mat, q_mat)
        spy.propagated.append(out)
        return out

    def spy_update(fs, z):
        out = update(fs, z)
        spy.updated.append(out.P)
        return out

    monkeypatch.setattr(ekf, "ekf_propagate", spy_propagate)
    monkeypatch.setattr(ekf, "ekf_update", spy_update)
    return spy
