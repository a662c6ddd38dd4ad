"""Reference implementations that the tests compare production code with.

Each is the textbook form of something the library computes another
way, and each is compared with that production code in the tests:

    huber_loss, covariance_loss   the two terms of
                                  motion_model.combined_loss
    state_boxminus                the inverse of preintegration.state_boxplus,
                                  read by the finite-difference Jacobians
                                  of tests/test_preintegration.py
    gru_backward                  nn.Gru.backward from gates and
                                  candidates kept by the scan, not
                                  rebuilt from its states
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


def gru_backward(gru, x, rz, ns, y, dy):
    """nn.Gru.backward for a direction whose scan kept its gates rz
    (t, 2, b, h), r then z, and candidates ns (t, b, h): x is the input in
    scan order and y the output. Each step computes its gate gradients
    from the kept arrays by whole-array expressions; the n column of
    h W_h + b_h is made from the states read back from y by the stacked
    matmul the scan's BLAS call per step equals. Accumulates into
    gru.grads and returns dx, as Gru.backward does."""
    hs = gru._step_states(y)
    h = gru.hidden
    w_h = gru.params["w_h"]
    ghn = np.matmul(hs, w_h)[:, :, 2 * h :] + gru.params["b_h"][2 * h :]
    if gru.reverse:
        dy = dy[:, ::-1]
    b, t, cin = x.shape
    dgi = np.empty((b, t, 3 * h), hs.dtype)
    dghn = np.empty((t, b, h), hs.dtype)
    dh = np.zeros((b, h), hs.dtype)
    for step in range(t - 1, -1, -1):
        dh = dh + dy[:, step]
        (r, z), n = rz[step], ns[step]
        omz = 1.0 - z
        dn_pre = dh * omz * (1.0 - n * n)
        dgh = np.concatenate(
            [dn_pre * ghn[step] * r * (1.0 - r), dh * (hs[step] - n) * z * omz, dn_pre * r],
            axis=1,
        )
        dgi[:, step, : 2 * h] = dgh[:, : 2 * h]
        dgi[:, step, 2 * h :] = dn_pre
        dghn[step] = dgh[:, 2 * h :]
        dh = dh * z + dgh @ w_h.T
    rows = dgi.reshape(-1, 3 * h)  # (b*t, 3h)
    gru.grads["w_i"] += x.reshape(-1, cin).T @ rows
    gru.grads["b_i"] += rows.sum(axis=0)
    h_rows = hs.transpose(1, 0, 2).reshape(-1, h)  # step-start states, as rows
    gru.grads["w_h"][:, : 2 * h] += h_rows.T @ rows[:, : 2 * h]
    gru.grads["b_h"][: 2 * h] += rows[:, : 2 * h].sum(axis=0)
    dghn_rows = dghn.reshape(-1, h)  # (t*b, h): dgh's n column, t-major
    gru.grads["w_h"][:, 2 * h :] += hs.reshape(-1, h).T @ dghn_rows
    gru.grads["b_h"][2 * h :] += dghn_rows.sum(axis=0)
    dx = dgi @ gru.params["w_i"].T
    return dx[:, ::-1] if gru.reverse else dx
