"""Strapdown propagation and discrete error-state covariance.

State is X = (R, v, p, b_a, b_g) with R world-from-body. One IMU step
of length dt with bias-corrected readings integrates, first order:

    R'  = R Exp((w - b_g) dt)
    v'  = v + (R (a - b_a) + g) dt
    p'  = p + v dt + dt^2/2 (R (a - b_a) + g)

The 15-dim error state delta = (dxi, dv, dp, db_a, db_g) uses the left
(global) perturbation on rotation, R_true = Exp(dxi) R_hat, and plain
addition elsewhere. boxplus/boxminus realize that retraction; the
Jacobians A (15x15) and B (15x12) below are the exact derivatives of
the retracted one-step error dynamics at delta = 0 and are validated
against central finite differences in the tests.

Noise enters as n = (eta_g, eta_a, eta_bg, eta_ba): white measurement
noise subtracts from the readings, walk increments add to the biases
after the step. With per-sample standard deviations in W (12x12 diag),
covariance propagates as P' = A P A^T + B W B^T, re-symmetrized.

Block layout (rows = next error, cols = current error), with
phi = (w - b_g) dt, u = R (a - b_a), J_r the SO(3) right Jacobian:

    dxi'  = dxi                                  - dt R' J_r(phi) db_g
    dv'   = -dt hat(u) dxi    + dv               - dt R db_a
    dp'   = -dt^2/2 hat(u) dxi + dt dv + dp      - dt^2/2 R db_a
    db_a' = db_a
    db_g' = db_g

with R' = R Exp(phi). The same R' J_r(phi) and R blocks, negated into
columns (eta_g, eta_a), form B, plus identities feeding the walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidRotationError
from .imu_model import GRAVITY, GravityModel, ImuWindow
from .so3 import exp_so3, hat, is_rotation, log_so3, right_jacobian

ERROR_DIM = 15
NOISE_DIM = 12


@dataclass
class NavState:
    """Navigation state; r is world-from-body, vectors are world-frame
    except the biases, which live in the body/sensor frame."""

    r: np.ndarray
    v: np.ndarray
    p: np.ndarray
    b_a: np.ndarray
    b_g: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.b_a = np.asarray(self.b_a, dtype=float)
        self.b_g = np.asarray(self.b_g, dtype=float)

    @classmethod
    def identity(cls) -> "NavState":
        return cls(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))

    def copy(self) -> "NavState":
        return NavState(
            self.r.copy(), self.v.copy(), self.p.copy(),
            self.b_a.copy(), self.b_g.copy(),
        )

    def validate(self):
        if self.r.shape != (3, 3) or not is_rotation(self.r):
            raise InvalidRotationError("NavState.r is not a rotation")
        for name in ("v", "p", "b_a", "b_g"):
            vec = getattr(self, name)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise DataError(f"NavState.{name} must be a finite 3-vector")


@dataclass
class ProcessNoise:
    """Per-sample noise standard deviations, 3-vectors each.

    eta_g/eta_a are the white measurement noise of the corrected
    readings (continuous density times sqrt(imu_rate)); eta_bg/eta_ba
    are per-step bias walk increments (density times sqrt(dt)).
    """

    eta_g: np.ndarray
    eta_a: np.ndarray
    eta_bg: np.ndarray
    eta_ba: np.ndarray

    def __post_init__(self):
        for name in ("eta_g", "eta_a", "eta_bg", "eta_ba"):
            vec = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), (3,)
            ).copy()
            if np.any(vec < 0):
                raise DataError(f"ProcessNoise.{name} must be nonnegative")
            setattr(self, name, vec)


def process_noise_covariance(noise: ProcessNoise) -> np.ndarray:
    """12x12 diagonal W in the order (eta_g, eta_a, eta_bg, eta_ba)."""
    stds = np.concatenate([noise.eta_g, noise.eta_a, noise.eta_bg, noise.eta_ba])
    return np.diag(stds**2)


def propagate_state(
    x: NavState, w, a, dt: float, gravity: GravityModel = GRAVITY
) -> NavState:
    """One first-order strapdown step with readings (w, a) held over dt."""
    if dt <= 0:
        raise DataError(f"dt must be positive, got {dt}")
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    r_next = x.r @ exp_so3((w - x.b_g) * dt)
    acc_world = x.r @ (a - x.b_a) + gravity.vector
    v_next = x.v + acc_world * dt
    p_next = x.p + x.v * dt + 0.5 * dt * dt * acc_world
    return NavState(r_next, v_next, p_next, x.b_a.copy(), x.b_g.copy())


def propagation_jacobians(x: NavState, w, a, dt: float):
    """Exact error-state Jacobians (A, B) of one step at delta = 0."""
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    phi = (w - x.b_g) * dt
    r_next = x.r @ exp_so3(phi)
    hat_u = hat(x.r @ (a - x.b_a))
    rot_bias_block = -dt * (r_next @ right_jacobian(phi))

    a_mat = np.eye(ERROR_DIM)
    a_mat[0:3, 12:15] = rot_bias_block
    a_mat[3:6, 0:3] = -dt * hat_u
    a_mat[3:6, 9:12] = -dt * x.r
    a_mat[6:9, 0:3] = -0.5 * dt * dt * hat_u
    a_mat[6:9, 3:6] = dt * np.eye(3)
    a_mat[6:9, 9:12] = -0.5 * dt * dt * x.r

    b_mat = np.zeros((ERROR_DIM, NOISE_DIM))
    b_mat[0:3, 0:3] = rot_bias_block
    b_mat[3:6, 3:6] = -dt * x.r
    b_mat[6:9, 3:6] = -0.5 * dt * dt * x.r
    b_mat[12:15, 6:9] = np.eye(3)
    b_mat[9:12, 9:12] = np.eye(3)
    return a_mat, b_mat


def propagate_covariance(p_cov, a_mat, b_mat, w_cov) -> np.ndarray:
    """P' = A P A^T + B W B^T, re-symmetrized against roundoff drift."""
    p_cov = np.asarray(p_cov, dtype=float)
    out = a_mat @ p_cov @ a_mat.T + b_mat @ w_cov @ b_mat.T
    return 0.5 * (out + out.T)


def state_boxplus(x: NavState, delta) -> NavState:
    """Retraction: apply a 15-vector error to a state (left convention)."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (ERROR_DIM,):
        raise DataError(f"expected error shape ({ERROR_DIM},), got {delta.shape}")
    return NavState(
        exp_so3(delta[0:3]) @ x.r,
        x.v + delta[3:6],
        x.p + delta[6:9],
        x.b_a + delta[9:12],
        x.b_g + delta[12:15],
    )


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


def dead_reckon(x0: NavState, imu: ImuWindow, gravity: GravityModel = GRAVITY):
    """Open-loop integration of a BODY-kind ImuWindow.

    x0 is the state at imu.t[0]; each reading is held over the interval
    to the next timestamp (zero-order hold), so the output has one
    state per sample and the final reading is unused.
    """
    if len(imu) == 0:
        raise DataError("no samples to integrate")
    t = imu.t.tolist()
    states = [x0.copy()]
    for i in range(1, len(t)):
        dt = t[i] - t[i - 1]
        states.append(propagate_state(states[-1], imu.w[i - 1], imu.a[i - 1], dt, gravity))
    return states
