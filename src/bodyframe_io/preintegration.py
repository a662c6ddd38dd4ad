"""Strapdown propagation and discrete error-state covariance.

State is X = (R, v, p, b_a, b_g) with R world-from-body. One IMU step
of length dt with bias-corrected readings integrates, first order,
with g = GRAVITY:

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
covariance propagates as P' = A P A^T + Q, Q = B W B^T, re-symmetrized.

Block layout (rows = next error, cols = current error), with
phi = (w - b_g) dt, u = R (a - b_a), J_r the SO(3) right Jacobian:

    dxi'  = dxi                                  - dt R' J_r(phi) db_g
    dv'   = -dt hat(u) dxi    + dv               - dt R db_a
    dp'   = -dt^2/2 hat(u) dxi + dt dv + dp      - dt^2/2 R db_a
    db_a' = db_a
    db_g' = db_g

with R' = R Exp(phi). The same R' J_r(phi) and R blocks, negated into
columns (eta_g, eta_a), form B, plus identities feeding the walks.

Chunk form: biases change only at filter updates, so every phi_i of a
chunk between two updates is known up front (as in on-manifold
preintegration, Forster et al., TRO 2017). propagate_chunk computes
Exp, J_r, u, A and Q = B W B^T for all k rows at once, Q in closed form
from B's two noise blocks; only the rotation chain loops per frame, and
v and p are running sums. Rows match the per-frame propagate_state,
propagation_jacobians and propagate_covariance (the tests' reference)
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidRotationError
from .imu_model import GRAVITY, ImuWindow
from .simulator import Trajectory
from .so3 import _SMALL_ANGLE, exp_so3, hat, is_rotation, log_so3, right_jacobian, row_dots

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
        for name in ("r", "v", "p", "b_a", "b_g"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def identity(cls) -> "NavState":
        return cls(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))

    def validate(self):
        if self.r.shape != (3, 3) or not is_rotation(self.r):
            raise InvalidRotationError("NavState.r is not a rotation")
        for name in ("v", "p", "b_a", "b_g"):
            vec = getattr(self, name)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise DataError(f"NavState.{name} must be a finite 3-vector")


def propagate_state(x: NavState, w, a, dt: float) -> NavState:
    """One first-order strapdown step with readings (w, a) held over dt."""
    if dt <= 0:
        raise DataError(f"dt must be positive, got {dt}")
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    r_next = x.r @ exp_so3((w - x.b_g) * dt)
    acc_world = x.r @ (a - x.b_a) + GRAVITY
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


def _hat_rows(xi) -> np.ndarray:
    """hat of each row of xi (k, 3), as (k, 3, 3)."""
    x, y, z = xi.T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)


def _exp_rows(phi):
    """exp_so3 and right_jacobian of each row of phi (k, 3), with the
    same arithmetic row by row, Taylor branch below 1e-4 rad included."""
    theta2 = row_dots(phi, phi)[:, None, None]  # (k, 1, 1)
    theta = np.sqrt(theta2)
    t4, small = theta2 * theta2, theta < _SMALL_ANGLE
    with np.errstate(divide="ignore", invalid="ignore"):  # closed forms unused at 0
        sin, cos = np.sin(theta), np.cos(theta)
        a = np.where(small, 1.0 - theta2 / 6.0 + t4 / 120.0, sin / theta)
        b = np.where(small, 0.5 - theta2 / 24.0 + t4 / 720.0, (1.0 - cos) / theta2)
        c = np.where(small, 1.0 / 6.0 - theta2 / 120.0 + t4 / 5040.0,
                     (theta - sin) / (theta2 * theta))
    k = _hat_rows(phi)
    kk = k @ k
    return np.eye(3) + a * k + b * kk, np.eye(3) - b * k + c * kk


def _nominal_steps(x: NavState, w, a, dt):
    """R, v, p before and after each of k steps, (k + 1) rows, with each u and J_r(phi)."""
    if not (dt > 0).all():
        raise DataError("dt must be positive")
    exp, jr = _exp_rows((w - x.b_g) * dt[:, None])
    r = np.empty((len(dt) + 1, 3, 3))
    r[0] = x.r
    for i in range(len(dt)):
        r[i + 1] = r[i] @ exp[i]
    u = (r[:-1] @ (a - x.b_a)[:, :, None])[:, :, 0]
    acc = u + GRAVITY
    # Running sums in the per-frame order: v' = v + acc dt, and
    # p' = (p + v dt) + dt^2/2 acc with its two terms interleaved.
    v = np.cumsum(np.concatenate([x.v[None], acc * dt[:, None]]), axis=0)
    terms = np.empty((2 * len(dt) + 1, 3))
    terms[0], terms[1::2], terms[2::2] = x.p, v[:-1] * dt[:, None], (0.5 * dt * dt)[:, None] * acc
    return r, v, np.cumsum(terms, axis=0)[::2], u, jr


def propagate_chunk(x: NavState, w, a, dt, eta_g, eta_a, eta_bg, eta_ba):
    """k first-order steps from x with its biases held: readings w, a
    (k, 3), each held over its dt (k,), with white-noise stds eta_g,
    eta_a (k, 3) and walk stds eta_bg, eta_ba (scalars or 3-vectors).
    Returns (r, v, p, a_mat, q_mat): the state after each step, r (k, 3,
    3), v and p (k, 3), and each step's A and Q, (k, 15, 15). Raises
    DataError on a dt <= 0 or a negative std."""
    for name, std in (("eta_g", eta_g), ("eta_a", eta_a), ("eta_bg", eta_bg), ("eta_ba", eta_ba)):
        if (np.asarray(std) < 0).any():
            raise DataError(f"{name} must be nonnegative")
    dt = np.asarray(dt, dtype=float)
    r, v, p, u, jr = _nominal_steps(x, w, a, dt)
    step, half = dt[:, None, None], (-0.5 * dt * dt)[:, None, None]
    rot_bias = -step * (r[1:] @ jr)  # G, in A's db_g and B's eta_g columns
    accel = np.concatenate([-step * r[:-1], half * r[:-1]], axis=1)  # N, the same for db_a, eta_a
    hat_u = _hat_rows(u)

    a_mat = np.tile(np.eye(ERROR_DIM), (len(dt), 1, 1))
    a_mat[:, 0:3, 12:15] = rot_bias
    a_mat[:, 3:6, 0:3], a_mat[:, 6:9, 0:3] = -step * hat_u, half * hat_u
    a_mat[:, 6:9, 3:6] = step * np.eye(3)
    a_mat[:, 3:9, 9:12] = accel

    q_mat = np.zeros_like(a_mat)
    q_mat[:, 0:3, 0:3] = (rot_bias * eta_g[:, None, :] ** 2) @ rot_bias.transpose(0, 2, 1)
    q_mat[:, 3:9, 3:9] = (accel * eta_a[:, None, :] ** 2) @ accel.transpose(0, 2, 1)
    diag = np.arange(3)
    q_mat[:, 9 + diag, 9 + diag] = np.asarray(eta_ba, dtype=float) ** 2
    q_mat[:, 12 + diag, 12 + diag] = np.asarray(eta_bg, dtype=float) ** 2
    return r[1:], v[1:], p[1:], a_mat, q_mat


def dead_reckon(x0: NavState, imu: ImuWindow) -> Trajectory:
    """Open-loop integration of a BODY-kind ImuWindow from x0 at imu.t[0]:
    the nominal kernel over the whole sequence as one chunk. Each reading
    is held over the interval to the next stamp, so the output has one
    row per sample and the final reading is unused. Raises
    InvalidRotationError or DataError on an invalid x0."""
    x0.validate()
    if len(imu) == 0:
        raise DataError("no samples to integrate")
    r, v, p, _, _ = _nominal_steps(x0, imu.w[:-1], imu.a[:-1], np.diff(imu.t))
    return Trajectory(t=imu.t, r=r, v=v, p=p)
