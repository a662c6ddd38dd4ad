"""Error-state EKF fusing IMU propagation with body-frame velocity.

State is the NavState nominal plus a 15-dim error covariance over
(delta_xi, delta_v, delta_p, delta_b_a, delta_b_g) with the left
orientation convention R_true = Exp(delta_xi) R_hat. Propagation
composes the corrector (additive reading corrections plus per-frame
white-noise stds) with the kinematic step and its exact Jacobians,
computed for a whole chunk between two updates at once by
propagate_chunk; ekf_propagate, the predict step, applies one frame's
transition to P. The update consumes a body-frame velocity measurement

    h(X) = R_hat^T v_hat,   H = [R_hat^T [v]_x | R_hat^T | 0]

with Joseph-form covariance, retracting the nominal state through the
boxplus operator.

Both runners take the IMU stream as one BODY-kind ImuWindow and an
initial state, and are entry points to one filter loop, _run, which
always starts from the initial covariance P0. They differ only in where
it keeps the rows it records: streaming_run keeps bounded FIFO arrays
as an online system would, batch_run keeps whole-sequence arrays and
slices them. Both yield the same windows, so the outputs agree to the
last bit. Both return a FilterRun: a Trajectory plus biases and P.

Per-interval convention: the reading at frame i propagates the filter
across the interval ending at t_i, so each arriving sample is corrected
and consumed the moment it is seen. Each frame is corrected once (the
corrector is causal, so its new frames need only corrector.context raw
frames before them) and its attitude encoded once, in one batched
log_so3 per chunk; the velocity provider runs only when an update
follows, on the newest provider.window_len frames, the most it reads,
and is asked for the newest frame's row only, the one row the update
fuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrector import correct_and_quantify
from .errors import ConfigError, DataError, SingularUpdateError
from .imu_model import (
    ImuWindow,
    RepresentationKind,
    attitude_channel,
    transform_representation,
)
from .motion_model import VelocityMeasurement
# The per-frame propagate_* are unused here, but perfbench/tracing.py patches them.
from .preintegration import (
    ERROR_DIM,
    NavState,
    propagate_chunk,
    propagate_covariance,
    propagate_state,
    propagation_jacobians,
    state_boxplus,
)
from .simulator import Trajectory
from .so3 import hat

_SINGULAR_COND = 1e12


@dataclass
class FilterState:
    """Nominal state and error covariance."""

    x: NavState
    P: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        if self.P.shape != (ERROR_DIM, ERROR_DIM):
            raise DataError(f"P must be {ERROR_DIM}x{ERROR_DIM}, got {self.P.shape}")


#: the initial error covariance, diagonal with stds 1e-2 rad attitude,
#: 1e-1 m/s velocity, 1e-1 m position, 1e-2 accel bias, 1e-3 gyro bias. Read-only.
P0 = np.diag((1e-4,) * 3 + (1e-2,) * 3 + (1e-2,) * 3 + (1e-4,) * 3 + (1e-6,) * 3)
P0.flags.writeable = False


@dataclass(kw_only=True)
class FilterRun(Trajectory):
    """A filter pass, one row per input sample (after its update, if any):
    the nominal trajectory plus biases b_a, b_g (n, 3) and P (n, 15, 15)."""

    b_a: np.ndarray
    b_g: np.ndarray
    P: np.ndarray

    def record(self, i: int, fs: FilterState):
        self.r[i], self.v[i], self.p[i] = fs.x.r, fs.x.v, fs.x.p
        self.b_a[i], self.b_g[i], self.P[i] = fs.x.b_a, fs.x.b_g, fs.P


@dataclass(frozen=True)
class EkfConfig:
    """Filter wiring.

    eta_bg / eta_ba are the per-sample random-walk stds fed straight
    into the process-noise matrix (convert a continuous density by
    multiplying with sqrt(dt) before building the config). White-noise
    stds come from the corrector output per frame, not from here.
    """

    update_rate: float = 20.0
    eta_bg: float = 1e-6
    eta_ba: float = 1e-5

    def validate(self):
        # written as `not x > 0` so that NaN fails too
        if not self.update_rate > 0.0:
            raise ConfigError("update_rate must be positive")
        if not (self.eta_bg >= 0.0 and self.eta_ba >= 0.0):
            raise ConfigError("random-walk stds must be nonnegative")


def ekf_propagate(p_cov: np.ndarray, a_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """The predict step for one frame, P' = A P A^T + Q re-symmetrized,
    with A and Q the frame's rows of a propagate_chunk output."""
    out = a_mat @ p_cov @ a_mat.T + q_mat
    return 0.5 * (out + out.T)


def predicted_velocity(fs: FilterState) -> np.ndarray:
    """The measurement model h(X) = R_hat^T v_hat."""
    return fs.x.r.T @ fs.x.v


def measurement_jacobian(fs: FilterState) -> np.ndarray:
    """3x15 Jacobian of h w.r.t. the error state (left convention)."""
    h = np.zeros((3, ERROR_DIM))
    rt = fs.x.r.T
    h[:, 0:3] = rt @ hat(fs.x.v)
    h[:, 3:6] = rt
    return h


def ekf_update(fs: FilterState, z: VelocityMeasurement) -> FilterState:
    """Fuse one body-frame velocity measurement (Joseph-form update)."""
    eta = np.asarray(z.eta_v, dtype=float)
    if np.any(eta <= 0.0):
        raise DataError("measurement stds must be strictly positive")
    h_mat = measurement_jacobian(fs)
    sigma = np.diag(eta * eta)
    s_mat = h_mat @ fs.P @ h_mat.T + sigma
    s_mat = 0.5 * (s_mat + s_mat.T)
    if np.linalg.cond(s_mat) > _SINGULAR_COND:
        raise SingularUpdateError(
            f"innovation covariance condition number exceeds {_SINGULAR_COND:g}"
        )
    gain = np.linalg.solve(s_mat.T, (fs.P @ h_mat.T).T).T  # P H' S^-1
    innovation = z.v_body - predicted_velocity(fs)
    delta = gain @ innovation
    x_new = state_boxplus(fs.x, delta)
    i_kh = np.eye(ERROR_DIM) - gain @ h_mat
    p_new = i_kh @ fs.P @ i_kh.T + gain @ sigma @ gain.T
    p_new = 0.5 * (p_new + p_new.T)
    return FilterState(x=x_new, P=p_new)


# ---------------------------------------------------------------------------
# runners


def _chunk_size(imu: ImuWindow, cfg: EkfConfig) -> int:
    dt = imu.t[1] - imu.t[0]
    imu_rate = 1.0 / dt
    if cfg.update_rate > imu_rate * (1.0 + 1e-9):
        raise ConfigError(
            f"update_rate {cfg.update_rate} Hz exceeds IMU rate {imu_rate:.6g} Hz"
        )
    return max(1, int(round(imu_rate / cfg.update_rate)))


class _ArrayFifo:
    """The newest maxlen rows appended, oldest first, as an online
    system keeps them in a bounded buffer."""

    def __init__(self, maxlen: int, row_shape: tuple):
        self.maxlen = maxlen
        self._rows = np.empty((0, *row_shape))

    def extend(self, rows: np.ndarray):
        # a new array each time, so views handed out by tail never change
        self._rows = np.concatenate([self._rows, rows])[-self.maxlen :]

    def tail(self, m: int) -> np.ndarray:
        """A view of the newest min(m, maxlen) rows."""
        return self._rows[max(0, len(self._rows) - m) :]


class _SequenceArray:
    """Every row appended, in one array sized for the whole sequence."""

    def __init__(self, n: int, row_shape: tuple):
        self._rows = np.empty((n, *row_shape))
        self._end = 0

    def extend(self, rows: np.ndarray):
        self._rows[self._end : self._end + len(rows)] = rows
        self._end += len(rows)

    def tail(self, m: int) -> np.ndarray:
        """A slice of the newest m rows; rows are written once, never moved."""
        return self._rows[max(0, self._end - m) : self._end]


def _run(imu: ImuWindow, provider, corrector, cfg: EkfConfig, x0: NavState, fifo: bool):
    """The filter loop over a BODY-kind ImuWindow, one FilterRun row per sample.

    Samples arrive in chunks of round(imu_rate / update_rate) frames.
    Each chunk:
    - corrects the frames not yet corrected, behind corrector.context
      raw frames of context, and records each corrected frame once;
    - propagates through the new frames at once (propagate_chunk, then
      ekf_propagate per frame), recording each pre-update attitude once
      (attitudes are never revised), and its log_so3 encoding, one
      batched call for the chunk, when the provider's representation
      has an attitude channel;
    - when the chunk ends on an update frame (every chunk but a partial
      last one), runs the velocity provider over the newest
      provider.window_len corrected frames (fewer at the start),
      re-expressed in provider.required_kind when it is not the body
      frame, asks it for one row, the newest frame's (v, eta), and
      updates with it.

    The recorded rows are kept in _ArrayFifo stores bounded by window_len
    when fifo is set, else in whole-sequence _SequenceArray stores.
    Raises InvalidRotationError or DataError on an invalid x0.
    """
    cfg.validate()
    x0.validate()
    n = len(imu)
    if n < 2:
        raise DataError("need at least two IMU samples")
    k = _chunk_size(imu, cfg)
    dt = np.diff(imu.t)
    kind = provider.required_kind
    encode = kind.has_attitude
    served = provider.window_len

    def store(row_shape):
        return _ArrayFifo(served, row_shape) if fifo else _SequenceArray(n, row_shape)

    frames = store((7,))  # rows of t, corrected w, corrected a
    rotations = store((3, 3))
    encodings = store((3,))

    def record_attitudes(rs):
        rotations.extend(rs)
        if encode:
            encodings.extend(attitude_channel(rs))

    run = FilterRun(
        t=imu.t, r=np.empty((n, 3, 3)), v=np.empty((n, 3)), p=np.empty((n, 3)),
        b_a=np.empty((n, 3)), b_g=np.empty((n, 3)), P=np.empty((n, ERROR_DIM, ERROR_DIM)),
    )
    fs = FilterState(x=x0, P=P0)
    run.record(0, fs)
    record_attitudes(run.r[:1])
    corrected_to = 0  # frames [0, corrected_to) are corrected and recorded
    start = 1
    while start < n:
        stop = min(start + k, n)
        chunk = imu.slice(max(0, corrected_to - corrector.context), stop)
        corrected, corr = correct_and_quantify(corrector, chunk)
        new = len(chunk) - (stop - corrected_to)
        frames.extend(np.column_stack([corrected.t, corrected.w, corrected.a])[new:])
        corrected_to = stop

        j = len(chunk) - (stop - start)  # chunk row of frame `start`
        r, v, p, a_mat, q_mat = propagate_chunk(
            fs.x, corrected.w[j:], corrected.a[j:], dt[start - 1 : stop - 1],
            corr.eta_g[j:], corr.eta_a[j:], cfg.eta_bg, cfg.eta_ba,
        )
        run.r[start:stop], run.v[start:stop], run.p[start:stop] = r, v, p
        run.b_a[start:stop], run.b_g[start:stop] = fs.x.b_a, fs.x.b_g
        p_cov = fs.P
        for i in range(stop - start):
            p_cov = run.P[start + i] = ekf_propagate(p_cov, a_mat[i], q_mat[i])
        fs = FilterState(NavState(r[-1], v[-1], p[-1], fs.x.b_a, fs.x.b_g), p_cov)
        record_attitudes(r)

        if (stop - 1) % k == 0:
            rows = frames.tail(served)
            window = ImuWindow(
                t=rows[:, 0],
                w=rows[:, 1:4],
                a=rows[:, 4:7],
                attitudes=encodings.tail(served) if encode else None,
                kind=RepresentationKind.BODY,
            )
            if kind is not RepresentationKind.BODY:
                window = transform_representation(window, kind, rotations.tail(served))
            v, eta = provider.predict_window(window, 1)
            fs = ekf_update(fs, VelocityMeasurement(v_body=v[-1], eta_v=eta[-1]))
            run.record(stop - 1, fs)
        start = stop
    return run


def streaming_run(imu: ImuWindow, provider, corrector, cfg: EkfConfig, x0: NavState):
    """Online filter pass over a BODY-kind ImuWindow, keeping bounded
    FIFO buffers as an online system would. Returns a FilterRun."""
    return _run(imu, provider, corrector, cfg, x0, fifo=True)


def batch_run(imu: ImuWindow, provider, corrector, cfg: EkfConfig, x0: NavState):
    """Offline pass over a BODY-kind ImuWindow, slicing whole-sequence
    arrays instead of FIFO buffers; outputs match streaming_run to the
    last bit on the same inputs."""
    return _run(imu, provider, corrector, cfg, x0, fifo=False)
