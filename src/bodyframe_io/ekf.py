"""Error-state EKF fusing IMU propagation with body-frame velocity.

State is the NavState nominal plus a 15-dim error covariance over
(delta_xi, delta_v, delta_p, delta_b_a, delta_b_g) with the left
orientation convention R_true = Exp(delta_xi) R_hat. Propagation
composes the corrector (additive reading corrections plus per-frame
white-noise stds) with the kinematic step and its exact Jacobians;
the update consumes a body-frame velocity measurement

    h(X) = R_hat^T v_hat,   H = [R_hat^T [v]_x | R_hat^T | 0]

with Joseph-form covariance, retracting the nominal state through the
boxplus operator.

Both runners are entry points to one filter loop, _run, and differ
only in where it keeps the rows it records: streaming_run keeps bounded
FIFO arrays as an online system would, batch_run keeps whole-sequence
arrays and slices them. Both yield the same windows, so the outputs
agree to the last bit.

Per-interval convention: the reading at frame i propagates the filter
across the interval ending at t_i, so each arriving sample is corrected
and consumed the moment it is seen. Each frame is corrected once (the
corrector is causal, so its new frames need only corrector.context raw
frames before them) and its attitude encoded once; the velocity
provider gets the newest buffer_len frames, or its own window_len if
that is shorter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrector import correct_and_quantify
from .errors import ConfigError, DataError, SingularUpdateError, TimestampOrderError
from .imu_model import (
    ImuWindow,
    RepresentationKind,
    attitude_channel,
    transform_representation,
)
from .motion_model import VelocityMeasurement
from .preintegration import (
    ERROR_DIM,
    NavState,
    ProcessNoise,
    process_noise_covariance,
    propagate_covariance,
    propagate_state,
    propagation_jacobians,
    state_boxplus,
)
from .so3 import hat

_SINGULAR_COND = 1e12


@dataclass
class FilterState:
    """Nominal state, error covariance, and the time they refer to."""

    x: NavState
    P: np.ndarray
    t: float

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        if self.P.shape != (ERROR_DIM, ERROR_DIM):
            raise DataError(f"P must be {ERROR_DIM}x{ERROR_DIM}, got {self.P.shape}")


#: conservative default initial error stds: 1e-2 rad attitude, 1e-1 m/s
#: velocity, 1e-1 m position, 1e-2 accel bias, 1e-3 gyro bias
DEFAULT_P0_DIAG = (1e-4,) * 3 + (1e-2,) * 3 + (1e-2,) * 3 + (1e-4,) * 3 + (1e-6,) * 3


@dataclass(frozen=True)
class EkfConfig:
    """Filter wiring.

    eta_bg / eta_ba are the per-sample random-walk stds fed straight
    into the process-noise matrix (convert a continuous density by
    multiplying with sqrt(dt) before building the config). White-noise
    stds come from the corrector output per frame, not from here.
    """

    update_rate: float = 20.0
    buffer_len: int = 1000
    eta_bg: float = 1e-6
    eta_ba: float = 1e-5
    p0_diag: tuple = DEFAULT_P0_DIAG

    def validate(self):
        if self.update_rate <= 0.0:
            raise ConfigError("update_rate must be positive")
        if self.buffer_len < 1:
            raise ConfigError("buffer_len must be >= 1")
        if self.eta_bg < 0.0 or self.eta_ba < 0.0:
            raise ConfigError("random-walk stds must be nonnegative")
        if len(self.p0_diag) != ERROR_DIM or any(v < 0 for v in self.p0_diag):
            raise ConfigError(f"p0_diag must be {ERROR_DIM} nonnegative variances")

    def initial_covariance(self) -> np.ndarray:
        return np.diag(np.asarray(self.p0_diag, dtype=float))


def ekf_propagate(
    fs: FilterState,
    w_hat: np.ndarray,
    a_hat: np.ndarray,
    eta_g: np.ndarray,
    eta_a: np.ndarray,
    dt: float,
    cfg: EkfConfig,
) -> FilterState:
    """One corrected-IMU step: nominal kinematics plus A P A' + B W B'.

    w_hat / a_hat are the corrected readings of the frame and eta_g /
    eta_a the corrector's white-noise stds for it, 3-vectors each.
    """
    if dt <= 0.0:
        raise DataError("dt must be positive")
    x_next = propagate_state(fs.x, w_hat, a_hat, dt)
    a_mat, b_mat = propagation_jacobians(fs.x, w_hat, a_hat, dt)
    noise = ProcessNoise(eta_g=eta_g, eta_a=eta_a, eta_bg=cfg.eta_bg, eta_ba=cfg.eta_ba)
    p_next = propagate_covariance(fs.P, a_mat, b_mat, process_noise_covariance(noise))
    return FilterState(x=x_next, P=p_next, t=fs.t + dt)


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
    return FilterState(x=x_new, P=p_new, t=fs.t)


# ---------------------------------------------------------------------------
# runners


def _chunk_size(samples, cfg: EkfConfig) -> int:
    dt = samples[1].t - samples[0].t
    imu_rate = 1.0 / dt
    if cfg.update_rate > imu_rate * (1.0 + 1e-9):
        raise ConfigError(
            f"update_rate {cfg.update_rate} Hz exceeds IMU rate {imu_rate:.6g} Hz"
        )
    return max(1, int(round(imu_rate / cfg.update_rate)))


def _validate_stream(samples):
    if len(samples) < 2:
        raise DataError("need at least two IMU samples")
    for i in range(1, len(samples)):
        if samples[i].t <= samples[i - 1].t:
            raise TimestampOrderError(
                f"timestamps must increase strictly (sample {i})"
            )


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


def _run(imu_stream, provider, corrector, cfg: EkfConfig, x0: NavState, p0, fifo: bool):
    """The filter loop; one FilterState per sample.

    Samples arrive in chunks of round(imu_rate / update_rate) frames.
    Each chunk:
    - corrects the frames not yet corrected, behind corrector.context
      raw frames of context, and records each corrected frame once;
    - propagates through the new frames, recording each pre-update
      attitude once (attitudes are never revised), and its log_so3
      encoding when the provider's representation has an attitude
      channel;
    - runs the velocity provider over the newest min(buffer_len,
      provider.window_len) corrected frames, re-expressed in the
      provider's representation when it is not the body frame;
    - updates with the newest frame's measurement.

    The recorded rows are kept in _ArrayFifo stores bounded by
    buffer_len when fifo is set, else in whole-sequence _SequenceArray
    stores.
    """
    cfg.validate()
    samples = list(imu_stream)
    _validate_stream(samples)
    k = _chunk_size(samples, cfg)
    p0 = cfg.initial_covariance() if p0 is None else np.asarray(p0, dtype=float)

    raw = ImuWindow.from_samples(samples, kind=RepresentationKind.BODY)
    n = len(raw)
    kind = getattr(provider, "required_kind", None)
    encode = kind is not None and kind.has_attitude
    served = min(cfg.buffer_len, getattr(provider, "window_len", None) or cfg.buffer_len)

    def store(row_shape):
        return _ArrayFifo(cfg.buffer_len, row_shape) if fifo else _SequenceArray(n, row_shape)

    frames = store((7,))  # rows of t, corrected w, corrected a
    rotations = store((3, 3))
    encodings = store((3,))

    def record_attitudes(rs):
        rotations.extend(np.stack(rs))
        if encode:
            encodings.extend(attitude_channel(rs))

    fs = FilterState(x=x0.copy(), P=p0.copy(), t=samples[0].t)
    states = [fs]
    record_attitudes([fs.x.r])
    corrected_to = 0  # frames [0, corrected_to) are corrected and recorded
    start = 1
    while start < n:
        stop = min(start + k, n)
        chunk = raw.slice(max(0, corrected_to - corrector.context), stop)
        corrected, corr = correct_and_quantify(corrector, chunk)
        new = len(chunk) - (stop - corrected_to)
        frames.extend(np.column_stack([corrected.t, corrected.w, corrected.a])[new:])
        corrected_to = stop

        first_new = len(chunk) - (stop - start)  # chunk row of frame `start`
        attitudes = []
        for j, i in enumerate(range(start, stop), start=first_new):
            dt = samples[i].t - samples[i - 1].t
            fs = ekf_propagate(
                fs, corrected.w[j], corrected.a[j], corr.eta_g[j], corr.eta_a[j], dt, cfg
            )
            attitudes.append(fs.x.r)
            states.append(fs)
        record_attitudes(attitudes)

        rows = frames.tail(served)
        window = ImuWindow(
            t=rows[:, 0],
            w=rows[:, 1:4],
            a=rows[:, 4:7],
            attitudes=encodings.tail(served) if encode else None,
            kind=RepresentationKind.BODY,
        )
        if kind is not None and kind is not RepresentationKind.BODY:
            window = transform_representation(window, kind, rotations.tail(served))
        meas = provider.predict_window(window, stop - start)
        if (stop - 1) % k == 0:
            fs = ekf_update(fs, meas[-1])
            states[-1] = fs
        start = stop
    return states


def streaming_run(imu_stream, provider, corrector, cfg: EkfConfig, x0: NavState, p0=None):
    """Online filter pass over a time-ordered IMU stream, keeping
    bounded FIFO buffers as an online system would. Returns one
    FilterState per input sample."""
    return _run(imu_stream, provider, corrector, cfg, x0, p0, fifo=True)


def batch_run(imu_stream, provider, corrector, cfg: EkfConfig, x0: NavState, p0=None):
    """Offline pass slicing whole-sequence arrays instead of FIFO
    buffers; outputs match streaming_run to the last bit on the same
    inputs."""
    return _run(imu_stream, provider, corrector, cfg, x0, p0, fifo=False)
