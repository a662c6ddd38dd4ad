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
only in its window source: streaming_run keeps bounded FIFO buffers as
an online system would, batch_run slices the whole-sequence arrays.
Both sources yield the same windows, so the outputs agree to the last
bit.

Per-interval convention: the reading at frame i propagates the filter
across the interval ending at t_i, so each arriving sample is corrected
and consumed the moment it is seen.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .corrector import correct_and_quantify
from .errors import ConfigError, DataError, SingularUpdateError, TimestampOrderError
from .imu_model import ImuWindow, RepresentationKind, transform_representation
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


def _provider_window(window: ImuWindow, rotations, provider) -> ImuWindow:
    kind = getattr(provider, "required_kind", None)
    if kind is None or kind is RepresentationKind.BODY:
        return window
    return transform_representation(window, kind, rotations)


class _FifoWindows:
    """Bounded FIFO buffers of frames and attitudes, as kept online."""

    def __init__(self, samples, buffer_len: int, r0: np.ndarray):
        self.frames = deque(samples[:1], maxlen=buffer_len)
        self.rotations = deque([r0], maxlen=buffer_len)

    def window(self, new, stop: int) -> ImuWindow:
        self.frames.extend(new)
        return ImuWindow.from_samples(list(self.frames), kind=RepresentationKind.BODY)

    def attitudes(self) -> np.ndarray:
        return np.stack(self.rotations)


class _SliceWindows:
    """The trailing buffer_len frames, sliced from whole-sequence arrays."""

    def __init__(self, samples, buffer_len: int, r0: np.ndarray):
        self.sequence = ImuWindow.from_samples(samples, kind=RepresentationKind.BODY)
        self.rotations = [r0]
        self.buffer_len = buffer_len

    def window(self, new, stop: int) -> ImuWindow:
        self.lo = max(0, stop - self.buffer_len)
        return self.sequence.slice(self.lo, stop)

    def attitudes(self) -> np.ndarray:
        return np.stack(self.rotations[self.lo :])


def _run(source_cls, imu_stream, provider, corrector, cfg: EkfConfig, x0: NavState, p0):
    """The filter loop over a window source; one FilterState per sample.

    Samples arrive in chunks of round(imu_rate / update_rate) frames.
    Each chunk: source.window(new frames, stop index) gives the window
    to run the corrector over; propagate through the new frames,
    appending each pre-update attitude to source.rotations (recorded
    once, never revised); run the velocity provider over the window
    (re-expressed with source.attitudes() when the provider asks for a
    non-body representation); update with the newest frame's measurement.
    """
    cfg.validate()
    samples = list(imu_stream)
    _validate_stream(samples)
    k = _chunk_size(samples, cfg)
    p0 = cfg.initial_covariance() if p0 is None else np.asarray(p0, dtype=float)

    fs = FilterState(x=x0.copy(), P=p0.copy(), t=samples[0].t)
    states = [fs]
    source = source_cls(samples, cfg.buffer_len, x0.r)
    n = len(samples)
    start = 1
    while start < n:
        stop = min(start + k, n)
        window = source.window(samples[start:stop], stop)
        corrected, corr = correct_and_quantify(corrector, window)
        first_new = len(window) - (stop - start)  # window row of frame `start`
        for j, i in enumerate(range(start, stop), start=first_new):
            dt = samples[i].t - samples[i - 1].t
            fs = ekf_propagate(
                fs, corrected.w[j], corrected.a[j], corr.eta_g[j], corr.eta_a[j], dt, cfg
            )
            source.rotations.append(fs.x.r)
            states.append(fs)

        pwin = _provider_window(corrected, source.attitudes(), provider)
        meas = provider.predict_window(pwin, stop - start)
        if (stop - 1) % k == 0:
            fs = ekf_update(fs, meas[-1])
            states[-1] = fs
        start = stop
    return states


def streaming_run(imu_stream, provider, corrector, cfg: EkfConfig, x0: NavState, p0=None):
    """Online filter pass over a time-ordered IMU stream, keeping FIFO
    buffers as an online system would. Returns one FilterState per
    input sample."""
    return _run(_FifoWindows, imu_stream, provider, corrector, cfg, x0, p0)


def batch_run(imu_stream, provider, corrector, cfg: EkfConfig, x0: NavState, p0=None):
    """Offline pass slicing preassembled arrays instead of FIFO queues;
    outputs match streaming_run to the last bit on the same inputs."""
    return _run(_SliceWindows, imu_stream, provider, corrector, cfg, x0, p0)
