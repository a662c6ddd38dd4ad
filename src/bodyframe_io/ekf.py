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

Both runners take the IMU stream as one BODY-kind ImuWindow, or
streaming_run as consecutive blocks of one, and an initial state, and
are entry points to one filter loop, _run, which always starts from the
initial covariance P0. _run pulls IMU blocks only as it needs their
frames and hands out each chunk's finished rows (t, r, v, p, biases and
the diagonal of P) as a FilterRun piece once the chunk's update is
done. Between chunks it keeps only the corrector's context of raw
frames, the provider's window of served frames and the current state,
so a streaming run with a sink holds memory bounded by the provider's
window, whatever the stream's length. The runners differ only in where
the served frames are kept: streaming_run keeps bounded FIFO arrays as
an online system would, batch_run keeps whole-sequence arrays and
slices them. Both yield the same windows, so the outputs agree to the
last bit. Without a sink, both return the FilterRun of all the pieces:
a Trajectory plus biases and the diagonal of P at every frame.

Per-interval convention: the reading at frame i propagates the filter
across the interval ending at t_i, so each arriving sample is corrected
and consumed the moment it is seen. Each frame is corrected once (the
corrector is causal, so its new frames need only corrector.context raw
frames before them) and re-expressed once in the provider's
representation, with its pre-update attitude, in one
transform_representation call per chunk; the filter keeps the frames
as served. The velocity provider runs only when an update follows, on
the newest provider.window_len frames, the most it reads, and is asked
for the newest frame's row only, the one row the update fuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrector import correct_and_quantify
from .errors import ConfigError, DataError, SingularUpdateError
from .imu_model import ImuWindow, RepresentationKind, transform_representation
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
    """A filter pass, or a piece of one, one row per input sample (after
    its update, if any): the nominal trajectory plus biases b_a, b_g
    (n, 3) and P_diag (n, 15), the diagonal of the error covariance P.
    The full P is not kept."""

    b_a: np.ndarray
    b_g: np.ndarray
    P_diag: np.ndarray


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
    h_mat = measurement_jacobian(fs)
    sigma = np.diag(z.eta_v * z.eta_v)
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


def _chunk_size(dt: float, cfg: EkfConfig) -> int:
    imu_rate = 1.0 / dt
    if cfg.update_rate > imu_rate * (1.0 + 1e-9):
        raise ConfigError(
            f"update_rate {cfg.update_rate} Hz exceeds IMU rate {imu_rate:.6g} Hz"
        )
    return max(1, int(round(imu_rate / cfg.update_rate)))


class _RawFrames:
    """The raw frames of a stream of BODY-kind ImuWindow blocks, pulled a
    block at a time as they are needed, indexed by their place in the
    stream, and kept only from a given frame on."""

    def __init__(self, blocks):
        self._blocks = iter(blocks)
        self._first = 0  # stream index of the first frame kept
        self.t, self.w, self.a = np.empty(0), np.empty((0, 3)), np.empty((0, 3))

    def fill(self, stop: int) -> int:
        """Pulls blocks until frame stop - 1 is held or the stream ends;
        returns min(stop, the number of frames in the stream)."""
        while self._first + len(self.t) < stop:
            block = next(self._blocks, None)
            if block is None:
                break
            self.t = np.concatenate([self.t, block.t])
            self.w = np.concatenate([self.w, block.w])
            self.a = np.concatenate([self.a, block.a])
        return min(stop, self._first + len(self.t))

    def window(self, start: int, stop: int) -> ImuWindow:
        """Frames [start, stop) of the stream; they are rows of validated blocks."""
        lo, hi = start - self._first, stop - self._first
        return ImuWindow.unchecked(self.t[lo:hi], self.w[lo:hi], self.a[lo:hi])

    def keep_from(self, start: int):
        """Drops the frames before frame start."""
        drop = max(0, start - self._first)
        self.t, self.w, self.a = self.t[drop:], self.w[drop:], self.a[drop:]
        self._first += drop


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


def _rows(t, x: NavState, r, v, p, P_diag) -> FilterRun:
    """A FilterRun piece: len(t) frames, with x's biases on every row."""
    m = len(t)
    return FilterRun(t=t, r=r, v=v, p=p, b_a=np.tile(x.b_a, (m, 1)),
                     b_g=np.tile(x.b_g, (m, 1)), P_diag=P_diag)


def _run(blocks, provider, corrector, cfg: EkfConfig, x0: NavState, n=None):
    """The filter loop over consecutive BODY-kind ImuWindow blocks of one
    stream: yields FilterRun pieces that concatenate to one row per
    sample, first frame 0's, then each chunk's once it is done.

    Samples arrive in chunks of round(imu_rate / update_rate) frames,
    with the rate read from the first two stamps; a chunk pulls the
    next block only when it needs its frames. Each chunk:
    - corrects the frames not yet corrected, behind corrector.context
      raw frames of context;
    - propagates through the new frames at once (propagate_chunk, then
      ekf_propagate per frame, recording the diagonal of each P);
    - records each newly corrected frame once, as the provider is
      served it: re-expressed in provider.required_kind, when that is
      not the body frame, by one transform_representation call with the
      frames' pre-update attitudes (the update below has not yet moved
      the newest one, and served frames are never revised);
    - when the chunk ends on an update frame (every chunk but a partial
      last one), runs the velocity provider over the newest
      provider.window_len recorded frames (fewer at the start), asks it
      for one row, the newest frame's (v, eta), and updates with it;
    - hands out its rows, the last one after the update.

    Update frames are the multiples of k. Raw frames are kept from the
    first one the next chunk reads: its context, or the frame before
    it for the step's dt. The recorded rows (t, w, a, then the attitude
    channel when the kind has one) are kept in an _ArrayFifo store
    bounded by window_len, or, given the stream's length n, in a
    whole-sequence _SequenceArray store. The provider's window is built
    from these rows unchecked: they are rows of the validated corrected
    window or of transform_representation's.
    Raises InvalidRotationError or DataError on an invalid x0.
    """
    cfg.validate()
    x0.validate()
    imu = _RawFrames(blocks)
    if imu.fill(2) < 2:
        raise DataError("need at least two IMU samples")
    k = _chunk_size(imu.t[1] - imu.t[0], cfg)
    kind = provider.required_kind
    served = provider.window_len
    # rows of t, w, a, then the attitude channel when the kind has one
    row_shape = (10,) if kind.has_attitude else (7,)
    frames = _ArrayFifo(served, row_shape) if n is None else _SequenceArray(n, row_shape)

    fs = FilterState(x=x0, P=P0)
    yield _rows(imu.t[:1], fs.x, *(np.array([x]) for x in (x0.r, x0.v, x0.p, np.diagonal(P0))))
    corrected_to = 0  # frames [0, corrected_to) are corrected and recorded
    start = 1
    while (stop := imu.fill(start + k)) > start:
        chunk = imu.window(max(0, corrected_to - corrector.context), stop)
        corrected, corr = correct_and_quantify(corrector, chunk)
        j = len(chunk) - (stop - start)  # chunk row of frame `start`
        dt = np.diff(imu.window(start - 1, stop).t)
        r, v, p, a_mat, q_mat = propagate_chunk(
            fs.x, corrected.w[j:], corrected.a[j:], dt,
            corr.eta_g[j:], corr.eta_a[j:], cfg.eta_bg, cfg.eta_ba,
        )
        piece = _rows(corrected.t[j:], fs.x, r, v, p, np.empty((stop - start, ERROR_DIM)))
        p_cov = fs.P
        for i in range(stop - start):
            p_cov = ekf_propagate(p_cov, a_mat[i], q_mat[i])
            piece.P_diag[i] = np.diagonal(p_cov)
        fs = FilterState(NavState(r[-1], v[-1], p[-1], fs.x.b_a, fs.x.b_g), p_cov)

        new = len(chunk) - (stop - corrected_to)  # chunk row of the first new frame
        if kind is RepresentationKind.BODY:
            columns = [corrected.t[new:], corrected.w[new:], corrected.a[new:]]
        else:
            # the first chunk also serves frame 0, at the initial attitude
            rotations = r if corrected_to else np.concatenate([x0.r[None], r])
            fresh = transform_representation(corrected.slice(new, len(chunk)), kind, rotations)
            columns = [fresh.t, fresh.w, fresh.a]
            if kind.has_attitude:
                columns.append(fresh.attitudes)
        frames.extend(np.column_stack(columns))
        corrected_to = stop
        imu.keep_from(stop - max(1, corrector.context))

        if (stop - 1) % k == 0:
            rows = frames.tail(served)
            window = ImuWindow.unchecked(
                rows[:, 0], rows[:, 1:4], rows[:, 4:7],
                rows[:, 7:] if kind.has_attitude else None, kind,
            )
            v, eta = provider.predict_window(window, 1)
            fs = ekf_update(fs, VelocityMeasurement(v_body=v[-1], eta_v=eta[-1]))
            piece.r[-1], piece.v[-1], piece.p[-1] = fs.x.r, fs.x.v, fs.x.p
            piece.b_a[-1], piece.b_g[-1], piece.P_diag[-1] = fs.x.b_a, fs.x.b_g, np.diagonal(fs.P)
        yield piece
        start = stop


def _collect(pieces) -> FilterRun:
    """The FilterRun of all the pieces _run yields, concatenated."""
    pieces = list(pieces)
    return FilterRun(**{
        name: np.concatenate([getattr(piece, name) for piece in pieces])
        for name in ("t", "r", "v", "p", "b_a", "b_g", "P_diag")
    })


def streaming_run(imu, provider, corrector, cfg: EkfConfig, x0: NavState, sink=None):
    """Online filter pass over imu, a BODY-kind ImuWindow or an iterable
    of consecutive BODY-kind ImuWindow blocks of one stream, keeping
    bounded FIFO buffers as an online system would. Returns a FilterRun;
    or, given a sink, calls sink(piece) with each chunk's rows as a
    FilterRun piece as soon as they are final, keeps none of them and
    returns None."""
    pieces = _run([imu] if isinstance(imu, ImuWindow) else imu, provider, corrector, cfg, x0)
    if sink is None:
        return _collect(pieces)
    for piece in pieces:
        sink(piece)


def batch_run(imu: ImuWindow, provider, corrector, cfg: EkfConfig, x0: NavState):
    """Offline pass over a BODY-kind ImuWindow, slicing whole-sequence
    arrays instead of FIFO buffers; outputs match streaming_run to the
    last bit on the same inputs."""
    return _collect(_run([imu], provider, corrector, cfg, x0, n=len(imu)))
