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
frames, corrects each block as it arrives, and hands out each chunk's
finished rows (t, r, v, p, biases and the diagonal of P) as a
FilterRun piece once the chunk's update is done. Raw frames (raw and
corrected readings and the corrector's stds) and served frames each
live in one kind of store, _Frames, whose rows are indexed by their
place in the stream. Between chunks _run keeps only the corrector's
context of raw frames (and the rest of the last block pulled), the
provider's window of served frames and the current state, so a
streaming run with a sink holds memory bounded by the provider's
window and the block size, whatever the stream's length. The runners
differ in one way only: batch_run never drops served frames, and
slices the provider's windows out of all of them. Both yield the same
windows, so the outputs agree to the last bit. Without a sink, both
return the FilterRun of all the pieces: a Trajectory plus biases and
the diagonal of P at every frame.

Per-interval convention: the reading at frame i propagates the filter
across the interval ending at t_i, so each arriving sample is corrected
and consumed the moment it is seen. Each frame is corrected once, with
the rest of its IMU block, in one correct_and_quantify call per block:
the corrector is causal and does not read the filter's state, so a
block's frames need only corrector.context raw frames before them, and
get the bits of correcting the whole stream at once. Each frame is
re-expressed once in the provider's representation, with its
pre-update attitude, in one transform_representation call per chunk;
the filter keeps the frames as served. The velocity provider runs
only when an update follows, on the newest provider.window_len frames,
the most it reads, and is asked for the newest frame's row only, the
one row the update fuses.
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
    _EYE15,
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

    sigma_bg / sigma_ba are NoiseSpec's bias random-walk densities: a
    frame of length dt adds the walk variance sigma^2 dt to the process
    noise. White-noise stds come from the corrector output per frame,
    not from here.
    """

    update_rate: float = 20.0
    sigma_bg: float = 1e-5
    sigma_ba: float = 1e-4

    def validate(self):
        # written as `not x > 0` so that NaN fails too
        if not self.update_rate > 0.0:
            raise ConfigError("update_rate must be positive")
        if not (self.sigma_bg >= 0.0 and self.sigma_ba >= 0.0):
            raise ConfigError("sigma_bg and sigma_ba must be nonnegative")


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
    # the condition number np.linalg.cond computes, s_max / s_min, without its wrapper
    sv = np.linalg.svd(s_mat, compute_uv=False)
    if not sv[-1] > 0.0 or sv[0] / sv[-1] > _SINGULAR_COND:
        raise SingularUpdateError(
            f"innovation covariance condition number exceeds {_SINGULAR_COND:g}"
        )
    gain = np.linalg.solve(s_mat.T, (fs.P @ h_mat.T).T).T  # P H' S^-1
    innovation = z.v_body - predicted_velocity(fs)
    delta = gain @ innovation
    x_new = state_boxplus(fs.x, delta)
    i_kh = _EYE15 - gain @ h_mat
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


class _Frames:
    """Rows of frames, the served store's (t, w, a[, attitude]) or the
    raw store's (see _RAW_WIDTH), indexed by their place in the
    stream: frames [start, stop) are held, appended at stop and
    dropped from start. A written row is never overwritten (a full
    buffer is replaced, not reused), so views handed out by get never
    change."""

    def __init__(self, width: int):
        self.start = self.stop = 0
        self._base = 0  # stream index of _buf's first row
        self._buf = np.empty((0, width))

    def extend(self, rows: np.ndarray):
        end = self.stop - self._base
        if end + len(rows) > len(self._buf):
            # a new buffer with room to grow, holding the kept rows first
            held = self._buf[self.start - self._base : end]
            self._buf = np.empty((len(held) + max(len(held), len(rows)), self._buf.shape[1]))
            self._buf[: len(held)] = held
            self._base, end = self.start, len(held)
        self._buf[end : end + len(rows)] = rows
        self.stop += len(rows)

    def get(self, start: int, stop: int) -> np.ndarray:
        """A view of frames [start, stop), which must be held."""
        return self._buf[start - self._base : stop - self._base]

    def keep_from(self, start: int):
        """Drops the frames before frame start."""
        self.start = max(self.start, start)


def _window(rows: np.ndarray, kind=RepresentationKind.BODY) -> ImuWindow:
    """The ImuWindow of (t, w, a[, attitude]) rows, built unchecked: they
    are rows of validated windows."""
    return ImuWindow.unchecked(rows[:, 0], rows[:, 1:4], rows[:, 4:7],
                               rows[:, 7:] if kind.has_attitude else None, kind)


# A raw-store row is one frame (w, a, t, w_hat, a_hat, eta_g, eta_a):
# its raw reading, then columns 6:13, the corrected frame as the served
# store lays it out, then the corrector's two white-noise stds.
_RAW_WIDTH = 19


def _corrected(raw: _Frames, block: ImuWindow, corrector) -> np.ndarray:
    """The raw-store rows of block, the next frames of the stream: its
    frames corrected in one correct_and_quantify call, behind the
    corrector.context raw frames held before them."""
    held = raw.get(max(0, raw.stop - corrector.context), raw.stop)
    rows = np.empty((len(held) + len(block), _RAW_WIDTH))
    rows[: len(held)] = held
    new = rows[len(held):]
    new[:, 0:3], new[:, 3:6], new[:, 6] = block.w, block.a, block.t
    corrected, corr = correct_and_quantify(
        corrector, ImuWindow.unchecked(rows[:, 6], rows[:, 0:3], rows[:, 3:6]))
    rows[:, 7:10], rows[:, 10:13] = corrected.w, corrected.a
    rows[:, 13:16], rows[:, 16:19] = corr.eta_g, corr.eta_a
    return new


def _pull(raw: _Frames, blocks, stop: int, corrector) -> int:
    """Appends IMU blocks to raw, each corrected as it arrives, until
    frame stop - 1 is held or the stream ends; returns min(stop, raw.stop)."""
    while raw.stop < stop and (block := next(blocks, None)) is not None:
        if len(block):  # an empty block has nothing to correct
            raw.extend(_corrected(raw, block, corrector))
    return min(stop, raw.stop)


def _rows(t, x: NavState, r, v, p, P_diag) -> FilterRun:
    """A FilterRun piece: len(t) frames, with x's biases on every row."""
    m = len(t)
    return FilterRun(t=t, r=r, v=v, p=p, b_a=np.full((m, 3), x.b_a),
                     b_g=np.full((m, 3), x.b_g), P_diag=P_diag)


def _run(blocks, provider, corrector, cfg: EkfConfig, x0: NavState, drop_served=True):
    """The filter loop over consecutive BODY-kind ImuWindow blocks of one
    stream: yields FilterRun pieces that concatenate to one row per
    sample, first frame 0's, then each chunk's once it is done.

    Samples arrive in chunks of round(imu_rate / update_rate) frames,
    with the rate read from the first two stamps; a chunk pulls the
    next block only when it needs its frames. Each block pulled is
    corrected at once, in one correct_and_quantify call behind
    corrector.context raw frames of context, and kept in the raw store
    as raw reading, corrected reading and stds. Each chunk:
    - propagates through its frames at once (propagate_chunk, then
      ekf_propagate per frame, recording the diagonal of each P);
    - serves each of its corrected frames once: re-expressed in
      provider.required_kind, when that is not the body frame, by one
      transform_representation call with the frames' pre-update
      attitudes (the update below has not yet moved the newest one, and
      served frames are never revised);
    - when the chunk ends on an update frame (every chunk but a partial
      last one), runs the velocity provider over the newest
      provider.window_len served frames (fewer at the start), asks it
      for one row, the newest frame's (v, eta), and updates with it;
    - hands out its rows, the last one after the update.

    Update frames are the multiples of k. Raw and served frames each
    live in a _Frames store, indexed by their place in the stream, so
    the frames served so far are [0, served.stop). Raw frames are kept
    from the first one the next block's correction or the next chunk
    reads: the corrector's context, or the frame before the chunk for
    the step's dt. Served frames are kept from the first one the
    provider's next window reads, or, without drop_served, all of them.
    The provider's window is built from served rows unchecked: they are
    rows of the validated corrected window or of
    transform_representation's.
    Raises InvalidRotationError or DataError on an invalid x0.
    """
    cfg.validate()
    x0.validate()
    blocks, raw = iter(blocks), _Frames(_RAW_WIDTH)
    if _pull(raw, blocks, 2, corrector) < 2:
        raise DataError("need at least two IMU samples")
    t01 = raw.get(0, 2)[:, 6]
    k = _chunk_size(t01[1] - t01[0], cfg)
    kind = provider.required_kind
    m = provider.window_len
    served = _Frames(10 if kind.has_attitude else 7)

    fs = FilterState(x=x0, P=P0)
    yield _rows(t01[:1], fs.x, *(np.array([x]) for x in (x0.r, x0.v, x0.p, np.diagonal(P0))))
    start = 1
    while (stop := _pull(raw, blocks, start + k, corrector)) > start:
        rows = raw.get(start - 1, stop)  # the frame before the chunk, then the chunk's
        t, new = rows[:, 6], rows[1:]
        r, v, p, a_mat, q_mat = propagate_chunk(
            fs.x, new[:, 7:10], new[:, 10:13], t[1:] - t[:-1],
            new[:, 13:16], new[:, 16:19], cfg.sigma_bg, cfg.sigma_ba,
        )
        covs = np.empty((stop - start, ERROR_DIM, ERROR_DIM))
        p_cov = fs.P
        for i in range(stop - start):
            covs[i] = p_cov = ekf_propagate(p_cov, a_mat[i], q_mat[i])
        piece = _rows(t[1:], fs.x, r, v, p, np.diagonal(covs, axis1=1, axis2=2).copy())
        fs = FilterState(NavState(r[-1], v[-1], p[-1], fs.x.b_a, fs.x.b_g), p_cov)

        fresh = raw.get(served.stop, stop)[:, 6:13]  # corrected (t, w, a) not yet served
        if kind is not RepresentationKind.BODY:
            # the first chunk also serves frame 0, at the initial attitude
            rotations = r if served.stop else np.concatenate([x0.r[None], r])
            out = transform_representation(_window(fresh), kind, rotations)
            columns = [out.t, out.w, out.a]
            if kind.has_attitude:
                columns.append(out.attitudes)
            fresh = np.column_stack(columns)
        served.extend(fresh)
        raw.keep_from(stop - max(1, corrector.context))
        if drop_served:
            served.keep_from(stop - m)

        if (stop - 1) % k == 0:
            window = _window(served.get(max(0, stop - m), stop), kind)
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
    of consecutive BODY-kind ImuWindow blocks of one stream, keeping no
    more served frames than the provider's window, as an online system
    would. Returns a FilterRun; or, given a sink, calls sink(piece) with
    each chunk's rows as a FilterRun piece as soon as they are final,
    keeps none of them and returns None."""
    pieces = _run([imu] if isinstance(imu, ImuWindow) else imu, provider, corrector, cfg, x0)
    if sink is None:
        return _collect(pieces)
    for piece in pieces:
        sink(piece)


def batch_run(imu: ImuWindow, provider, corrector, cfg: EkfConfig, x0: NavState):
    """Offline pass over a BODY-kind ImuWindow that keeps every served
    frame and slices the provider's windows out of them; outputs match
    streaming_run to the last bit on the same inputs."""
    return _collect(_run([imu], provider, corrector, cfg, x0, drop_served=False))
