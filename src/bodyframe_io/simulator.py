"""Analytic trajectory simulator and IMU corruption model.

Trajectories are closed-form curves (circle, figure-eight, 3-D
Lissajous), so position, velocity, and world acceleration are exact
derivatives rather than integrations. Attitude follows a thrust-aligned
model: the body z axis points along the specific-force direction
a_world - GRAVITY (the way a multirotor must tilt to fly the curve),
and the heading is set by a yaw mode:

    FOLLOW_VELOCITY  heading tracks the horizontal velocity direction
    SPIN             heading advances at a constant rate (yaw_rate)
    FIXED            attitude is the identity for the whole run

Each curve and each attitude is evaluated once over the whole time
vector t = arange(n) / imu_rate, as (n, 3) and (n, 3, 3) arrays; only
the SO(3) log and the FOLLOW_VELOCITY heading (math.atan2) run per row.

Body angular rate is w_body = vee(R^T dR/dt). Rather than hand-derive
the flatness attitude rate (which needs analytic jerk and yaw
acceleration), it is a central difference of the closed-form attitude,
log(R(t - h)^T R(t + h)) / 2h with h = 1e-5 s, giving O(1e-10) error;
FIXED returns exact zeros.

The corruption model is the standard discrete one: white noise scaled
by sqrt(imu_rate) from continuous densities, plus a bias random walk
with per-step standard deviation sigma_b * sqrt(dt).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .imu_model import GRAVITY, ImuWindow, specific_force
# exp_so3 is unused here, but perfbench/tracing.py patches simulator.exp_so3.
from .so3 import exp_so3, log_so3

# Central-difference step (s) for the attitude rate; error is O(h^2).
_ATTITUDE_DIFF_STEP = 1e-5


class TrajectoryKind(enum.Enum):
    CIRCLE = "circle"
    FIGURE8 = "figure8"
    LISSAJOUS3D = "lissajous3d"


class YawMode(enum.Enum):
    FOLLOW_VELOCITY = "follow_velocity"
    SPIN = "spin"
    FIXED = "fixed"


@dataclass
class TrajectorySpec:
    """Parameters of one simulated flight.

    amplitude is the circle radius / figure-eight half-width / Lissajous
    x-amplitude in meters; rate is the base angular rate in rad/s.
    Lissajous uses per-axis frequency multiples `ratios` and `phases`
    with amplitudes (A, A, A/2).
    """

    kind: TrajectoryKind = TrajectoryKind.CIRCLE
    duration: float = 60.0
    imu_rate: float = 200.0
    amplitude: float = 1.0
    rate: float = 0.5
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw_mode: YawMode = YawMode.FOLLOW_VELOCITY
    yaw_rate: float = 0.0
    ratios: tuple[float, float, float] = (1.0, 2.0, 3.0)
    phases: tuple[float, float, float] = (0.0, 0.5, 1.0)

    def validate(self):
        # written as `not x > 0` so that NaN fails too
        if not self.duration > 0:
            raise ConfigError("duration must be positive")
        if not self.imu_rate > 0:
            raise ConfigError("imu_rate must be positive")
        if not (self.amplitude >= 0 and self.rate >= 0):
            raise ConfigError("amplitude and rate must be nonnegative")


@dataclass
class Trajectory:
    """Ground truth or an estimate over a whole flight, as arrays.

    t has shape (n,) in seconds; r (n, 3, 3) holds world-from-body
    rotations; v and p, (n, 3) each, are world-frame velocity and
    position. a_world and w_body, (n, 3) each, are exact for simulated
    trajectories; they are not recoverable from recorded poses or
    estimates, so there they are None. Construction rejects
    inconsistent shapes.
    """

    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    p: np.ndarray
    a_world: np.ndarray | None = None
    w_body: np.ndarray | None = None

    def __post_init__(self):
        # contiguous rows: batched matmul then gives the bits of a per-row product
        self.t = np.ascontiguousarray(self.t, dtype=float)
        self.r = np.ascontiguousarray(self.r, dtype=float)
        self.v = np.ascontiguousarray(self.v, dtype=float)
        self.p = np.ascontiguousarray(self.p, dtype=float)
        n = self.t.shape[0]
        rows = (self.v, self.p, *(x for x in (self.a_world, self.w_body) if x is not None))
        if self.t.ndim != 1 or self.r.shape != (n, 3, 3) or any(x.shape != (n, 3) for x in rows):
            raise DataError(
                f"inconsistent trajectory shapes: t {self.t.shape}, r {self.r.shape}, "
                f"v {self.v.shape}, p {self.p.shape}"
            )

    def __len__(self) -> int:
        return self.t.shape[0]

    def body_velocities(self) -> np.ndarray:
        """R^T v for every row, (n, 3): the velocity in the body frame."""
        return (np.swapaxes(self.r, 1, 2) @ self.v[:, :, None])[:, :, 0]


@dataclass
class NoiseSpec:
    """Continuous-time IMU noise densities plus initial biases.

    sigma_g [rad/s/sqrt(Hz)] and sigma_a [m/s^2/sqrt(Hz)] are white
    measurement noise densities; sigma_bg [rad/s^2/sqrt(Hz)] and
    sigma_ba [m/s^3/sqrt(Hz)] drive the bias random walks.
    """

    sigma_g: float = 0.0
    sigma_a: float = 0.0
    sigma_bg: float = 0.0
    sigma_ba: float = 0.0
    b_g0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b_a0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0


@dataclass
class BiasTruth:
    """Per-sample injected bias trajectories, (n, 3) each."""

    b_g: np.ndarray
    b_a: np.ndarray


def _curve(spec: TrajectorySpec, t: np.ndarray):
    """(p, v, a_world) of the spec's curve at the times t, (n, 3) each."""
    c = np.array(spec.center, dtype=float)
    zero = np.zeros_like(t)
    if spec.kind is TrajectoryKind.CIRCLE:
        r, om = spec.amplitude, spec.rate
        cos, sin = np.cos(om * t), np.sin(om * t)
        p = c + r * np.column_stack([cos, sin, zero])
        v = r * om * np.column_stack([-sin, cos, zero])
        a = -r * om * om * np.column_stack([cos, sin, zero])
        return p, v, a

    if spec.kind is TrajectoryKind.FIGURE8:
        A, om = spec.amplitude, spec.rate
        sin1, sin2 = np.sin(om * t), np.sin(2 * om * t)
        p = c + np.column_stack([A * sin1, 0.5 * A * sin2, zero])
        v = np.column_stack([A * om * np.cos(om * t), A * om * np.cos(2 * om * t), zero])
        a = np.column_stack([-A * om * om * sin1, -2 * A * om * om * sin2, zero])
        return p, v, a

    # LISSAJOUS3D
    amp = spec.amplitude * np.array([1.0, 1.0, 0.5])
    om = spec.rate * np.asarray(spec.ratios, dtype=float)
    phase = om * t[:, None] + np.asarray(spec.phases, dtype=float)
    sin = np.sin(phase)
    return c + amp * sin, amp * om * np.cos(phase), -amp * om * om * sin


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x, (n,). Row-by-row dot products
    (batched matmul of 1x3 by 3x1) give the bits of np.linalg.norm on
    one row, which np.linalg.norm(x, axis=1) does not."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _attitudes(spec: TrajectorySpec, t: np.ndarray) -> np.ndarray:
    """Closed-form world-from-body attitudes R at the times t, (n, 3, 3)."""
    if spec.yaw_mode is YawMode.FIXED:
        return np.broadcast_to(np.eye(3), (t.shape[0], 3, 3))

    _, v, a = _curve(spec, t)
    f = a - GRAVITY  # specific force the body must produce
    norm_f = _row_norms(f)
    if (norm_f < 1e-9).any():
        raise DataError("free-fall point: attitude undefined (|a - g| ~ 0)")
    b3 = f / norm_f[:, None]
    if spec.yaw_mode is YawMode.FOLLOW_VELOCITY:
        # math.atan2, not np.arctan2: the two can differ in the last bit
        psi = np.fromiter(map(math.atan2, v[:, 1], v[:, 0]), dtype=float, count=t.shape[0])
        psi[np.hypot(v[:, 0], v[:, 1]) < 1e-12] = 0.0
    else:  # SPIN
        psi = spec.yaw_rate * t
    c1 = np.column_stack([np.cos(psi), np.sin(psi), np.zeros_like(psi)])
    b2 = np.cross(b3, c1)
    norm_b2 = _row_norms(b2)
    if (norm_b2 < 1e-6).any():
        raise DataError("thrust direction parallel to heading; attitude singular")
    b2 /= norm_b2[:, None]
    b1 = np.cross(b2, b3)
    return np.stack([b1, b2, b3], axis=2)


def generate_trajectory(spec: TrajectorySpec) -> Trajectory:
    """Sample the spec's curve at 1/imu_rate spacing.

    Returns a Trajectory of round(duration * imu_rate) + 1 rows with
    mutually consistent (r, v, p, a_world, w_body).
    """
    spec.validate()
    n = int(round(spec.duration * spec.imu_rate)) + 1
    t = np.arange(n) / spec.imu_rate
    p, v, a_world = _curve(spec, t)
    if spec.yaw_mode is YawMode.FIXED:
        w = np.zeros((n, 3))
    else:
        h = _ATTITUDE_DIFF_STEP
        steps = np.swapaxes(_attitudes(spec, t - h), 1, 2) @ _attitudes(spec, t + h)
        w = log_so3(steps) / (2.0 * h)
    return Trajectory(t=t, r=_attitudes(spec, t), v=v, p=p, a_world=a_world, w_body=w)


def derive_imu(trajectory: Trajectory) -> ImuWindow:
    """Ideal IMU readings along a simulated trajectory, as a BODY-kind
    ImuWindow: exact body rates and the specific force of each row."""
    if trajectory.a_world is None or trajectory.w_body is None:
        raise DataError("ideal IMU readings need a_world and w_body")
    return ImuWindow(
        t=trajectory.t,
        w=trajectory.w_body,
        a=specific_force(trajectory.a_world, trajectory.r),
    )


def corrupt_imu(imu: ImuWindow, noise: NoiseSpec):
    """Apply white noise and bias random walks to ideal IMU readings.

    imu is a BODY-kind ImuWindow with uniform sample spacing (rate
    inferred from the first two timestamps). A single generator seeded
    from noise.seed draws the four noise streams in a fixed order (gyro
    white, accel white, gyro walk, accel walk), so output is
    reproducible bit-for-bit.

    Returns (corrupted ImuWindow, BiasTruth).
    """
    n = len(imu)
    if n < 2:
        raise DataError("need at least 2 samples to infer the IMU rate")
    dt = imu.t[1] - imu.t[0]
    rate = 1.0 / dt
    rng = np.random.default_rng(noise.seed)

    white_g = noise.sigma_g * math.sqrt(rate) * rng.standard_normal((n, 3))
    white_a = noise.sigma_a * math.sqrt(rate) * rng.standard_normal((n, 3))
    walk_g = noise.sigma_bg * math.sqrt(dt) * rng.standard_normal((n, 3))
    walk_a = noise.sigma_ba * math.sqrt(dt) * rng.standard_normal((n, 3))

    b_g = np.array(noise.b_g0, dtype=float) + np.vstack(
        [np.zeros(3), np.cumsum(walk_g[:-1], axis=0)]
    )
    b_a = np.array(noise.b_a0, dtype=float) + np.vstack(
        [np.zeros(3), np.cumsum(walk_a[:-1], axis=0)]
    )

    corrupted = ImuWindow(
        t=imu.t.copy(), w=imu.w + b_g + white_g, a=imu.a + b_a + white_a
    )
    return corrupted, BiasTruth(b_g=b_g, b_a=b_a)
