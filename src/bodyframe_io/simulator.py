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

Body angular rate is w_body = vee(R^T dR/dt). Rather than hand-derive
the flatness attitude rate (which needs analytic jerk and yaw
acceleration), it is computed by central-differencing the closed-form
attitude with step 1e-5 s, giving O(1e-10) error; FIXED returns exact
zeros.

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


def _curve_functions(spec: TrajectorySpec):
    """Return (p, v, a) as callables of t for the spec's curve."""
    c = np.array(spec.center, dtype=float)
    if spec.kind is TrajectoryKind.CIRCLE:
        r, om = spec.amplitude, spec.rate

        def p(t):
            return c + r * np.array([math.cos(om * t), math.sin(om * t), 0.0])

        def v(t):
            return r * om * np.array([-math.sin(om * t), math.cos(om * t), 0.0])

        def a(t):
            return -r * om * om * np.array([math.cos(om * t), math.sin(om * t), 0.0])

        return p, v, a

    if spec.kind is TrajectoryKind.FIGURE8:
        A, om = spec.amplitude, spec.rate

        def p(t):
            return c + np.array(
                [A * math.sin(om * t), 0.5 * A * math.sin(2 * om * t), 0.0]
            )

        def v(t):
            return np.array(
                [A * om * math.cos(om * t), A * om * math.cos(2 * om * t), 0.0]
            )

        def a(t):
            return np.array(
                [
                    -A * om * om * math.sin(om * t),
                    -2 * A * om * om * math.sin(2 * om * t),
                    0.0,
                ]
            )

        return p, v, a

    # LISSAJOUS3D
    amp = spec.amplitude * np.array([1.0, 1.0, 0.5])
    om = spec.rate * np.asarray(spec.ratios, dtype=float)
    ph = np.asarray(spec.phases, dtype=float)

    def p(t):
        return c + amp * np.sin(om * t + ph)

    def v(t):
        return amp * om * np.cos(om * t + ph)

    def a(t):
        return -amp * om * om * np.sin(om * t + ph)

    return p, v, a


def _attitude_function(spec: TrajectorySpec):
    """Closed-form world-from-body attitude R(t) for the spec."""
    if spec.yaw_mode is YawMode.FIXED:
        eye = np.eye(3)
        return lambda t: eye

    _, v, a = _curve_functions(spec)

    def r_of_t(t):
        f = a(t) - GRAVITY  # specific force the body must produce
        norm_f = np.linalg.norm(f)
        if norm_f < 1e-9:
            raise DataError("free-fall point: attitude undefined (|a - g| ~ 0)")
        b3 = f / norm_f
        if spec.yaw_mode is YawMode.FOLLOW_VELOCITY:
            vel = v(t)
            if np.hypot(vel[0], vel[1]) < 1e-12:
                psi = 0.0
            else:
                psi = math.atan2(vel[1], vel[0])
        else:  # SPIN
            psi = spec.yaw_rate * t
        c1 = np.array([math.cos(psi), math.sin(psi), 0.0])
        b2 = np.cross(b3, c1)
        norm_b2 = np.linalg.norm(b2)
        if norm_b2 < 1e-6:
            raise DataError("thrust direction parallel to heading; attitude singular")
        b2 /= norm_b2
        b1 = np.cross(b2, b3)
        return np.column_stack([b1, b2, b3])

    return r_of_t


def generate_trajectory(spec: TrajectorySpec) -> Trajectory:
    """Sample the spec's curve at 1/imu_rate spacing.

    Returns a Trajectory of round(duration * imu_rate) + 1 rows with
    mutually consistent (r, v, p, a_world, w_body).
    """
    spec.validate()
    p_f, v_f, a_f = _curve_functions(spec)
    r_f = _attitude_function(spec)
    fixed = spec.yaw_mode is YawMode.FIXED
    h = _ATTITUDE_DIFF_STEP

    n = int(round(spec.duration * spec.imu_rate)) + 1
    t = [i / spec.imu_rate for i in range(n)]
    if fixed:
        w = np.zeros((n, 3))
    else:
        w = [log_so3(r_f(ti - h).T @ r_f(ti + h)) / (2.0 * h) for ti in t]
    return Trajectory(
        t=t,
        r=[r_f(ti) for ti in t],
        v=[v_f(ti) for ti in t],
        p=[p_f(ti) for ti in t],
        a_world=np.array([a_f(ti) for ti in t]),
        w_body=np.asarray(w, dtype=float),
    )


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
