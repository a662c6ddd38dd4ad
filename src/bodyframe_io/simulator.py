"""Analytic trajectory simulator and IMU corruption model.

Trajectories are closed-form curves (circle, figure-eight, 3-D
Lissajous, C2 waypoint spline), so position, velocity, and world
acceleration are exact derivatives rather than integrations. Attitude
follows a thrust-aligned model: the body z axis points along the
specific-force direction a_world - g_world (the way a multirotor must
tilt to fly the curve), and the heading is set by a yaw mode:

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
from .imu_model import GRAVITY, GravityModel, ImuSample, specific_force
# exp_so3 is unused here, but perfbench/tracing.py patches simulator.exp_so3.
from .so3 import exp_so3, log_so3

# Central-difference step (s) for the attitude rate; error is O(h^2).
_ATTITUDE_DIFF_STEP = 1e-5


class TrajectoryKind(enum.Enum):
    CIRCLE = "circle"
    FIGURE8 = "figure8"
    LISSAJOUS3D = "lissajous3d"
    WAYPOINT_SPLINE = "waypoint_spline"


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
    with amplitudes (A, A, A/2). WAYPOINT_SPLINE ignores amplitude/rate
    and fits a natural cubic spline through `waypoints` at uniform
    knot times spanning the duration.
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
    waypoints: np.ndarray | None = None

    def validate(self):
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.imu_rate <= 0:
            raise ConfigError("imu_rate must be positive")
        if self.kind is TrajectoryKind.WAYPOINT_SPLINE:
            if self.waypoints is None or np.asarray(self.waypoints).shape[0] < 4:
                raise ConfigError("waypoint_spline needs at least 4 waypoints")
        elif self.amplitude < 0 or self.rate < 0:
            raise ConfigError("amplitude and rate must be nonnegative")


@dataclass
class TrajectorySample:
    """Ground-truth state at one instant; R is world-from-body.

    a_world and w_body are exact for simulated trajectories but are not
    recoverable when resampling recorded poses, so they may be None.
    """

    t: float
    r: np.ndarray
    v: np.ndarray
    p: np.ndarray
    a_world: np.ndarray | None = None
    w_body: np.ndarray | None = None


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

    if spec.kind is TrajectoryKind.LISSAJOUS3D:
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

    # WAYPOINT_SPLINE: natural cubic through uniform knots; derivatives
    # of the piecewise polynomial are themselves analytic.
    # Imported on use, so that commands that build no spline do not pay
    # for importing scipy (its one use here) in time and memory.
    from scipy.interpolate import CubicSpline

    wp = np.asarray(spec.waypoints, dtype=float)
    knots = np.linspace(0.0, spec.duration, wp.shape[0])
    spline = CubicSpline(knots, wp, bc_type="natural")
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    return (
        lambda t: c + spline(t),
        lambda t: d1(t),
        lambda t: d2(t),
    )


def _attitude_function(spec: TrajectorySpec, gravity: GravityModel):
    """Closed-form world-from-body attitude R(t) for the spec."""
    if spec.yaw_mode is YawMode.FIXED:
        eye = np.eye(3)
        return lambda t: eye

    _, v, a = _curve_functions(spec)
    g = gravity.vector

    def r_of_t(t):
        f = a(t) - g  # specific force the body must produce
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


def generate_trajectory(spec: TrajectorySpec, gravity: GravityModel = GRAVITY):
    """Sample the spec's curve at 1/imu_rate spacing.

    Returns round(duration * imu_rate) + 1 samples with mutually
    consistent (R, v, p, a_world, w_body).
    """
    spec.validate()
    p_f, v_f, a_f = _curve_functions(spec)
    r_f = _attitude_function(spec, gravity)
    fixed = spec.yaw_mode is YawMode.FIXED
    h = _ATTITUDE_DIFF_STEP

    n = int(round(spec.duration * spec.imu_rate)) + 1
    out = []
    for i in range(n):
        t = i / spec.imu_rate
        r = r_f(t)
        if fixed:
            w = np.zeros(3)
        else:
            w = log_so3(r_f(t - h).T @ r_f(t + h)) / (2.0 * h)
        out.append(
            TrajectorySample(t=t, r=r, v=v_f(t), p=p_f(t), a_world=a_f(t), w_body=w)
        )
    return out


def derive_imu(trajectory, gravity: GravityModel = GRAVITY):
    """Ideal IMU readings along a trajectory: exact rates, specific force."""
    return [
        ImuSample(
            t=s.t,
            w=s.w_body.copy(),
            a=specific_force(s.a_world, s.r, gravity),
        )
        for s in trajectory
    ]


def corrupt_imu(samples, noise: NoiseSpec):
    """Apply white noise and bias random walks to ideal IMU readings.

    Assumes uniform sample spacing (rate inferred from the first two
    timestamps). A single generator seeded from noise.seed draws the
    four noise streams in a fixed order (gyro white, accel white, gyro
    walk, accel walk), so output is reproducible bit-for-bit.

    Returns (corrupted samples, BiasTruth).
    """
    if len(samples) < 2:
        raise DataError("need at least 2 samples to infer the IMU rate")
    dt = samples[1].t - samples[0].t
    if dt <= 0:
        raise DataError("timestamps must be strictly increasing")
    rate = 1.0 / dt
    n = len(samples)
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

    corrupted = [
        ImuSample(
            t=s.t,
            w=s.w + b_g[i] + white_g[i],
            a=s.a + b_a[i] + white_a[i],
        )
        for i, s in enumerate(samples)
    ]
    return corrupted, BiasTruth(b_g=b_g, b_a=b_a)
