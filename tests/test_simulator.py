import math

import numpy as np
import pytest

from bodyframe_io.errors import ConfigError, DataError
from bodyframe_io.imu_model import GRAVITY, ImuWindow, RepresentationKind
from bodyframe_io.simulator import (
    NoiseSpec,
    Trajectory,
    TrajectoryKind,
    TrajectorySpec,
    YawMode,
    corrupt_imu,
    derive_imu,
    generate_trajectory,
)
from bodyframe_io.so3 import exp_so3, is_rotation, log_so3


def circle_spec(**kw):
    base = dict(
        kind=TrajectoryKind.CIRCLE,
        duration=4.0,
        imu_rate=200.0,
        amplitude=2.0,
        rate=0.5,
    )
    base.update(kw)
    return TrajectorySpec(**base)


def lissajous_spin_spec(**kw):
    base = dict(
        kind=TrajectoryKind.LISSAJOUS3D,
        duration=3.0,
        imu_rate=200.0,
        amplitude=1.5,
        rate=0.8,
        yaw_mode=YawMode.SPIN,
        yaw_rate=1.2,
    )
    base.update(kw)
    return TrajectorySpec(**base)


class TestGenerateTrajectory:
    def test_sample_count_and_spacing(self):
        traj = generate_trajectory(circle_spec(duration=1.0))
        assert len(traj) == 201
        np.testing.assert_allclose(np.diff(traj.t), 1.0 / 200.0, atol=1e-12)

    def test_circle_constant_speed_and_centripetal_acceleration(self):
        spec = circle_spec()
        traj = generate_trajectory(spec)
        speeds = np.linalg.norm(traj.v, axis=1)
        np.testing.assert_allclose(speeds, spec.amplitude * spec.rate, atol=1e-12)
        accels = np.linalg.norm(traj.a_world, axis=1)
        # r * omega^2 = 2 * 0.25 = 0.5
        np.testing.assert_allclose(accels, 0.5, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [circle_spec(), lissajous_spin_spec()],
        ids=["circle", "lissajous_spin"],
    )
    def test_velocity_matches_position_derivative(self, spec):
        def max_err(rate):
            s = TrajectorySpec(**{**spec.__dict__, "imu_rate": rate})
            traj = generate_trajectory(s)
            p, v = traj.p, traj.v
            dt = 1.0 / rate
            fd = (p[2:] - p[:-2]) / (2 * dt)
            return np.max(np.linalg.norm(fd - v[1:-1], axis=1))

        e1, e2 = max_err(200.0), max_err(400.0)
        # Bound ~ dt^2/6 * max|p'''|; the Lissajous z axis peaks near 1e-4.
        assert e1 < 2e-4
        # Central differences converge at order 2, so halving dt should
        # cut the defect by ~4.
        assert e1 / e2 > 3.5

    @pytest.mark.parametrize(
        "spec",
        [circle_spec(), lissajous_spin_spec()],
        ids=["circle", "lissajous_spin"],
    )
    def test_rotations_consistent_with_body_rates(self, spec):
        def max_defect(rate):
            s = TrajectorySpec(**{**spec.__dict__, "imu_rate": rate})
            traj = generate_trajectory(s)
            dt = 1.0 / rate
            worst = 0.0
            for i in range(len(traj) - 1):
                step = traj.r[i] @ exp_so3(traj.w_body[i] * dt)
                worst = max(worst, np.linalg.norm(log_so3(step.T @ traj.r[i + 1])))
            return worst

        d1 = max_defect(200.0)
        assert d1 < 1e-4
        if d1 > 1e-12:  # circle+follow has constant w: exact to roundoff
            assert d1 / max_defect(400.0) > 3.0

    def test_attitudes_are_rotations(self):
        for r in generate_trajectory(lissajous_spin_spec(duration=1.0)).r:
            assert is_rotation(r, tol=1e-10)

    def test_fixed_yaw_means_identity_attitude_and_zero_rates(self):
        traj = generate_trajectory(circle_spec(yaw_mode=YawMode.FIXED, duration=1.0))
        for r, w in zip(traj.r, traj.w_body):
            np.testing.assert_array_equal(r, np.eye(3))
            np.testing.assert_array_equal(w, np.zeros(3))

    def test_spin_yaw_advances_heading(self):
        spec = circle_spec(
            yaw_mode=YawMode.SPIN, yaw_rate=0.7, duration=2.0, amplitude=0.5
        )
        traj = generate_trajectory(spec)
        for t, r in zip(traj.t[::50], traj.r[::50]):
            psi = math.atan2(r[1, 0], r[0, 0])
            expected = math.remainder(0.7 * t, 2 * math.pi)
            assert abs(math.remainder(psi - expected, 2 * math.pi)) < 1e-2

    def test_figure8_is_periodic(self):
        # Rate chosen so the 8 s period lands exactly on the sample grid.
        rate_hz, om = 100.0, math.pi / 4.0
        period = 2 * math.pi / om
        spec = TrajectorySpec(
            kind=TrajectoryKind.FIGURE8,
            duration=2 * period,
            imu_rate=rate_hz,
            amplitude=3.0,
            rate=om,
        )
        traj = generate_trajectory(spec)
        k = int(round(period * rate_hz))
        for i in range(0, len(traj) - k, 100):
            np.testing.assert_allclose(traj.p[i], traj.p[i + k], atol=1e-9)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            generate_trajectory(circle_spec(duration=0.0))

    @pytest.mark.parametrize("key", ["duration", "imu_rate", "amplitude", "rate"])
    def test_rejects_nan_settings(self, key):
        with pytest.raises(ConfigError):
            generate_trajectory(circle_spec(**{key: math.nan}))


def reference_attitude(spec, t, v, a_world):
    """The thrust-aligned attitude of one sample, computed on its own as
    in Mellinger & Kumar: b3 along a - g, b2 = b3 x heading, b1 = b2 x b3."""
    f = a_world - GRAVITY
    b3 = f / np.linalg.norm(f)
    if spec.yaw_mode is YawMode.SPIN:
        psi = spec.yaw_rate * t
    else:
        psi = 0.0 if np.hypot(v[0], v[1]) < 1e-12 else math.atan2(v[1], v[0])
    b2 = np.cross(b3, np.array([math.cos(psi), math.sin(psi), 0.0]))
    b2 /= np.linalg.norm(b2)
    return np.column_stack([np.cross(b2, b3), b2, b3])


@pytest.mark.parametrize("yaw_mode", list(YawMode))
@pytest.mark.parametrize("kind", list(TrajectoryKind))
def test_flight_kinematics_and_attitude(kind, yaw_mode):
    spec = TrajectorySpec(kind=kind, duration=2.0, imu_rate=200.0, amplitude=1.5,
                          rate=0.8, yaw_mode=yaw_mode, yaw_rate=0.6)
    traj = generate_trajectory(spec)
    dt = 1.0 / spec.imu_rate
    # central-difference error <= dt^2 / 6 * A w^3 per component, and
    # every component's w is at most 3 * rate (> 1 here)
    bound = dt**2 / 6 * spec.amplitude * (3 * spec.rate) ** 4
    np.testing.assert_allclose((traj.p[2:] - traj.p[:-2]) / (2 * dt), traj.v[1:-1], atol=bound)
    np.testing.assert_allclose((traj.v[2:] - traj.v[:-2]) / (2 * dt), traj.a_world[1:-1],
                               atol=bound)
    if yaw_mode is YawMode.FIXED:
        assert np.array_equal(traj.r, np.broadcast_to(np.eye(3), traj.r.shape))
        assert np.array_equal(traj.w_body, np.zeros_like(traj.w_body))
        return
    thrust = traj.a_world - GRAVITY
    np.testing.assert_allclose(traj.r[:, :, 2], thrust / np.linalg.norm(thrust, axis=1)[:, None],
                               atol=1e-12)
    # b2 is perpendicular to the heading (cos psi, sin psi, 0), so the body
    # x axis heads at psi = atan2(-R01, R11), the Z-X-Y yaw of the body frame
    psi = np.arctan2(-traj.r[:, 0, 1], traj.r[:, 1, 1])
    if yaw_mode is YawMode.FOLLOW_VELOCITY:
        expected = np.arctan2(traj.v[:, 1], traj.v[:, 0])
    else:
        expected = spec.yaw_rate * traj.t
    np.testing.assert_allclose(np.remainder(psi - expected + np.pi, 2 * np.pi) - np.pi, 0.0,
                               atol=1e-12)
    for i in range(0, len(traj), 7):
        reference = reference_attitude(spec, traj.t[i], traj.v[i], traj.a_world[i])
        assert np.array_equal(traj.r[i], reference), i


def test_heading_is_zero_when_hovering():
    traj = generate_trajectory(circle_spec(rate=0.0, duration=1.0))
    np.testing.assert_array_equal(traj.v, np.zeros_like(traj.v))
    np.testing.assert_array_equal(traj.r, np.broadcast_to(np.eye(3), traj.r.shape))
    np.testing.assert_array_equal(traj.w_body, np.zeros_like(traj.w_body))


def test_free_fall_point_rejected():
    # a_world = GRAVITY at t = 0 leaves no thrust direction to align with
    spec = TrajectorySpec(kind=TrajectoryKind.LISSAJOUS3D, duration=1.0, amplitude=19.6133,
                          rate=1.0, ratios=(1.0, 1.0, 1.0), phases=(0.0, 0.0, math.pi / 2))
    with pytest.raises(DataError, match="free-fall"):
        generate_trajectory(spec)


class TestTrajectory:
    def test_body_velocities_equal_per_row_products(self):
        traj = generate_trajectory(lissajous_spin_spec(duration=1.0))
        reference = np.array([r.T @ v for r, v in zip(traj.r, traj.v)])
        assert np.array_equal(traj.body_velocities(), reference)

    def test_inconsistent_shapes_rejected(self):
        n = 4
        rows = dict(t=np.arange(n) * 0.1, r=np.tile(np.eye(3), (n, 1, 1)),
                    v=np.zeros((n, 3)), p=np.zeros((n, 3)))
        assert len(Trajectory(**rows)) == n
        for key, bad in (("r", np.eye(3)), ("v", np.zeros((n - 1, 3))),
                         ("w_body", np.zeros((n, 2)))):
            with pytest.raises(DataError):
                Trajectory(**{**rows, key: bad})


class TestDeriveImu:
    def test_stationary_fixed_reads_gravity_only(self):
        spec = circle_spec(
            amplitude=0.0, rate=0.0, yaw_mode=YawMode.FIXED, duration=0.5
        )
        imu = derive_imu(generate_trajectory(spec))
        assert imu.kind is RepresentationKind.BODY
        for i in range(len(imu)):
            np.testing.assert_allclose(imu.a[i], [0.0, 0.0, 9.80665], atol=1e-12)
            np.testing.assert_array_equal(imu.w[i], np.zeros(3))

    def test_reading_rotates_back_to_world_acceleration(self):
        traj = generate_trajectory(lissajous_spin_spec(duration=1.0))
        imu = derive_imu(traj)
        for r, a, a_world in zip(traj.r[::25], imu.a[::25], traj.a_world[::25]):
            np.testing.assert_allclose(r @ a + GRAVITY, a_world, atol=1e-10)


def hover_samples(n, rate=200.0):
    return ImuWindow(
        t=np.arange(n) * (1.0 / rate),
        w=np.zeros((n, 3)),
        a=np.tile([0.0, 0.0, 9.80665], (n, 1)),
    )


class TestCorruptImu:
    def test_white_noise_scaling(self):
        clean = hover_samples(100_000)
        noisy, _ = corrupt_imu(clean, NoiseSpec(sigma_a=0.01, seed=3))
        resid = noisy.a - clean.a
        target = 0.01 * math.sqrt(200.0)
        assert abs(resid.std() / target - 1.0) < 0.05
        # Gyro channel untouched when sigma_g == 0.
        assert all(np.array_equal(noisy.w[i], clean.w[i]) for i in range(100))

    def test_bias_walk_increments(self):
        clean = hover_samples(100_000)
        _, bias = corrupt_imu(
            clean, NoiseSpec(sigma_bg=1e-3, b_g0=(0.1, -0.2, 0.0), seed=4)
        )
        np.testing.assert_array_equal(bias.b_g[0], [0.1, -0.2, 0.0])
        steps = np.diff(bias.b_g, axis=0)
        target = 1e-3 * math.sqrt(1.0 / 200.0)
        assert abs(steps.std() / target - 1.0) < 0.05
        np.testing.assert_array_equal(bias.b_a, np.zeros_like(bias.b_a))

    def test_bias_enters_measurement(self):
        clean = hover_samples(10)
        noisy, bias = corrupt_imu(clean, NoiseSpec(b_a0=(0.2, 0.0, 0.0)))
        for i in range(10):
            np.testing.assert_allclose(noisy.a[i] - clean.a[i], bias.b_a[i], atol=0)

    def test_deterministic_under_seed(self):
        clean = hover_samples(500)
        spec = NoiseSpec(sigma_g=1e-3, sigma_a=1e-2, sigma_bg=1e-5, sigma_ba=1e-4, seed=9)
        first, bias1 = corrupt_imu(clean, spec)
        second, bias2 = corrupt_imu(clean, spec)
        np.testing.assert_array_equal(first.w, second.w)
        np.testing.assert_array_equal(first.a, second.a)
        np.testing.assert_array_equal(bias1.b_g, bias2.b_g)
        different, _ = corrupt_imu(clean, NoiseSpec(**{**spec.__dict__, "seed": 10}))
        assert not np.array_equal(first.a[0], different.a[0])


@pytest.mark.parametrize("ini", [
    "",
    "[simulator]\nkind = lissajous3d\nduration = 15\namplitude = 2\nrate = 0.6\n"
    "yaw_mode = spin\nyaw_rate = 1.5\n",
], ids=["figure8-default", "lissajous-spin-yaw"])
def test_simulate_body_rates_match_per_row_log(tmp_path, monkeypatch, ini):
    """simulate takes the body rates from one batched log_so3 of the
    attitude steps; its files equal a per-row run's byte for byte."""
    from bodyframe_io import simulator
    from bodyframe_io.cli import main

    cfg = tmp_path / "sim.ini"
    cfg.write_text(ini)
    args = ["--name", "s", "--config", str(cfg), "--seed", "1"]
    assert main(["simulate", "--data", str(tmp_path / "batched"), *args]) == 0
    monkeypatch.setattr(simulator, "log_so3", lambda rs: np.array([log_so3(r) for r in rs]))
    assert main(["simulate", "--data", str(tmp_path / "per_row"), *args]) == 0
    batched = sorted(p for p in (tmp_path / "batched").rglob("*") if p.is_file())
    assert batched
    for path in batched:
        twin = tmp_path / "per_row" / path.relative_to(tmp_path / "batched")
        assert path.read_bytes() == twin.read_bytes(), path.name
