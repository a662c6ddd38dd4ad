import numpy as np
import pytest
from reference import state_boxminus

from bodyframe_io.errors import DataError, InvalidRotationError, TimestampOrderError
from bodyframe_io.imu_model import ImuWindow
from bodyframe_io.preintegration import (
    NavState,
    dead_reckon,
    propagate_chunk,
    propagate_covariance,
    propagate_state,
    propagation_jacobians,
    state_boxplus,
)
from bodyframe_io.simulator import (
    TrajectoryKind,
    TrajectorySpec,
    derive_imu,
    generate_trajectory,
)
from bodyframe_io.so3 import exp_so3

G = 9.80665


def noise_covariance(eta_g, eta_a, eta_bg, eta_ba):
    """12x12 diagonal W of per-sample stds, order (eta_g, eta_a, eta_bg, eta_ba)."""
    stds = np.concatenate([np.broadcast_to(e, (3,)) for e in (eta_g, eta_a, eta_bg, eta_ba)])
    return np.diag(stds**2)


def retracted_step(x_hat, delta, noise, w, a, dt):
    """Oracle for the Jacobian tests: perturbed step minus nominal step,
    expressed through the retraction. Noise subtracts from the readings
    (white) and adds to the biases afterwards (walk increments)."""
    x = state_boxplus(x_hat, delta)
    xp = propagate_state(x, w - noise[0:3], a - noise[3:6], dt)
    xp.b_g = xp.b_g + noise[6:9]
    xp.b_a = xp.b_a + noise[9:12]
    return state_boxminus(xp, propagate_state(x_hat, w, a, dt))


def fd_jacobians(x, w, a, dt, step=1e-6):
    a_fd = np.zeros((15, 15))
    b_fd = np.zeros((15, 12))
    z15, z12 = np.zeros(15), np.zeros(12)
    for j in range(15):
        d = z15.copy()
        d[j] = step
        plus = retracted_step(x, d, z12, w, a, dt)
        minus = retracted_step(x, -d, z12, w, a, dt)
        a_fd[:, j] = (plus - minus) / (2 * step)
    for j in range(12):
        n = z12.copy()
        n[j] = step
        plus = retracted_step(x, z15, n, w, a, dt)
        minus = retracted_step(x, z15, -n, w, a, dt)
        b_fd[:, j] = (plus - minus) / (2 * step)
    return a_fd, b_fd


def random_state(rng):
    return NavState(
        r=exp_so3(rng.normal(size=3)),
        v=rng.normal(size=3) * 2.0,
        p=rng.normal(size=3) * 5.0,
        b_a=rng.normal(size=3) * 0.1,
        b_g=rng.normal(size=3) * 0.01,
    )


class TestPropagateState:
    def test_constant_acceleration_from_rest(self):
        x = NavState.identity()
        a_reading = np.array([1.0, 0.0, G])  # 1 m/s^2 world x plus gravity hold
        dt = 0.005
        for _ in range(200):
            x = propagate_state(x, np.zeros(3), a_reading, dt)
        np.testing.assert_allclose(x.v, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(x.p, [0.5, 0.0, 0.0], atol=1e-12)

    def test_free_fall(self):
        x = NavState.identity()
        for _ in range(200):
            x = propagate_state(x, np.zeros(3), np.zeros(3), 0.005)
        np.testing.assert_allclose(x.v, [0.0, 0.0, -G], atol=1e-12)
        # p = sum over steps of v dt + dt^2/2 g, exact for constant g.
        np.testing.assert_allclose(x.p, [0.0, 0.0, -G / 2], atol=1e-12)

    def test_hover_is_fixed_point(self):
        x = NavState.identity()
        y = propagate_state(x, np.zeros(3), np.array([0.0, 0.0, G]), 0.01)
        np.testing.assert_array_equal(y.r, x.r)
        np.testing.assert_allclose(y.v, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(y.p, np.zeros(3), atol=1e-15)

    def test_pure_yaw_spin(self):
        x = NavState.identity()
        w = np.array([0.0, 0.0, 0.5])
        for _ in range(100):
            # Accelerometer must read R^T(-g) to hold position while yawing;
            # for pure yaw that stays (0, 0, +G).
            x = propagate_state(x, w, np.array([0.0, 0.0, G]), 0.01)
        np.testing.assert_allclose(x.r, exp_so3([0.0, 0.0, 0.5]), atol=1e-12)
        np.testing.assert_allclose(x.p, np.zeros(3), atol=1e-12)

    def test_biases_are_subtracted(self):
        b_a, b_g = np.array([0.1, -0.2, 0.05]), np.array([0.01, 0.02, -0.03])
        x = NavState(np.eye(3), np.zeros(3), np.zeros(3), b_a, b_g)
        y = propagate_state(x, b_g, np.array([0.0, 0.0, G]) + b_a, 0.01)
        np.testing.assert_allclose(y.r, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(y.v, np.zeros(3), atol=1e-15)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(DataError):
            propagate_state(NavState.identity(), np.zeros(3), np.zeros(3), 0.0)


class TestRetraction:
    def test_boxplus_boxminus_roundtrip(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            x = random_state(rng)
            delta = rng.normal(size=15) * 0.1
            np.testing.assert_allclose(
                state_boxminus(state_boxplus(x, delta), x), delta, atol=1e-10
            )

    def test_zero_error_is_identity(self):
        x = random_state(np.random.default_rng(21))
        y = state_boxplus(x, np.zeros(15))
        np.testing.assert_allclose(y.r, x.r, atol=1e-15)
        np.testing.assert_array_equal(y.v, x.v)


class TestJacobians:
    def test_match_finite_differences(self):
        rng = np.random.default_rng(22)
        dt = 0.005
        worst_a, worst_b = 0.0, 0.0
        for _ in range(10):
            x = random_state(rng)
            w = rng.normal(size=3) * 1.5
            a = rng.normal(size=3) * 3.0 + np.array([0.0, 0.0, G])
            a_mat, b_mat = propagation_jacobians(x, w, a, dt)
            a_fd, b_fd = fd_jacobians(x, w, a, dt)
            worst_a = max(worst_a, np.max(np.abs(a_mat - a_fd)))
            worst_b = max(worst_b, np.max(np.abs(b_mat - b_fd)))
        assert worst_a < 1e-5
        assert worst_b < 1e-5

    def test_velocity_position_coupling_block(self):
        x = NavState.identity()
        a_mat, _ = propagation_jacobians(x, np.zeros(3), np.array([0.0, 0.0, G]), 0.01)
        np.testing.assert_allclose(a_mat[6:9, 3:6], 0.01 * np.eye(3), atol=0)

    def test_larger_dt_needs_the_right_jacobian_term(self):
        # With |phi| ~ 0.05 rad the small-angle identity J_r ~ I is off
        # by ~2.5e-2; the implemented block must still track FD at 1e-5.
        x = NavState.identity()
        w = np.array([0.0, 0.0, 10.0])
        a = np.array([1.0, 2.0, G])
        a_mat, _ = propagation_jacobians(x, w, a, 0.005)
        a_fd, _ = fd_jacobians(x, w, a, 0.005)
        np.testing.assert_allclose(a_mat[0:3, 12:15], a_fd[0:3, 12:15], atol=1e-5)


class TestCovariance:
    def test_fresh_covariance_is_injected_noise(self):
        x = NavState.identity()
        w_cov = noise_covariance(0.01, 0.1, 1e-4, 1e-3)
        a_mat, b_mat = propagation_jacobians(
            x, np.zeros(3), np.array([0.0, 0.0, G]), 0.005
        )
        p1 = propagate_covariance(np.zeros((15, 15)), a_mat, b_mat, w_cov)
        np.testing.assert_allclose(p1, b_mat @ w_cov @ b_mat.T, atol=1e-18)

    def test_stays_symmetric_psd_over_many_steps(self):
        rng = np.random.default_rng(23)
        x = NavState.identity()
        w_cov = noise_covariance(0.014, 0.14, 7e-7, 7e-6)
        p = np.zeros((15, 15))
        for _ in range(500):
            w = rng.normal(size=3)
            a = rng.normal(size=3) + np.array([0.0, 0.0, G])
            a_mat, b_mat = propagation_jacobians(x, w, a, 0.005)
            p = propagate_covariance(p, a_mat, b_mat, w_cov)
            x = propagate_state(x, w, a, 0.005)
        np.testing.assert_array_equal(p, p.T)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-12
        assert np.all(np.isfinite(p))

    def test_zero_noise_is_pure_similarity_transform(self):
        rng = np.random.default_rng(24)
        x = random_state(rng)
        p0 = rng.normal(size=(15, 15))
        p0 = p0 @ p0.T
        a_mat, b_mat = propagation_jacobians(x, rng.normal(size=3), rng.normal(size=3), 0.005)
        p1 = propagate_covariance(p0, a_mat, b_mat, np.zeros((12, 12)))
        np.testing.assert_allclose(p1, a_mat @ p0 @ a_mat.T, atol=1e-12)



def per_frame_reference(x, w, a, dt, eta_g, eta_a, sigma_bg, sigma_ba, p_cov):
    """A chunk the per-frame way: rows of r, v, p, A, Q and P, with
    walk variances sigma^2 dt."""
    out = {name: [] for name in ("r", "v", "p", "a_mat", "q_mat", "P")}
    for i in range(len(dt)):
        a_mat, b_mat = propagation_jacobians(x, w[i], a[i], dt[i])
        walk = [np.broadcast_to(s, (3,)) ** 2 * dt[i] for s in (sigma_bg, sigma_ba)]
        w_cov = np.diag(np.concatenate([eta_g[i] ** 2, eta_a[i] ** 2, *walk]))
        p_cov = propagate_covariance(p_cov, a_mat, b_mat, w_cov)
        x = propagate_state(x, w[i], a[i], dt[i])
        for name, value in zip(out, (x.r, x.v, x.p, a_mat, b_mat @ w_cov @ b_mat.T, p_cov)):
            out[name].append(value)
    return {name: np.array(rows) for name, rows in out.items()}


def chunk_inputs(rng, k, rate_scale=1.0):
    return dict(
        x=random_state(rng),
        w=rng.normal(size=(k, 3)) * rate_scale,
        a=rng.normal(size=(k, 3)) * 3.0 + np.array([0.0, 0.0, G]),
        dt=rng.uniform(4e-4, 1e-2, size=k),
        eta_g=np.abs(rng.normal(size=(k, 3))) * 1e-2,
        eta_a=np.abs(rng.normal(size=(k, 3))) * 1e-1,
        sigma_bg=1e-5,
        sigma_ba=np.array([1e-4, 2e-4, 3e-4]),
    )


class TestPropagateChunk:
    def assert_matches_per_frame(self, inputs, p_cov):
        chunk = dict(zip(("r", "v", "p", "a_mat", "q_mat"), propagate_chunk(**inputs)))
        ref = per_frame_reference(**inputs, p_cov=p_cov)
        for name, rows in chunk.items():
            assert np.array_equal(rows, ref[name]), name
        for j in range(len(inputs["dt"])):
            out = chunk["a_mat"][j] @ p_cov @ chunk["a_mat"][j].T + chunk["q_mat"][j]
            p_cov = 0.5 * (out + out.T)
            assert np.array_equal(p_cov, ref["P"][j])

    def test_equals_per_frame_loop_exactly(self):
        rng = np.random.default_rng(25)
        for k in (1, 2, 10, 37):
            m = rng.normal(size=(15, 15))
            self.assert_matches_per_frame(chunk_inputs(rng, k), 1e-2 * m @ m.T)

    def test_zero_rate_and_small_angle_rows(self):
        rng = np.random.default_rng(26)
        inputs = chunk_inputs(rng, 12)
        # phi = 0 exactly, |phi| < 1e-4 (Taylor branch), and large angles mixed
        inputs["w"][0:4] = inputs["x"].b_g
        inputs["w"][4:8] = inputs["x"].b_g + rng.normal(size=(4, 3)) * 1e-5
        phi = np.linalg.norm((inputs["w"] - inputs["x"].b_g) * inputs["dt"][:, None], axis=1)
        assert np.all(phi[:4] == 0.0) and np.all(phi[4:8] < 1e-4) and np.all(phi[8:] > 1e-4)
        self.assert_matches_per_frame(inputs, np.eye(15))

    def test_rejects_nonpositive_dt(self):
        rng = np.random.default_rng(27)
        for bad in (0.0, -1e-3):
            inputs = chunk_inputs(rng, 3)
            inputs["dt"][1] = bad
            with pytest.raises(DataError, match="dt must be positive"):
                propagate_chunk(**inputs)

    def test_rejects_negative_noise_std(self):
        rng = np.random.default_rng(28)
        for name in ("eta_g", "eta_a", "sigma_bg", "sigma_ba"):
            inputs = chunk_inputs(rng, 3)
            inputs[name] = -np.abs(np.asarray(inputs[name]))
            with pytest.raises(DataError, match=f"{name} must be nonnegative"):
                propagate_chunk(**inputs)
            # one NaN std fails too
            inputs[name] = np.array(np.abs(inputs[name]), dtype=float)
            inputs[name].flat[0] = np.nan
            with pytest.raises(DataError, match=f"{name} must be nonnegative"):
                propagate_chunk(**inputs)


class TestDeadReckon:
    def canonical_circle(self, imu_rate):
        return TrajectorySpec(
            kind=TrajectoryKind.CIRCLE,
            duration=60.0,
            imu_rate=imu_rate,
            amplitude=1.0,
            rate=0.5,
        )

    def final_error(self, imu_rate):
        traj = generate_trajectory(self.canonical_circle(imu_rate))
        imu = derive_imu(traj)
        x0 = NavState(traj.r[0], traj.v[0], traj.p[0], np.zeros(3), np.zeros(3))
        states = dead_reckon(x0, imu)
        return np.linalg.norm(states.p[-1] - traj.p[-1])

    def test_noiseless_circle_closes_within_budget(self):
        e200 = self.final_error(200.0)
        assert e200 < 0.05
        # First-order integrator: halving dt should halve the error.
        e400 = self.final_error(400.0)
        assert 1.8 < e200 / e400 < 2.2

    def test_output_length_matches_input(self):
        imu = ImuWindow(
            t=np.arange(50) * 0.01, w=np.zeros((50, 3)), a=np.tile([0.0, 0.0, G], (50, 1))
        )
        states = dead_reckon(NavState.identity(), imu)
        assert len(states) == 50
        np.testing.assert_array_equal(states.t, imu.t)

    def test_equals_per_frame_loop_exactly(self):
        rng = np.random.default_rng(29)
        n = 400
        imu = ImuWindow(
            t=np.cumsum(rng.uniform(4e-3, 6e-3, size=n)),
            w=rng.normal(size=(n, 3)),
            a=rng.normal(size=(n, 3)) + np.array([0.0, 0.0, G]),
        )
        imu.w[::7] = 0.0  # zero-rate rows (the biases below are zero)
        x = NavState(exp_so3(rng.normal(size=3)), rng.normal(size=3), rng.normal(size=3),
                     np.zeros(3), np.zeros(3))
        out = dead_reckon(x, imu)
        t = imu.t.tolist()
        for i in range(1, n):
            x = propagate_state(x, imu.w[i - 1], imu.a[i - 1], t[i] - t[i - 1])
            assert np.array_equal(out.r[i], x.r)
            assert np.array_equal(out.v[i], x.v)
            assert np.array_equal(out.p[i], x.p)

    def test_rejects_invalid_initial_state(self):
        imu = ImuWindow(t=np.arange(5) * 0.01, w=np.zeros((5, 3)), a=np.zeros((5, 3)))
        bad_r = NavState.identity()
        bad_r.r = 2.0 * np.eye(3)
        with pytest.raises(InvalidRotationError):
            dead_reckon(bad_r, imu)
        bad_v = NavState.identity()
        bad_v.v = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(DataError):
            dead_reckon(bad_v, imu)

    def test_rejects_unordered_timestamps(self):
        with pytest.raises(TimestampOrderError):
            dead_reckon(
                NavState.identity(),
                ImuWindow(t=[0.0, 0.0], w=np.zeros((2, 3)), a=np.zeros((2, 3))),
            )
