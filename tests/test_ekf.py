"""Error-state filter: Jacobians, updates, and the two runners."""

import numpy as np
import pytest

from bodyframe_io.corrector import IdentityCorrector
from bodyframe_io.ekf import (
    EkfConfig,
    FilterState,
    batch_run,
    ekf_propagate,
    ekf_update,
    measurement_jacobian,
    predicted_velocity,
    streaming_run,
)
from bodyframe_io.errors import (
    ConfigError,
    SingularUpdateError,
    TimestampOrderError,
)
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.motion_model import (
    ConstantZeroProvider,
    MotionNet,
    MotionNetConfig,
    NetworkProvider,
    OracleProvider,
    VelocityMeasurement,
)
from bodyframe_io.preintegration import (
    NavState,
    ProcessNoise,
    dead_reckon,
    process_noise_covariance,
    propagate_covariance,
    propagate_state,
    propagation_jacobians,
    state_boxplus,
)
from bodyframe_io.simulator import (
    NoiseSpec,
    TrajectoryKind,
    TrajectorySpec,
    YawMode,
    corrupt_imu,
    derive_imu,
    generate_trajectory,
)
from bodyframe_io.so3 import exp_so3


def random_state(rng, p_scale=0.1):
    x = NavState(
        exp_so3(rng.standard_normal(3)),
        rng.standard_normal(3),
        rng.standard_normal(3),
        0.1 * rng.standard_normal(3),
        0.01 * rng.standard_normal(3),
    )
    m = rng.standard_normal((15, 15))
    p = p_scale * (m @ m.T) / 15.0
    return FilterState(x=x, P=p, t=0.0)


class TestMeasurementJacobian:
    def test_identity_attitude_zero_velocity(self):
        fs = FilterState(x=NavState.identity(), P=np.eye(15), t=0.0)
        h = measurement_jacobian(fs)
        expected = np.zeros((3, 15))
        expected[:, 3:6] = np.eye(3)
        np.testing.assert_array_equal(h, expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        step = 1e-6
        worst = 0.0
        for _ in range(20):
            fs = random_state(rng)
            h = measurement_jacobian(fs)
            fd = np.zeros((3, 15))
            for col in range(15):
                delta = np.zeros(15)
                delta[col] = step
                xp = state_boxplus(fs.x, delta)
                xm = state_boxplus(fs.x, -delta)
                fd[:, col] = (xp.r.T @ xp.v - xm.r.T @ xm.v) / (2 * step)
            worst = max(worst, float(np.abs(h - fd).max()))
        assert worst < 1e-5

    def test_bias_columns_zero(self):
        fs = random_state(np.random.default_rng(1))
        np.testing.assert_array_equal(measurement_jacobian(fs)[:, 9:15], np.zeros((3, 6)))

    def test_attitude_perturbation_sign(self):
        # v=(0,0,1), R=I, xi=(eps,0,0): measurement moves by +eps on y.
        fs = FilterState(
            x=NavState(np.eye(3), np.array([0.0, 0.0, 1.0]), np.zeros(3),
                       np.zeros(3), np.zeros(3)),
            P=np.eye(15), t=0.0,
        )
        eps = 1e-7
        delta = np.zeros(15)
        delta[0] = eps
        xp = state_boxplus(fs.x, delta)
        change = xp.r.T @ xp.v - predicted_velocity(fs)
        predicted = measurement_jacobian(fs) @ delta
        np.testing.assert_allclose(change, predicted, atol=5 * eps**2)
        assert predicted[1] == pytest.approx(eps, rel=1e-12)


class TestPropagate:
    def test_hover_is_fixed_point(self):
        x0 = NavState.identity()
        p0 = np.zeros((15, 15))
        fs = FilterState(x=x0, P=p0, t=0.0)
        cfg = EkfConfig(eta_bg=1e-6, eta_ba=1e-5)
        out = ekf_propagate(
            fs, np.zeros(3), np.array([0, 0, 9.80665]),
            np.full(3, 1e-3), np.full(3, 1e-2), 0.01, cfg,
        )
        np.testing.assert_allclose(out.x.r, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(out.x.v, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(out.x.p, np.zeros(3), atol=1e-15)
        # P grew by exactly B W B^T
        noise = ProcessNoise(eta_g=1e-3, eta_a=1e-2, eta_bg=1e-6, eta_ba=1e-5)
        _, b = propagation_jacobians(x0, np.zeros(3), np.array([0, 0, 9.80665]), 0.01)
        expected = b @ process_noise_covariance(noise) @ b.T
        np.testing.assert_allclose(out.P, 0.5 * (expected + expected.T), atol=1e-18)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        fs = random_state(rng)
        w_hat = rng.standard_normal(3)
        a_hat = rng.standard_normal(3)
        eta_g, eta_a = np.full(3, 2e-3), np.full(3, 3e-2)
        cfg = EkfConfig(eta_bg=1e-6, eta_ba=1e-5)
        dt = 0.005
        out = ekf_propagate(fs, w_hat, a_hat, eta_g, eta_a, dt, cfg)

        x_ref = propagate_state(fs.x, w_hat, a_hat, dt)
        a_mat, b_mat = propagation_jacobians(fs.x, w_hat, a_hat, dt)
        noise = ProcessNoise(eta_g=eta_g, eta_a=eta_a, eta_bg=1e-6, eta_ba=1e-5)
        p_ref = propagate_covariance(fs.P, a_mat, b_mat, process_noise_covariance(noise))
        np.testing.assert_array_equal(out.x.r, x_ref.r)
        np.testing.assert_array_equal(out.x.v, x_ref.v)
        np.testing.assert_array_equal(out.x.p, x_ref.p)
        np.testing.assert_array_equal(out.P, p_ref)
        assert out.t == fs.t + dt

    def test_zero_noise_zero_p_stays_zero(self):
        fs = FilterState(x=NavState.identity(), P=np.zeros((15, 15)), t=0.0)
        cfg = EkfConfig(eta_bg=0.0, eta_ba=0.0)
        out = ekf_propagate(
            fs, np.array([0.1, 0, 0]), np.array([0, 1, 9.0]),
            np.zeros(3), np.zeros(3), 0.01, cfg,
        )
        np.testing.assert_array_equal(out.P, np.zeros((15, 15)))

    def test_nonpositive_dt_rejected(self):
        fs = FilterState(x=NavState.identity(), P=np.zeros((15, 15)), t=0.0)
        with pytest.raises(Exception):
            ekf_propagate(
                fs, np.zeros(3), np.zeros(3), np.full(3, 1e-3), np.full(3, 1e-2),
                0.0, EkfConfig(),
            )


class TestUpdate:
    def test_zero_innovation_keeps_state(self):
        rng = np.random.default_rng(3)
        fs = random_state(rng)
        z = VelocityMeasurement(
            t=0.0, v_body=predicted_velocity(fs), eta_v=np.full(3, 0.1)
        )
        out = ekf_update(fs, z)
        np.testing.assert_array_equal(out.x.r, fs.x.r)
        np.testing.assert_array_equal(out.x.v, fs.x.v)
        np.testing.assert_array_equal(out.x.p, fs.x.p)
        assert np.trace(out.P) <= np.trace(fs.P) + 1e-12

    def test_uninformative_measurement_barely_moves_state(self):
        rng = np.random.default_rng(4)
        fs = random_state(rng, p_scale=1e-2)
        z = VelocityMeasurement(
            t=0.0, v_body=predicted_velocity(fs) + np.array([1.0, -2.0, 0.5]),
            eta_v=np.full(3, 1e2),
        )
        out = ekf_update(fs, z)
        delta = np.linalg.norm(
            np.concatenate([out.x.v - fs.x.v, out.x.p - fs.x.p])
        )
        assert delta < 1e-3 * np.linalg.norm([1.0, -2.0, 0.5])

    def test_scalar_kalman_oracle(self):
        p_var, sig, z_val = 0.04, 0.1, 0.3
        p0 = np.zeros((15, 15))
        p0[5, 5] = p_var
        fs = FilterState(x=NavState.identity(), P=p0, t=0.0)
        z = VelocityMeasurement(
            t=0.0, v_body=np.array([0, 0, z_val]), eta_v=np.array([1.0, 1.0, sig])
        )
        out = ekf_update(fs, z)
        k = p_var / (p_var + sig**2)
        assert out.x.v[2] == pytest.approx(k * z_val, rel=1e-12)
        assert out.P[5, 5] == pytest.approx(p_var * sig**2 / (p_var + sig**2), rel=1e-12)
        # everything else untouched
        np.testing.assert_allclose(out.x.v[:2], np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(out.x.r, np.eye(3), atol=1e-15)

    def test_singular_innovation_covariance_raises(self):
        fs = FilterState(x=NavState.identity(), P=np.zeros((15, 15)), t=0.0)
        z = VelocityMeasurement(
            t=0.0, v_body=np.zeros(3), eta_v=np.array([1.0, 1e-7, 1e-7])
        )
        with pytest.raises(SingularUpdateError):
            ekf_update(fs, z)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            fs = random_state(rng)
            z = VelocityMeasurement(
                t=0.0, v_body=rng.standard_normal(3),
                eta_v=np.abs(rng.standard_normal(3)) + 0.05,
            )
            out = ekf_update(fs, z)
            assert np.trace(out.P) <= np.trace(fs.P) + 1e-12
            np.testing.assert_allclose(out.P, out.P.T, atol=1e-12)
            assert np.linalg.eigvalsh(out.P).min() >= -1e-9

    def test_retraction_round_trip(self):
        rng = np.random.default_rng(6)
        x = random_state(rng).x
        delta = rng.standard_normal(15) * 0.1
        forth = state_boxplus(x, delta)
        back = state_boxplus(forth, -delta)
        np.testing.assert_allclose(back.r, x.r, atol=1e-10)
        np.testing.assert_allclose(back.v, x.v, atol=1e-10)
        np.testing.assert_allclose(back.p, x.p, atol=1e-10)
        np.testing.assert_allclose(back.b_a, x.b_a, atol=1e-10)
        np.testing.assert_allclose(back.b_g, x.b_g, atol=1e-10)


def initial_state_from(sample):
    return NavState(sample.r.copy(), sample.v.copy(), sample.p.copy(),
                    np.zeros(3), np.zeros(3))


class _SpyProvider:
    """Wraps a provider; records windows and tail sizes."""

    def __init__(self, inner, kind=None):
        self.inner = inner
        self.required_kind = kind if kind is not None else inner.required_kind
        self.window_len = getattr(inner, "window_len", None)
        self.windows = []
        self.tails = []

    def predict_window(self, window, n_tail):
        self.windows.append(window)
        self.tails.append(n_tail)
        return self.inner.predict_window(window, n_tail)


@pytest.fixture(scope="module")
def noisy_fig8():
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8, duration=20.0, imu_rate=100.0,
        amplitude=1.0, rate=np.pi / 4,
    )
    traj = generate_trajectory(spec)
    noise = NoiseSpec(sigma_g=1e-3, sigma_a=1e-2, sigma_bg=1e-5, sigma_ba=1e-4, seed=7)
    imu, _ = corrupt_imu(derive_imu(traj), noise)
    rate = spec.imu_rate
    corrector = IdentityCorrector(
        eta_g=1e-3 * np.sqrt(rate), eta_a=1e-2 * np.sqrt(rate)
    )
    cfg = EkfConfig(
        update_rate=20.0, buffer_len=1000,
        eta_bg=1e-5 * np.sqrt(1 / rate), eta_ba=1e-4 * np.sqrt(1 / rate),
    )
    return traj, imu, corrector, cfg


class TestRunners:
    def test_streaming_matches_batch_exactly(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        provider = OracleProvider(traj, noise_std=0.05, seed=11)
        x0 = initial_state_from(traj[0])
        a = streaming_run(imu, provider, corrector, cfg, x0)
        b = batch_run(imu, provider, corrector, cfg, x0)
        assert len(a) == len(b) == len(imu)
        worst = 0.0
        for sa, sb in zip(a, b):
            worst = max(
                worst,
                float(np.abs(sa.x.r - sb.x.r).max()),
                float(np.abs(sa.x.v - sb.x.v).max()),
                float(np.abs(sa.x.p - sb.x.p).max()),
                float(np.abs(sa.x.b_a - sb.x.b_a).max()),
                float(np.abs(sa.x.b_g - sb.x.b_g).max()),
                float(np.abs(sa.P - sb.P).max()),
            )
        assert worst < 1e-12

    def test_fusion_beats_dead_reckoning(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        provider = OracleProvider(traj, noise_std=0.05, seed=11)
        x0 = initial_state_from(traj[0])
        states = streaming_run(imu, provider, corrector, cfg, x0)
        dr = dead_reckon(x0, imu)
        p_true = np.array([s.p for s in traj])
        p_ekf = np.array([s.x.p for s in states])
        p_dr = np.array([s.p for s in dr])
        ate_ekf = float(np.sqrt(np.mean(np.sum((p_ekf - p_true) ** 2, axis=1))))
        ate_dr = float(np.sqrt(np.mean(np.sum((p_dr - p_true) ** 2, axis=1))))
        assert ate_ekf < 0.5
        assert ate_ekf < 0.5 * ate_dr

    def test_constant_zero_pins_stationary_position(self):
        spec = TrajectorySpec(
            kind=TrajectoryKind.CIRCLE, duration=60.0, imu_rate=100.0,
            amplitude=0.0, rate=0.0, yaw_mode=YawMode.FIXED,
        )
        traj = generate_trajectory(spec)
        noise = NoiseSpec(sigma_g=1e-3, sigma_a=1e-2, sigma_bg=1e-5, sigma_ba=1e-4,
                          seed=3)
        imu, _ = corrupt_imu(derive_imu(traj), noise)
        corrector = IdentityCorrector(eta_g=1e-3 * 10.0, eta_a=1e-2 * 10.0)
        cfg = EkfConfig(update_rate=20.0, eta_bg=1e-6, eta_ba=1e-5)
        states = streaming_run(
            imu, ConstantZeroProvider(eta=0.05), corrector, cfg,
            initial_state_from(traj[0]),
        )
        drift = max(float(np.linalg.norm(s.x.p)) for s in states)
        assert drift < 0.1

    def test_every_new_frame_consumed_once(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        imu = imu[:201]  # warm start not needed; 200 propagated frames
        spy = _SpyProvider(OracleProvider(traj, noise_std=0.0, seed=0))
        streaming_run(imu, spy, corrector, cfg, initial_state_from(traj[0]))
        assert sum(spy.tails) == 200
        assert all(len(w) <= cfg.buffer_len for w in spy.windows)

    def test_small_buffer_streaming_still_matches_batch(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        imu = imu[:400]
        cfg = EkfConfig(update_rate=20.0, buffer_len=50, eta_bg=1e-6, eta_ba=1e-5)
        provider = OracleProvider(traj, noise_std=0.02, seed=5)
        x0 = initial_state_from(traj[0])
        a = streaming_run(imu, provider, corrector, cfg, x0)
        b = batch_run(imu, provider, corrector, cfg, x0)
        worst = max(
            float(np.abs(sa.x.p - sb.x.p).max()) for sa, sb in zip(a, b)
        )
        assert worst < 1e-12

    def test_update_cadence(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        imu = imu[:21]  # frames 0..20 at 100 Hz
        cfg = EkfConfig(update_rate=20.0, eta_bg=1e-6, eta_ba=1e-5)  # k = 5
        spy = _SpyProvider(OracleProvider(traj, noise_std=0.0, seed=0))
        streaming_run(imu, spy, corrector, cfg, initial_state_from(traj[0]))
        # 20 new frames in chunks of 5
        assert spy.tails == [5, 5, 5, 5]

    def test_attitude_channel_is_pre_update_and_never_revised(self, noisy_fig8):
        from bodyframe_io.so3 import log_so3

        traj, imu, corrector, cfg = noisy_fig8
        imu = imu[:301]
        spy = _SpyProvider(
            OracleProvider(traj, noise_std=0.05, seed=2),
            kind=RepresentationKind.BODY_PLUS_ATTITUDE,
        )
        x0 = initial_state_from(traj[0])
        states = streaming_run(imu, spy, corrector, cfg, x0)

        # the same frame's attitude is identical in every window containing it
        seen = {}
        for w in spy.windows:
            assert w.attitudes is not None
            for tt, xi in zip(w.t, w.attitudes):
                key = round(float(tt) * 1e9)
                if key in seen:
                    np.testing.assert_array_equal(seen[key], xi)
                else:
                    seen[key] = xi.copy()

        # at update frames the recorded attitude predates the update
        k = 5  # 100 Hz / 20 Hz
        revised = 0
        for i in range(k, len(imu), k):
            key = round(float(imu[i].t) * 1e9)
            post = log_so3(states[i].x.r)
            if not np.allclose(seen[key], post, atol=1e-15):
                revised += 1
        assert revised > 0  # updates do move attitude; the buffer kept pre-update

    def test_non_monotone_stream_rejected(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        bad = [imu[0], imu[2], imu[1]]
        with pytest.raises(TimestampOrderError):
            streaming_run(bad, ConstantZeroProvider(), corrector, cfg,
                          initial_state_from(traj[0]))

    def test_update_rate_above_imu_rate_rejected(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        cfg = EkfConfig(update_rate=500.0)
        with pytest.raises(ConfigError):
            streaming_run(imu[:10], ConstantZeroProvider(), corrector, cfg,
                          initial_state_from(traj[0]))

    def test_covariance_health_along_run(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        provider = OracleProvider(traj, noise_std=0.05, seed=11)
        states = streaming_run(imu[:501], provider, corrector, cfg,
                               initial_state_from(traj[0]))
        for s in states:
            np.testing.assert_allclose(s.P, s.P.T, atol=1e-9)
            assert np.linalg.eigvalsh(s.P).min() >= -1e-9


def perturbed_tiny_network(seed=5):
    """A window-8 network whose output layers are not zero, so that its
    measurements depend on every input frame it sees."""
    model = MotionNet(MotionNetConfig(
        window=8, latent_dim=8, imu_encoder_channels=(8, 8),
        attitude_encoder_channels=(4, 4), dropout_p=0.0, kernel=3, seed=3,
    ))
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        p += 0.1 * rng.standard_normal(p.shape)
    return model


class TestNetworkServing:
    def test_streaming_matches_batch_exactly(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        imu = imu[:301]
        cfg = EkfConfig(update_rate=20.0, buffer_len=50, eta_bg=1e-6, eta_ba=1e-5)
        provider = NetworkProvider(perturbed_tiny_network())
        x0 = initial_state_from(traj[0])
        a = streaming_run(imu, provider, corrector, cfg, x0)
        b = batch_run(imu, provider, corrector, cfg, x0)
        assert len(a) == len(b) == len(imu)
        for sa, sb in zip(a, b):
            for field in ("r", "v", "p", "b_a", "b_g"):
                assert np.array_equal(getattr(sa.x, field), getattr(sb.x, field))
            assert np.array_equal(sa.P, sb.P)
        # the measurements matter: an untrained network (v = 0) ends elsewhere
        fresh = MotionNet(provider.model.config)
        c = streaming_run(imu, NetworkProvider(fresh), corrector, cfg, x0)
        assert not np.array_equal(a[-1].x.p, c[-1].x.p)

    def test_network_never_runs_on_more_than_its_window(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        cfg = EkfConfig(update_rate=20.0, buffer_len=50, eta_bg=1e-6, eta_ba=1e-5)
        model = perturbed_tiny_network()
        steps = []
        forward_arrays = model.forward_arrays

        def spy_forward(imu_arr, att=None, **kw):
            steps.append(imu_arr.shape[1])
            return forward_arrays(imu_arr, att, **kw)

        model.forward_arrays = spy_forward
        spy = _SpyProvider(NetworkProvider(model))
        streaming_run(imu[:101], spy, corrector, cfg, initial_state_from(traj[0]))
        assert len(steps) == len(spy.windows) == 20
        assert max(steps) == model.config.window
        assert all(len(w) <= model.config.window for w in spy.windows)

    def test_tiny_buffer_streaming_matches_batch(self, noisy_fig8):
        # a buffer shorter than a chunk keeps only the chunk's newest frames
        traj, imu, corrector, _ = noisy_fig8
        imu = imu[:61]
        cfg = EkfConfig(update_rate=20.0, buffer_len=3, eta_bg=1e-6, eta_ba=1e-5)
        runs = []
        for runner in (streaming_run, batch_run):
            spy = _SpyProvider(
                OracleProvider(traj, noise_std=0.05, seed=2),
                kind=RepresentationKind.GLOBAL_PLUS_ATTITUDE,
            )
            runner(imu, spy, corrector, cfg, initial_state_from(traj[0]))
            runs.append(spy.windows)
        for wa, wb in zip(*runs):
            assert len(wa) == 3
            for name in ("t", "w", "a", "attitudes"):
                assert np.array_equal(getattr(wa, name), getattr(wb, name))
