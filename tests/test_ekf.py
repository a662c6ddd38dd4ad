"""Error-state filter: Jacobians, updates, and the two runners."""

import numpy as np
import pytest

from bodyframe_io import ekf
from bodyframe_io.corrector import (
    IdentityCorrector,
    LearnedAffineCorrector,
    correct_and_quantify,
    inv_softplus,
)
from bodyframe_io.ekf import (
    P0,
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
    DataError,
    InvalidRotationError,
    SingularUpdateError,
    TimestampOrderError,
)
from bodyframe_io.imu_model import ImuWindow, RepresentationKind, transform_representation
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
    dead_reckon,
    propagate_chunk,
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
    return FilterState(x=x, P=p)


class TestMeasurementJacobian:
    def test_identity_attitude_zero_velocity(self):
        fs = FilterState(x=NavState.identity(), P=np.eye(15))
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
            P=np.eye(15),
        )
        eps = 1e-7
        delta = np.zeros(15)
        delta[0] = eps
        xp = state_boxplus(fs.x, delta)
        change = xp.r.T @ xp.v - predicted_velocity(fs)
        predicted = measurement_jacobian(fs) @ delta
        np.testing.assert_allclose(change, predicted, atol=5 * eps**2)
        assert predicted[1] == pytest.approx(eps, rel=1e-12)


def one_step(x, w_hat, a_hat, eta_g, eta_a, dt, cfg):
    """propagate_chunk over a single frame."""
    return propagate_chunk(
        x, np.atleast_2d(w_hat), np.atleast_2d(a_hat), np.array([dt]),
        np.atleast_2d(eta_g), np.atleast_2d(eta_a), cfg.sigma_bg, cfg.sigma_ba,
    )


class TestPropagate:
    def test_hover_is_fixed_point(self):
        x0 = NavState.identity()
        p0 = np.zeros((15, 15))
        cfg = EkfConfig(sigma_bg=1e-5, sigma_ba=1e-4)
        a_hover = np.array([0, 0, 9.80665])
        r, v, p, a_mat, q_mat = one_step(
            x0, np.zeros(3), a_hover, np.full(3, 1e-3), np.full(3, 1e-2), 0.01, cfg
        )
        np.testing.assert_allclose(r[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(v[0], np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(p[0], np.zeros(3), atol=1e-15)
        # P grew by exactly B W B^T
        p1 = ekf_propagate(p0, a_mat[0], q_mat[0])
        _, b = propagation_jacobians(x0, np.zeros(3), a_hover, 0.01)
        w_cov = np.diag(np.repeat([1e-3, 1e-2, 1e-5 * 0.1, 1e-4 * 0.1], 3) ** 2)
        expected = b @ w_cov @ b.T
        np.testing.assert_allclose(p1, 0.5 * (expected + expected.T), atol=1e-18)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        fs = random_state(rng)
        w_hat = rng.standard_normal(3)
        a_hat = rng.standard_normal(3)
        eta_g, eta_a = np.full(3, 2e-3), np.full(3, 3e-2)
        cfg = EkfConfig(sigma_bg=1e-5, sigma_ba=1e-4)
        dt = 0.005
        r, v, p, a_mat, q_mat = one_step(fs.x, w_hat, a_hat, eta_g, eta_a, dt, cfg)
        p_next = ekf_propagate(fs.P, a_mat[0], q_mat[0])

        x_ref = propagate_state(fs.x, w_hat, a_hat, dt)
        a_ref, b_ref = propagation_jacobians(fs.x, w_hat, a_hat, dt)
        walk = np.repeat([cfg.sigma_bg, cfg.sigma_ba], 3) ** 2 * dt  # variances sigma^2 dt
        w_cov = np.diag(np.concatenate([eta_g ** 2, eta_a ** 2, walk]))
        p_ref = propagate_covariance(fs.P, a_ref, b_ref, w_cov)
        np.testing.assert_array_equal(r[0], x_ref.r)
        np.testing.assert_array_equal(v[0], x_ref.v)
        np.testing.assert_array_equal(p[0], x_ref.p)
        np.testing.assert_array_equal(p_next, p_ref)

    def test_zero_noise_zero_p_stays_zero(self):
        cfg = EkfConfig(sigma_bg=0.0, sigma_ba=0.0)
        _, _, _, a_mat, q_mat = one_step(
            NavState.identity(), np.array([0.1, 0, 0]), np.array([0, 1, 9.0]),
            np.zeros(3), np.zeros(3), 0.01, cfg,
        )
        out = ekf_propagate(np.zeros((15, 15)), a_mat[0], q_mat[0])
        np.testing.assert_array_equal(out, np.zeros((15, 15)))

    @pytest.mark.parametrize("rate", [100.0, 2000.0])
    def test_walk_block_is_the_density_times_dt(self, rate):
        # Q's bias block is the walk corrupt_imu draws, variance sigma^2 dt_i
        # on each frame, at any IMU rate and under timing jitter
        cfg = EkfConfig()
        rng = np.random.default_rng(int(rate))
        k = 40
        dt = rng.uniform(0.9, 1.1, size=k) / rate
        *_, q_mat = propagate_chunk(
            NavState.identity(), rng.standard_normal((k, 3)), rng.standard_normal((k, 3)),
            dt, np.full((k, 3), 1e-3), np.full((k, 3), 1e-2), cfg.sigma_bg, cfg.sigma_ba,
        )
        expected = np.zeros((k, 6, 6))
        diag = np.arange(6)
        expected[:, diag, diag] = np.repeat([1e-4, 1e-5], 3) ** 2 * dt[:, None]  # b_a, b_g
        np.testing.assert_allclose(q_mat[:, 9:15, 9:15], expected, rtol=1e-15, atol=0.0)
        assert not q_mat[:, 9:15, :9].any() and not q_mat[:, :9, 9:15].any()

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(DataError):
            one_step(
                NavState.identity(), np.zeros(3), np.zeros(3), np.full(3, 1e-3),
                np.full(3, 1e-2), 0.0, EkfConfig(),
            )


class TestUpdate:
    def test_zero_innovation_keeps_state(self):
        rng = np.random.default_rng(3)
        fs = random_state(rng)
        z = VelocityMeasurement(
            v_body=predicted_velocity(fs), eta_v=np.full(3, 0.1)
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
            v_body=predicted_velocity(fs) + np.array([1.0, -2.0, 0.5]),
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
        fs = FilterState(x=NavState.identity(), P=p0)
        z = VelocityMeasurement(
            v_body=np.array([0, 0, z_val]), eta_v=np.array([1.0, 1.0, sig])
        )
        out = ekf_update(fs, z)
        k = p_var / (p_var + sig**2)
        assert out.x.v[2] == pytest.approx(k * z_val, rel=1e-12)
        assert out.P[5, 5] == pytest.approx(p_var * sig**2 / (p_var + sig**2), rel=1e-12)
        # everything else untouched
        np.testing.assert_allclose(out.x.v[:2], np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(out.x.r, np.eye(3), atol=1e-15)

    def test_singular_innovation_covariance_raises(self):
        fs = FilterState(x=NavState.identity(), P=np.zeros((15, 15)))
        z = VelocityMeasurement(
            v_body=np.zeros(3), eta_v=np.array([1.0, 1e-7, 1e-7])
        )
        with pytest.raises(SingularUpdateError):
            ekf_update(fs, z)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            fs = random_state(rng)
            z = VelocityMeasurement(
                v_body=rng.standard_normal(3),
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


def run_arrays(run):
    """Every per-sample array of a FilterRun."""
    return run.r, run.v, run.p, run.b_a, run.b_g, run.P_diag


def initial_state_from(traj):
    return NavState(traj.r[0].copy(), traj.v[0].copy(), traj.p[0].copy(),
                    np.zeros(3), np.zeros(3))


class _SpyProvider:
    """Wraps a provider, declaring its own window_len (and required_kind,
    when given); records windows and tail sizes."""

    def __init__(self, inner, window_len, kind=None):
        self.inner = inner
        self.required_kind = kind if kind is not None else inner.required_kind
        self.window_len = window_len
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
    cfg = EkfConfig(update_rate=20.0, sigma_bg=1e-5, sigma_ba=1e-4)
    return traj, imu, corrector, cfg


class TestRunners:
    def test_streaming_matches_batch_exactly(self, noisy_fig8, covariance_spy):
        traj, imu, corrector, cfg = noisy_fig8
        provider = OracleProvider(traj, noise_std=0.05, seed=11)
        x0 = initial_state_from(traj)
        a = streaming_run(imu, provider, corrector, cfg, x0)
        a_covs = covariance_spy.per_frame()
        covariance_spy.reset()
        b = batch_run(imu, provider, corrector, cfg, x0)
        assert len(a) == len(b) == len(imu)
        worst = max(float(np.abs(x - y).max()) for x, y in zip(run_arrays(a), run_arrays(b)))
        assert worst < 1e-12
        assert np.array_equal(a_covs, covariance_spy.per_frame())

    def test_fusion_beats_dead_reckoning(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        provider = OracleProvider(traj, noise_std=0.05, seed=11)
        x0 = initial_state_from(traj)
        states = streaming_run(imu, provider, corrector, cfg, x0)
        dr = dead_reckon(x0, imu)
        p_true = traj.p
        p_ekf = states.p
        p_dr = dr.p
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
        cfg = EkfConfig(update_rate=20.0)
        states = streaming_run(
            imu, ConstantZeroProvider(eta=0.05), corrector, cfg,
            initial_state_from(traj),
        )
        drift = float(np.linalg.norm(states.p, axis=1).max())
        assert drift < 0.1

    def test_every_new_frame_consumed_once(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        imu = imu.slice(0, 201)  # warm start not needed; 200 propagated frames
        spy = _SpyProvider(OracleProvider(traj, noise_std=0.0, seed=0), 1000)
        streaming_run(imu, spy, corrector, cfg, initial_state_from(traj))
        # one call per full chunk of 5, each asking for the one row it fuses;
        # each update frame is the newest frame of exactly one served window
        assert spy.tails == [1] * 40
        np.testing.assert_array_equal([w.t[-1] for w in spy.windows], imu.t[5::5])
        assert [len(w) for w in spy.windows] == list(range(6, 202, 5))

    def test_small_buffer_streaming_still_matches_batch(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        imu = imu.slice(0, 400)
        cfg = EkfConfig(update_rate=20.0)
        provider = _SpyProvider(OracleProvider(traj, noise_std=0.02, seed=5), 50)
        x0 = initial_state_from(traj)
        a = streaming_run(imu, provider, corrector, cfg, x0)
        b = batch_run(imu, provider, corrector, cfg, x0)
        worst = float(np.abs(a.p - b.p).max())
        assert worst < 1e-12

    def test_update_cadence(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        cfg = EkfConfig(update_rate=20.0)  # k = 5
        # frames 0..20 at 100 Hz: 20 new frames in chunks of 5; with 23
        # frames the partial last chunk ends on no update, so the
        # provider is not called for it. Each call asks for one row.
        for n in (21, 23):
            spy = _SpyProvider(OracleProvider(traj, noise_std=0.0, seed=0), 1000)
            states = streaming_run(
                imu.slice(0, n), spy, corrector, cfg, initial_state_from(traj)
            )
            assert len(states) == n
            assert spy.tails == [1, 1, 1, 1]
            np.testing.assert_array_equal([w.t[-1] for w in spy.windows], imu.t[5:21:5])

    def test_attitude_channel_is_pre_update_and_never_revised(self, noisy_fig8):
        from bodyframe_io.so3 import log_so3

        traj, imu, corrector, cfg = noisy_fig8
        imu = imu.slice(0, 301)
        spy = _SpyProvider(
            OracleProvider(traj, noise_std=0.05, seed=2), 1000,
            kind=RepresentationKind.BODY_PLUS_ATTITUDE,
        )
        x0 = initial_state_from(traj)
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
            key = round(float(imu.t[i]) * 1e9)
            post = log_so3(states.r[i])
            if not np.allclose(seen[key], post, atol=1e-15):
                revised += 1
        assert revised > 0  # updates do move attitude; the buffer kept pre-update

    def test_non_monotone_stream_rejected(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        order = [0, 2, 1]
        with pytest.raises(TimestampOrderError):
            bad = ImuWindow(t=imu.t[order], w=imu.w[order], a=imu.a[order])
            streaming_run(bad, ConstantZeroProvider(), corrector, cfg,
                          initial_state_from(traj))

    def test_update_rate_above_imu_rate_rejected(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        cfg = EkfConfig(update_rate=500.0)
        with pytest.raises(ConfigError):
            streaming_run(imu.slice(0, 10), ConstantZeroProvider(), corrector, cfg,
                          initial_state_from(traj))

    @pytest.mark.parametrize("field, value", [
        ("update_rate", 0.0), ("update_rate", np.nan),
        ("sigma_bg", -1e-5), ("sigma_bg", np.nan), ("sigma_ba", np.nan),
    ])
    def test_bad_config_rejected(self, noisy_fig8, field, value):
        traj, imu, corrector, _ = noisy_fig8
        cfg = EkfConfig(**{field: value})
        for runner in (streaming_run, batch_run):
            with pytest.raises(ConfigError):
                runner(imu.slice(0, 10), ConstantZeroProvider(), corrector, cfg,
                       initial_state_from(traj))

    def test_every_run_starts_from_p0(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        for runner in (streaming_run, batch_run):
            run = runner(imu.slice(0, 10), ConstantZeroProvider(), corrector, cfg,
                         initial_state_from(traj))
            assert np.array_equal(run.P_diag[0], np.diag(P0))
        assert np.array_equal(np.diag(P0), [1e-4] * 3 + [1e-2] * 6 + [1e-4] * 3 + [1e-6] * 3)
        with pytest.raises(ValueError):
            P0[0, 0] = 1.0

    def test_invalid_initial_state_rejected(self, noisy_fig8):
        traj, imu, corrector, cfg = noisy_fig8
        imu = imu.slice(0, 21)
        bad_r = initial_state_from(traj)
        bad_r.r = 2.0 * np.eye(3)
        bad_v = initial_state_from(traj)
        bad_v.v[0] = np.nan
        for runner in (streaming_run, batch_run):
            with pytest.raises(InvalidRotationError):
                runner(imu, ConstantZeroProvider(), corrector, cfg, bad_r)
            with pytest.raises(DataError):
                runner(imu, ConstantZeroProvider(), corrector, cfg, bad_v)

    def test_rows_are_the_per_frame_filter(self, noisy_fig8, covariance_spy):
        # Every row, and every frame's full P, equals a per-frame
        # propagate/update loop exactly.
        traj, imu, corrector, cfg = noisy_fig8
        imu = imu.slice(0, 23)  # 4 updates and a partial last chunk
        provider = OracleProvider(traj, noise_std=0.05, seed=3)
        run = streaming_run(imu, provider, corrector, cfg, initial_state_from(traj))
        assert np.array_equal(run.t, imu.t)
        corrected, corr = correct_and_quantify(corrector, imu)
        meas = OracleProvider(traj, noise_std=0.05, seed=3)
        walk = np.repeat([cfg.sigma_bg, cfg.sigma_ba], 3) ** 2  # times dt: variances
        w_cov = [
            np.diag(np.concatenate([g ** 2, a ** 2, walk * dt]))
            for g, a, dt in zip(corr.eta_g, corr.eta_a, np.diff(imu.t, prepend=imu.t[0]))
        ]
        fs = FilterState(x=initial_state_from(traj), P=P0)
        t = imu.t.tolist()
        covs = []
        for i in range(1, len(imu)):
            # the reading of frame i propagates across the interval ending at t_i
            w, a, dt = corrected.w[i], corrected.a[i], t[i] - t[i - 1]
            a_mat, b_mat = propagation_jacobians(fs.x, w, a, dt)
            fs = FilterState(
                x=propagate_state(fs.x, w, a, dt),
                P=propagate_covariance(fs.P, a_mat, b_mat, w_cov[i]),
            )
            if i % 5 == 0:
                window = corrected.slice(max(0, i + 1 - meas.window_len), i + 1)
                v, eta = meas.predict_window(window, 1)
                fs = ekf_update(fs, VelocityMeasurement(v_body=v[-1], eta_v=eta[-1]))
            covs.append(fs.P)
            frame = (fs.x.r, fs.x.v, fs.x.p, fs.x.b_a, fs.x.b_g, np.diagonal(fs.P))
            for x, y in zip(run_arrays(run), frame):
                assert np.array_equal(x[i], y), i
        assert len(covariance_spy.updated) == 4  # at frames 5, 10, 15, 20
        assert np.array_equal(covariance_spy.per_frame(), covs)
        # tr_P, as run-ekf writes it, is the trace of the full P
        full = np.array([np.diag(d) for d in run.P_diag])
        assert np.array_equal(run.P_diag.sum(axis=1), np.trace(full, axis1=1, axis2=2))

    def test_covariance_health_along_run(self, noisy_fig8, covariance_spy):
        traj, imu, corrector, cfg = noisy_fig8
        provider = OracleProvider(traj, noise_std=0.05, seed=11)
        states = streaming_run(imu.slice(0, 501), provider, corrector, cfg,
                               initial_state_from(traj))
        covs = covariance_spy.per_frame()
        assert len(covs) == 500
        np.testing.assert_allclose(covs, covs.transpose(0, 2, 1), atol=1e-9)
        assert np.linalg.eigvalsh(covs).min() >= -1e-9

    @pytest.mark.parametrize("sizes", [[1] * 61, [3, 1, 40, 2, 15], [61], [0, 3, 0, 58]])
    def test_blocks_into_a_sink_give_the_whole_run(self, noisy_fig8, sizes):
        # IMU blocks of any sizes, each pulled only when the filter needs
        # its frames, hand out pieces that concatenate to the whole run
        traj, imu, _, cfg = noisy_fig8
        imu = imu.slice(0, 61)
        rng = np.random.default_rng(6)
        d = 6 * 16
        corrector = LearnedAffineCorrector(
            weight=1e-5 * rng.standard_normal((d, 6)), bias=np.zeros(6),
            feat_mean=np.zeros(d), feat_scale=np.ones(d),
            raw_eta=inv_softplus(np.array([1e-2] * 3 + [1e-1] * 3)),
        )
        kind = RepresentationKind.BODY_PLUS_ATTITUDE

        def provider():
            return _SpyProvider(OracleProvider(traj, noise_std=0.05, seed=2), 8, kind=kind)

        whole = streaming_run(imu, provider(), corrector, cfg, initial_state_from(traj))
        pulled = [0]

        def blocks():
            for start in np.cumsum([0] + sizes[:-1]):
                block = imu.slice(start, start + sizes[len(pulled) - 1])
                pulled.append(pulled[-1] + len(block))
                yield block

        pieces, ends = [], []

        def sink(piece):
            pieces.append(piece)
            ends.append(pulled[-1])

        assert streaming_run(blocks(), provider(), corrector, cfg,
                             initial_state_from(traj), sink=sink) is None
        assert pulled[-1] == len(imu)
        for name in ("t", "r", "v", "p", "b_a", "b_g", "P_diag"):
            got = np.concatenate([getattr(piece, name) for piece in pieces])
            assert np.array_equal(got, getattr(whole, name)), name
        # a piece is handed out before any block past its frames is pulled
        # (the first one once the first two frames are, for the IMU rate)
        bounds = np.cumsum(sizes)
        stops = np.cumsum([len(piece) for piece in pieces])
        assert ends == [bounds[np.searchsorted(bounds, max(stop, 2))] for stop in stops]

    def test_one_frame_blocks_at_the_imu_rate_match_batch(self, noisy_fig8):
        # a window_len 1 corrector has no context: one-frame blocks are each
        # corrected by a one-row infer, batch_run corrects the stream at once
        traj, imu, _, _ = noisy_fig8
        imu = imu.slice(0, 121)
        rng = np.random.default_rng(13)
        corrector = LearnedAffineCorrector(
            weight=0.1 * rng.standard_normal((6, 6)), bias=0.01 * rng.standard_normal(6),
            feat_mean=rng.standard_normal(6), feat_scale=np.ones(6),
            raw_eta=inv_softplus(np.array([1e-2] * 3 + [1e-1] * 3)), window_len=1,
        )
        assert corrector.context == 0
        cfg = EkfConfig(update_rate=100.0)  # the IMU rate
        provider = OracleProvider(traj, noise_std=0.05, seed=2)
        x0 = initial_state_from(traj)
        blocks = (imu.slice(i, i + 1) for i in range(len(imu)))
        a = streaming_run(blocks, provider, corrector, cfg, x0)
        b = batch_run(imu, provider, corrector, cfg, x0)
        assert len(a) == len(b) == len(imu)
        for x, y in zip(run_arrays(a), run_arrays(b)):
            assert np.array_equal(x, y)

    def test_corrector_runs_once_per_block(self, noisy_fig8, monkeypatch):
        # each IMU block is corrected in one call, behind the corrector's
        # context, however many chunks its frames fall in
        traj, imu, _, cfg = noisy_fig8
        rng = np.random.default_rng(9)
        d = 6 * 16
        corrector = LearnedAffineCorrector(
            weight=1e-5 * rng.standard_normal((d, 6)), bias=np.zeros(6),
            feat_mean=np.zeros(d), feat_scale=np.ones(d),
            raw_eta=inv_softplus(np.array([1e-2] * 3 + [1e-1] * 3)),
        )
        windows = []

        def spy(model, window):
            windows.append(len(window))
            return correct_and_quantify(model, window)

        monkeypatch.setattr(ekf, "correct_and_quantify", spy)
        n, block = 801, 256
        blocks = [imu.slice(i, min(i + block, n)) for i in range(0, n, block)]
        run = streaming_run(iter(blocks), ConstantZeroProvider(), corrector, cfg,
                            initial_state_from(traj))
        assert len(run) == n
        assert 0 < len(windows) <= len(blocks) == 4
        assert sum(windows) <= n + (len(blocks) - 1) * corrector.context

    def test_memory_footprint(self, noisy_fig8):
        # every frame keeps P's diagonal, and no frame keeps a full P
        traj, imu, corrector, cfg = noisy_fig8
        n = 503
        run = streaming_run(imu.slice(0, n), ConstantZeroProvider(), corrector, cfg,
                            initial_state_from(traj))
        assert run.P_diag.shape == (n, 15)
        assert max(np.size(v) for v in vars(run).values()) == n * 15


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
    def test_streaming_matches_batch_exactly(self, noisy_fig8, covariance_spy):
        traj, imu, corrector, _ = noisy_fig8
        imu = imu.slice(0, 301)
        cfg = EkfConfig(update_rate=20.0)
        provider = NetworkProvider(perturbed_tiny_network())
        x0 = initial_state_from(traj)
        a = streaming_run(imu, provider, corrector, cfg, x0)
        a_covs = covariance_spy.per_frame()
        covariance_spy.reset()
        b = batch_run(imu, provider, corrector, cfg, x0)
        assert len(a) == len(b) == len(imu)
        for x, y in zip(run_arrays(a), run_arrays(b)):
            assert np.array_equal(x, y)
        assert np.array_equal(a_covs, covariance_spy.per_frame())
        # the measurements matter: an untrained network (v = 0) ends elsewhere
        fresh = MotionNet(provider.model.config)
        c = streaming_run(imu, NetworkProvider(fresh), corrector, cfg, x0)
        assert not np.array_equal(a.p[-1], c.p[-1])

    def test_network_never_runs_on_more_than_its_window(self, noisy_fig8):
        traj, imu, corrector, _ = noisy_fig8
        cfg = EkfConfig(update_rate=20.0)
        model = perturbed_tiny_network()
        steps = []
        forward_arrays = model.forward_arrays

        def spy_forward(imu_arr, att=None, **kw):
            steps.append(imu_arr.shape[1])
            return forward_arrays(imu_arr, att, **kw)

        model.forward_arrays = spy_forward
        spy = _SpyProvider(NetworkProvider(model), model.config.window)
        streaming_run(imu.slice(0, 101), spy, corrector, cfg, initial_state_from(traj))
        assert len(steps) == len(spy.windows) == 20
        assert max(steps) == model.config.window
        assert all(len(w) <= model.config.window for w in spy.windows)

    def test_streaming_memory_is_bounded_by_the_window(self, noisy_fig8, monkeypatch):
        # after each chunk the served store holds at most the provider's
        # window and the raw store the corrector's context plus the rest
        # of the last block pulled, each in an array at most twice that,
        # whatever the stream's length
        traj, imu, _, cfg = noisy_fig8
        rng = np.random.default_rng(8)
        d = 6 * 16
        corrector = LearnedAffineCorrector(
            weight=1e-5 * rng.standard_normal((d, 6)), bias=np.zeros(6),
            feat_mean=np.zeros(d), feat_scale=np.ones(d),
            raw_eta=inv_softplus(np.array([1e-2] * 3 + [1e-1] * 3)),
        )
        provider = NetworkProvider(perturbed_tiny_network())
        block = 7  # frames per block; chunks are 5 frames
        stores = []

        class SpyFrames(ekf._Frames):
            def __init__(self, width):
                super().__init__(width)
                stores.append(self)

        monkeypatch.setattr(ekf, "_Frames", SpyFrames)
        held = []

        def sink(piece):
            raw, served = stores  # made in this order
            held.append((raw.stop - raw.start, len(raw._buf),
                         served.stop - served.start, len(served._buf)))

        n = 301
        blocks = (imu.slice(i, min(i + block, n)) for i in range(0, n, block))
        streaming_run(blocks, provider, corrector, cfg, initial_state_from(traj), sink=sink)
        assert len(held) == 1 + (n - 1) // 5
        raw_bound = max(1, corrector.context) + block - 1
        m = provider.window_len
        for raw_rows, raw_alloc, served_rows, served_alloc in held:
            assert raw_rows <= raw_bound and raw_alloc <= 2 * raw_bound
            assert served_rows <= m and served_alloc <= 2 * m
        assert max(h[2] for h in held) == m  # the window did fill

    @pytest.mark.parametrize("make, window_len", [
        (lambda traj: ConstantZeroProvider(), 1),
        (lambda traj: OracleProvider(traj, noise_std=0.05, seed=2), 1),
        (lambda traj: NetworkProvider(perturbed_tiny_network()), 8),
    ], ids=["zero", "oracle", "network"])
    def test_served_frames_are_the_provider_window(self, noisy_fig8, make, window_len):
        traj, imu, corrector, cfg = noisy_fig8
        imu = imu.slice(0, 61)
        for runner in (streaming_run, batch_run):
            provider = make(traj)
            assert provider.window_len == window_len
            spy = _SpyProvider(provider, provider.window_len)
            runner(imu, spy, corrector, cfg, initial_state_from(traj))
            # min(window_len, frames so far) frames at each update frame i
            assert [len(w) for w in spy.windows] == [min(window_len, i + 1)
                                                     for i in range(5, 61, 5)]

    @pytest.mark.parametrize("runner", [streaming_run, batch_run])
    @pytest.mark.parametrize("kind", list(RepresentationKind), ids=lambda k: k.value)
    def test_served_windows_are_the_whole_stream_transformed(self, noisy_fig8, kind, runner):
        # each served window is, to the bit, the tail of one transform of the
        # whole corrected stream with the attitudes the filter had before
        # each update; the affine corrector reads 15 raw frames of context
        traj, imu, _, cfg = noisy_fig8
        imu = imu.slice(0, 101)
        rng = np.random.default_rng(4)
        d = 6 * 16
        corrector = LearnedAffineCorrector(
            weight=1e-5 * rng.standard_normal((d, 6)), bias=np.zeros(6),
            feat_mean=np.zeros(d), feat_scale=np.ones(d),
            raw_eta=inv_softplus(np.array([1e-2] * 3 + [1e-1] * 3)),
        )
        spy = _SpyProvider(OracleProvider(traj, noise_std=0.05, seed=2), 30, kind=kind)
        run = runner(imu, spy, corrector, cfg, initial_state_from(traj))

        corrected, _ = correct_and_quantify(corrector, imu)
        updates = range(5, len(imu), 5)
        rotations = run.r.copy()
        for i in updates:  # the update frame's row as propagated, before its update
            before = NavState(run.r[i - 1], run.v[i - 1], run.p[i - 1],
                              run.b_a[i - 1], run.b_g[i - 1])
            rotations[i] = propagate_state(
                before, corrected.w[i], corrected.a[i], imu.t[i] - imu.t[i - 1]
            ).r
        assert not np.array_equal(rotations, run.r)  # the updates did move attitudes
        stream = transform_representation(corrected, kind, rotations)
        assert len(spy.windows) == len(updates)
        for window, i in zip(spy.windows, updates):
            want = stream.slice(max(0, i + 1 - 30), i + 1)
            assert window.kind is kind
            for name in ("t", "w", "a"):
                assert np.array_equal(getattr(window, name), getattr(want, name)), (name, i)
            if kind.has_attitude:
                assert np.array_equal(window.attitudes, want.attitudes), i
            else:
                assert window.attitudes is None

    def test_tiny_buffer_streaming_matches_batch(self, noisy_fig8):
        # a provider window shorter than a chunk keeps only the chunk's newest frames
        traj, imu, corrector, _ = noisy_fig8
        imu = imu.slice(0, 61)
        cfg = EkfConfig(update_rate=20.0)
        runs = []
        for runner in (streaming_run, batch_run):
            spy = _SpyProvider(
                OracleProvider(traj, noise_std=0.05, seed=2), 3,
                kind=RepresentationKind.GLOBAL_PLUS_ATTITUDE,
            )
            runner(imu, spy, corrector, cfg, initial_state_from(traj))
            runs.append(spy.windows)
        for wa, wb in zip(*runs):
            assert len(wa) == 3
            for name in ("t", "w", "a", "attitudes"):
                assert np.array_equal(getattr(wa, name), getattr(wb, name))
