"""Velocity network: losses, gradients, training, providers."""

import numpy as np
import pytest

from bodyframe_io.errors import ConfigError, DataError
from bodyframe_io.imu_model import (
    ImuWindow,
    RepresentationKind,
    transform_representation,
)
from bodyframe_io.motion_model import (
    ETA_MIN,
    ConstantZeroProvider,
    LossConfig,
    MotionNet,
    MotionNetConfig,
    NetworkProvider,
    OracleProvider,
    TrainConfig,
    VelocityMeasurement,
    _combined_loss_grads,
    combined_loss,
    covariance_loss,
    huber_loss,
    oracle_predict,
    train_motion_model,
)
from bodyframe_io.simulator import (
    Trajectory,
    TrajectoryKind,
    TrajectorySpec,
    YawMode,
    derive_imu,
    generate_trajectory,
)

TINY = MotionNetConfig(
    representation=RepresentationKind.BODY_PLUS_ATTITUDE,
    window=8,
    latent_dim=8,
    gru_layers=2,
    imu_encoder_channels=(8, 8),
    attitude_encoder_channels=(4, 4),
    dropout_p=0.0,
    kernel=3,
    seed=3,
)


def velocity_dataset(spec, kind, n_windows, length, stride):
    """Chop a noiseless simulated run into (window, body-velocity) pairs."""
    traj = generate_trajectory(spec)
    imu = derive_imu(traj)
    rots = traj.r
    v_body = traj.body_velocities()
    out = []
    for k in range(n_windows):
        lo = k * stride
        hi = lo + length
        if hi > len(traj):
            raise AssertionError("trajectory too short for requested windows")
        win = transform_representation(imu.slice(lo, hi), kind, rots[lo:hi])
        out.append((win, v_body[lo:hi]))
    return out


def dataset_rmse(model, dataset):
    errs = []
    for win, v_true in dataset:
        v = np.array([m.v_body for m in model.forward(win)])
        errs.append(np.sum((v - v_true) ** 2, axis=1))
    return float(np.sqrt(np.mean(np.concatenate(errs))))


class TestHuberLoss:
    def test_zero_error(self):
        assert huber_loss(np.zeros(3), np.zeros(3)) == 0.0

    def test_quadratic_branch(self):
        # e = 0.001 < delta: 0.5 e^2
        assert huber_loss([0.001, 0, 0], [0, 0, 0]) == pytest.approx(5e-7, rel=1e-12)

    def test_linear_branch(self):
        # e = 0.01 > delta: delta (|e| - delta/2) = 0.005 * 0.0075
        assert huber_loss([0.01, 0, 0], [0, 0, 0]) == pytest.approx(3.75e-5, rel=1e-12)

    def test_sums_over_components(self):
        v = np.array([0.001, 0.01, -0.01])
        expected = 5e-7 + 2 * 3.75e-5
        assert huber_loss(v, np.zeros(3)) == pytest.approx(expected, rel=1e-12)

    def test_continuous_and_c1_at_corner(self):
        d = 0.005
        # value continuity: both branch formulas agree at |e| = delta
        assert 0.5 * d * d == pytest.approx(d * (d - 0.5 * d), abs=1e-18)
        # derivative from each branch equals delta * sign(e) at the corner
        for e in (d, d + 1e-12, -d, -(d + 1e-12)):
            _, dv, _ = _combined_loss_grads(
                np.array([[e, 0.0, 0.0]]), np.zeros((1, 3)), np.ones((1, 3)),
                LossConfig(lam=0.0),
            )
            assert abs(dv[0, 0] - d * np.sign(e)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            huber_loss([np.nan, 0, 0], [0, 0, 0])


class TestCovarianceLoss:
    def test_zero_error_unit_eta(self):
        assert covariance_loss(np.zeros(3), np.zeros(3), np.ones(3)) == 0.0

    def test_unit_mahalanobis(self):
        assert covariance_loss([1, 0, 0], [0, 0, 0], [1, 1, 1]) == pytest.approx(1.0)

    def test_formula_oracle(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal(3)
        eta = np.abs(rng.standard_normal(3)) + 0.1
        expected = float(np.sum(e**2 / eta**2) + np.sum(np.log(eta**2)))
        assert covariance_loss(e, np.zeros(3), eta) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(DataError):
            covariance_loss([0.1, 0, 0], [0, 0, 0], [1, 0, 1])

    def test_minimized_where_eta_matches_error(self):
        # For fixed e, d/d eta vanishes at eta = |e| and the point is a minimum.
        e = 0.3
        etas = np.linspace(0.05, 1.0, 400)
        vals = [covariance_loss([e, 0, 0], [0, 0, 0], [x, 1, 1]) for x in etas]
        assert abs(etas[int(np.argmin(vals))] - e) < 0.005
        _, _, deta = _combined_loss_grads(
            np.array([[e, 0.0, 0.0]]), np.zeros((1, 3)),
            np.array([[e, 1.0, 1.0]]), LossConfig(lam=1.0),
        )
        assert abs(deta[0, 0]) < 1e-12


class TestCombinedLoss:
    def test_zero_lambda_is_mean_huber(self):
        rng = np.random.default_rng(6)
        v = 0.01 * rng.standard_normal((5, 3))
        t = 0.01 * rng.standard_normal((5, 3))
        eta = np.ones((5, 3))
        expected = np.mean([huber_loss(v[i], t[i]) for i in range(5)])
        got = combined_loss(v, t, eta, LossConfig(lam=0.0))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_frozen_single_frame_value(self):
        # huber(0.01) = 3.75e-5 plus lambda=1e-4 times a covariance term of 1
        # (eta_x = sqrt(e) makes ln det = 1 up to the tiny Mahalanobis part).
        eta = np.array([np.sqrt(np.e), 1.0, 1.0])
        got = combined_loss([[0.01, 0, 0]], [[0, 0, 0]], [eta])
        assert got == pytest.approx(1.375e-4, abs=1e-8)

    def test_equals_huber_plus_weighted_covariance(self):
        rng = np.random.default_rng(7)
        v = 0.02 * rng.standard_normal(3)
        t = 0.02 * rng.standard_normal(3)
        eta = np.abs(rng.standard_normal(3)) + 0.2
        expected = huber_loss(v, t) + 1e-4 * covariance_loss(v, t, eta)
        assert combined_loss(v, t, eta) == pytest.approx(expected, rel=1e-14)

    def test_batching_linearity(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((2, 3))
        t = rng.standard_normal((2, 3))
        eta = np.abs(rng.standard_normal((2, 3))) + 0.2
        singles = [combined_loss(v[i], t[i], eta[i]) for i in range(2)]
        assert combined_loss(v, t, eta) == pytest.approx(np.mean(singles), rel=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            combined_loss(np.zeros((2, 3)), np.zeros((3, 3)), np.ones((2, 3)))


@pytest.fixture(scope="module")
def tiny_window():
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8, duration=0.5, imu_rate=20.0, rate=np.pi / 4
    )
    data = velocity_dataset(spec, RepresentationKind.BODY_PLUS_ATTITUDE, 1, 8, 1)
    return data[0]


class TestForwardContract:
    def test_output_shape_and_positivity(self, tiny_window):
        win, _ = tiny_window
        out = MotionNet(TINY).forward(win)
        assert len(out) == len(win)
        assert all(np.all(m.eta_v > 0) for m in out)
        assert out[0].t == win.t[0] and out[-1].t == win.t[-1]

    def test_untrained_model_predicts_zero_velocity_unit_eta(self, tiny_window):
        win, _ = tiny_window
        for m in MotionNet(TINY).forward(win):
            np.testing.assert_array_equal(m.v_body, np.zeros(3))
            np.testing.assert_array_equal(m.eta_v, np.ones(3))

    def test_eval_mode_deterministic(self, tiny_window):
        win, _ = tiny_window
        model = MotionNet(TINY)
        a = model.forward(win)
        b = model.forward(win)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.v_body, mb.v_body)
            np.testing.assert_array_equal(ma.eta_v, mb.eta_v)

    def test_wrong_representation_rejected(self, tiny_window):
        win, _ = tiny_window
        body = ImuWindow(t=win.t, w=win.w, a=win.a, kind=RepresentationKind.BODY)
        with pytest.raises(DataError):
            MotionNet(TINY).forward(body)

    def test_missing_attitude_channel_rejected(self, tiny_window):
        win, _ = tiny_window
        naked = ImuWindow(
            t=win.t, w=win.w, a=win.a, kind=RepresentationKind.BODY_PLUS_ATTITUDE
        )
        with pytest.raises(DataError):
            MotionNet(TINY).forward(naked)

    def test_latent_tap_shape(self, tiny_window):
        win, _ = tiny_window
        lat = MotionNet(TINY).latents(win)
        assert lat.shape == (len(win), 8 + 4)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MotionNet(MotionNetConfig(latent_dim=7))
        with pytest.raises(ConfigError):
            MotionNet(MotionNetConfig(dropout_p=1.0))
        with pytest.raises(ConfigError):
            MotionNet(MotionNetConfig(kernel=4))
        with pytest.raises(ConfigError):
            MotionNet(MotionNetConfig(gru_layers=0))

    def test_measurement_validation(self):
        with pytest.raises(DataError):
            VelocityMeasurement(t=0.0, v_body=np.zeros(3), eta_v=np.array([1, 1, 0.0]))


class TestGradients:
    def test_whole_model_matches_finite_differences(self):
        """End-to-end check of the hand-derived backward pass.

        Heads are re-randomized first: at the zero-init point the loss
        is insensitive to everything upstream of the output layers and
        the check would be vacuous there.
        """
        model = MotionNet(TINY)
        rng = np.random.default_rng(21)
        params = model.parameters()
        for p in params.values():
            p[...] = 0.3 * rng.standard_normal(p.shape)

        b, t = 2, 6
        imu = 0.5 * rng.standard_normal((b, t, 6))
        att = 0.5 * rng.standard_normal((b, t, 3))
        truth = 0.3 * rng.standard_normal((b, t, 3))
        cfg = LossConfig()

        def loss():
            v, eta = model.forward_arrays(imu, att, train=False)
            val, _, _ = _combined_loss_grads(v, truth, eta, cfg)
            return val

        model.zero_grads()
        v, eta = model.forward_arrays(imu, att, train=False)
        _, dv, deta = _combined_loss_grads(v, truth, eta, cfg)
        model.backward_arrays(dv, deta)
        grads = model.gradients()

        step = 1e-5
        worst = 0.0
        for name, p in params.items():
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                lp = loss()
                p[idx] = orig - step
                lm = loss()
                p[idx] = orig
                fd[idx] = (lp - lm) / (2.0 * step)
            rel = np.abs(grads[name] - fd) / (np.abs(grads[name]) + np.abs(fd) + 1e-6)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-3


class TestTraining:
    def test_overfits_small_dataset(self):
        spec = TrajectorySpec(
            kind=TrajectoryKind.FIGURE8,
            duration=25.0,
            imu_rate=20.0,
            rate=np.pi / 4,
            yaw_mode=YawMode.FOLLOW_VELOCITY,
        )
        data = velocity_dataset(
            spec, RepresentationKind.BODY_PLUS_ATTITUDE, n_windows=10, length=40, stride=45
        )
        cfg = MotionNetConfig(
            representation=RepresentationKind.BODY_PLUS_ATTITUDE,
            window=40,
            latent_dim=16,
            gru_layers=2,
            imu_encoder_channels=(8, 16),
            attitude_encoder_channels=(4, 8),
            dropout_p=0.0,
            kernel=5,
            seed=0,
        )
        model, history = train_motion_model(
            data, data, cfg,
            train_cfg=TrainConfig(epochs=200, lr=0.01, batch_size=2, seed=0),
        )
        rmse = dataset_rmse(model, data)
        assert rmse < 0.05, f"training RMSE {rmse:.4f}"
        assert len(history["train_loss"]) == 200

    def test_fixed_seed_reproducible(self, tiny_window):
        win, v = tiny_window
        data = [(win, v)]
        kw = dict(
            cfg=TINY, train_cfg=TrainConfig(epochs=3, lr=1e-3, batch_size=1, seed=4)
        )
        m1, _ = train_motion_model(data, data, **kw)
        m2, _ = train_motion_model(data, data, **kw)
        p1, p2 = m1.parameters(), m2.parameters()
        assert set(p1) == set(p2)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_empty_dataset_rejected(self, tiny_window):
        with pytest.raises(DataError):
            train_motion_model([], [tiny_window], TINY)

    def test_mixed_window_lengths_rejected(self, tiny_window):
        win, v = tiny_window
        short = (win.slice(0, 5), v[:5])
        with pytest.raises(DataError):
            train_motion_model([(win, v), short], [(win, v)], TINY)


class TestOraclePredict:
    @staticmethod
    def _stationary(n):
        return Trajectory(
            t=0.01 * np.arange(n), r=np.tile(np.eye(3), (n, 1, 1)),
            v=np.zeros((n, 3)), p=np.zeros((n, 3)),
        )

    def test_noiseless_is_exact_body_velocity(self):
        spec = TrajectorySpec(kind=TrajectoryKind.CIRCLE, duration=1.0, imu_rate=50.0)
        traj = generate_trajectory(spec)
        v_body, eta_v = oracle_predict(traj, noise_std=0.0, seed=1)
        for r, v, m in zip(traj.r, traj.v, v_body):
            np.testing.assert_allclose(m, r.T @ v, atol=1e-15)
        np.testing.assert_array_equal(eta_v, np.full(3, ETA_MIN))

    def test_noise_std_matches_request(self):
        draws, eta_v = oracle_predict(self._stationary(100_000), noise_std=0.1, seed=2)
        assert abs(draws.std() - 0.1) / 0.1 < 0.05
        np.testing.assert_array_equal(eta_v, np.full(3, 0.1))

    def test_seed_reproducible(self):
        t = self._stationary(10)
        a, _ = oracle_predict(t, 0.05, seed=9)
        b, _ = oracle_predict(t, 0.05, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_noise_equals_per_row_draws(self):
        spec = TrajectorySpec(kind=TrajectoryKind.CIRCLE, duration=1.0, imu_rate=50.0)
        traj = generate_trajectory(spec)
        v_body, _ = oracle_predict(traj, noise_std=0.05, seed=4)
        rng = np.random.default_rng(4)
        reference = [r.T @ v + 0.05 * rng.standard_normal(3) for r, v in zip(traj.r, traj.v)]
        assert np.array_equal(v_body, np.array(reference))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            oracle_predict(self._stationary(2), -0.1)


class TestProviders:
    def test_constant_zero(self, tiny_window):
        win, _ = tiny_window
        out = ConstantZeroProvider(eta=0.5).predict_window(win, 3)
        assert len(out) == 3
        for m in out:
            np.testing.assert_array_equal(m.v_body, np.zeros(3))
            np.testing.assert_array_equal(m.eta_v, np.full(3, 0.5))
        assert out[-1].t == win.t[-1]

    def test_oracle_provider_window_independent(self):
        spec = TrajectorySpec(kind=TrajectoryKind.CIRCLE, duration=2.0, imu_rate=50.0)
        traj = generate_trajectory(spec)
        imu = derive_imu(traj)
        provider = OracleProvider(traj, noise_std=0.02, seed=3)
        w1 = imu.slice(0, 60)
        w2 = imu.slice(40, 80)
        m1 = provider.predict_window(w1, 60)
        m2 = provider.predict_window(w2, 40)
        # overlapping frames 40..59 get the same draw from both windows
        for i in range(20):
            np.testing.assert_array_equal(m1[40 + i].v_body, m2[i].v_body)

    def test_oracle_provider_unknown_time_rejected(self):
        spec = TrajectorySpec(kind=TrajectoryKind.CIRCLE, duration=1.0, imu_rate=50.0)
        traj = generate_trajectory(spec)
        provider = OracleProvider(traj, noise_std=0.0, seed=0)
        bogus = ImuWindow(
            t=np.array([0.001, 0.0015]), w=np.zeros((2, 3)), a=np.zeros((2, 3)),
            kind=RepresentationKind.BODY,
        )
        with pytest.raises(DataError):
            provider.predict_window(bogus, 2)

    def test_oracle_provider_equals_per_stamp_lookup(self):
        spec = TrajectorySpec(kind=TrajectoryKind.CIRCLE, duration=2.0, imu_rate=50.0)
        traj = generate_trajectory(spec)
        provider = OracleProvider(traj, noise_std=0.02, seed=5)
        v_body, eta_v = oracle_predict(traj, 0.02, seed=5)
        # stamps off the truth grid by less than the 1e-9 s match tolerance
        jitter = np.random.default_rng(6).uniform(-5e-10, 5e-10, len(traj))
        imu = derive_imu(traj)
        window = ImuWindow(t=traj.t + jitter, w=imu.w, a=imu.a).slice(10, 70)
        got = provider.predict_window(window, 45)
        assert len(got) == 45
        for m, t in zip(got, window.t[15:]):
            (j,) = [j for j in range(len(traj)) if abs(traj.t[j] - t) < 1e-9]
            assert m.t == traj.t[j]
            assert np.array_equal(m.v_body, v_body[j])
            assert np.array_equal(m.eta_v, eta_v)

    def test_network_provider_serves_its_trained_window(self):
        spec = TrajectorySpec(
            kind=TrajectoryKind.FIGURE8, duration=2.0, imu_rate=20.0, rate=np.pi / 4
        )
        (win, _), = velocity_dataset(spec, RepresentationKind.BODY_PLUS_ATTITUDE, 1, 20, 1)
        model = MotionNet(TINY)
        rng = np.random.default_rng(8)
        for p in model.parameters().values():
            p += 0.1 * rng.standard_normal(p.shape)
        tail = NetworkProvider(model).predict_window(win, 3)
        last8 = model.forward(win.slice(12, 20))
        assert len(tail) == 3
        for a, b in zip(tail, last8[-3:]):
            assert a.t == b.t
            assert np.array_equal(a.v_body, b.v_body)
            assert np.array_equal(a.eta_v, b.eta_v)
        # the whole window gives other outputs: the forward GRUs start earlier
        whole = model.forward(win)
        assert not np.array_equal(tail[0].v_body, whole[-3].v_body)

    def test_network_provider_tails_model_output(self, tiny_window):
        win, _ = tiny_window
        model = MotionNet(TINY)
        provider = NetworkProvider(model)
        assert provider.required_kind is RepresentationKind.BODY_PLUS_ATTITUDE
        tail = provider.predict_window(win, 3)
        full = model.forward(win)
        assert len(tail) == 3
        for a, b in zip(tail, full[-3:]):
            np.testing.assert_array_equal(a.v_body, b.v_body)


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_window, tmp_path):
        win, v = tiny_window
        model, _ = train_motion_model(
            [(win, v)], [(win, v)], TINY,
            train_cfg=TrainConfig(epochs=2, lr=1e-3, batch_size=1, seed=0),
        )
        path = tmp_path / "net.bfw"
        model.save(path)
        again = MotionNet.load(path)
        a = model.forward(win)
        b = again.forward(win)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.v_body, mb.v_body)
            np.testing.assert_array_equal(ma.eta_v, mb.eta_v)

    def test_wrong_variant_rejected(self, tmp_path):
        from bodyframe_io.corrector import IdentityCorrector  # noqa: F401
        from bodyframe_io.weights_io import save_weights

        path = tmp_path / "other.bfw"
        save_weights(path, "affine-corrector-v1", {"w": np.zeros(3)}, {})
        with pytest.raises(DataError):
            MotionNet.load(path)
