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
    WindowSet,
    _combined_loss_grads,
    combined_loss,
    covariance_loss,
    huber_loss,
    oracle_predict,
    train_motion_model,
    velocity_windows,
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


def simulated_sequence(spec, kind):
    """A noiseless simulated run in representation kind, with its
    body-frame velocities: one velocity_windows input pair."""
    traj = generate_trajectory(spec)
    return transform_representation(derive_imu(traj), kind, traj.r), traj.body_velocities()


def window_rmse(model, windows):
    """Velocity RMSE of the model over a WindowSet, in one batch."""
    v, _ = model.forward_arrays(windows.imu, windows.att)
    return float(np.sqrt(np.mean(np.sum((v - windows.v) ** 2, axis=2))))


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
    """The first 8 frames of a slow figure-8 and their body velocities."""
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8, duration=0.5, imu_rate=20.0, rate=np.pi / 4
    )
    full, v_body = simulated_sequence(spec, RepresentationKind.BODY_PLUS_ATTITUDE)
    return full.slice(0, 8), v_body[:8]


@pytest.fixture(scope="module")
def tiny_set(tiny_window):
    return velocity_windows([tiny_window], 8, 1)


def per_window_reference(sequences, length, stride):
    """velocity_windows by slicing each window and stacking the slices."""
    imu, att, v = [], [], []
    for window, v_body in sequences:
        for lo in range(0, len(window) - length + 1, stride):
            hi = lo + length
            imu.append(np.concatenate([window.w[lo:hi], window.a[lo:hi]], axis=1))
            if window.attitudes is not None:
                att.append(window.attitudes[lo:hi])
            v.append(v_body[lo:hi])
    return np.stack(imu), np.stack(att) if att else None, np.stack(v)


class TestVelocityWindows:
    @staticmethod
    def _sequences(kind):
        """Three runs of 61, 41 and 7 frames; the last is shorter than a window."""
        out = []
        for curve, duration in ((TrajectoryKind.FIGURE8, 3.0), (TrajectoryKind.CIRCLE, 2.0),
                                (TrajectoryKind.LISSAJOUS3D, 0.3)):
            spec = TrajectorySpec(kind=curve, duration=duration, imu_rate=20.0, rate=0.6)
            out.append(simulated_sequence(spec, kind))
        assert [len(w) for w, _ in out] == [61, 41, 7]
        return out

    @pytest.mark.parametrize("kind", [RepresentationKind.BODY_PLUS_ATTITUDE,
                                      RepresentationKind.GLOBAL])
    @pytest.mark.parametrize("length, stride", [(10, 7), (8, 1), (41, 20)])
    def test_equals_per_window_slices(self, kind, length, stride):
        sequences = self._sequences(kind)
        got = velocity_windows(sequences, length, stride)
        imu, att, v = per_window_reference(sequences, length, stride)
        assert got.kind is kind and len(got) == len(imu)
        assert np.array_equal(got.imu, imu)
        assert np.array_equal(got.v, v)
        if kind.has_attitude:
            assert np.array_equal(got.att, att)
        else:
            assert got.att is None and att is None

    def test_rejects_bad_inputs(self):
        sequences = self._sequences(RepresentationKind.BODY_PLUS_ATTITUDE)
        (full, v_body), other = sequences[0], self._sequences(RepresentationKind.BODY)[1]
        with pytest.raises(DataError):  # no window of 62 frames fits
            velocity_windows(sequences, 62, 1)
        with pytest.raises(DataError):  # mixed representations
            velocity_windows([sequences[0], other], 8, 1)
        with pytest.raises(DataError):
            velocity_windows([], 8, 1)
        with pytest.raises(DataError):
            velocity_windows([(full, v_body[:-1])], 8, 1)
        naked = ImuWindow(t=full.t, w=full.w, a=full.a, kind=full.kind)
        with pytest.raises(DataError):
            velocity_windows([(naked, v_body)], 8, 1)
        for length, stride in ((0, 1), (8, 0), (8, -2)):
            with pytest.raises(ConfigError):
                velocity_windows(sequences, length, stride)


class TestWindowSet:
    KIND = RepresentationKind.BODY_PLUS_ATTITUDE

    @staticmethod
    def _arrays(n=5, t=4):
        rng = np.random.default_rng(0)
        return (rng.standard_normal((n, t, 6)), rng.standard_normal((n, t, 3)),
                rng.standard_normal((n, t, 3)))

    def test_rejects_disagreeing_shapes(self):
        imu, att, v = self._arrays()
        for bad in (
            (imu[:, :3], att, v),          # time lengths differ
            (imu[..., :5], att, v),        # five channels
            (imu, att[:4], v),             # window counts differ
            (imu, att, v[..., :2]),
            (imu[0], att[0], v[0]),        # not stacked
            (imu[:0], att[:0], v[:0]),     # empty
        ):
            with pytest.raises(DataError):
                WindowSet(self.KIND, *bad)

    def test_attitude_channel_must_match_kind(self):
        imu, att, v = self._arrays()
        with pytest.raises(DataError):
            WindowSet(self.KIND, imu, None, v)
        with pytest.raises(DataError):
            WindowSet(RepresentationKind.BODY, imu, att, v)
        assert WindowSet(RepresentationKind.BODY, imu, None, v).att is None

    def test_indexing_keeps_the_given_order(self):
        ws = WindowSet(self.KIND, *self._arrays())
        sub = ws[np.array([3, 0, 4])]
        assert np.array_equal(sub.imu, ws.imu[[3, 0, 4]])
        assert np.array_equal(sub.att, ws.att[[3, 0, 4]])
        assert np.array_equal(sub.v, ws.v[[3, 0, 4]])
        assert len(ws[:2]) == 2

    @pytest.mark.parametrize("n, frac, seed", [(5, 0.2, 0), (38, 0.2, 0), (19, 0.3, 7)])
    def test_split_is_a_seeded_permutation_split(self, n, frac, seed):
        ws = WindowSet(self.KIND, *self._arrays(n=n))
        train, val = ws.split(frac, seed)
        order = np.random.default_rng(seed).permutation(n)
        n_val = max(1, int(round(frac * n)))
        for got, rows in ((val, order[:n_val]), (train, order[n_val:])):
            assert np.array_equal(got.imu, ws.imu[rows])
            assert np.array_equal(got.att, ws.att[rows])
            assert np.array_equal(got.v, ws.v[rows])

    def test_split_rejects_bad_fractions(self):
        ws = WindowSet(self.KIND, *self._arrays())
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                ws.split(frac, 0)
        with pytest.raises(DataError):  # one window leaves nothing to train on
            ws[:1].split(0.5, 0)


class TestForwardContract:
    def test_output_shape_and_positivity(self, tiny_window):
        win, _ = tiny_window
        v, eta = MotionNet(TINY).forward(win)
        assert v.shape == eta.shape == (len(win), 3)
        assert np.all(eta > 0)

    def test_untrained_model_predicts_zero_velocity_unit_eta(self, tiny_window):
        win, _ = tiny_window
        v, eta = MotionNet(TINY).forward(win)
        np.testing.assert_array_equal(v, np.zeros((len(win), 3)))
        np.testing.assert_array_equal(eta, np.ones((len(win), 3)))

    def test_eval_mode_deterministic(self, tiny_window):
        win, _ = tiny_window
        model = MotionNet(TINY)
        for a, b in zip(model.forward(win), model.forward(win)):
            np.testing.assert_array_equal(a, b)

    def test_equals_forward_arrays_on_the_stacked_window(self, tiny_window, tiny_set):
        win, _ = tiny_window
        model = MotionNet(TINY)
        rng = np.random.default_rng(8)
        for p in model.parameters().values():
            p += 0.1 * rng.standard_normal(p.shape)
        v, eta = model.forward(win)
        v_ref, eta_ref = model.forward_arrays(tiny_set.imu, tiny_set.att)
        assert np.array_equal(v, v_ref[0]) and np.array_equal(eta, eta_ref[0])

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

    def test_latent_tap_shape(self, tiny_set):
        lat = MotionNet(TINY).encode(tiny_set.imu, tiny_set.att)
        assert lat.shape == (1, 8, 8 + 4)

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
            VelocityMeasurement(v_body=np.zeros(3), eta_v=np.array([1, 1, 0.0]))


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
        full, v_body = simulated_sequence(spec, RepresentationKind.BODY_PLUS_ATTITUDE)
        # 450 frames hold ten 40-frame windows 45 frames apart
        data = velocity_windows([(full.slice(0, 450), v_body[:450])], length=40, stride=45)
        assert len(data) == 10
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
        rmse = window_rmse(model, data)
        assert rmse < 0.05, f"training RMSE {rmse:.4f}"
        assert len(history["train_loss"]) == 200

    def test_fixed_seed_reproducible(self, tiny_set):
        kw = dict(
            cfg=TINY, train_cfg=TrainConfig(epochs=3, lr=1e-3, batch_size=1, seed=4)
        )
        m1, _ = train_motion_model(tiny_set, tiny_set, **kw)
        m2, _ = train_motion_model(tiny_set, tiny_set, **kw)
        p1, p2 = m1.parameters(), m2.parameters()
        assert set(p1) == set(p2)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_representation_mismatch_rejected(self, tiny_set):
        body = WindowSet(RepresentationKind.BODY, tiny_set.imu, None, tiny_set.v)
        with pytest.raises(DataError):
            train_motion_model(body, tiny_set, TINY)
        with pytest.raises(DataError):
            train_motion_model(tiny_set, body, TINY)


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

    @pytest.mark.parametrize("noise_std", [-0.1, np.nan])
    def test_negative_or_nan_noise_rejected(self, noise_std):
        with pytest.raises(ConfigError):
            oracle_predict(self._stationary(2), noise_std)


class TestProviders:
    def test_constant_zero(self, tiny_window):
        win, _ = tiny_window
        v, eta = ConstantZeroProvider(eta=0.5).predict_window(win, 3)
        np.testing.assert_array_equal(v, np.zeros((3, 3)))
        np.testing.assert_array_equal(eta, np.full((3, 3), 0.5))
        v, eta = ConstantZeroProvider().predict_window(win, 100)
        assert v.shape == eta.shape == (len(win), 3)

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan])
    def test_constant_zero_rejects_nonpositive_or_nan_eta(self, eta):
        with pytest.raises(ConfigError):
            ConstantZeroProvider(eta=eta)

    def test_oracle_provider_window_independent(self):
        spec = TrajectorySpec(kind=TrajectoryKind.CIRCLE, duration=2.0, imu_rate=50.0)
        traj = generate_trajectory(spec)
        imu = derive_imu(traj)
        provider = OracleProvider(traj, noise_std=0.02, seed=3)
        v1, _ = provider.predict_window(imu.slice(0, 60), 60)
        v2, _ = provider.predict_window(imu.slice(40, 80), 40)
        # overlapping frames 40..59 get the same draw from both windows
        assert v1.shape == (60, 3) and v2.shape == (40, 3)
        np.testing.assert_array_equal(v1[40:], v2[:20])

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
        v, eta = provider.predict_window(window, 45)
        assert v.shape == eta.shape == (45, 3)
        for row, t in enumerate(window.t[15:]):
            (j,) = [j for j in range(len(traj)) if abs(traj.t[j] - t) < 1e-9]
            assert np.array_equal(v[row], v_body[j])
            assert np.array_equal(eta[row], eta_v)

    def test_network_provider_serves_its_trained_window(self):
        spec = TrajectorySpec(
            kind=TrajectoryKind.FIGURE8, duration=2.0, imu_rate=20.0, rate=np.pi / 4
        )
        full, _ = simulated_sequence(spec, RepresentationKind.BODY_PLUS_ATTITUDE)
        win = full.slice(0, 20)
        model = MotionNet(TINY)
        rng = np.random.default_rng(8)
        for p in model.parameters().values():
            p += 0.1 * rng.standard_normal(p.shape)
        v, eta = NetworkProvider(model).predict_window(win, 3)
        v8, eta8 = model.forward(win.slice(12, 20))
        assert v.shape == eta.shape == (3, 3)
        assert np.array_equal(v, v8[-3:]) and np.array_equal(eta, eta8[-3:])
        # the whole window gives other outputs: the forward GRUs start earlier
        v_whole, _ = model.forward(win)
        assert not np.array_equal(v[0], v_whole[-3])

    def test_network_provider_tails_model_output(self, tiny_window):
        win, _ = tiny_window
        model = MotionNet(TINY)
        provider = NetworkProvider(model)
        assert provider.required_kind is RepresentationKind.BODY_PLUS_ATTITUDE
        v, eta = provider.predict_window(win, 3)
        v_full, eta_full = model.forward(win)
        np.testing.assert_array_equal(v, v_full[-3:])
        np.testing.assert_array_equal(eta, eta_full[-3:])


class TestTailServing:
    """The network computes only the newest rows it is asked for, and
    they equal the whole window's rows to the bit."""

    SPEC = TrajectorySpec(kind=TrajectoryKind.FIGURE8, duration=1.0, imu_rate=20.0,
                          rate=np.pi / 4)

    @pytest.fixture(scope="class")
    def model(self):
        model = MotionNet(TINY)
        rng = np.random.default_rng(9)
        for p in model.parameters().values():
            p += 0.1 * rng.standard_normal(p.shape)  # the output heads too
        return model

    @pytest.fixture(scope="class")
    def flight(self):
        return simulated_sequence(self.SPEC, RepresentationKind.BODY_PLUS_ATTITUDE)[0]

    # windows shorter than, equal to and longer than TINY.window = 8;
    # n_tail None asks for the whole window
    @pytest.mark.parametrize("n", [6, 8, 11])
    @pytest.mark.parametrize("n_tail", [1, 5, None])
    def test_model_tail_equals_full_forward(self, model, flight, n, n_tail):
        win = flight.slice(0, n)
        n_tail = n if n_tail is None else n_tail
        v, eta = model.forward(win, n_tail)
        v_full, eta_full = model.forward(win)
        assert v.shape == eta.shape == (n_tail, 3)
        assert np.array_equal(v, v_full[-n_tail:]) and np.array_equal(eta, eta_full[-n_tail:])
        assert np.any(v != 0.0) and np.any(eta != 1.0)

    @pytest.mark.parametrize("n", [6, 8, 11])
    @pytest.mark.parametrize("n_tail", [1, 5, None])
    def test_provider_tail_equals_full_forward(self, model, flight, n, n_tail):
        win = flight.slice(0, n)
        served = win.slice(max(0, n - TINY.window), n)  # the provider's trained window
        n_tail = len(served) if n_tail is None else n_tail
        v, eta = NetworkProvider(model).predict_window(win, n_tail)
        v_full, eta_full = model.forward(served)
        assert v.shape == eta.shape == (n_tail, 3)
        assert np.array_equal(v, v_full[-n_tail:]) and np.array_equal(eta, eta_full[-n_tail:])

    def test_backward_after_tail_forward_raises(self, tiny_set):
        model = MotionNet(TINY)
        model.forward_arrays(tiny_set.imu, tiny_set.att, tail=1)
        zeros = np.zeros(tiny_set.v.shape)
        with pytest.raises(RuntimeError, match="partial"):
            model.backward_arrays(zeros, zeros)

    @pytest.mark.parametrize("make", [
        lambda traj: ConstantZeroProvider(),
        lambda traj: OracleProvider(traj, noise_std=0.01, seed=0),
        lambda traj: NetworkProvider(MotionNet(TINY)),
    ], ids=["zero", "oracle", "network"])
    @pytest.mark.parametrize("n_tail", [0, -1])
    def test_non_positive_n_tail_rejected(self, flight, make, n_tail):
        provider = make(generate_trajectory(self.SPEC))
        with pytest.raises(ConfigError, match="n_tail"):
            provider.predict_window(flight.slice(0, 8), n_tail)


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_window, tiny_set, tmp_path):
        win, _ = tiny_window
        model, _ = train_motion_model(
            tiny_set, tiny_set, TINY,
            train_cfg=TrainConfig(epochs=2, lr=1e-3, batch_size=1, seed=0),
        )
        path = tmp_path / "net.bfw"
        model.save(path)
        again = MotionNet.load(path)
        for a, b in zip(model.forward(win), again.forward(win)):
            np.testing.assert_array_equal(a, b)

    def test_wrong_variant_rejected(self, tmp_path):
        from bodyframe_io.corrector import IdentityCorrector  # noqa: F401
        from bodyframe_io.weights_io import save_weights

        path = tmp_path / "other.bfw"
        save_weights(path, "affine-corrector-v1", {"w": np.zeros(3)}, {})
        with pytest.raises(DataError):
            MotionNet.load(path)

    def test_meta_holds_every_config_field(self, tmp_path):
        from dataclasses import asdict

        from bodyframe_io.weights_io import load_weights

        path = tmp_path / "net.bfw"
        MotionNet(TINY).save(path)
        _, meta, _ = load_weights(path)
        expected = asdict(TINY)
        expected["representation"] = TINY.representation.name
        expected["imu_encoder_channels"] = list(TINY.imu_encoder_channels)
        expected["attitude_encoder_channels"] = list(TINY.attitude_encoder_channels)
        assert meta == expected
        assert MotionNet.load(path).config == TINY

    @pytest.mark.parametrize("edit", [
        {"kernel": None},  # missing
        {"stride": 3},  # unknown
        {"window": "wide"},  # not a number
        {"window": 8.7},  # not an integer
        {"kernel": 3.9},
        {"seed": True},  # a bool is not an integer
        {"gru_layers": "2"},
        {"imu_encoder_channels": [8, 8.0]},  # not a list of integers
        {"attitude_encoder_channels": [4, True]},
        {"dropout_p": "0.5"},  # not a number
        {"dropout_p": False},
        {"imu_encoder_channels": 4},  # not a list
        {"representation": "SONAR"},  # not a kind
        {"latent_dim": 63},  # an architecture MotionNetConfig rejects
    ])
    def test_bad_meta_rejected(self, tmp_path, edit):
        from bodyframe_io.weights_io import load_weights, save_weights

        path = tmp_path / "net.bfw"
        MotionNet(TINY).save(path)
        variant, meta, arrays = load_weights(path)
        for key, value in edit.items():
            if value is None:
                del meta[key]
            else:
                meta[key] = value
        save_weights(path, variant, arrays, meta)
        with pytest.raises(DataError, match="meta"):
            MotionNet.load(path)
