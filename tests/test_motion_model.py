"""Velocity network: losses, gradients, training, providers."""

import copy
import re
import tracemalloc

import numpy as np
import pytest
from reference import covariance_loss, huber_loss

from bodyframe_io.errors import ConfigError, DataError
from bodyframe_io.imu_model import (
    ImuWindow,
    RepresentationKind,
    transform_representation,
)
from bodyframe_io.motion_model import (
    ETA_MIN,
    HUBER_DELTA,
    ConstantZeroProvider,
    LossConfig,
    MotionNet,
    MotionNetConfig,
    NetworkProvider,
    OracleProvider,
    TrainConfig,
    VelocityMeasurement,
    WindowSet,
    combined_loss,
    oracle_predict,
    train_motion_model,
    velocity_windows,
)
from bodyframe_io.nn import Adam, Layer
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


def loss_of(v, truth, eta, lam=1e-4):
    """combined_loss's value alone."""
    return combined_loss(v, np.asarray(truth, dtype=float), eta, LossConfig(lam=lam))[0]


class TestHuberLoss:
    """The reference Huber loss, and combined_loss at lambda = 0 against it."""

    def test_zero_error(self):
        assert huber_loss(np.zeros(3), np.zeros(3)) == 0.0
        assert loss_of(np.zeros(3), np.zeros(3), np.ones(3), lam=0.0) == 0.0

    def test_quadratic_branch(self):
        # e = 0.001 < delta: 0.5 e^2
        assert huber_loss([0.001, 0, 0], [0, 0, 0]) == pytest.approx(5e-7, rel=1e-12)
        assert loss_of([0.001, 0, 0], np.zeros(3), np.ones(3), lam=0.0) == pytest.approx(
            5e-7, rel=1e-12)

    def test_linear_branch(self):
        # e = 0.01 > delta: delta (|e| - delta/2) = 0.005 * 0.0075
        assert huber_loss([0.01, 0, 0], [0, 0, 0]) == pytest.approx(3.75e-5, rel=1e-12)
        assert loss_of([0.01, 0, 0], np.zeros(3), np.ones(3), lam=0.0) == pytest.approx(
            3.75e-5, rel=1e-12)

    def test_sums_over_components(self):
        v = np.array([0.001, 0.01, -0.01])
        expected = 5e-7 + 2 * 3.75e-5
        assert huber_loss(v, np.zeros(3)) == pytest.approx(expected, rel=1e-12)
        assert loss_of(v, np.zeros(3), np.ones(3), lam=0.0) == pytest.approx(expected, rel=1e-12)

    def test_continuous_and_c1_at_corner(self):
        d = HUBER_DELTA
        # value continuity: both branch formulas agree at |e| = delta
        assert 0.5 * d * d == pytest.approx(d * (d - 0.5 * d), abs=1e-18)
        # derivative from each branch equals delta * sign(e) at the corner
        for e in (d, d + 1e-12, -d, -(d + 1e-12)):
            _, dv, _ = combined_loss(
                np.array([[e, 0.0, 0.0]]), np.zeros((1, 3)), np.ones((1, 3)),
                LossConfig(lam=0.0),
            )
            assert abs(dv[0, 0] - d * np.sign(e)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            huber_loss([np.nan, 0, 0], [0, 0, 0])


class TestCovarianceLoss:
    """The reference NLL core, and combined_loss's lambda term against it."""

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
        _, _, deta = combined_loss(
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
        assert loss_of(v, t, eta, lam=0.0) == pytest.approx(expected, rel=1e-14)

    def test_frozen_single_frame_value(self):
        # huber(0.01) = 3.75e-5 plus lambda=1e-4 times a covariance term of 1
        # (eta_x = sqrt(e) makes ln det = 1 up to the tiny Mahalanobis part).
        eta = np.array([np.sqrt(np.e), 1.0, 1.0])
        got = loss_of([[0.01, 0, 0]], [[0, 0, 0]], [eta])
        assert got == pytest.approx(1.375e-4, abs=1e-8)

    def test_equals_huber_plus_weighted_covariance(self):
        rng = np.random.default_rng(7)
        v = 0.02 * rng.standard_normal(3)
        t = 0.02 * rng.standard_normal(3)
        eta = np.abs(rng.standard_normal(3)) + 0.2
        expected = huber_loss(v, t) + 1e-4 * covariance_loss(v, t, eta)
        assert loss_of(v, t, eta) == pytest.approx(expected, rel=1e-14)

    def test_batching_linearity(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((2, 3))
        t = rng.standard_normal((2, 3))
        eta = np.abs(rng.standard_normal((2, 3))) + 0.2
        singles = [loss_of(v[i], t[i], eta[i]) for i in range(2)]
        assert loss_of(v, t, eta) == pytest.approx(np.mean(singles), rel=1e-14)


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
        with pytest.raises(DataError):  # a sequence can lack no attitude channel
            ImuWindow(t=full.t, w=full.w, a=full.a, kind=full.kind)
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

    @pytest.mark.parametrize("n, seed", [(5, 0), (38, 0), (19, 7)])
    def test_split_is_a_seeded_permutation_split(self, n, seed):
        ws = WindowSet(self.KIND, *self._arrays(n=n))
        train, val = ws.split(seed)
        order = np.random.default_rng(seed).permutation(n)
        n_val = max(1, int(round(0.2 * n)))
        for got, rows in ((val, order[:n_val]), (train, order[n_val:])):
            assert np.array_equal(got.imu, ws.imu[rows])
            assert np.array_equal(got.att, ws.att[rows])
            assert np.array_equal(got.v, ws.v[rows])

    def test_split_of_one_window_rejected(self):
        ws = WindowSet(self.KIND, *self._arrays())
        with pytest.raises(DataError):  # one window leaves nothing to train on
            ws[:1].split(0)


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
        # no window of the model's kind lacks the channel, nor can another
        # kind carry one past the kind check
        win, _ = tiny_window
        with pytest.raises(DataError, match="attitude channel"):
            ImuWindow(t=win.t, w=win.w, a=win.a, kind=RepresentationKind.BODY_PLUS_ATTITUDE)
        with pytest.raises(DataError, match="attitude channel"):
            ImuWindow(t=win.t, w=win.w, a=win.a, attitudes=win.attitudes)

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


def float64_copy(model):
    """The same network with its parameters cast to float64, which it
    then computes in."""
    twin = copy.deepcopy(model)
    twin.cast(np.float64)
    return twin


def analytic_gradients(model, imu, att, truth):
    """The parameter gradients of one training pass without dropout."""
    model.zero_grads()
    v, eta = model.forward_arrays(imu, att, train=True)
    _, dv, deta = combined_loss(v, truth, eta, LossConfig())
    model.backward_arrays(dv, deta)
    return model.gradients()


class TestGradients:
    @pytest.fixture
    def point(self):
        """A TINY network, every parameter re-randomized, and a batch.

        Heads are re-randomized too: at the zero-init point the loss is
        insensitive to everything upstream of the output layers and a
        gradient check would be vacuous there.
        """
        model = MotionNet(TINY)
        rng = np.random.default_rng(21)
        for p in model.parameters().values():
            p[...] = 0.3 * rng.standard_normal(p.shape)
        b, t = 2, 6
        imu = 0.5 * rng.standard_normal((b, t, 6))
        att = 0.5 * rng.standard_normal((b, t, 3))
        truth = 0.3 * rng.standard_normal((b, t, 3))
        return model, imu, att, truth

    def test_whole_model_matches_finite_differences(self, point):
        """End-to-end check of the hand-derived backward pass, on a
        float64 copy of the network: a central difference of step 1e-5
        needs float64 losses."""
        model, imu, att, truth = point
        model = float64_copy(model)
        params = model.parameters()
        cfg = LossConfig()

        def loss():
            v, eta = model.forward_arrays(imu, att, train=False)
            val, _, _ = combined_loss(v, truth, eta, cfg)
            return val

        grads = analytic_gradients(model, imu, att, truth)

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

    def test_float32_gradients_match_float64_ones(self, point):
        # the network's own float32 pass, at the same (float32) point as
        # its float64 copy: every gradient agrees to float32 precision,
        # relative to the largest entry of its array (4e-7 at worst here)
        model, imu, att, truth = point
        want = analytic_gradients(float64_copy(model), imu, att, truth)
        got = analytic_gradients(model, imu, att, truth)
        for name, g in got.items():
            assert g.dtype == np.float32, name
            err = np.abs(g - want[name]).max()
            assert err <= 1e-5 * np.abs(want[name]).max(), name


def held_arrays(obj):
    """The arrays a model or layer references outside its parameters,
    gradients and input normalization, through its layers too."""
    held = []
    for key, value in vars(obj).items():
        if key in ("params", "grads", "_norm", "_named"):
            continue
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Layer):
                held += held_arrays(item)
            elif isinstance(item, np.ndarray):
                held.append(item)
    return held


def training_batch(model, batch, time, seed=0):
    """A training forward_arrays on random windows; returns its (dv, deta)."""
    rng = np.random.default_rng(seed)
    imu, att = rng.standard_normal((batch, time, 6)), rng.standard_normal((batch, time, 3))
    v, eta = model.forward_arrays(imu, att, train=True, rng=rng)
    _, dv, deta = combined_loss(v, rng.standard_normal(v.shape), eta, LossConfig())
    return dv, deta


class TestSavedArrays:
    """Each layer holds what its backward reads from its forward to its
    backward only, and an evaluation pass holds nothing."""

    def test_backward_frees_every_saved_array(self):
        model = MotionNet(MotionNetConfig())  # dropout on
        dv, deta = training_batch(model, 2, 20)
        layers = [layer for _, layer in model._named] + [
            layer for layer in model._imu_stack + model._att_stack if not layer.params
        ] + [model._dropout, model._v_gelu, model._e_gelu]
        assert all(held_arrays(layer) for layer in layers)
        model.zero_grads()
        model.backward_arrays(dv, deta)
        assert held_arrays(model) == []

    def test_second_backward_and_backward_after_evaluation_raise(self, tiny_set):
        model = MotionNet(TINY)
        dv, deta = training_batch(model, 2, 8)
        model.backward_arrays(dv, deta)
        grads = {k: g.copy() for k, g in model.gradients().items()}
        with pytest.raises(RuntimeError, match="training forward_arrays"):
            model.backward_arrays(dv, deta)
        for k, g in model.gradients().items():  # nothing was added again
            assert np.array_equal(g, grads[k]), k
        training_batch(model, 2, 8)
        model.forward_arrays(tiny_set.imu, tiny_set.att, train=False)
        with pytest.raises(RuntimeError, match="an evaluation pass saves nothing"):
            model.backward_arrays(dv, deta)

    @pytest.mark.parametrize("run", [
        lambda model, win, s: model.forward_arrays(s.imu, s.att, train=False),
        lambda model, win, s: model.forward_arrays(s.imu, s.att, tail=1),
        lambda model, win, s: model.forward(win),
        lambda model, win, s: NetworkProvider(model).predict_window(win, 1),
        lambda model, win, s: NetworkProvider(model).predict_window(win, 8),
    ], ids=["forward_arrays", "tail", "forward", "predict_window 1", "predict_window 8"])
    def test_evaluation_passes_leave_nothing_saved(self, tiny_window, tiny_set, run):
        model = MotionNet(TINY)
        training_batch(model, 2, 8)  # something for the evaluation pass to drop
        run(model, tiny_window[0], tiny_set)
        assert held_arrays(model) == []

    def test_encode_saves_nothing(self, tiny_set):
        model = MotionNet(TINY)
        model.encode(tiny_set.imu, tiny_set.att)
        assert held_arrays(model) == []

    @staticmethod
    def memory_of_one_training_step(model, batch=16):
        """(held after forward, held after backward, backward's peak) in
        bytes, for a batch of windows of 200 frames."""
        model.zero_grads()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dv, deta = training_batch(model, batch, 200)
            held_forward = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            dx = model.backward_arrays(dv, deta)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dx.shape == (batch, 200, 6)
        return held_forward, held - base, peak - base

    @staticmethod
    def one_rebuild(model, batch):
        """The bytes one GRU direction's backward allocates for the whole
        window: its states, its input projection whose columns become the
        gates and then dgi, the n column of h W_h + b_h and h - n."""
        h = model.config.latent_dim // 2
        return 6 * 200 * batch * h * np.dtype(np.float32).itemsize

    def test_memory_held_through_one_training_step(self):
        # batch 16 and window 200, the benchmark's training step. A
        # backward that kept every saved array to its end would still
        # hold all of what forward left, and peak about 28% above it;
        # freeing each layer's arrays as its backward finishes peaks
        # about 10% above (7.9 MiB held after forward, 8.8 MiB peak).
        # The float32 network holds about half of what its float64 copy
        # does (15.5 MiB). The absolute bound holds only while each GRU
        # direction keeps only its input and its output, which holds its
        # states (the gates and candidates too held 12.6 MiB), and the
        # peak's only while backward rebuilds them for one direction at
        # a time, and frees what it no longer reads as it goes (14.1 MiB
        # peak when they were kept)
        model = MotionNet(MotionNetConfig())
        held_forward, held, peak = self.memory_of_one_training_step(model)
        held_forward_64, _, _ = self.memory_of_one_training_step(float64_copy(model))
        assert held_forward <= 0.55 * held_forward_64
        assert held < 0.05 * held_forward
        assert peak < 1.2 * held_forward
        assert peak - held_forward <= self.one_rebuild(model, 16)
        assert held_forward < 8.5 * 2**20

    def test_memory_held_through_one_training_step_at_batch_128(self):
        # the default batch: 63.5 MiB held after forward and 69.3 MiB peak
        # in backward (101.0 and 112.9 MiB when each GRU direction kept
        # its gates and candidates)
        model = MotionNet(MotionNetConfig())
        held_forward, held, peak = self.memory_of_one_training_step(model, batch=128)
        assert held < 0.05 * held_forward
        assert peak < 1.2 * held_forward
        assert peak - held_forward <= self.one_rebuild(model, 128)
        assert held_forward < 68 * 2**20
        assert peak < 75 * 2**20

    def test_training_step_stays_in_float32(self):
        # every array a training step saves, returns or updates is
        # float32 (or a boolean pattern): one float64 array, such as a
        # dropout mask, would promote each layer after it
        model = MotionNet(MotionNetConfig(window=20))  # dropout on
        opt = Adam(model.parameters())
        rng = np.random.default_rng(0)
        imu, att = rng.standard_normal((2, 20, 6)), rng.standard_normal((2, 20, 3))
        v, eta = model.forward_arrays(imu, att, train=True, rng=rng)
        saved = held_arrays(model)
        assert any(a.dtype == bool for a in saved)  # the dropout pattern is among them
        _, dv, deta = combined_loss(v, np.zeros(v.shape), eta, LossConfig())
        model.zero_grads()
        dx = model.backward_arrays(dv, deta)
        opt.step(model.gradients())
        arrays = [v, eta, dx, *saved, *model.parameters().values(),
                  *model.gradients().values(), *opt.m.values(), *opt.v.values()]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32), np.dtype(bool)}


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

    def test_validation_in_batches_equals_one_pass(self):
        # the validation loss runs at most batch_size windows per pass and
        # combines the chunks' losses as the mean over all frames: within
        # 1e-12 relative of one pass over the whole set (the sums run in
        # another order), and a set of one batch is that one pass to the bit.
        # A pass over one window may differ from a wider one in the last
        # float32 bit of a row, as BLAS takes another path for a single
        # row, so 7 windows at batch 3 are validated as 3 + 4, not 3 + 3 + 1
        rng = np.random.default_rng(8)

        def windows(n):
            return WindowSet(RepresentationKind.BODY_PLUS_ATTITUDE, rng.standard_normal((n, 8, 6)),
                             rng.standard_normal((n, 8, 3)), 0.3 * rng.standard_normal((n, 8, 3)))

        train, val8, val7 = windows(4), windows(8), windows(7)
        for val, batch_size in ((val8, 3), (val8, 8), (val7, 3)):
            model, history = train_motion_model(
                train, val, TINY, train_cfg=TrainConfig(epochs=1, batch_size=batch_size, seed=0)
            )
            v, eta = model.forward_arrays(val.imu, val.att)
            one_pass, _, _ = combined_loss(v, val.v, eta, LossConfig())
            (chunked,) = history["val_loss"]
            if batch_size < len(val):
                assert abs(chunked - one_pass) <= 1e-12 * abs(one_pass)
            else:
                assert chunked == one_pass

    def test_representation_mismatch_rejected(self, tiny_set):
        body = WindowSet(RepresentationKind.BODY, tiny_set.imu, None, tiny_set.v)
        with pytest.raises(DataError):
            train_motion_model(body, tiny_set, TINY)
        with pytest.raises(DataError):
            train_motion_model(tiny_set, body, TINY)


class TestRepresentationAblation:
    def test_kinds_of_one_layout_give_different_network_inputs(self):
        # Each kind must train a network of its own: after the per-channel
        # standardization the network applies, the inputs of two kinds with
        # the same channels must differ. A kind whose channels differ from
        # another's only by a constant per-channel offset fails here.
        spec = TrajectorySpec(
            kind=TrajectoryKind.LISSAJOUS3D, duration=10.0, imu_rate=50.0,
            rate=0.6, yaw_mode=YawMode.SPIN, yaw_rate=1.5,
        )
        inputs = {}
        for kind in RepresentationKind:
            windows = velocity_windows([simulated_sequence(spec, kind)], length=50, stride=25)
            model = MotionNet(MotionNetConfig(
                representation=kind, window=50, latent_dim=8,
                imu_encoder_channels=(8, 8), attitude_encoder_channels=(4, 4),
            ))
            model.set_normalization(windows.imu, windows.att)
            norm = model._norm
            channels = [(windows.imu - norm["imu_shift"]) / norm["imu_scale"]]
            if kind.has_attitude:
                channels.append((windows.att - norm["att_shift"]) / norm["att_scale"])
            inputs[kind] = np.concatenate(channels, axis=2)
        kinds = list(RepresentationKind)
        for i, first in enumerate(kinds):
            for second in kinds[i + 1:]:
                if first.has_attitude == second.has_attitude:
                    gap = float(np.abs(inputs[first] - inputs[second]).max())
                    assert gap > 1e-6, (first, second, gap)


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
        v, eta = ConstantZeroProvider().predict_window(win, 3)
        np.testing.assert_array_equal(v, np.zeros((3, 3)))
        np.testing.assert_array_equal(eta, np.full((3, 3), 1.0))  # m/s, the README's constant
        v, eta = ConstantZeroProvider().predict_window(win, 100)
        assert v.shape == eta.shape == (len(win), 3)

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
        # even a training pass saves nothing in a partial reverse scan
        model = MotionNet(TINY)
        model.forward_arrays(tiny_set.imu, tiny_set.att, train=True, tail=1)
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

    def test_load_draws_no_initial_weights(self, tiny_set, tmp_path, monkeypatch):
        # load builds the architecture without drawing the weights it
        # overwrites; save -> load -> save gives the same bytes
        from bodyframe_io import nn

        model, _ = train_motion_model(
            tiny_set, tiny_set, TINY,
            train_cfg=TrainConfig(epochs=1, lr=1e-3, batch_size=1, seed=0),
        )
        first, second = tmp_path / "a.bfw", tmp_path / "b.bfw"
        model.save(first)

        def no_draw(*args):
            raise AssertionError("load drew initial weights")

        monkeypatch.setattr(nn, "glorot", no_draw)
        monkeypatch.setattr(nn, "orthogonal", no_draw)
        MotionNet.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_float32_weights_round_trip_exactly(self, tiny_set, tmp_path):
        from bodyframe_io.weights_io import load_weights

        model, _ = train_motion_model(
            tiny_set, tiny_set, TINY,
            train_cfg=TrainConfig(epochs=1, lr=1e-3, batch_size=1, seed=0),
        )
        path = tmp_path / "net.bfw"
        model.save(path)
        _, _, stored = load_weights(path)
        again = MotionNet.load(path).parameters()
        for name, p in model.parameters().items():
            assert p.dtype == again[name].dtype == np.float32, name
            assert stored[name].dtype == np.float64, name
            assert np.array_equal(stored[name], p), name  # float32 held exactly
            assert np.array_equal(again[name], p), name

    def test_float64_weights_load_rounded(self, tiny_window, tmp_path):
        # a file an earlier float64 network wrote: every value is rounded
        # to float32, and the network serves finite rows
        from bodyframe_io.weights_io import load_weights, save_weights

        path = tmp_path / "net.bfw"
        MotionNet(TINY).save(path)
        variant, meta, arrays = load_weights(path)
        rng = np.random.default_rng(8)
        for name in arrays:
            if not name.startswith("norm."):
                arrays[name] = 0.3 * rng.standard_normal(arrays[name].shape)
        save_weights(path, variant, arrays, meta)
        model = MotionNet.load(path)
        for name, p in model.parameters().items():
            assert np.array_equal(p, arrays[name].astype(np.float32)), name
            assert not np.array_equal(p, arrays[name]), name  # rounded, not kept
        v, eta = NetworkProvider(model).predict_window(tiny_window[0], 8)
        assert v.dtype == eta.dtype == np.float64
        assert np.isfinite(v).all() and np.isfinite(eta).all()

    @pytest.mark.parametrize("value, message", [
        (np.nan, "array att_conv1.w must be finite"),
        (-np.inf, "array att_conv1.w must be finite"),
        (1e300, "weight att_conv1.w holds a value beyond float32 range"),
    ])
    def test_weight_float32_cannot_hold_rejected(self, tmp_path, value, message):
        from bodyframe_io.weights_io import load_weights, save_weights

        path = tmp_path / "net.bfw"
        MotionNet(TINY).save(path)
        variant, meta, arrays = load_weights(path)
        arrays["att_conv1.w"][1, 2, 3] = value
        save_weights(path, variant, arrays, meta)
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            MotionNet.load(path)

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
        {"representation": "GLOBAL_MINUS_GRAVITY"},  # a deleted kind
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
