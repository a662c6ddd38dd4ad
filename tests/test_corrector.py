import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodyframe_io.corrector import (
    IdentityCorrector,
    LearnedAffineCorrector,
    correct_and_quantify,
    train_corrector,
)
from bodyframe_io.errors import ConfigError, DataError
from bodyframe_io.imu_model import ImuWindow, RepresentationKind
from bodyframe_io.preintegration import NavState, dead_reckon
from bodyframe_io.simulator import (
    NoiseSpec,
    TrajectoryKind,
    TrajectorySpec,
    corrupt_imu,
    derive_imu,
    generate_trajectory,
)


@pytest.fixture(scope="module")
def biased_sequence():
    """30 s figure-eight with a constant accelerometer bias and a touch
    of white noise."""
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8,
        duration=30.0,
        imu_rate=50.0,
        amplitude=2.0,
        rate=0.5,
    )
    traj = generate_trajectory(spec)
    clean = derive_imu(traj)
    noisy, bias = corrupt_imu(
        clean,
        NoiseSpec(sigma_g=1e-4, sigma_a=1e-3, b_a0=(0.2, 0.0, 0.0), seed=7),
    )
    return traj, clean, noisy, bias


@pytest.fixture(scope="module")
def trained(biased_sequence):
    _, _, noisy, bias = biased_sequence
    model, mse = train_corrector([(noisy, bias.b_g, bias.b_a)])
    return model, mse, noisy


class TestIdentity:
    def test_needs_no_context(self):
        assert IdentityCorrector().context == 0

    def test_leaves_readings_unchanged(self):
        rng = np.random.default_rng(41)
        window = ImuWindow(
            t=np.arange(10) * 0.01,
            w=rng.normal(size=(10, 3)),
            a=rng.normal(size=(10, 3)),
        )
        corrected, out = correct_and_quantify(IdentityCorrector(), window)
        np.testing.assert_array_equal(corrected.w, window.w)
        np.testing.assert_array_equal(corrected.a, window.a)
        np.testing.assert_array_equal(out.gyro_correction, np.zeros((10, 3)))

    def test_constant_configured_uncertainties(self):
        window = ImuWindow(t=[0.0, 0.01], w=np.zeros((2, 3)), a=np.zeros((2, 3)))
        _, out = correct_and_quantify(IdentityCorrector(eta_g=2e-3, eta_a=0.05), window)
        np.testing.assert_array_equal(out.eta_g, np.full((2, 3), 2e-3))
        np.testing.assert_array_equal(out.eta_a, np.full((2, 3), 0.05))

    @pytest.mark.parametrize("field", ["eta_g", "eta_a"])
    def test_nan_uncertainty_output_rejected(self, field):
        # a corrector whose stds turn NaN after construction: NaN is not positive
        corrector = IdentityCorrector()
        getattr(corrector, field)[1] = np.nan
        window = ImuWindow(t=np.arange(4) * 0.01, w=np.zeros((4, 3)), a=np.zeros((4, 3)))
        with pytest.raises(DataError, match="uncertainty that is not positive"):
            correct_and_quantify(corrector, window)

    def test_nan_raw_eta_rejected(self):
        with pytest.raises(DataError, match="raw_eta must be finite"):
            LearnedAffineCorrector(
                weight=np.zeros((96, 6)), bias=np.zeros(6), feat_mean=np.zeros(96),
                feat_scale=np.ones(96), raw_eta=np.array([np.nan] + [0.0] * 5),
            )

    def test_rejects_nonpositive_uncertainty(self):
        with pytest.raises(ConfigError):
            IdentityCorrector(eta_g=0.0)

    @pytest.mark.parametrize(
        "kind", [k for k in RepresentationKind if k is not RepresentationKind.BODY]
    )
    def test_rejects_non_body_window(self, kind):
        # corrections are body-frame ones: a re-expressed window takes none
        zeros = np.zeros((2, 3))
        window = ImuWindow(t=[0.0, 0.01], w=zeros, a=zeros, kind=kind,
                           attitudes=zeros if kind.has_attitude else None)
        with pytest.raises(DataError, match="BODY"):
            correct_and_quantify(IdentityCorrector(), window)


class TestTraining:
    def test_recovers_constant_bias(self, trained):
        model, _, window = trained
        _, out = correct_and_quantify(model, window)
        mean_accel_corr = out.accel_correction.mean(axis=0)
        np.testing.assert_allclose(mean_accel_corr, [-0.2, 0.0, 0.0], atol=0.02)

    def test_uncertainties_strictly_positive(self, trained):
        model, _, window = trained
        _, out = correct_and_quantify(model, window)
        assert np.all(out.eta_g > 0)
        assert np.all(out.eta_a > 0)

    def test_correction_halves_dead_reckoning_drift(self, biased_sequence, trained):
        traj, _, noisy, _ = biased_sequence
        model, _, window = trained
        x0 = NavState(traj.r[0], traj.v[0], traj.p[0], np.zeros(3), np.zeros(3))

        raw_states = dead_reckon(x0, noisy)
        raw_err = np.linalg.norm(raw_states.p[-1] - traj.p[-1])

        corrected, _ = correct_and_quantify(model, window)
        corr_states = dead_reckon(x0, corrected)
        corr_err = np.linalg.norm(corr_states.p[-1] - traj.p[-1])
        assert corr_err < 0.5 * raw_err

    def test_streaming_matches_offline_for_tail_frames(self, trained):
        model, _, window = trained
        full = model.infer(window)
        # A trailing buffer with >= 16 frames of context must reproduce
        # the offline corrections for its newest frames bit-for-bit.
        start, stop = 100, 140
        buf = window.slice(stop - 64, stop)
        tail = model.infer(buf)
        np.testing.assert_array_equal(
            tail.accel_correction[-8:], full.accel_correction[stop - 8 : stop]
        )
        np.testing.assert_array_equal(
            tail.gyro_correction[-8:], full.gyro_correction[stop - 8 : stop]
        )

    def test_features_are_head_padded_causal_frames(self):
        rng = np.random.default_rng(42)
        window = ImuWindow(
            t=np.arange(20) * 0.01, w=rng.normal(size=(20, 3)), a=rng.normal(size=(20, 3))
        )
        model = LearnedAffineCorrector(
            weight=np.zeros((96, 6)), bias=np.zeros(6), feat_mean=np.zeros(96),
            feat_scale=np.ones(96), raw_eta=np.zeros(6),
        )
        # reference: row i is frames i-15..i flattened, the first frame repeated before 0
        raw = np.hstack([window.w, window.a])
        padded = np.vstack([np.tile(raw[0], (15, 1)), raw])
        reference = np.array([padded[i : i + 16].reshape(-1) for i in range(20)])
        assert np.array_equal(model.features(window), reference)

    @pytest.mark.parametrize("chunk", [1, 10, 100])
    def test_context_frames_reproduce_full_buffer(self, trained, chunk):
        model, _, window = trained
        assert model.context == model.window_len - 1
        full = model.infer(window.slice(0, 1000))
        for stop in (model.context + chunk, 517, 1000):
            part = model.infer(window.slice(stop - chunk - model.context, stop))
            for name in ("gyro_correction", "accel_correction", "eta_g", "eta_a"):
                assert np.array_equal(
                    getattr(part, name)[-chunk:], getattr(full, name)[stop - chunk : stop]
                ), (name, stop)
            # one context frame fewer changes the oldest new frame's correction
            short = model.infer(window.slice(stop - chunk - model.context + 1, stop))
            assert not np.array_equal(
                short.accel_correction[-chunk], full.accel_correction[stop - chunk]
            )

    def test_save_load_inference_identical(self, trained, tmp_path):
        model, _, window = trained
        path = tmp_path / "corrector.bfw"
        model.save(path)
        back = LearnedAffineCorrector.load(path)
        a = model.infer(window)
        b = back.infer(window)
        np.testing.assert_array_equal(a.accel_correction, b.accel_correction)
        np.testing.assert_array_equal(a.eta_a, b.eta_a)

    def test_weight_file_missing_an_array_rejected(self, trained, tmp_path):
        from bodyframe_io.weights_io import load_weights, save_weights

        path = tmp_path / "corrector.bfw"
        trained[0].save(path)
        variant, meta, arrays = load_weights(path)
        del arrays["bias"]
        save_weights(path, variant, arrays, meta)
        with pytest.raises(DataError, match="bias"):
            LearnedAffineCorrector.load(path)

    @pytest.mark.parametrize("meta, arrays", [
        ({"window_len": "abc"}, {}),
        ({"window_len": 0}, {}),
        ({"window_len": 16.0}, {}),
        ({}, {}),
        ({"window_len": 16}, {"feat_mean": np.zeros(5)}),
        ({"window_len": 16}, {"feat_scale": np.ones(95)}),
        ({"window_len": 16}, {"raw_eta": np.zeros(2)}),
    ], ids=["window_len_text", "window_len_zero", "window_len_float", "window_len_missing",
            "feat_mean_short", "feat_scale_short", "raw_eta_short"])
    def test_malformed_weight_file_rejected(self, trained, tmp_path, meta, arrays):
        from bodyframe_io.weights_io import load_weights, save_weights

        path = tmp_path / "corrector.bfw"
        trained[0].save(path)
        variant, saved_meta, saved = load_weights(path)
        assert saved_meta == {"window_len": 16}
        save_weights(path, variant, {**saved, **arrays}, meta)
        with pytest.raises(DataError, match="window_len"):
            LearnedAffineCorrector.load(path)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 16]), st.lists(st.integers(1, 40), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@example(window_len=1, runs=[1] * 12, seed=0)  # one-row windows only
def test_runs_behind_context_reproduce_one_window(window_len, runs, seed):
    # a stream split into runs at random points, each run inferred behind
    # `context` raw frames (fewer at the start), gives the bits of one
    # whole-window infer; a one-frame run with no context is a one-row infer
    rng = np.random.default_rng(seed)
    d = 6 * window_len
    model = LearnedAffineCorrector(
        weight=rng.normal(size=(d, 6)), bias=rng.normal(size=6), feat_mean=rng.normal(size=d),
        feat_scale=rng.uniform(0.5, 2.0, size=d), raw_eta=rng.normal(size=6),
        window_len=window_len,
    )
    n = sum(runs)
    window = ImuWindow(t=np.arange(n) * 0.005, w=rng.normal(size=(n, 3)),
                       a=rng.normal(size=(n, 3)))
    whole = model.infer(window)
    start = 0
    for run in runs:
        stop = start + run
        part = model.infer(window.slice(max(0, start - model.context), stop))
        for name in ("gyro_correction", "accel_correction", "eta_g", "eta_a"):
            assert np.array_equal(getattr(part, name)[-run:],
                                  getattr(whole, name)[start:stop]), (name, start)
        start = stop
