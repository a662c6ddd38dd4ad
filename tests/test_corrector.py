import numpy as np
import pytest

from bodyframe_io.corrector import (
    IdentityCorrector,
    LearnedAffineCorrector,
    correct_and_quantify,
    train_corrector,
)
from bodyframe_io.errors import ConfigError
from bodyframe_io.imu_model import ImuWindow
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
    window = ImuWindow.from_samples(noisy)
    model, history = train_corrector(
        [(window, bias.b_g, bias.b_a)], epochs=150, lr=0.2
    )
    return model, history, window


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

    def test_rejects_nonpositive_uncertainty(self):
        with pytest.raises(ConfigError):
            IdentityCorrector(eta_g=0.0)


class TestTraining:
    def test_recovers_constant_bias(self, trained):
        model, _, window = trained
        _, out = correct_and_quantify(model, window)
        mean_accel_corr = out.accel_correction.mean(axis=0)
        np.testing.assert_allclose(mean_accel_corr, [-0.2, 0.0, 0.0], atol=0.02)

    def test_loss_monotone_nonincreasing(self, trained):
        _, history, _ = trained
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9)
        assert history[-1] < history[0]

    def test_uncertainties_strictly_positive(self, trained):
        model, _, window = trained
        _, out = correct_and_quantify(model, window)
        assert np.all(out.eta_g > 0)
        assert np.all(out.eta_a > 0)

    def test_correction_halves_dead_reckoning_drift(self, biased_sequence, trained):
        traj, _, noisy, _ = biased_sequence
        model, _, window = trained
        x0 = NavState(traj[0].r, traj[0].v, traj[0].p, np.zeros(3), np.zeros(3))

        raw_states = dead_reckon(x0, noisy)
        raw_err = np.linalg.norm(raw_states[-1].p - traj[-1].p)

        corrected, _ = correct_and_quantify(model, window)
        corr_states = dead_reckon(x0, corrected.to_samples())
        corr_err = np.linalg.norm(corr_states[-1].p - traj[-1].p)
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
