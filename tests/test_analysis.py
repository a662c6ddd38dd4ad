"""Latent collection and PCA explained-variance against eigen-oracles."""

import numpy as np
import pytest

from bodyframe_io.analysis import collect_latents, pca_cumulative_variance
from bodyframe_io.errors import (
    DataError,
    DegenerateInputError,
    InsufficientDataError,
)
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.motion_model import MotionNet, MotionNetConfig, WindowSet, velocity_windows
from bodyframe_io.simulator import TrajectoryKind, TrajectorySpec

from test_motion_model import TINY, simulated_sequence


class TestPcaCumulativeVariance:
    def test_rank_one_data(self):
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(6)
        f = np.outer(rng.standard_normal(50), direction) + 3.0
        cum = pca_cumulative_variance(f)
        assert cum[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_gaussian_increments(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((100_000, 8))
        cum = pca_cumulative_variance(f)
        increments = np.diff(np.concatenate([[0.0], cum]))
        np.testing.assert_allclose(increments, np.full(8, 1.0 / 8.0), atol=0.02)

    def test_exact_rank_five(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((400, 5)) @ rng.standard_normal((5, 32))
        cum = pca_cumulative_variance(f)
        assert cum[4] >= 0.999
        assert cum[-1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_covariance_eigen_oracle(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((64, 16)) @ np.diag(rng.uniform(0.1, 3.0, 16))
        cum = pca_cumulative_variance(f)
        centered = f - f.mean(axis=0)
        eig = np.linalg.eigvalsh(centered.T @ centered / (len(f) - 1))[::-1]
        oracle = np.cumsum(eig) / eig.sum()
        np.testing.assert_allclose(cum, oracle, atol=1e-9)

    def test_nondecreasing_bounded(self):
        rng = np.random.default_rng(4)
        cum = pca_cumulative_variance(rng.standard_normal((40, 7)))
        assert np.all(np.diff(cum) >= -1e-15)
        assert cum[-1] <= 1.0 + 1e-12

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((30, 6))
        a = pca_cumulative_variance(f)
        b = pca_cumulative_variance(f[rng.permutation(30)])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_row_duplication_invariant(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((25, 5))
        a = pca_cumulative_variance(f)
        b = pca_cumulative_variance(np.vstack([f, f]))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_constant_matrix_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pca_cumulative_variance(np.full((10, 4), 2.5))

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            pca_cumulative_variance(np.zeros((1, 4)))

    def test_nonfinite_rejected(self):
        f = np.zeros((5, 3))
        f[2, 1] = np.nan
        with pytest.raises(DataError):
            pca_cumulative_variance(f)

    def test_wide_matrix_warns(self):
        rng = np.random.default_rng(7)
        with pytest.warns(UserWarning):
            pca_cumulative_variance(rng.standard_normal((3, 10)))

    def test_standardize_flag_equalizes_scales(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((5000, 4)) * np.array([100.0, 1.0, 1.0, 1.0])
        raw = pca_cumulative_variance(f)
        std = pca_cumulative_variance(f, standardize=True)
        assert raw[0] > 0.99  # scale dominates unstandardized
        assert std[0] < 0.5  # near-isotropic after standardization


@pytest.fixture(scope="module")
def windows():
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8, duration=3.0, imu_rate=20.0, rate=np.pi / 4
    )
    sequence = simulated_sequence(spec, RepresentationKind.BODY_PLUS_ATTITUDE)
    out = velocity_windows([sequence], length=10, stride=12)[:4]
    assert len(out) == 4
    return out


class TestCollectLatents:
    def test_shape_contract(self, windows):
        f = collect_latents(MotionNet(TINY), windows)
        assert f.shape == (4 * 10, 8 + 4)

    def test_rows_are_each_windows_encoding(self, windows):
        model = MotionNet(TINY)
        rng = np.random.default_rng(2)
        for p in model.parameters().values():
            p += 0.1 * rng.standard_normal(p.shape)
        f = collect_latents(model, windows)
        for i in range(len(windows)):
            one = model.encode(windows.imu[i : i + 1], windows.att[i : i + 1])[0]
            assert np.array_equal(f[10 * i : 10 * (i + 1)], one)

    def test_identical_windows_identical_rows(self, windows):
        model = MotionNet(TINY)
        f = collect_latents(model, windows[np.array([0, 0])])
        np.testing.assert_array_equal(f[:10], f[10:])

    def test_zero_weight_model_gives_constant_rows(self, windows):
        model = MotionNet(TINY)
        for p in model.parameters().values():
            p[...] = 0.0
        f = collect_latents(model, windows[:2])
        np.testing.assert_allclose(f - f[0], np.zeros_like(f), atol=1e-15)
        with pytest.raises(DegenerateInputError):
            pca_cumulative_variance(f)

    def test_representation_mismatch_rejected(self, windows):
        cfg = MotionNetConfig(
            representation=RepresentationKind.GLOBAL,
            latent_dim=8,
            imu_encoder_channels=(4,),
            dropout_p=0.0,
            kernel=3,
        )
        with pytest.raises(DataError):
            collect_latents(MotionNet(cfg), windows)
        global_set = WindowSet(RepresentationKind.GLOBAL, windows.imu, None, windows.v)
        with pytest.raises(DataError):
            collect_latents(MotionNet(TINY), global_set)
