"""Trajectory metrics against hand-computed and constructed oracles."""

import numpy as np
import pytest

from bodyframe_io.errors import ConfigError, DataError, InsufficientDataError
from bodyframe_io.metrics import (
    AUC_TAU_MAX,
    AUC_THRESHOLDS,
    accuracy_auc,
    ate,
    improvement_percentage,
    rte,
    rte_residuals,
)
from bodyframe_io.simulator import Trajectory
from bodyframe_io.so3 import exp_so3


def poses(t, r, p):
    """A Trajectory of poses only (velocities are not read by the metrics)."""
    return Trajectory(t=t, r=r, v=np.zeros((len(t), 3)), p=p)


def line_pair(n=101, dt=0.1, speed=1.0, offset=(0, 0, 0), yaw_err=0.0):
    """Truth moving along +x; estimate offset and/or yaw-rotated."""
    r_err = exp_so3(np.array([0.0, 0.0, yaw_err]))
    t = np.arange(n) * dt
    p = np.outer(speed * t, [1.0, 0.0, 0.0])
    truth = poses(t, np.tile(np.eye(3), (n, 1, 1)), p)
    est = poses(t, np.tile(r_err, (n, 1, 1)), p + np.asarray(offset, float))
    return truth, est


def random_pair(rng, n=150, dt=0.05):
    t = np.arange(n) * dt
    p = np.cumsum(0.1 * rng.standard_normal((n, 3)), axis=0)
    q = rng.standard_normal(3) + np.cumsum(0.1 * rng.standard_normal((n, 3)), axis=0)
    r_truth = np.array([exp_so3(rng.standard_normal(3)) for _ in range(n)])
    r_est = np.array([exp_so3(rng.standard_normal(3)) for _ in range(n)])
    return poses(t, r_truth, p), poses(t, r_est, q)


def shifted(traj, dt=0.0, dp=(0.0, 0.0, 0.0)):
    return poses(traj.t + dt, traj.r, traj.p + np.asarray(dp, float))


class TestPairChecks:
    def test_length_mismatch_rejected(self):
        truth, est = line_pair(5)
        short = poses(est.t[:4], est.r[:4], est.p[:4])
        with pytest.raises(DataError):
            ate(truth, short)

    def test_too_short_rejected(self):
        truth, est = line_pair(1)
        with pytest.raises(InsufficientDataError):
            ate(truth, est)

    def test_timestamp_mismatch_rejected(self):
        truth, est = line_pair(5)
        for metric in (ate, rte, rte_residuals, accuracy_auc):
            with pytest.raises(DataError, match="timestamps differ"):
                metric(truth, shifted(est, dt=1e-6))


class TestAte:
    def test_perfect_estimate_is_zero(self):
        assert ate(*line_pair()) == 0.0

    def test_constant_offset(self):
        assert ate(*line_pair(offset=(1, 0, 0))) == pytest.approx(1.0, rel=1e-15)

    def test_two_point_rmse(self):
        t, r = np.array([0.0, 1.0]), np.tile(np.eye(3), (2, 1, 1))
        truth = poses(t, r, np.zeros((2, 3)))
        est = poses(t, r, np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        # errors 0 and 2: sqrt((0 + 4) / 2) = sqrt(2)
        assert ate(truth, est) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_nonnegative_and_zero_iff_identical(self):
        rng = np.random.default_rng(0)
        truth, est = random_pair(rng)
        assert ate(truth, est) > 0.0
        assert ate(truth, truth) == 0.0


class TestRte:
    def test_perfect_estimate_is_zero(self):
        assert rte(*line_pair()) == 0.0

    def test_constant_offset_cancels(self):
        assert rte(*line_pair(offset=(7.0, -3.0, 2.0))) == pytest.approx(0.0, abs=1e-12)

    def test_ninety_degree_yaw_hand_case(self):
        # 1 m/s line, 5 s interval: d = (5,0,0); residual = d - Rz(90) d
        # = (5,0,0) - (0,5,0), norm 5*sqrt(2); identical at every start.
        pair = line_pair(n=101, dt=0.1, speed=1.0, yaw_err=np.pi / 2)
        assert rte(*pair, interval=5.0) == pytest.approx(5.0 * np.sqrt(2.0), abs=1e-9)
        res = rte_residuals(*pair, interval=5.0)
        assert len(res) == 101 - 50
        np.testing.assert_allclose(res, 5.0 * np.sqrt(2.0), atol=1e-9)

    def test_orientation_error_not_invariant(self):
        clean = rte(*line_pair())
        rotated = rte(*line_pair(yaw_err=0.3))
        assert rotated > clean + 0.1

    def test_translation_invariance_random_trajectories(self):
        rng = np.random.default_rng(1)
        truth, est = random_pair(rng, n=160)
        base = rte(truth, est, interval=2.0)
        moved = shifted(est, dp=(5.0, 6, -7))
        assert rte(truth, moved, interval=2.0) == pytest.approx(base, rel=1e-12)

    def test_span_shorter_than_interval_rejected(self):
        with pytest.raises(InsufficientDataError):
            rte(*line_pair(n=40, dt=0.1), interval=5.0)

    @pytest.mark.parametrize("interval", [0.0, -2.0])
    def test_nonpositive_interval_rejected(self, interval):
        for metric in (rte_residuals, rte, accuracy_auc):
            with pytest.raises(ConfigError, match="interval"):
                metric(*line_pair(), interval=interval)

    def test_residuals_equal_per_sample_loop(self):
        rng = np.random.default_rng(3)
        truth, est = random_pair(rng, n=160)
        d = 40  # 2 s at 0.05 s spacing
        reference = np.array([
            np.linalg.norm(
                (truth.p[i + d] - truth.p[i])
                - truth.r[i] @ est.r[i].T @ (est.p[i + d] - est.p[i])
            )
            for i in range(len(truth) - d)
        ])
        # one batched product gives the per-sample loop's bits
        assert np.array_equal(rte_residuals(truth, est, interval=2.0), reference)


class TestAccuracyAuc:
    def test_perfect_is_one(self):
        assert accuracy_auc(*line_pair()) == 1.0

    def test_all_residuals_beyond_grid_is_zero(self):
        pair = line_pair(yaw_err=np.pi / 2)  # residuals 5*sqrt(2) ~ 7.07
        assert accuracy_auc(*pair) == 0.0

    def test_step_function_integral(self):
        # all residuals equal 0.5 on the grid up to 1 m: accuracy jumps
        # 0 -> 1 at tau = 0.5, so the grid mean is ~0.5 (within one grid cell).
        pair = line_pair(n=101, dt=0.1, speed=0.1 / np.sqrt(2.0), yaw_err=np.pi / 2)
        res = rte_residuals(*pair, interval=5.0)
        np.testing.assert_allclose(res, 0.5, atol=1e-12)
        assert accuracy_auc(*pair) == pytest.approx(0.5, abs=1.0 / 100.0)

    def test_accuracy_nondecreasing_in_tau(self):
        rng = np.random.default_rng(2)
        pair = random_pair(rng)
        res = rte_residuals(*pair, interval=2.0)
        taus = np.linspace(0.01, 3.0, 50)
        acc = [np.mean(res <= tau) for tau in taus]
        assert all(b >= a for a, b in zip(acc, acc[1:]))
        assert 0.0 <= accuracy_auc(*pair, interval=2.0) <= 1.0

    @pytest.mark.parametrize("residual, auc", [(0.995, 0.01), (0.985, 0.02), (0.505, 0.5)])
    def test_grid_is_100_thresholds_up_to_1_m(self, residual, auc):
        # residuals all equal to `residual` fall below the thresholds k/100 >= residual
        assert (AUC_TAU_MAX, AUC_THRESHOLDS) == (1.0, 100)
        pair = line_pair(n=101, dt=0.1, speed=residual / 5.0 / np.sqrt(2.0), yaw_err=np.pi / 2)
        assert accuracy_auc(*pair) == pytest.approx(auc, abs=1e-12)


class TestImprovement:
    def test_half(self):
        assert improvement_percentage(10.0, 5.0) == pytest.approx(50.0, rel=1e-15)

    def test_no_change_is_zero(self):
        assert improvement_percentage(0.7, 0.7) == 0.0

    def test_published_ate_pair(self):
        # 1.189 m baseline vs 0.403 m: 66.1% improvement
        assert improvement_percentage(1.189, 0.403) == pytest.approx(66.1, abs=0.05)

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(DataError):
            improvement_percentage(0.0, 0.1)

    def test_regression_can_be_negative(self):
        assert improvement_percentage(1.0, 2.0) == pytest.approx(-100.0)
