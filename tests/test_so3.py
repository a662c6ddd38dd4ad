import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyframe_io.errors import InvalidRotationError
from bodyframe_io.so3 import exp_so3, hat, is_rotation, log_so3, right_jacobian, vee


def exp_series(xi, terms=13):
    """Independent oracle: truncated matrix exponential sum_{n<terms} K^n/n!.

    Thirteen terms (n = 0..12) bound the truncation error by
    sum_{n>=13} 1/n! ~ 1.2e-11 for |xi| <= 1.
    """
    k = np.array(
        [
            [0.0, -xi[2], xi[1]],
            [xi[2], 0.0, -xi[0]],
            [-xi[1], xi[0], 0.0],
        ]
    )
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms):
        term = term @ k / n
        out = out + term
    return out


def random_rotvec(rng, max_angle=0.999 * math.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


class TestHat:
    def test_cross_product_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def test_antisymmetry(self, xi):
        m = hat(np.array(xi))
        np.testing.assert_array_equal(m, -m.T)

    def test_vee_roundtrip(self):
        xi = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(vee(hat(xi)), xi)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            hat(np.zeros(4))


class TestExp:
    def test_zero_maps_to_exact_identity(self):
        np.testing.assert_array_equal(exp_so3(np.zeros(3)), np.eye(3))

    def test_pi_about_z(self):
        # Half turn about z flips x and y.
        r = exp_so3(np.array([0.0, 0.0, math.pi]))
        np.testing.assert_allclose(r, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            xi = random_rotvec(rng, max_angle=1.0)
            np.testing.assert_allclose(exp_so3(xi), exp_series(xi), atol=1e-10)

    def test_small_angle_branch_agrees_with_series(self):
        for scale in (1e-3, 1e-6, 1e-9, 1e-12):
            xi = scale * np.array([1.0, -2.0, 0.5]) / math.sqrt(5.25)
            np.testing.assert_allclose(exp_so3(xi), exp_series(xi), atol=1e-15)

    def test_output_is_rotation(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            assert is_rotation(exp_so3(random_rotvec(rng)))


class TestLog:
    def test_roundtrip_log_exp(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            xi = random_rotvec(rng)
            np.testing.assert_allclose(log_so3(exp_so3(xi)), xi, atol=1e-8)

    def test_roundtrip_exp_log(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = exp_so3(random_rotvec(rng))
            np.testing.assert_allclose(exp_so3(log_so3(r)), r, atol=1e-12)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.floats(1e-8, 3.0),
    )
    def test_roundtrip_property(self, direction, angle):
        d = np.array(direction)
        n = np.linalg.norm(d)
        if n < 1e-3:
            return
        xi = d / n * min(angle, 0.999 * math.pi)
        np.testing.assert_allclose(log_so3(exp_so3(xi)), xi, atol=1e-8)

    def test_tiny_angles_survive_roundtrip(self):
        # Downstream finite differencing takes logs of rotations within
        # ~1e-6 of identity, so relative accuracy must hold there.
        for scale in (1e-4, 1e-6, 1e-8):
            xi = scale * np.array([0.6, 0.8, 0.0])
            np.testing.assert_allclose(log_so3(exp_so3(xi)), xi, rtol=1e-10, atol=0)

    def test_near_pi(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            xi = axis * (math.pi - 1e-9)
            r = exp_so3(xi)
            np.testing.assert_allclose(exp_so3(log_so3(r)), r, atol=1e-9)

    def test_rejects_non_rotation(self):
        with pytest.raises(InvalidRotationError):
            log_so3(np.eye(3) * 1.001)
        with pytest.raises(InvalidRotationError):
            log_so3(np.diag([1.0, 1.0, -1.0]))  # det == -1 reflection
        with pytest.raises(InvalidRotationError):
            # max |R R^T - I| is 4e-6, far outside the 1e-9 tolerance
            log_so3(np.diag([1.0 + 2e-6, 1.0 / (1.0 + 2e-6), 1.0]))


class TestRightJacobian:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(right_jacobian(np.zeros(3)), np.eye(3))

    def test_first_order_composition(self):
        # exp(xi + d) ~ exp(xi) @ exp(J_r d): defect must shrink as O(|d|^2).
        rng = np.random.default_rng(6)
        for _ in range(20):
            xi = random_rotvec(rng, max_angle=2.0)
            d = rng.normal(size=3) * 1e-6
            lhs = exp_so3(xi + d)
            rhs = exp_so3(xi) @ exp_so3(right_jacobian(xi) @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    @pytest.mark.parametrize("scale", [0.5e-4, 2e-4])
    def test_composition_holds_on_both_branches(self, scale):
        # Magnitudes straddling the 1e-4 Taylor switchover.
        xi = scale * np.array([1.0, 0.2, -0.4]) / np.linalg.norm([1.0, 0.2, -0.4])
        d = np.array([2e-7, -1e-7, 3e-7])
        lhs = exp_so3(xi + d)
        rhs = exp_so3(xi) @ exp_so3(right_jacobian(xi) @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)
