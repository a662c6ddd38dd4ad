import math

import numpy as np
import pytest

from bodyframe_io.errors import DataError, TimestampOrderError
from bodyframe_io.imu_model import (
    GRAVITY,
    ImuWindow,
    RepresentationKind,
    specific_force,
    transform_representation,
)
from bodyframe_io.so3 import exp_so3, log_so3


def yaw(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_window(rng, n=8, with_rotations=True):
    t = np.arange(n) * 0.005
    w = rng.normal(size=(n, 3))
    a = rng.normal(size=(n, 3)) + np.array([0.0, 0.0, 9.80665])
    rots = np.array([exp_so3(rng.normal(size=3)) for _ in range(n)])
    win = ImuWindow(t=t, w=w, a=a)
    return (win, rots) if with_rotations else win


def to_body(window, rots):
    """Reference inverse of transform_representation: raw body channels
    back from any kind, given the rotations."""
    w, a = window.w, window.a
    if window.kind.is_global:
        w = np.einsum("nji,nj->ni", rots, w)
        a = np.einsum("nji,nj->ni", rots, a)
    elif window.kind is RepresentationKind.BODY_MINUS_GRAVITY:
        a = a + np.einsum("nji,j->ni", rots, -GRAVITY)
    return w, a


class TestSpecificForce:
    def test_hover_level_reads_plus_g(self):
        f = specific_force(np.zeros(3), np.eye(3))
        np.testing.assert_allclose(f, [0.0, 0.0, 9.80665], atol=1e-15)

    def test_yawed_sensor_sees_rotated_world_acceleration(self):
        # 90 degree yaw: world x acceleration appears on the body -y axis.
        f = specific_force(np.array([1.0, 0.0, 0.0]), yaw(math.pi / 2))
        np.testing.assert_allclose(f, [0.0, -1.0, 9.80665], atol=1e-12)

    def test_free_fall_reads_zero(self):
        f = specific_force(GRAVITY, np.eye(3))
        np.testing.assert_allclose(f, np.zeros(3), atol=1e-15)

    def test_gravity_is_standard_and_read_only(self):
        assert GRAVITY.tolist() == [0.0, 0.0, -9.80665]
        with pytest.raises(ValueError):
            GRAVITY[2] = -9.81


class TestWindowValidation:
    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(TimestampOrderError):
            ImuWindow(t=[0.0, 0.0], w=np.zeros((2, 3)), a=np.zeros((2, 3)))

    def test_rejects_attitude_length_mismatch(self):
        with pytest.raises(DataError, match="shape"):
            ImuWindow(
                t=[0.0, 0.005],
                w=np.zeros((2, 3)),
                a=np.zeros((2, 3)),
                attitudes=np.zeros((3, 3)),
                kind=RepresentationKind.BODY_PLUS_ATTITUDE,
            )

    @pytest.mark.parametrize("kind", list(RepresentationKind))
    def test_attitude_channel_present_exactly_when_kind_has_one(self, kind):
        t, zeros = [0.0, 0.005], np.zeros((2, 3))
        with pytest.raises(DataError, match="attitude channel"):
            ImuWindow(t=t, w=zeros, a=zeros, kind=kind,
                      attitudes=None if kind.has_attitude else zeros)
        window = ImuWindow(t=t, w=zeros, a=zeros, kind=kind,
                           attitudes=zeros if kind.has_attitude else None)
        assert (window.slice(0, 1).attitudes is not None) == kind.has_attitude

    def test_rejects_nan(self):
        a = np.zeros((2, 3))
        a[1, 2] = np.nan
        with pytest.raises(DataError):
            ImuWindow(t=[0.0, 0.005], w=np.zeros((2, 3)), a=a)

    @pytest.mark.parametrize("kind", [RepresentationKind.BODY,
                                      RepresentationKind.GLOBAL_PLUS_ATTITUDE])
    @pytest.mark.parametrize("start, stop", [(0, 8), (2, 5), (7, 8), (3, 3), (-4, 20)])
    def test_slice_equals_a_validated_window_of_its_rows(self, kind, start, stop):
        # slices skip the checks: they must equal a window built with them
        rng = np.random.default_rng(4)
        win, rots = random_window(rng)
        if kind is not RepresentationKind.BODY:
            win = transform_representation(win, kind, rots)
        part = win.slice(start, stop)
        rows = slice(start, stop)
        fresh = ImuWindow(t=win.t[rows], w=win.w[rows], a=win.a[rows], kind=kind,
                          attitudes=None if win.attitudes is None else win.attitudes[rows])
        assert part.kind is fresh.kind
        for x, y in ((part.t, fresh.t), (part.w, fresh.w), (part.a, fresh.a)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert (part.attitudes is None) == (fresh.attitudes is None)
        if part.attitudes is not None:
            assert np.array_equal(part.attitudes, fresh.attitudes)


class TestTransformRepresentation:
    def hover_window(self, rots):
        n = rots.shape[0]
        a = np.array([specific_force(np.zeros(3), rots[i]) for i in range(n)])
        return ImuWindow(t=np.arange(n) * 0.01, w=np.zeros((n, 3)), a=a)

    def test_hover_body_minus_gravity_is_zero(self):
        rng = np.random.default_rng(10)
        rots = np.array([exp_so3(rng.normal(size=3) * 0.5) for _ in range(5)])
        win = self.hover_window(rots)
        out = transform_representation(win, RepresentationKind.BODY_MINUS_GRAVITY, rots)
        np.testing.assert_allclose(out.a, np.zeros((5, 3)), atol=1e-12)

    def test_gyro_untouched_by_body_kinds(self):
        rng = np.random.default_rng(12)
        win, rots = random_window(rng)
        for kind in (
            RepresentationKind.BODY,
            RepresentationKind.BODY_PLUS_ATTITUDE,
            RepresentationKind.BODY_MINUS_GRAVITY,
        ):
            out = transform_representation(win, kind, rots)
            np.testing.assert_array_equal(out.w, win.w)

    def test_gyro_rotated_by_global_kinds(self):
        rng = np.random.default_rng(13)
        win, rots = random_window(rng)
        expected = np.einsum("nij,nj->ni", rots, win.w)
        for kind in (
            RepresentationKind.GLOBAL,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
        ):
            out = transform_representation(win, kind, rots)
            np.testing.assert_allclose(out.w, expected, atol=1e-12)

    def test_round_trip_body_global_body(self):
        rng = np.random.default_rng(14)
        win, rots = random_window(rng)
        there = transform_representation(win, RepresentationKind.GLOBAL, rots)
        w, a = to_body(there, rots)
        np.testing.assert_allclose(w, win.w, atol=1e-12)
        np.testing.assert_allclose(a, win.a, atol=1e-12)

    @pytest.mark.parametrize("kind", list(RepresentationKind))
    def test_every_kind_inverts_back_to_body(self, kind):
        rng = np.random.default_rng(15)
        win, rots = random_window(rng)
        there = transform_representation(win, kind, rots)
        w, a = to_body(there, rots)
        np.testing.assert_allclose(w, win.w, atol=1e-11)
        np.testing.assert_allclose(a, win.a, atol=1e-11)

    def test_attitude_channel_is_so3_log(self):
        rng = np.random.default_rng(16)
        win, rots = random_window(rng)
        for kind in RepresentationKind:
            out = transform_representation(win, kind, rots)
            if kind.has_attitude:
                for i in range(len(win)):
                    assert np.array_equal(out.attitudes[i], log_so3(rots[i]))
            else:
                assert out.attitudes is None

    @pytest.mark.parametrize(
        "kind", [k for k in RepresentationKind if k is not RepresentationKind.BODY]
    )
    def test_non_body_source_rejected(self, kind):
        rng = np.random.default_rng(19)
        win, rots = random_window(rng)
        there = transform_representation(win, kind, rots)
        with pytest.raises(DataError, match="BODY"):
            transform_representation(there, RepresentationKind.BODY, rots)

    def test_rotation_count_mismatch_raises(self):
        rng = np.random.default_rng(17)
        win, rots = random_window(rng)
        with pytest.raises(DataError):
            transform_representation(win, RepresentationKind.GLOBAL, rots[:-1])
