import math

import numpy as np
import pytest

from bodyframe_io.errors import DataError, TimestampOrderError
from bodyframe_io.imu_model import (
    GRAVITY,
    ImuSample,
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


class TestSpecificForce:
    def test_hover_level_reads_plus_g(self):
        f = specific_force(np.zeros(3), np.eye(3))
        np.testing.assert_allclose(f, [0.0, 0.0, 9.80665], atol=1e-15)

    def test_yawed_sensor_sees_rotated_world_acceleration(self):
        # 90 degree yaw: world x acceleration appears on the body -y axis.
        f = specific_force(np.array([1.0, 0.0, 0.0]), yaw(math.pi / 2))
        np.testing.assert_allclose(f, [0.0, -1.0, 9.80665], atol=1e-12)

    def test_free_fall_reads_zero(self):
        f = specific_force(GRAVITY.vector, np.eye(3))
        np.testing.assert_allclose(f, np.zeros(3), atol=1e-15)


class TestWindowValidation:
    def test_from_samples(self):
        samples = [
            ImuSample(t=0.0, w=np.zeros(3), a=np.zeros(3)),
            ImuSample(t=0.005, w=np.ones(3), a=np.ones(3)),
        ]
        win = ImuWindow.from_samples(samples)
        assert len(win) == 2
        assert win.kind is RepresentationKind.BODY

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(TimestampOrderError):
            ImuWindow(t=[0.0, 0.0], w=np.zeros((2, 3)), a=np.zeros((2, 3)))

    def test_rejects_attitude_length_mismatch(self):
        with pytest.raises(DataError):
            ImuWindow(
                t=[0.0, 0.005],
                w=np.zeros((2, 3)),
                a=np.zeros((2, 3)),
                attitudes=np.zeros((3, 3)),
            )

    def test_rejects_nan(self):
        a = np.zeros((2, 3))
        a[1, 2] = np.nan
        with pytest.raises(DataError):
            ImuWindow(t=[0.0, 0.005], w=np.zeros((2, 3)), a=a)


class TestTransformRepresentation:
    def hover_window(self, rots):
        n = rots.shape[0]
        a = np.array([specific_force(np.zeros(3), rots[i]) for i in range(n)])
        return ImuWindow(t=np.arange(n) * 0.01, w=np.zeros((n, 3)), a=a)

    @pytest.mark.parametrize(
        "kind",
        [RepresentationKind.BODY_MINUS_GRAVITY, RepresentationKind.GLOBAL_MINUS_GRAVITY],
    )
    def test_hover_gravity_removed_is_zero(self, kind):
        rng = np.random.default_rng(10)
        rots = np.array([exp_so3(rng.normal(size=3) * 0.5) for _ in range(5)])
        win = self.hover_window(rots)
        out = transform_representation(win, kind, rots)
        np.testing.assert_allclose(out.a, np.zeros((5, 3)), atol=1e-12)

    def test_global_minus_gravity_is_rotated_body_minus_gravity(self):
        rng = np.random.default_rng(11)
        win, rots = random_window(rng)
        bmg = transform_representation(win, RepresentationKind.BODY_MINUS_GRAVITY, rots)
        gmg = transform_representation(
            win, RepresentationKind.GLOBAL_MINUS_GRAVITY, rots
        )
        rotated = np.einsum("nij,nj->ni", rots, bmg.a)
        np.testing.assert_allclose(gmg.a, rotated, atol=1e-12)

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
            RepresentationKind.GLOBAL_MINUS_GRAVITY,
        ):
            out = transform_representation(win, kind, rots)
            np.testing.assert_allclose(out.w, expected, atol=1e-12)

    def test_round_trip_body_global_body(self):
        rng = np.random.default_rng(14)
        win, rots = random_window(rng)
        there = transform_representation(win, RepresentationKind.GLOBAL, rots)
        back = transform_representation(there, RepresentationKind.BODY, rots)
        np.testing.assert_allclose(back.w, win.w, atol=1e-12)
        np.testing.assert_allclose(back.a, win.a, atol=1e-12)

    @pytest.mark.parametrize(
        "kind",
        [
            RepresentationKind.BODY,
            RepresentationKind.GLOBAL,
            RepresentationKind.BODY_MINUS_GRAVITY,
            RepresentationKind.GLOBAL_MINUS_GRAVITY,
            RepresentationKind.BODY_PLUS_ATTITUDE,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
        ],
    )
    def test_every_kind_inverts_back_to_body(self, kind):
        rng = np.random.default_rng(15)
        win, rots = random_window(rng)
        there = transform_representation(win, kind, rots)
        back = transform_representation(there, RepresentationKind.BODY, rots)
        np.testing.assert_allclose(back.w, win.w, atol=1e-11)
        np.testing.assert_allclose(back.a, win.a, atol=1e-11)

    def test_attitude_channel_is_so3_log(self):
        rng = np.random.default_rng(16)
        win, rots = random_window(rng)
        out = transform_representation(
            win, RepresentationKind.BODY_PLUS_ATTITUDE, rots
        )
        assert out.attitudes is not None
        for i in range(len(win)):
            np.testing.assert_allclose(out.attitudes[i], log_so3(rots[i]), atol=1e-12)
        # Non-attitude kinds drop the channel.
        plain = transform_representation(out, RepresentationKind.BODY, rots)
        assert plain.attitudes is None

    def test_carried_attitudes_are_reused(self, monkeypatch):
        import bodyframe_io.imu_model as imu_model

        rng = np.random.default_rng(18)
        win, rots = random_window(rng)
        encoded = np.array([log_so3(r) for r in rots])
        carried = ImuWindow(t=win.t, w=win.w, a=win.a, attitudes=encoded)

        def no_log(r):
            raise AssertionError("log_so3 called for a carried attitude")

        monkeypatch.setattr(imu_model, "log_so3", no_log)
        for kind in (
            RepresentationKind.BODY_PLUS_ATTITUDE,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
        ):
            out = transform_representation(carried, kind, rots)
            assert np.array_equal(out.attitudes, encoded)
            assert out.attitudes is not carried.attitudes

    def test_rotation_count_mismatch_raises(self):
        rng = np.random.default_rng(17)
        win, rots = random_window(rng)
        with pytest.raises(DataError):
            transform_representation(win, RepresentationKind.GLOBAL, rots[:-1])
