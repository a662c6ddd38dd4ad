"""IMU measurement model and input-representation transforms.

A strapdown IMU reports body-frame angular rate and specific force
(kinematic acceleration minus gravity, expressed in the body frame).
With R the world-from-body rotation and g_world the gravity vector,

    a_reading = R^T (a_world - g_world)

so a stationary, level sensor reads +9.80665 on its z axis.

Six input representations feed the learned velocity model; they differ
in the frame of the channels, whether the gravity component is removed,
and whether an explicit attitude channel (so(3) log of R) is attached:

    BODY                  raw body-frame w, a
    GLOBAL                w, a rotated into the world frame
    BODY_PLUS_ATTITUDE    BODY plus attitude channel
    GLOBAL_PLUS_ATTITUDE  GLOBAL plus attitude channel
    BODY_MINUS_GRAVITY    body frame, gravity component subtracted
    GLOBAL_MINUS_GRAVITY  world frame, gravity component subtracted

Gravity removal only ever touches the accelerometer channel; the gyro
is rotated by GLOBAL kinds and otherwise untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TimestampOrderError
from .so3 import log_so3

STANDARD_GRAVITY = 9.80665  # m/s^2


@dataclass(frozen=True)
class GravityModel:
    """Constant world-frame gravity; z is up, so gravity points down."""

    g_world: tuple[float, float, float] = (0.0, 0.0, -STANDARD_GRAVITY)

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.g_world, dtype=float)


GRAVITY = GravityModel()


class RepresentationKind(enum.Enum):
    BODY = "body"
    GLOBAL = "global"
    BODY_PLUS_ATTITUDE = "body+attitude"
    GLOBAL_PLUS_ATTITUDE = "global+attitude"
    BODY_MINUS_GRAVITY = "body-gravity"
    GLOBAL_MINUS_GRAVITY = "global-gravity"

    @property
    def is_global(self) -> bool:
        return self in (
            RepresentationKind.GLOBAL,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
            RepresentationKind.GLOBAL_MINUS_GRAVITY,
        )

    @property
    def has_attitude(self) -> bool:
        return self in (
            RepresentationKind.BODY_PLUS_ATTITUDE,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
        )

    @property
    def gravity_removed(self) -> bool:
        return self in (
            RepresentationKind.BODY_MINUS_GRAVITY,
            RepresentationKind.GLOBAL_MINUS_GRAVITY,
        )


@dataclass
class ImuSample:
    """One IMU frame: time (s), gyro (rad/s), accelerometer (m/s^2)."""

    t: float
    w: np.ndarray
    a: np.ndarray


@dataclass
class ImuWindow:
    """A contiguous run of IMU frames stored as arrays.

    t has shape (n,), w and a shape (n, 3). attitudes is an optional
    (n, 3) array of so(3) rotation vectors, one per frame; kind records
    which input representation the channels are currently in.
    """

    t: np.ndarray
    w: np.ndarray
    a: np.ndarray
    attitudes: np.ndarray | None = None
    kind: RepresentationKind = RepresentationKind.BODY

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        n = self.t.shape[0]
        if self.t.ndim != 1 or self.w.shape != (n, 3) or self.a.shape != (n, 3):
            raise DataError(
                f"inconsistent window shapes: t {self.t.shape}, "
                f"w {self.w.shape}, a {self.a.shape}"
            )
        if n >= 2 and not np.all(np.diff(self.t) > 0):
            raise TimestampOrderError("window timestamps must be strictly increasing")
        if not (
            np.all(np.isfinite(self.t))
            and np.all(np.isfinite(self.w))
            and np.all(np.isfinite(self.a))
        ):
            raise DataError("window contains non-finite values")
        if self.attitudes is not None:
            self.attitudes = np.asarray(self.attitudes, dtype=float)
            if self.attitudes.shape != (n, 3):
                raise DataError(
                    f"attitude channel shape {self.attitudes.shape} does not "
                    f"match {n} samples"
                )

    def __len__(self) -> int:
        return self.t.shape[0]

    @classmethod
    def from_samples(cls, samples: list[ImuSample], **kwargs) -> "ImuWindow":
        if not samples:
            raise DataError("cannot build a window from zero samples")
        return cls(
            t=np.array([s.t for s in samples]),
            w=np.array([s.w for s in samples]),
            a=np.array([s.a for s in samples]),
            **kwargs,
        )

    def to_samples(self) -> list[ImuSample]:
        return [
            ImuSample(t=float(self.t[i]), w=self.w[i].copy(), a=self.a[i].copy())
            for i in range(len(self))
        ]

    def slice(self, start: int, stop: int) -> "ImuWindow":
        return ImuWindow(
            t=self.t[start:stop],
            w=self.w[start:stop],
            a=self.a[start:stop],
            attitudes=None if self.attitudes is None else self.attitudes[start:stop],
            kind=self.kind,
        )


def specific_force(a_world, r, gravity: GravityModel = GRAVITY) -> np.ndarray:
    """Body-frame accelerometer reading for world acceleration a_world.

    r is the world-from-body rotation of the sensor.
    """
    a_world = np.asarray(a_world, dtype=float)
    r = np.asarray(r, dtype=float)
    return r.T @ (a_world - gravity.vector)


def attitude_channel(rotations) -> np.ndarray:
    """The attitude channel of +Attitude kinds: log_so3 of each (3, 3)
    world-from-body rotation, as an (n, 3) array."""
    return np.array([log_so3(r) for r in rotations])


def transform_representation(
    window: ImuWindow,
    kind: RepresentationKind,
    rotations: np.ndarray,
    gravity: GravityModel = GRAVITY,
) -> ImuWindow:
    """Re-express a window in the requested input representation.

    rotations is an (n, 3, 3) stack of world-from-body attitudes, one
    per frame. The source window may be in any kind; it is first
    normalized back to raw body-frame channels (every kind is
    invertible given the rotations), then mapped to the target. The
    attitude channel is attached only for +Attitude kinds: the window's
    own attitudes when it carries them (they must encode the same
    rotations), otherwise log_so3 of each rotation.
    """
    rotations = np.asarray(rotations, dtype=float)
    n = len(window)
    if rotations.shape != (n, 3, 3):
        raise DataError(
            f"rotations shape {rotations.shape} does not match {n} samples"
        )
    minus_g = -gravity.vector  # (0, 0, +9.80665): reading of a hovering sensor

    w, a = window.w, window.a
    # Normalize to raw body channels. einsum 'nji,nj->ni' applies R^T.
    src = window.kind
    if src.is_global:
        w = np.einsum("nji,nj->ni", rotations, w)
        if src.gravity_removed:
            a = np.einsum("nji,nj->ni", rotations, a + minus_g)
        else:
            a = np.einsum("nji,nj->ni", rotations, a)
    elif src.gravity_removed:
        a = a + np.einsum("nji,j->ni", rotations, minus_g)

    # Map body channels to the target kind.
    if kind.is_global:
        w = np.einsum("nij,nj->ni", rotations, w)
        a = np.einsum("nij,nj->ni", rotations, a)
        if kind.gravity_removed:
            a = a - minus_g
    elif kind.gravity_removed:
        a = a - np.einsum("nji,j->ni", rotations, minus_g)

    attitudes = None
    if kind.has_attitude:
        if window.attitudes is not None:
            attitudes = window.attitudes.copy()
        else:
            attitudes = attitude_channel(rotations)

    return ImuWindow(t=window.t.copy(), w=w, a=a, attitudes=attitudes, kind=kind)
