"""IMU measurement model and input-representation transforms.

A strapdown IMU reports body-frame angular rate and specific force
(kinematic acceleration minus gravity, expressed in the body frame).
With R the world-from-body rotation and GRAVITY = (0, 0, -9.80665)
the world-frame gravity vector (z up; standard gravity everywhere),

    a_reading = R^T (a_world - GRAVITY)

so a stationary, level sensor reads +9.80665 on its z axis.

Five input representations feed the learned velocity model; they differ
in the frame of the channels, whether the gravity component is removed,
and whether an explicit attitude channel (so(3) log of R) is attached:

    BODY                  raw body-frame w, a
    GLOBAL                w, a rotated into the world frame
    BODY_PLUS_ATTITUDE    BODY plus attitude channel
    GLOBAL_PLUS_ATTITUDE  GLOBAL plus attitude channel
    BODY_MINUS_GRAVITY    body frame, gravity component subtracted

Gravity removal only ever touches the accelerometer channel; the gyro
is rotated by GLOBAL kinds and otherwise untouched. There is no world
frame kind with gravity removed: in the world frame gravity is a
constant offset of the accelerometer channel, which the network's
per-channel input standardization already subtracts, so it would train
the same network as GLOBAL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TimestampOrderError
from .so3 import log_so3

#: world-frame gravity (m/s^2); z is up, so it points down. Read-only.
GRAVITY = np.array([0.0, 0.0, -9.80665])
GRAVITY.flags.writeable = False


class RepresentationKind(enum.Enum):
    BODY = "body"
    GLOBAL = "global"
    BODY_PLUS_ATTITUDE = "body+attitude"
    GLOBAL_PLUS_ATTITUDE = "global+attitude"
    BODY_MINUS_GRAVITY = "body-gravity"

    @property
    def is_global(self) -> bool:
        return self in (
            RepresentationKind.GLOBAL,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
        )

    @property
    def has_attitude(self) -> bool:
        return self in (
            RepresentationKind.BODY_PLUS_ATTITUDE,
            RepresentationKind.GLOBAL_PLUS_ATTITUDE,
        )


@dataclass
class ImuWindow:
    """A contiguous run of IMU frames stored as arrays.

    This is the one IMU stream type: the simulator, the CSV loader,
    dead reckoning and the filter runners all pass a BODY-kind window
    of gyro (rad/s) and accelerometer (m/s^2) readings.

    t has shape (n,), w and a shape (n, 3); kind records which input
    representation the channels are in. attitudes, the attitude channel
    of so(3) rotation vectors, one per frame, is an (n, 3) array exactly
    when kind.has_attitude and None otherwise. Construction rejects
    inconsistent shapes, an attitude channel that does not match the
    kind, timestamps that do not increase strictly, and non-finite
    values. Windows are validated where they enter: the loader, the
    simulator, the corrector's output. slice and unchecked build without
    the checks, from arrays already known to be valid.
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
        if (self.attitudes is None) == self.kind.has_attitude:
            which = "lacks its" if self.attitudes is None else "has no"
            raise DataError(f"a {self.kind.name} window {which} attitude channel")
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
    def unchecked(cls, t, w, a, attitudes=None, kind=RepresentationKind.BODY) -> "ImuWindow":
        """A window of float arrays that already pass the construction
        checks, such as rows of a validated window; built without them."""
        window = cls.__new__(cls)
        window.t, window.w, window.a = t, w, a
        window.attitudes, window.kind = attitudes, kind
        return window

    def slice(self, start: int, stop: int) -> "ImuWindow":
        """Frames [start, stop) as views; a slice of a valid window is
        valid, so it is not checked again."""
        return ImuWindow.unchecked(
            self.t[start:stop],
            self.w[start:stop],
            self.a[start:stop],
            None if self.attitudes is None else self.attitudes[start:stop],
            self.kind,
        )


def specific_force(a_world, r) -> np.ndarray:
    """Body-frame accelerometer reading for world acceleration a_world.

    r is the world-from-body rotation of the sensor. Either one reading,
    a_world (3,) with r (3, 3), or one per row, (n, 3) with (n, 3, 3).
    """
    f = np.asarray(a_world, dtype=float) - GRAVITY
    r = np.asarray(r, dtype=float)
    return (np.swapaxes(r, -1, -2) @ f[..., None])[..., 0]


def transform_representation(
    window: ImuWindow,
    kind: RepresentationKind,
    rotations: np.ndarray,
) -> ImuWindow:
    """Re-express a BODY-kind window in the requested input representation.

    rotations is an (n, 3, 3) stack of world-from-body attitudes, one
    per frame. A window of any other kind raises DataError. Each output
    row depends only on its own input row and rotation, so re-expressing
    a stream chunk by chunk gives the rows of one whole-stream call. The
    attitude channel, attached only for +Attitude kinds, is
    log_so3(rotations), one batched call.
    """
    if window.kind is not RepresentationKind.BODY:
        raise DataError(
            f"transform_representation takes a BODY window, got {window.kind.value!r}"
        )
    rotations = np.asarray(rotations, dtype=float)
    n = len(window)
    if rotations.shape != (n, 3, 3):
        raise DataError(
            f"rotations shape {rotations.shape} does not match {n} samples"
        )
    w, a = window.w, window.a
    # Map body channels to the target kind.
    if kind.is_global:
        w = np.einsum("nij,nj->ni", rotations, w)
        a = np.einsum("nij,nj->ni", rotations, a)
    elif kind is RepresentationKind.BODY_MINUS_GRAVITY:
        # subtract R^T (0, 0, +9.80665), the body-frame reading of a hovering sensor
        a = a - np.einsum("nji,j->ni", rotations, -GRAVITY)

    attitudes = log_so3(rotations) if kind.has_attitude else None
    return ImuWindow(t=window.t.copy(), w=w, a=a, attitudes=attitudes, kind=kind)
