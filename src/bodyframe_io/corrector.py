"""Learned IMU correction and per-sample uncertainty.

A corrector maps raw readings to additive corrections plus the standard
deviation of the noise left after correcting:

    w_hat = w + gyro_correction      eta_g = residual gyro noise std
    a_hat = a + accel_correction     eta_a = residual accel noise std

Two variants:

* IdentityCorrector: zero corrections, constant configured
  uncertainties. The no-op baseline.
* LearnedAffineCorrector: per-channel affine map over a causal window
  of the last 16 raw frames (head-padded by repeating the first frame),
  fitted in closed form (ridge least squares) to regress the negated
  true bias. Uncertainties are constant per channel, fitted to the
  training residual spread.

All uncertainties are strictly positive by construction: learned ones
pass through softplus(x) + 1e-6, configured ones are validated.

Because the affine window is causal, corrections for a frame depend
only on frames at or before it. Each corrector names the raw frames of
context it needs, `context` (window_len - 1 for the affine map, none
for the identity): inferring a run of new frames behind that many
earlier raw frames reproduces offline outputs for the new frames to
the last bit, however many new frames there are, one included. The
filter relies on this: it corrects each IMU block once, as it arrives,
behind the context frames of the blocks before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .imu_model import ImuWindow, RepresentationKind
from .weights_io import load_weights, save_weights

AFFINE_VARIANT = "affine-corrector-v1"
# the arrays of an affine corrector weight file, in payload order
_AFFINE_ARRAYS = ("weight", "bias", "feat_mean", "feat_scale", "raw_eta")
_ETA_FLOOR = 1e-6


@dataclass
class CorrectionOutput:
    """Per-sample corrections and uncertainties for a window, (n, 3) each."""

    gyro_correction: np.ndarray
    accel_correction: np.ndarray
    eta_g: np.ndarray
    eta_a: np.ndarray


def softplus(x):
    # log(1 + e^x) computed without overflow for large |x|.
    return np.logaddexp(0.0, x)


def inv_softplus(y):
    y = np.maximum(y, 1e-12)
    return y + np.log(-np.expm1(-y))


def _raw_features(window: ImuWindow, k: int) -> np.ndarray:
    """(n, 6 * k): frames i-k+1..i of each frame i flattened, the first
    frame repeated before the window's start."""
    raw = np.hstack([window.w, window.a])  # (n, 6)
    padded = np.vstack([np.tile(raw[0], (k - 1, 1)), raw])
    # (n, 6, k) views of frames i..i+k-1 -> rows of k frames, 6 channels each
    frames = sliding_window_view(padded, k, axis=0).transpose(0, 2, 1)
    return frames.reshape(raw.shape[0], 6 * k)


class IdentityCorrector:
    """Pass-through corrector with constant configured uncertainties:
    eta_g and eta_a are the per-frame gyro and accelerometer noise
    stds, one value or one per axis."""

    context = 0

    def __init__(self, eta_g, eta_a):
        self.eta_g = np.broadcast_to(np.asarray(eta_g, dtype=float), (3,)).copy()
        self.eta_a = np.broadcast_to(np.asarray(eta_a, dtype=float), (3,)).copy()
        if not (np.all(self.eta_g > 0) and np.all(self.eta_a > 0)):  # NaN fails too
            raise ConfigError("uncertainties must be strictly positive")

    def infer(self, window: ImuWindow) -> CorrectionOutput:
        n = len(window)
        zeros = np.zeros((n, 3))
        return CorrectionOutput(
            gyro_correction=zeros,
            accel_correction=zeros.copy(),
            eta_g=np.tile(self.eta_g, (n, 1)),
            eta_a=np.tile(self.eta_a, (n, 1)),
        )


class LearnedAffineCorrector:
    """Affine regression over a causal 16-frame window of raw readings.

    weight has shape (16 * 6, 6) and bias (6,); columns 0:3 are the gyro
    correction, 3:6 the accel correction. Features are standardized
    with statistics frozen at training time. Construction raises
    DataError unless window_len is a positive int, every array has the
    shape it implies and raw_eta is finite (a NaN would give NaN
    uncertainties).
    """

    def __init__(
        self,
        weight,
        bias,
        feat_mean,
        feat_scale,
        raw_eta,
        window_len: int = 16,
    ):
        if type(window_len) is not int or window_len < 1:
            raise DataError(
                f"affine corrector window_len must be a positive integer, got {window_len!r}"
            )
        self.window_len = window_len
        self.weight = np.asarray(weight, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        self.feat_mean = np.asarray(feat_mean, dtype=float)
        self.feat_scale = np.asarray(feat_scale, dtype=float)
        self.raw_eta = np.asarray(raw_eta, dtype=float)
        d = 6 * window_len
        for name, shape in zip(_AFFINE_ARRAYS, ((d, 6), (6,), (d,), (d,), (6,))):
            actual = getattr(self, name).shape
            if actual != shape:
                raise DataError(f"affine corrector {name} has shape {actual},"
                                f" expected {shape} for window_len {window_len}")
        if not np.isfinite(self.raw_eta).all():
            raise DataError("affine corrector raw_eta must be finite")

    @property
    def context(self) -> int:
        """Raw frames before a frame that its correction reads."""
        return self.window_len - 1

    @property
    def eta(self) -> np.ndarray:
        return softplus(self.raw_eta) + _ETA_FLOOR

    def features(self, window: ImuWindow) -> np.ndarray:
        """Causal features: frames i-15..i flattened, head-padded, standardized."""
        return (_raw_features(window, self.window_len) - self.feat_mean) / self.feat_scale

    def infer(self, window: ImuWindow) -> CorrectionOutput:
        n = len(window)
        feats = self.features(window)
        if n == 1:
            # numpy multiplies one row by a matrix-vector BLAS call, which may
            # round otherwise than the matrix product of two or more rows; a
            # doubled row keeps each row's output whatever the window's length
            feats = np.vstack([feats, feats])
        pred = (feats @ self.weight)[:n] + self.bias
        eta = self.eta
        return CorrectionOutput(
            gyro_correction=pred[:, 0:3],
            accel_correction=pred[:, 3:6],
            eta_g=np.tile(eta[0:3], (n, 1)),
            eta_a=np.tile(eta[3:6], (n, 1)),
        )

    def save(self, path):
        arrays = {name: getattr(self, name) for name in _AFFINE_ARRAYS}
        save_weights(path, AFFINE_VARIANT, arrays, meta={"window_len": self.window_len})

    @classmethod
    def load(cls, path):
        _, meta, arrays = load_weights(path, expected_variant=AFFINE_VARIANT)
        if sorted(arrays) != sorted(_AFFINE_ARRAYS):
            raise DataError(f"{path}: corrector arrays {sorted(arrays)}, "
                            f"expected {sorted(_AFFINE_ARRAYS)}")
        if "window_len" not in meta:
            raise DataError(f"{path}: corrector metadata lacks window_len")
        return cls(**arrays, window_len=meta["window_len"])


def correct_and_quantify(model, window: ImuWindow):
    """Apply a corrector to a BODY-kind window of raw readings: returns
    (corrected BODY window, CorrectionOutput). A window of any other
    kind raises DataError, as the corrections are body-frame ones."""
    if window.kind is not RepresentationKind.BODY:
        raise DataError(f"correct_and_quantify takes a BODY window, got {window.kind.value!r}")
    out = model.infer(window)
    if not ((out.eta_g > 0).all() and (out.eta_a > 0).all()):  # NaN fails too
        raise DataError("corrector produced an uncertainty that is not positive")
    corrected = ImuWindow(
        t=window.t.copy(),
        w=window.w + out.gyro_correction,
        a=window.a + out.accel_correction,
    )
    return corrected, out


def train_corrector(dataset, window_len: int = 16):
    """Fit a LearnedAffineCorrector by linear least squares, in closed form.

    dataset is a list of (ImuWindow, b_g, b_a) with per-sample true
    biases, (n, 3) each; the regression target is the negated bias so
    that reading + correction cancels it. Features are standardized,
    then the normal equations are solved with a tiny ridge, 1e-8 * n on
    each feature's diagonal (n training frames) and none on the bias,
    which keeps them well posed when features are collinear. Each
    channel's eta is the spread of its training residual.

    Returns (model, training mean-squared error).
    """
    if window_len < 1:
        raise ConfigError(f"corrector window_len must be >= 1, got {window_len}")
    if not dataset:
        raise DataError("empty corrector training set")

    feats, targets = [], []
    for window, b_g, b_a in dataset:
        b_g = np.asarray(b_g, dtype=float)
        b_a = np.asarray(b_a, dtype=float)
        if b_g.shape != (len(window), 3) or b_a.shape != (len(window), 3):
            raise DataError("bias truth shape does not match window length")
        feats.append(_raw_features(window, window_len))
        targets.append(np.hstack([-b_g, -b_a]))
    feats = np.vstack(feats)
    targets = np.vstack(targets)

    mean = feats.mean(axis=0)
    scale = feats.std(axis=0)
    scale[scale < 1e-12] = 1.0
    feats = (feats - mean) / scale

    n, d = feats.shape
    design = np.hstack([feats, np.ones((n, 1))])
    gram = design.T @ design
    gram[np.arange(d), np.arange(d)] += 1e-8 * n
    solution = np.linalg.solve(gram, design.T @ targets)
    weight, bias = solution[:d], solution[d]

    resid = feats @ weight + bias - targets
    eta = np.maximum(resid.std(axis=0), 2e-6)
    model = LearnedAffineCorrector(
        weight=weight,
        bias=bias,
        feat_mean=mean,
        feat_scale=scale,
        raw_eta=inv_softplus(eta - _ETA_FLOOR),
        window_len=window_len,
    )
    return model, float(np.mean(resid * resid))
