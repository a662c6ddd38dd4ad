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
  trained to regress the negated true bias. Uncertainties are constant
  per channel, fitted to the training residual spread.

All uncertainties are strictly positive by construction: learned ones
pass through softplus(x) + 1e-6, configured ones are validated.

Because the affine window is causal, corrections for a frame depend
only on frames at or before it. Each corrector names the raw frames of
context it needs, `context` (window_len - 1 for the affine map, none
for the identity): inferring a run of new frames behind that many
earlier raw frames reproduces offline outputs for the new frames to
the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .imu_model import ImuWindow
from .weights_io import load_weights, save_weights

AFFINE_VARIANT = "affine-corrector-v1"
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


class IdentityCorrector:
    """Pass-through corrector with constant configured uncertainties."""

    context = 0

    def __init__(self, eta_g=1e-3, eta_a=1e-2):
        self.eta_g = np.broadcast_to(np.asarray(eta_g, dtype=float), (3,)).copy()
        self.eta_a = np.broadcast_to(np.asarray(eta_a, dtype=float), (3,)).copy()
        if np.any(self.eta_g <= 0) or np.any(self.eta_a <= 0):
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
    with statistics frozen at training time.
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
        self.window_len = int(window_len)
        self.weight = np.asarray(weight, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        self.feat_mean = np.asarray(feat_mean, dtype=float)
        self.feat_scale = np.asarray(feat_scale, dtype=float)
        self.raw_eta = np.asarray(raw_eta, dtype=float)
        d = 6 * self.window_len
        if self.weight.shape != (d, 6) or self.bias.shape != (6,):
            raise DataError("affine corrector weight shapes inconsistent")

    @property
    def context(self) -> int:
        """Raw frames before a frame that its correction reads."""
        return self.window_len - 1

    @property
    def eta(self) -> np.ndarray:
        return softplus(self.raw_eta) + _ETA_FLOOR

    def features(self, window: ImuWindow) -> np.ndarray:
        """Causal features: frames i-15..i flattened, head-padded."""
        raw = np.hstack([window.w, window.a])  # (n, 6)
        k = self.window_len
        padded = np.vstack([np.tile(raw[0], (k - 1, 1)), raw])
        # (n, 6, k) views of frames i..i+k-1 -> rows of k frames, 6 channels each
        frames = sliding_window_view(padded, k, axis=0).transpose(0, 2, 1)
        feats = frames.reshape(raw.shape[0], 6 * k)
        return (feats - self.feat_mean) / self.feat_scale

    def infer(self, window: ImuWindow) -> CorrectionOutput:
        pred = self.features(window) @ self.weight + self.bias
        n = len(window)
        eta = self.eta
        return CorrectionOutput(
            gyro_correction=pred[:, 0:3],
            accel_correction=pred[:, 3:6],
            eta_g=np.tile(eta[0:3], (n, 1)),
            eta_a=np.tile(eta[3:6], (n, 1)),
        )

    def save(self, path, meta=None):
        save_weights(
            path,
            AFFINE_VARIANT,
            {
                "weight": self.weight,
                "bias": self.bias,
                "feat_mean": self.feat_mean,
                "feat_scale": self.feat_scale,
                "raw_eta": self.raw_eta,
            },
            meta={"window_len": self.window_len, **(meta or {})},
        )

    @classmethod
    def load(cls, path):
        _, meta, arrays = load_weights(path, expected_variant=AFFINE_VARIANT)
        return cls(
            weight=arrays["weight"],
            bias=arrays["bias"],
            feat_mean=arrays["feat_mean"],
            feat_scale=arrays["feat_scale"],
            raw_eta=arrays["raw_eta"],
            window_len=int(meta.get("window_len", 16)),
        )


def correct_and_quantify(model, window: ImuWindow):
    """Apply a corrector: returns (corrected window, CorrectionOutput)."""
    out = model.infer(window)
    if np.any(out.eta_g <= 0) or np.any(out.eta_a <= 0):
        raise DataError("corrector produced non-positive uncertainty")
    corrected = ImuWindow(
        t=window.t.copy(),
        w=window.w + out.gyro_correction,
        a=window.a + out.accel_correction,
        attitudes=None if window.attitudes is None else window.attitudes.copy(),
        kind=window.kind,
    )
    return corrected, out


def train_corrector(dataset, epochs: int = 200, lr: float = 0.1, window_len: int = 16):
    """Fit a LearnedAffineCorrector by full-batch gradient descent.

    dataset is a list of (ImuWindow, b_g, b_a) with per-sample true
    biases, (n, 3) each; the regression target is the negated bias so
    that reading + correction cancels it. The step size backtracks
    whenever the mean-squared-error would rise, which makes the
    recorded per-epoch loss monotonically nonincreasing.

    Returns (model, loss_history).
    """
    if not dataset:
        raise DataError("empty corrector training set")

    d = 6 * window_len
    stub = LearnedAffineCorrector(
        weight=np.zeros((d, 6)),
        bias=np.zeros(6),
        feat_mean=np.zeros(d),
        feat_scale=np.ones(d),
        raw_eta=np.zeros(6),
        window_len=window_len,
    )
    feats, targets = [], []
    for window, b_g, b_a in dataset:
        b_g = np.asarray(b_g, dtype=float)
        b_a = np.asarray(b_a, dtype=float)
        if b_g.shape != (len(window), 3) or b_a.shape != (len(window), 3):
            raise DataError("bias truth shape does not match window length")
        feats.append(stub.features(window))
        targets.append(np.hstack([-b_g, -b_a]))
    feats = np.vstack(feats)
    targets = np.vstack(targets)

    mean = feats.mean(axis=0)
    scale = feats.std(axis=0)
    scale[scale < 1e-12] = 1.0
    feats = (feats - mean) / scale

    n = feats.shape[0]
    weight = np.zeros((d, 6))
    bias = np.zeros(6)
    history = []

    def mse(w_mat, b_vec):
        r = feats @ w_mat + b_vec - targets
        return float(np.mean(r * r))

    loss = mse(weight, bias)
    for _ in range(epochs):
        history.append(loss)
        resid = feats @ weight + bias - targets
        grad_w = 2.0 * feats.T @ resid / n
        grad_b = 2.0 * resid.mean(axis=0)
        while True:
            w_try = weight - lr * grad_w
            b_try = bias - lr * grad_b
            trial = mse(w_try, b_try)
            if trial <= loss + 1e-15 or lr < 1e-12:
                break
            lr *= 0.5
        if trial <= loss + 1e-15:
            weight, bias, loss = w_try, b_try, trial

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
    return model, history
