"""Body-frame velocity network with per-axis uncertainty.

The model maps an IMU window (optionally with an attitude channel) to
one velocity measurement per frame:

    input  (n, 6) gyro+accel  [+ (n, 3) rotation-vector attitude]
    conv encoders (per input group) -> concat -> latent tap
    bidirectional GRU stack -> dropout -> two linear heads
    velocity head  -> v (n, 3) m/s
    log-std head   -> eta = exp(raw) clamped to [ETA_MIN, ETA_MAX]

Both head output layers start at zero, so an untrained model predicts
v = 0 with eta = 1 on every axis. Training minimizes a per-frame Huber
velocity loss plus a weighted Gaussian negative-log-likelihood term
that supervises the uncertainty channel; all gradients are hand-derived
through the layers in nn.py.

The module also hosts the velocity-measurement providers the filter
consumes: the network itself, run on the window length it was trained
on (MotionNetConfig.window), a ground-truth oracle with configurable
noise (for isolating filter behavior), and a constant-zero baseline
(equivalent to a pure non-holonomic prior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .imu_model import ImuWindow, RepresentationKind
from .nn import Adam, BiGru, Conv1d, Dropout, Gelu, Linear, PlateauScheduler
from .weights_io import load_weights, save_weights

MOTION_VARIANT = "motion-net-v1"
ETA_MIN = 1e-4  # m/s, keeps the measurement covariance invertible
ETA_MAX = 1e2


@dataclass(frozen=True)
class VelocityMeasurement:
    """One body-frame velocity estimate with a per-axis std."""

    t: float
    v_body: np.ndarray
    eta_v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_body", np.asarray(self.v_body, dtype=float))
        object.__setattr__(self, "eta_v", np.asarray(self.eta_v, dtype=float))
        if self.v_body.shape != (3,) or self.eta_v.shape != (3,):
            raise DataError("velocity measurement fields must be 3-vectors")
        if not (np.all(np.isfinite(self.v_body)) and np.all(np.isfinite(self.eta_v))):
            raise DataError("velocity measurement must be finite")
        if np.any(self.eta_v <= 0.0):
            raise DataError("eta_v must be strictly positive")


@dataclass(frozen=True)
class MotionNetConfig:
    """Architecture knobs.

    latent_dim is the width of the recurrent output (the reference
    sizes are 256/128/64; any positive even width works, which keeps
    desk-scale and gradient-check models cheap). Each bidirectional
    layer uses latent_dim // 2 hidden units per direction. window is
    the frame count of a training window, and the most frames
    NetworkProvider runs the model on.
    """

    representation: RepresentationKind = RepresentationKind.BODY_PLUS_ATTITUDE
    window: int = 200
    latent_dim: int = 64
    gru_layers: int = 2
    imu_encoder_channels: tuple[int, ...] = (32, 64)
    attitude_encoder_channels: tuple[int, ...] = (16, 32)
    dropout_p: float = 0.5
    kernel: int = 5
    seed: int = 0

    def validate(self):
        if self.latent_dim <= 0 or self.latent_dim % 2 != 0:
            raise ConfigError("latent_dim must be a positive even integer")
        if self.gru_layers < 1:
            raise ConfigError("gru_layers must be >= 1")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.window < 1:
            raise ConfigError("window must be positive")
        if self.kernel < 1 or self.kernel % 2 != 1:
            raise ConfigError("kernel must be odd and positive")
        for name, chans in (
            ("imu_encoder_channels", self.imu_encoder_channels),
            ("attitude_encoder_channels", self.attitude_encoder_channels),
        ):
            if len(chans) == 0 or any(c < 1 for c in chans):
                raise ConfigError(f"{name} must be a nonempty tuple of positive ints")


@dataclass(frozen=True)
class LossConfig:
    delta: float = 0.005  # m/s, Huber corner
    lam: float = 1e-4  # weight of the uncertainty term

    def validate(self):
        if self.delta <= 0.0:
            raise ConfigError("delta must be positive")
        if self.lam < 0.0:
            raise ConfigError("lambda must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 128
    patience: int = 5
    lr_decay: float = 0.2
    seed: int = 0

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.lr <= 0.0 or not (0.0 < self.lr_decay < 1.0):
            raise ConfigError("lr must be positive and lr_decay in (0, 1)")
        if self.patience < 0:
            raise ConfigError("patience must be nonnegative")


# ---------------------------------------------------------------------------
# losses


def huber_loss(pred, truth, delta=0.005):
    """Componentwise Huber loss summed over the residual's components."""
    e = np.asarray(pred, dtype=float) - np.asarray(truth, dtype=float)
    if not np.all(np.isfinite(e)):
        raise DataError("huber_loss requires finite inputs")
    a = np.abs(e)
    per = np.where(a <= delta, 0.5 * e * e, delta * (a - 0.5 * delta))
    return float(np.sum(per))


def covariance_loss(pred, truth, eta_v):
    """Gaussian NLL core e' Sigma^-1 e + ln det Sigma, Sigma = diag(eta^2)."""
    e = np.asarray(pred, dtype=float) - np.asarray(truth, dtype=float)
    eta = np.asarray(eta_v, dtype=float)
    if np.any(eta <= 0.0):
        raise DataError("eta_v must be strictly positive")
    return float(np.sum(e * e / (eta * eta)) + np.sum(np.log(eta * eta)))


def combined_loss(pred, truth, eta_v, cfg: LossConfig = LossConfig()):
    """Per-frame mean of huber + lambda * covariance over an (n, 3) batch."""
    cfg.validate()
    v = np.atleast_2d(np.asarray(pred, dtype=float))
    t = np.atleast_2d(np.asarray(truth, dtype=float))
    eta = np.atleast_2d(np.asarray(eta_v, dtype=float))
    if v.shape != t.shape or v.shape != eta.shape:
        raise DataError("combined_loss requires matching shapes")
    loss, _, _ = _combined_loss_grads(v, t, eta, cfg)
    return loss


def _combined_loss_grads(v, truth, eta, cfg):
    """Loss plus gradients w.r.t. v and eta; shapes (..., 3)."""
    n_frames = int(np.prod(v.shape[:-1]))
    e = v - truth
    a = np.abs(e)
    quad = a <= cfg.delta
    huber = np.where(quad, 0.5 * e * e, cfg.delta * (a - 0.5 * cfg.delta))
    dhuber = np.where(quad, e, cfg.delta * np.sign(e))

    inv2 = 1.0 / (eta * eta)
    cov = e * e * inv2 + np.log(eta * eta)
    dcov_dv = 2.0 * e * inv2
    dcov_deta = (-2.0 * e * e * inv2 + 2.0) / eta

    loss = float(np.sum(huber) + cfg.lam * np.sum(cov)) / n_frames
    dv = (dhuber + cfg.lam * dcov_dv) / n_frames
    deta = cfg.lam * dcov_deta / n_frames
    return loss, dv, deta


# ---------------------------------------------------------------------------
# network


class MotionNet:
    """Conv encoders + bidirectional GRU stack + two output heads."""

    def __init__(self, config: MotionNetConfig = MotionNetConfig()):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        k = config.kernel
        hidden = config.latent_dim // 2

        self._imu_stack = []
        cin = 6
        for cout in config.imu_encoder_channels:
            self._imu_stack += [Conv1d(cin, cout, k, rng), Gelu()]
            cin = cout
        self._imu_dim = cin

        self._att_stack = []
        self._att_dim = 0
        if config.representation.has_attitude:
            cin = 3
            for cout in config.attitude_encoder_channels:
                self._att_stack += [Conv1d(cin, cout, k, rng), Gelu()]
                cin = cout
            self._att_dim = cin

        # per-channel input standardization, fit on the training set and
        # shipped with the weights (identity until set_normalization runs)
        self._norm = {
            "imu_shift": np.zeros(6),
            "imu_scale": np.ones(6),
            "att_shift": np.zeros(3),
            "att_scale": np.ones(3),
        }

        enc_dim = self._imu_dim + self._att_dim
        self._grus = []
        cin = enc_dim
        for _ in range(config.gru_layers):
            self._grus.append(BiGru(cin, hidden, rng))
            cin = config.latent_dim
        self._dropout = Dropout(config.dropout_p)

        half = max(hidden, 4)
        self._v_hidden = Linear(config.latent_dim, half, rng)
        self._v_gelu = Gelu()
        self._v_out = Linear(half, 3, rng, zero_init=True)
        self._e_hidden = Linear(config.latent_dim, half, rng)
        self._e_gelu = Gelu()
        self._e_out = Linear(half, 3, rng, zero_init=True)

        self._named = []
        for i, layer in enumerate(self._imu_stack):
            if layer.params:
                self._named.append((f"imu_conv{i // 2}", layer))
        for i, layer in enumerate(self._att_stack):
            if layer.params:
                self._named.append((f"att_conv{i // 2}", layer))
        for i, gru in enumerate(self._grus):
            self._named.append((f"gru{i}.fwd", gru.fwd))
            self._named.append((f"gru{i}.bwd", gru.bwd))
        self._named += [
            ("v_hidden", self._v_hidden),
            ("v_out", self._v_out),
            ("e_hidden", self._e_hidden),
            ("e_out", self._e_out),
        ]

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        return {f"{pre}.{k}": p for pre, lay in self._named for k, p in lay.params.items()}

    def gradients(self):
        return {f"{pre}.{k}": g for pre, lay in self._named for k, g in lay.grads.items()}

    def zero_grads(self):
        for _, lay in self._named:
            lay.zero_grads()

    # -- forward / backward over raw arrays ---------------------------------

    def set_normalization(self, imu, att=None):
        """Fit per-channel shift/scale on (n_windows, time, c) arrays."""
        flat = imu.reshape(-1, imu.shape[-1])
        self._norm["imu_shift"] = flat.mean(axis=0)
        self._norm["imu_scale"] = np.maximum(flat.std(axis=0), 1e-8)
        if att is not None:
            flat = att.reshape(-1, att.shape[-1])
            self._norm["att_shift"] = flat.mean(axis=0)
            self._norm["att_scale"] = np.maximum(flat.std(axis=0), 1e-8)

    def encode(self, imu, att):
        """Encoder output (the latent tap): (batch, time, enc_dim)."""
        h = (imu - self._norm["imu_shift"]) / self._norm["imu_scale"]
        for layer in self._imu_stack:
            h = layer.forward(h)
        if self._att_dim:
            if att is None:
                raise DataError("model expects an attitude channel")
            g = (att - self._norm["att_shift"]) / self._norm["att_scale"]
            for layer in self._att_stack:
                g = layer.forward(g)
            h = np.concatenate([h, g], axis=2)
        return h

    def forward_arrays(self, imu, att=None, train=False, rng=None):
        """(batch, time, 6) [+ (batch, time, 3)] -> v, eta of (batch, time, 3)."""
        h = self.encode(imu, att)
        for gru in self._grus:
            h = gru.forward(h)
        h = self._dropout.forward(h, rng if train else None)
        v = self._v_out.forward(self._v_gelu.forward(self._v_hidden.forward(h)))
        raw = self._e_out.forward(self._e_gelu.forward(self._e_hidden.forward(h)))
        lo, hi = math.log(ETA_MIN), math.log(ETA_MAX)
        eta = np.exp(np.clip(raw, lo, hi))
        self._eta_inside = (raw > lo) & (raw < hi)
        self._eta = eta
        return v, eta

    def backward_arrays(self, dv, deta):
        """Accumulate parameter grads from dL/dv and dL/deta."""
        draw = deta * self._eta * self._eta_inside
        dh = self._v_hidden.backward(self._v_gelu.backward(self._v_out.backward(dv)))
        dh += self._e_hidden.backward(self._e_gelu.backward(self._e_out.backward(draw)))
        dh = self._dropout.backward(dh)
        for gru in reversed(self._grus):
            dh = gru.backward(dh)
        if self._att_dim:
            dimu, datt = dh[:, :, : self._imu_dim], dh[:, :, self._imu_dim :]
            for layer in reversed(self._att_stack):
                datt = layer.backward(datt)
        else:
            dimu = dh
        for layer in reversed(self._imu_stack):
            dimu = layer.backward(dimu)
        return dimu / self._norm["imu_scale"]

    # -- window-level API ----------------------------------------------------

    def _window_arrays(self, window: ImuWindow):
        if window.kind is not self.config.representation:
            raise DataError(
                f"window is in {window.kind.name}, model expects "
                f"{self.config.representation.name}"
            )
        imu = np.concatenate([window.w, window.a], axis=1)[None]
        att = None
        if self._att_dim:
            if window.attitudes is None:
                raise DataError("window lacks the attitude channel the model expects")
            att = window.attitudes[None]
        return imu, att

    def forward(self, window: ImuWindow, n_tail: int | None = None) -> list[VelocityMeasurement]:
        """Evaluation-mode inference: one measurement per input frame, or
        per frame of the last n_tail frames only."""
        imu, att = self._window_arrays(window)
        v, eta = self.forward_arrays(imu, att, train=False)
        n = len(window)
        lo = 0 if n_tail is None else max(0, n - n_tail)
        return [
            VelocityMeasurement(t=float(window.t[i]), v_body=v[0, i], eta_v=eta[0, i])
            for i in range(lo, n)
        ]

    def latents(self, window: ImuWindow) -> np.ndarray:
        """Per-frame encoder features before the recurrent stack: (n, d)."""
        imu, att = self._window_arrays(window)
        return self.encode(imu, att)[0]

    # -- persistence ----------------------------------------------------------

    def save(self, path):
        cfg = self.config
        meta = {
            "representation": cfg.representation.name,
            "window": cfg.window,
            "latent_dim": cfg.latent_dim,
            "gru_layers": cfg.gru_layers,
            "imu_encoder_channels": list(cfg.imu_encoder_channels),
            "attitude_encoder_channels": list(cfg.attitude_encoder_channels),
            "dropout_p": cfg.dropout_p,
            "kernel": cfg.kernel,
            "seed": cfg.seed,
        }
        arrays = dict(self.parameters())
        arrays.update({f"norm.{k}": v for k, v in self._norm.items()})
        save_weights(path, MOTION_VARIANT, arrays, meta)

    @classmethod
    def load(cls, path) -> "MotionNet":
        _, meta, arrays = load_weights(path, expected_variant=MOTION_VARIANT)
        cfg = MotionNetConfig(
            representation=RepresentationKind[meta["representation"]],
            window=int(meta["window"]),
            latent_dim=int(meta["latent_dim"]),
            gru_layers=int(meta["gru_layers"]),
            imu_encoder_channels=tuple(meta["imu_encoder_channels"]),
            attitude_encoder_channels=tuple(meta["attitude_encoder_channels"]),
            dropout_p=float(meta["dropout_p"]),
            kernel=int(meta["kernel"]),
            seed=int(meta["seed"]),
        )
        model = cls(cfg)
        norm = {k[5:]: v for k, v in arrays.items() if k.startswith("norm.")}
        weights = {k: v for k, v in arrays.items() if not k.startswith("norm.")}
        params = model.parameters()
        if set(params) != set(weights) or set(norm) != set(model._norm):
            raise DataError("weight file does not match the model architecture")
        for name, arr in weights.items():
            if params[name].shape != arr.shape:
                raise DataError(f"weight {name} has shape {arr.shape}, "
                                f"expected {params[name].shape}")
            params[name][...] = arr
        for name, arr in norm.items():
            model._norm[name] = arr.copy()
        return model


# ---------------------------------------------------------------------------
# training


def _stack_dataset(dataset, cfg: MotionNetConfig, label):
    if not dataset:
        raise DataError(f"{label} dataset is empty")
    imus, atts, truths = [], [], []
    n = len(dataset[0][0])
    for window, v_true in dataset:
        if window.kind is not cfg.representation:
            raise DataError(
                f"{label} window in {window.kind.name}, expected {cfg.representation.name}"
            )
        if len(window) != n:
            raise DataError(f"{label} windows must share a common length")
        v_true = np.asarray(v_true, dtype=float)
        if v_true.shape != (n, 3):
            raise DataError(f"{label} truth shape {v_true.shape} != ({n}, 3)")
        imus.append(np.concatenate([window.w, window.a], axis=1))
        if cfg.representation.has_attitude:
            if window.attitudes is None:
                raise DataError(f"{label} window lacks the attitude channel")
            atts.append(window.attitudes)
        truths.append(v_true)
    imu = np.stack(imus)
    att = np.stack(atts) if atts else None
    return imu, att, np.stack(truths)


def train_motion_model(
    train_set,
    val_set,
    cfg: MotionNetConfig = MotionNetConfig(),
    loss_cfg: LossConfig = LossConfig(),
    train_cfg: TrainConfig = TrainConfig(),
):
    """Fit a MotionNet on (window, body-velocity) pairs.

    Adam with a plateau schedule on the validation loss; returns the
    best-validation checkpoint and a history dict with per-epoch train
    loss, validation loss, and learning rate. Deterministic for a fixed
    seed (one worker, seeded shuffle and dropout).
    """
    loss_cfg.validate()
    train_cfg.validate()
    imu_tr, att_tr, truth_tr = _stack_dataset(train_set, cfg, "training")
    imu_va, att_va, truth_va = _stack_dataset(val_set, cfg, "validation")

    model = MotionNet(cfg)
    model.set_normalization(imu_tr, att_tr)
    opt = Adam(model.parameters(), lr=train_cfg.lr)
    sched = PlateauScheduler(opt, patience=train_cfg.patience, factor=train_cfg.lr_decay)
    rng = np.random.default_rng(train_cfg.seed)

    def val_loss():
        v, eta = model.forward_arrays(imu_va, att_va, train=False)
        loss, _, _ = _combined_loss_grads(v, truth_va, eta, loss_cfg)
        return loss

    n = imu_tr.shape[0]
    history = {"train_loss": [], "val_loss": [], "lr": []}
    best = math.inf
    best_params = {k: p.copy() for k, p in model.parameters().items()}
    for _ in range(train_cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            v, eta = model.forward_arrays(
                imu_tr[idx],
                None if att_tr is None else att_tr[idx],
                train=True,
                rng=rng,
            )
            loss, dv, deta = _combined_loss_grads(v, truth_tr[idx], eta, loss_cfg)
            model.zero_grads()
            model.backward_arrays(dv, deta)
            opt.step(model.gradients())
            epoch_loss += loss * len(idx)
        vl = val_loss()
        history["train_loss"].append(epoch_loss / n)
        history["val_loss"].append(vl)
        history["lr"].append(opt.lr)
        if vl < best:
            best = vl
            best_params = {k: p.copy() for k, p in model.parameters().items()}
        sched.step(vl)

    for k, p in model.parameters().items():
        p[...] = best_params[k]
    return model, history


# ---------------------------------------------------------------------------
# providers


def oracle_predict(truth, noise_std, seed=0) -> list[VelocityMeasurement]:
    """Ground-truth body velocities with additive Gaussian noise.

    eta_v reports max(noise_std, ETA_MIN) on every axis so the
    covariance stays invertible even for a noiseless oracle.
    """
    if noise_std < 0.0:
        raise ConfigError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    eta = np.full(3, max(noise_std, ETA_MIN))
    out = []
    for s in truth:
        v_body = s.r.T @ s.v + noise_std * rng.standard_normal(3)
        out.append(VelocityMeasurement(t=float(s.t), v_body=v_body, eta_v=eta))
    return out


class ConstantZeroProvider:
    """Always reports zero body velocity (a stationarity prior)."""

    required_kind = None

    def __init__(self, eta=1.0):
        if eta <= 0.0:
            raise ConfigError("eta must be positive")
        self.eta = float(eta)

    def predict_window(self, window: ImuWindow, n_tail: int) -> list[VelocityMeasurement]:
        n_tail = min(n_tail, len(window))
        return [
            VelocityMeasurement(t=float(t), v_body=np.zeros(3), eta_v=np.full(3, self.eta))
            for t in window.t[len(window) - n_tail :]
        ]


class OracleProvider:
    """Serves precomputed noisy ground-truth velocities by timestamp.

    The draw for each frame is fixed at construction, so the same frame
    always yields the same measurement no matter which window asks.
    """

    required_kind = None

    def __init__(self, truth, noise_std=0.0, seed=0):
        meas = oracle_predict(truth, noise_std, seed)
        self._times = np.array([m.t for m in meas])
        self._meas = meas

    def predict_window(self, window: ImuWindow, n_tail: int) -> list[VelocityMeasurement]:
        n_tail = min(n_tail, len(window))
        out = []
        for t in window.t[len(window) - n_tail :]:
            i = int(np.searchsorted(self._times, t))
            for j in (i - 1, i, i + 1):
                if 0 <= j < len(self._times) and abs(self._times[j] - t) < 1e-9:
                    out.append(self._meas[j])
                    break
            else:
                raise DataError(f"no oracle measurement at t={t}")
        return out


class NetworkProvider:
    """Runs a trained MotionNet on the window it was trained on.

    The model sees the last model.config.window frames of the window it
    is given (all of them when there are fewer), as in training, and
    measurements are built for the n_tail newest frames only. window_len
    tells the filter loop how many frames to hand over.
    """

    def __init__(self, model: MotionNet):
        self.model = model
        self.required_kind = model.config.representation
        self.window_len = model.config.window

    def predict_window(self, window: ImuWindow, n_tail: int) -> list[VelocityMeasurement]:
        if len(window) > self.window_len:
            window = window.slice(len(window) - self.window_len, len(window))
        return self.model.forward(window, n_tail)
