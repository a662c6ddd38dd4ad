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

The network computes in float32 (NET_DTYPE): its parameters, Adam
state, activations and the v and eta it returns. Inputs are normalized
in float64 and then rounded; the loss is computed in float64 and its
gradients rounded back; NetworkProvider serves float64 rows. Weight
files hold the float32 values exactly in their float64 format, and a
file with values float32 cannot hold (one an earlier float64 network
wrote) is rounded to float32 when loaded.

Training and analysis windows are one WindowSet of stacked arrays, cut
from whole sequences by velocity_windows. The module also hosts the
velocity providers the filter consumes: the network itself, run on the
window length it was trained on (MotionNetConfig.window), a
ground-truth oracle with configurable noise (for isolating filter
behavior), and a constant-zero baseline (equivalent to a pure
non-holonomic prior). Each declares required_kind, the representation
of its windows, and window_len, the newest frames it reads: the trained
window, or one for the oracle and the baseline. predict_window(window,
n_tail) returns (v, eta), (min(n_tail, len(window)), 3) each, for the
newest frames; an n_tail below 1 raises ConfigError. The filter fuses
only the newest frame and asks for that one row, and the network
computes only what that row needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .imu_model import ImuWindow, RepresentationKind
from .nn import Adam, BiGru, Conv1d, Dropout, Gelu, Linear, PlateauScheduler
from .weights_io import load_weights, save_weights

MOTION_VARIANT = "motion-net-v1"
NET_DTYPE = np.float32  # what MotionNet computes in
ETA_MIN = 1e-4  # m/s, keeps the measurement covariance invertible
ETA_MAX = 1e2


@dataclass(frozen=True)
class VelocityMeasurement:
    """One body-frame velocity estimate with a per-axis std."""

    v_body: np.ndarray
    eta_v: np.ndarray

    def __post_init__(self):
        v, eta = np.asarray(self.v_body, dtype=float), np.asarray(self.eta_v, dtype=float)
        object.__setattr__(self, "v_body", v)
        object.__setattr__(self, "eta_v", eta)
        if v.shape != (3,) or eta.shape != (3,):
            raise DataError("velocity measurement fields must be 3-vectors")
        if not (np.isfinite(v).all() and np.isfinite(eta).all()):
            raise DataError("velocity measurement must be finite")
        if not (eta > 0.0).all():
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

    def require_kind(self, kind: RepresentationKind, what: str):
        """DataError unless kind is the model's input representation."""
        if kind is not self.representation:
            raise DataError(f"{what} is in {kind.name}, model expects {self.representation.name}")


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
    seed: int = 0

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not self.lr > 0.0:  # NaN fails too
            raise ConfigError("lr must be positive")


@dataclass(frozen=True)
class WindowSet:
    """Network windows of one representation kind, stacked: imu (N, T, 6)
    gyro then accelerometer, att (N, T, 3) the attitude channel, present
    exactly when kind.has_attitude, and v (N, T, 3) body-frame velocity
    targets. Construction rejects an empty set and disagreeing shapes."""

    kind: RepresentationKind
    imu: np.ndarray
    att: np.ndarray | None
    v: np.ndarray

    def __post_init__(self):
        n_t = self.imu.shape[:2]
        att = None if self.att is None else self.att.shape
        want_att = (*n_t, 3) if self.kind.has_attitude else None
        if (self.imu.shape, self.v.shape, att) != ((*n_t, 6), (*n_t, 3), want_att) or not n_t[0]:
            raise DataError(f"{self.kind.name} window set needs imu (N>0, T, 6), v (N, T, 3)"
                            f" and att {want_att}; got {self.imu.shape}, {self.v.shape}, {att}")

    def __len__(self) -> int:
        return self.imu.shape[0]

    def __getitem__(self, index) -> "WindowSet":
        """The windows at a slice or an integer index array, in its order."""
        att = None if self.att is None else self.att[index]
        return WindowSet(self.kind, self.imu[index], att, self.v[index])

    def split(self, val_fraction: float, seed: int) -> tuple["WindowSet", "WindowSet"]:
        """(train, val): a seeded permutation's first round(val_fraction * N) validate."""
        if not 0.0 < val_fraction < 1.0:
            raise ConfigError("val_fraction must be in (0, 1)")
        order = np.random.default_rng(seed).permutation(len(self))
        n_val = max(1, int(round(val_fraction * len(self))))
        if n_val >= len(self):
            raise DataError("too few windows to hold out a validation split")
        return self[order[n_val:]], self[order[:n_val]]


def velocity_windows(sequences, length: int, stride: int) -> WindowSet:
    """Cut (window, v_body) pairs, each a whole sequence already in the
    network's representation with its (n, 3) body-frame velocities, into
    windows of length frames starting every stride frames. A sequence
    shorter than length adds none."""
    if length < 1 or stride < 1:
        raise ConfigError("window length and stride must be >= 1")
    kinds = {window.kind for window, _ in sequences}
    if len(kinds) != 1:
        raise DataError(f"need sequences of one representation, got {len(kinds)}")
    kind = kinds.pop()
    imus, atts, vs = [], [], []
    for window, v_body in sequences:
        if np.shape(v_body) != (len(window), 3):
            raise DataError(f"velocity shape {np.shape(v_body)} != ({len(window)}, 3)")
        frames = np.arange(0, len(window) - length + 1, stride)[:, None] + np.arange(length)
        imus.append(np.concatenate([window.w, window.a], axis=1)[frames])
        vs.append(np.asarray(v_body, dtype=float)[frames])
        if kind.has_attitude:
            atts.append(window.attitudes[frames])
    if sum(map(len, vs)) == 0:
        raise DataError(f"no window of {length} frames fits any sequence")
    return WindowSet(kind, np.concatenate(imus), np.concatenate(atts) if atts else None,
                     np.concatenate(vs))


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
    """Loss plus gradients w.r.t. v and eta; shapes (..., 3). Computed in
    float64 whatever the dtype of v and eta."""
    v, eta = np.asarray(v, dtype=float), np.asarray(eta, dtype=float)
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


# whether a weight-file meta value is JSON of a MotionNetConfig field's type
_META_FITS = {
    int: lambda x: type(x) is int,  # a bool is no int
    float: lambda x: type(x) in (int, float),
    tuple: lambda x: type(x) is list and all(type(c) is int for c in x),
}


class MotionNet:
    """Conv encoders + bidirectional GRU stack + two output heads."""

    def __init__(self, config: MotionNetConfig = MotionNetConfig(), init: bool = True):
        """The architecture of config, its weights drawn in float64 from
        config.seed and rounded to NET_DTYPE; with init=False every
        weight is zero and nothing is drawn (load fills them from a
        file)."""
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed) if init else None
        self._saved = None  # eta and where it is unclipped, for backward_arrays
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
        self.cast(NET_DTYPE)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        return {f"{pre}.{k}": p for pre, lay in self._named for k, p in lay.params.items()}

    def gradients(self):
        return {f"{pre}.{k}": g for pre, lay in self._named for k, g in lay.grads.items()}

    def zero_grads(self):
        for _, lay in self._named:
            lay.zero_grads()

    def cast(self, dtype):
        """Round every parameter to dtype, which the whole network then
        computes in; an optimizer must be built after this."""
        for _, lay in self._named:
            lay.cast(dtype)

    @property
    def dtype(self):
        """The dtype of the parameters, and of every array the network
        computes."""
        return self._v_out.params["w"].dtype

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

    def encode(self, imu, att, train=False):
        """Encoder output (the latent tap): (batch, time, enc_dim), in the
        network's dtype. Only with train do the layers save what
        backward_arrays reads."""
        h = ((imu - self._norm["imu_shift"]) / self._norm["imu_scale"]).astype(self.dtype)
        for layer in self._imu_stack:
            h = layer.forward(h, train=train)
        if self._att_dim:
            if att is None:
                raise DataError("model expects an attitude channel")
            g = ((att - self._norm["att_shift"]) / self._norm["att_scale"]).astype(self.dtype)
            for layer in self._att_stack:
                g = layer.forward(g, train=train)
            h = np.concatenate([h, g], axis=2)
        return h

    def forward_arrays(self, imu, att=None, train=False, rng=None, tail=None):
        """(batch, time, 6) [+ (batch, time, 3)] -> v, eta of (batch, time, 3),
        in the network's dtype.

        A training pass (train=True) drops out with rng and makes every
        layer save what backward_arrays reads, which that backward then
        frees; an evaluation pass saves nothing and cannot be followed
        by backward_arrays.

        With tail=k only the newest min(k, time) rows of v and eta are
        returned, equal to the bit to the full pass's rows: the last
        reverse GRU scans only k steps, and the heads still run on every
        row, as a row-subset matmul may round differently. Such a pass
        cannot be followed by backward_arrays either.
        """
        h = self.encode(imu, att, train)
        for gru in self._grus[:-1]:
            h = gru.forward(h, train=train)
        h = self._grus[-1].forward(h, tail, train)
        h = self._dropout.forward(h, rng if train else None, train)
        v = self._v_gelu.forward(self._v_hidden.forward(h, train), train)
        v = self._v_out.forward(v, train)
        raw = self._e_gelu.forward(self._e_hidden.forward(h, train), train)
        raw = self._e_out.forward(raw, train)
        lo, hi = math.log(ETA_MIN), math.log(ETA_MAX)
        eta = np.exp(np.clip(raw, lo, hi))
        self._saved = (eta, (raw > lo) & (raw < hi)) if train else None
        if tail is not None:
            return v[:, -tail:], eta[:, -tail:]
        return v, eta

    def backward_arrays(self, dv, deta):
        """Accumulate parameter grads from dL/dv and dL/deta, rounded to
        the network's dtype, reading and freeing what the last training
        forward_arrays saved; RuntimeError when no such pass came since
        the last backward. Returns dL/dimu in the network's dtype."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise RuntimeError("backward_arrays needs a training forward_arrays since the last"
                               " backward: an evaluation pass saves nothing")
        eta, inside = saved
        dv, deta = dv.astype(eta.dtype), deta.astype(eta.dtype)
        draw = deta * eta * inside
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
        return dimu / self._norm["imu_scale"].astype(dimu.dtype)

    # -- window-level API ----------------------------------------------------

    def forward(self, window: ImuWindow, tail=None) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation-mode inference: (v, eta), (n, 3) each, one row per
        frame in the network's dtype; with tail=k only the newest min(k, n)
        rows, as forward_arrays."""
        self.config.require_kind(window.kind, "window")
        att = window.attitudes[None] if self._att_dim else None
        v, eta = self.forward_arrays(
            np.concatenate([window.w, window.a], axis=1)[None], att, tail=tail
        )
        return v[0], eta[0]

    # -- persistence ----------------------------------------------------------

    def save(self, path):
        """Weights plus every MotionNetConfig field as meta (the
        representation by name)."""
        meta = {f.name: getattr(self.config, f.name) for f in fields(MotionNetConfig)}
        meta["representation"] = self.config.representation.name
        arrays = dict(self.parameters())
        arrays.update({f"norm.{k}": v for k, v in self._norm.items()})
        save_weights(path, MOTION_VARIANT, arrays, meta)

    @classmethod
    def load(cls, path) -> "MotionNet":
        """The network a save wrote; its weights are rounded to NET_DTYPE,
        and one beyond that dtype's range is a DataError."""
        _, meta, arrays = load_weights(path, expected_variant=MOTION_VARIANT)
        names = sorted(f.name for f in fields(MotionNetConfig))
        if sorted(meta) != names:
            raise DataError(f"{path}: motion meta keys {sorted(meta)}, expected {names}")
        try:
            # the representation by name, the rest as their default's type
            # once they fit it; a value the architecture rejects is bad data
            # too (ConfigError is a ValueError)
            types = {k: type(getattr(MotionNetConfig, k)) for k in names if k != "representation"}
            for k, t in types.items():
                if not _META_FITS[t](meta[k]):
                    raise TypeError(f"{k} = {meta[k]!r} does not fit its {t.__name__} field")
            values = {k: t(meta[k]) for k, t in types.items()}
            kind = RepresentationKind[meta["representation"]]
            model = cls(MotionNetConfig(representation=kind, **values), init=False)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad motion meta value: {exc!r}") from None
        norm = {k[5:]: v for k, v in arrays.items() if k.startswith("norm.")}
        weights = {k: v for k, v in arrays.items() if not k.startswith("norm.")}
        params = model.parameters()
        if set(params) != set(weights) or set(norm) != set(model._norm):
            raise DataError("weight file does not match the model architecture")
        for name, arr in weights.items():
            if params[name].shape != arr.shape:
                raise DataError(f"weight {name} has shape {arr.shape}, "
                                f"expected {params[name].shape}")
            with np.errstate(over="ignore"):
                params[name][...] = arr
            if not np.isfinite(params[name]).all():
                raise DataError(f"{path}: weight {name} holds a value beyond {params[name].dtype}"
                                " range")
        for name, arr in norm.items():
            model._norm[name] = arr.copy()
        return model


# ---------------------------------------------------------------------------
# training


def train_motion_model(
    train: WindowSet,
    val: WindowSet,
    cfg: MotionNetConfig = MotionNetConfig(),
    loss_cfg: LossConfig = LossConfig(),
    train_cfg: TrainConfig = TrainConfig(),
):
    """Fit a MotionNet on the training windows, validating on val.

    Adam with PlateauScheduler's schedule on the validation loss;
    returns the best-validation checkpoint, the weights of the epoch
    with the lowest loss that is not NaN, and a history dict with
    per-epoch train loss, validation loss, and learning rate. Raises
    NumericalError when no epoch's validation loss is finite.
    Deterministic for a fixed seed (one worker, seeded shuffle and
    dropout).
    """
    loss_cfg.validate()
    train_cfg.validate()
    cfg.require_kind(train.kind, "training set")
    cfg.require_kind(val.kind, "validation set")
    model = MotionNet(cfg)
    model.set_normalization(train.imu, train.att)
    opt = Adam(model.parameters(), lr=train_cfg.lr)
    sched = PlateauScheduler(opt)
    rng = np.random.default_rng(train_cfg.seed)

    def val_loss():
        v, eta = model.forward_arrays(val.imu, val.att, train=False)
        loss, _, _ = _combined_loss_grads(v, val.v, eta, loss_cfg)
        return loss

    n = len(train)
    history = {"train_loss": [], "val_loss": [], "lr": []}
    best = math.inf
    best_params = {k: p.copy() for k, p in model.parameters().items()}
    for _ in range(train_cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            batch = train[order[start : start + train_cfg.batch_size]]
            v, eta = model.forward_arrays(batch.imu, batch.att, train=True, rng=rng)
            loss, dv, deta = _combined_loss_grads(v, batch.v, eta, loss_cfg)
            model.zero_grads()
            model.backward_arrays(dv, deta)
            opt.step(model.gradients())
            epoch_loss += loss * len(batch)
        vl = val_loss()
        history["train_loss"].append(epoch_loss / n)
        history["val_loss"].append(vl)
        history["lr"].append(opt.lr)
        if vl < best:
            best = vl
            best_params = {k: p.copy() for k, p in model.parameters().items()}
        sched.step(vl)

    if not math.isfinite(best):
        raise NumericalError(
            f"no finite validation loss in {train_cfg.epochs} epochs (lr {train_cfg.lr:g})"
        )
    for k, p in model.parameters().items():
        p[...] = best_params[k]
    return model, history


# ---------------------------------------------------------------------------
# providers


def _tail_rows(n_tail, window: ImuWindow) -> int:
    """The number of rows predict_window(window, n_tail) returns,
    min(n_tail, len(window)); ConfigError when n_tail is below 1."""
    if not n_tail >= 1:
        raise ConfigError(f"n_tail must be >= 1, got {n_tail}")
    return min(n_tail, len(window))


def oracle_predict(truth, noise_std, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth body velocities with additive Gaussian noise.

    truth is a Trajectory; one (n, 3) standard-normal draw from
    np.random.default_rng(seed), scaled by noise_std, is added to
    truth.body_velocities(). seed may be a Generator, which then makes
    the draw and moves on past it. Returns (v_body (n, 3), eta_v (3,)),
    with eta_v max(noise_std, ETA_MIN) on every axis so the covariance
    stays invertible even for a noiseless oracle.
    """
    if not noise_std >= 0.0:  # NaN fails too
        raise ConfigError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    noise = noise_std * rng.standard_normal((len(truth), 3))
    return truth.body_velocities() + noise, np.full(3, max(noise_std, ETA_MIN))


class ConstantZeroProvider:
    """Always reports zero body velocity (a stationarity prior) with a
    std of ETA m/s on every axis."""

    required_kind = RepresentationKind.BODY
    window_len = 1
    ETA = 1.0

    def predict_window(self, window: ImuWindow, n_tail: int) -> tuple[np.ndarray, np.ndarray]:
        n_tail = _tail_rows(n_tail, window)
        return np.zeros((n_tail, 3)), np.full((n_tail, 3), self.ETA)


class OracleProvider:
    """Serves noisy ground-truth velocities by timestamp: those of the
    last Trajectory fed to it, the whole truth given at construction or
    a stream's truth fed a block at a time. Each frame's noise is drawn
    once, when it is fed, from one generator seeded at construction;
    consecutive draws reproduce one large draw bit for bit, so a stream
    fed block by block is served what its whole truth would be, and a
    frame always yields the same measurement whichever window asks.
    """

    required_kind = RepresentationKind.BODY
    window_len = 1

    def __init__(self, truth=None, noise_std=0.0, seed=0):
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        if truth is not None:
            self.feed(truth)

    def feed(self, truth):
        """Serve the frames of truth, a Trajectory, from now on, in place
        of those fed before."""
        self._times = truth.t
        self._v, self._eta = oracle_predict(truth, self.noise_std, self._rng)

    def predict_window(self, window: ImuWindow, n_tail: int) -> tuple[np.ndarray, np.ndarray]:
        stamps = window.t[len(window) - _tail_rows(n_tail, window) :]
        # the first truth row after stamp - 1e-9 s is the only one that can match
        rows = np.searchsorted(self._times, stamps - 1e-9, side="right")
        rows = np.minimum(rows, len(self._times) - 1)
        missing = np.abs(self._times[rows] - stamps) >= 1e-9
        if missing.any():
            raise DataError(f"no oracle measurement at t={stamps[missing.argmax()]}")
        return self._v[rows], np.full((len(rows), 3), self._eta)


class NetworkProvider:
    """Runs a trained MotionNet on the window it was trained on.

    The model sees the last model.config.window frames of the window it
    is given (all of them when there are fewer), as in training, and
    computes only what the rows of the n_tail newest frames need (see
    MotionNet.forward_arrays); those rows are returned in float64.
    """

    def __init__(self, model: MotionNet):
        self.model = model
        self.required_kind = model.config.representation
        self.window_len = model.config.window

    def predict_window(self, window: ImuWindow, n_tail: int) -> tuple[np.ndarray, np.ndarray]:
        if len(window) > self.window_len:
            window = window.slice(len(window) - self.window_len, len(window))
        v, eta = self.model.forward(window, _tail_rows(n_tail, window))
        return v.astype(float), eta.astype(float)
