"""Differentiable layers on numpy with explicit forward/backward.

Just enough machinery for the velocity network: 1-D convolution,
gated recurrent units (run in both directions for a bidirectional
stack), linear layers, smooth GELU, inverted dropout, and Adam. No
autograd: every layer caches what its backward pass needs and exposes

    forward(x, ...) -> y
    backward(dy)    -> dx     (accumulating parameter gradients)

Sequence tensors are (batch, time, channels), float64 throughout. Each
layer owns `params` and `grads` dicts keyed by local names; containers
namespace them per layer so an optimizer or a finite-difference checker
can address every trainable array through a flat dict.

Initialization is deterministic given a generator: Glorot-uniform for
input weights, orthogonal (QR with sign fix) for recurrent weights,
zeros for biases unless a layer opts into zero_init for its weights
(used by decoder output layers so a fresh model predicts exactly zero).
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)


def glorot(rng, shape):
    fan_in, fan_out = shape[-2], shape[-1]
    if len(shape) == 3:  # conv kernels: (k, cin, cout)
        fan_in *= shape[0]
        fan_out *= shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Layer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def zero_grads(self):
        for k, p in self.params.items():
            self.grads[k] = np.zeros_like(p)


class Linear(Layer):
    def __init__(self, cin, cout, rng, zero_init=False):
        super().__init__()
        self.params["w"] = np.zeros((cin, cout)) if zero_init else glorot(rng, (cin, cout))
        self.params["b"] = np.zeros(cout)
        self.zero_grads()

    def forward(self, x):
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy):
        x2 = self._x.reshape(-1, self._x.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.grads["w"] += x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["w"].T


class Conv1d(Layer):
    """Same-padded 1-D convolution over (batch, time, channels)."""

    def __init__(self, cin, cout, kernel, rng):
        super().__init__()
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        self.kernel = kernel
        self.params["w"] = glorot(rng, (kernel, cin, cout))
        self.params["b"] = np.zeros(cout)
        self.zero_grads()

    def forward(self, x):
        b, t, cin = x.shape
        pad = self.kernel // 2
        xp = np.zeros((b, t + 2 * pad, cin))
        xp[:, pad : pad + t] = x
        self._xp = xp
        y = np.tile(self.params["b"], (b, t, 1))
        for k in range(self.kernel):
            y += xp[:, k : k + t] @ self.params["w"][k]
        return y

    def backward(self, dy):
        b, t, _ = dy.shape
        pad = self.kernel // 2
        dxp = np.zeros_like(self._xp)
        dy2 = dy.reshape(-1, dy.shape[-1])
        for k in range(self.kernel):
            seg = self._xp[:, k : k + t].reshape(-1, self._xp.shape[-1])
            self.grads["w"][k] += seg.T @ dy2
            dxp[:, k : k + t] += dy @ self.params["w"][k].T
        self.grads["b"] += dy2.sum(axis=0)
        return dxp[:, pad : pad + t]


class Gelu(Layer):
    """tanh-form GELU; smooth, so finite-difference checks stay clean."""

    def forward(self, x):
        self._x = x
        self._u = np.tanh(_GELU_C * (x + 0.044715 * x**3))
        return 0.5 * x * (1.0 + self._u)

    def backward(self, dy):
        x, u = self._x, self._u
        du = (1.0 - u * u) * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return dy * (0.5 * (1.0 + u) + 0.5 * x * du)


class Dropout(Layer):
    """Inverted dropout; a no-op unless forward is given a generator."""

    def __init__(self, p):
        super().__init__()
        self.p = float(p)

    def forward(self, x, rng=None):
        if rng is None or self.p <= 0.0:
            self._mask = None
            return x
        self._mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, dy):
        return dy if self._mask is None else dy * self._mask


class Gru(Layer):
    """Single-direction GRU over (batch, time, channels).

    Gate order along the 3H axis is (r, z, n):

        r = sig(x W_ir + b_ir + h W_hr + b_hr)
        z = sig(x W_iz + b_iz + h W_hz + b_hz)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = (1 - z) n + z h

    Set reverse=True to scan right-to-left (output stays time-aligned
    with the input).
    """

    def __init__(self, cin, hidden, rng, reverse=False):
        super().__init__()
        self.hidden = hidden
        self.reverse = reverse
        self.params["w_i"] = glorot(rng, (cin, 3 * hidden))
        self.params["w_h"] = np.hstack([orthogonal(rng, hidden) for _ in range(3)])
        self.params["b_i"] = np.zeros(3 * hidden)
        self.params["b_h"] = np.zeros(3 * hidden)
        self.zero_grads()

    def forward(self, x):
        if self.reverse:
            x = x[:, ::-1]
        b, t, _ = x.shape
        h = self.hidden
        w_i, w_h = self.params["w_i"], self.params["w_h"]
        gi = x @ w_i + self.params["b_i"]  # (b, t, 3h)
        hs = np.zeros((t, b, h))
        cache_r = np.empty((t, b, h))
        cache_z = np.empty((t, b, h))
        cache_n = np.empty((t, b, h))
        cache_ghn = np.empty((t, b, h))
        h_prev = np.zeros((b, h))
        for step in range(t):
            gh = h_prev @ w_h + self.params["b_h"]
            r = sigmoid(gi[:, step, :h] + gh[:, :h])
            z = sigmoid(gi[:, step, h : 2 * h] + gh[:, h : 2 * h])
            ghn = gh[:, 2 * h :]
            n = np.tanh(gi[:, step, 2 * h :] + r * ghn)
            h_prev = (1.0 - z) * n + z * h_prev
            hs[step] = h_prev
            cache_r[step], cache_z[step] = r, z
            cache_n[step], cache_ghn[step] = n, ghn
        self._cache = (x, cache_r, cache_z, cache_n, cache_ghn, hs)
        out = hs.transpose(1, 0, 2)
        return out[:, ::-1] if self.reverse else out

    def backward(self, dy):
        if self.reverse:
            dy = dy[:, ::-1]
        x, cache_r, cache_z, cache_n, cache_ghn, hs = self._cache
        b, t, cin = x.shape
        h = self.hidden
        w_i, w_h = self.params["w_i"], self.params["w_h"]
        dx = np.zeros_like(x)
        dgi_all = np.zeros((b, t, 3 * h))
        dh = np.zeros((b, h))
        dw_h = np.zeros_like(w_h)
        db_h = np.zeros(3 * h)
        for step in range(t - 1, -1, -1):
            dh = dh + dy[:, step]
            r, z = cache_r[step], cache_z[step]
            n, ghn = cache_n[step], cache_ghn[step]
            h_prev = hs[step - 1] if step > 0 else np.zeros((b, h))

            dz = dh * (h_prev - n)
            dn = dh * (1.0 - z)
            dh = dh * z
            dn_pre = dn * (1.0 - n * n)
            dr = dn_pre * ghn
            dghn = dn_pre * r
            dr_pre = dr * r * (1.0 - r)
            dz_pre = dz * z * (1.0 - z)

            dgi = np.concatenate([dr_pre, dz_pre, dn_pre], axis=1)
            dgh = np.concatenate([dr_pre, dz_pre, dghn], axis=1)
            dgi_all[:, step] = dgi
            dw_h += h_prev.T @ dgh
            db_h += dgh.sum(axis=0)
            dh = dh + dgh @ w_h.T
        dx = dgi_all @ w_i.T
        self.grads["w_i"] += np.einsum("btc,bth->ch", x, dgi_all)
        self.grads["b_i"] += dgi_all.sum(axis=(0, 1))
        self.grads["w_h"] += dw_h
        self.grads["b_h"] += db_h
        return dx[:, ::-1] if self.reverse else dx


class BiGru(Layer):
    """Forward and reverse GRUs, outputs concatenated to 2*hidden."""

    def __init__(self, cin, hidden, rng):
        super().__init__()
        self.fwd = Gru(cin, hidden, rng, reverse=False)
        self.bwd = Gru(cin, hidden, rng, reverse=True)

    def forward(self, x):
        return np.concatenate([self.fwd.forward(x), self.bwd.forward(x)], axis=2)

    def backward(self, dy):
        h = self.fwd.hidden
        return self.fwd.backward(dy[:, :, :h]) + self.bwd.backward(dy[:, :, h:])

    def zero_grads(self):
        self.fwd.zero_grads()
        self.bwd.zero_grads()


class Adam:
    """Standard Adam on a flat {name: array} parameter dict."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            p -= self.lr * (self.m[k] / bias1) / (np.sqrt(self.v[k] / bias2) + self.eps)


class PlateauScheduler:
    """Multiply the optimizer lr by `factor` after `patience` epochs
    without improvement (strict, with a small tolerance)."""

    def __init__(self, optimizer, patience=5, factor=0.2, min_lr=1e-6, tol=1e-12):
        self.opt = optimizer
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.tol = tol
        self.best = math.inf
        self.bad_epochs = 0

    def step(self, metric):
        if metric < self.best - self.tol:
            self.best = metric
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        if self.bad_epochs > self.patience:
            self.opt.lr = max(self.opt.lr * self.factor, self.min_lr)
            self.bad_epochs = 0
            return True
        return False
