"""Differentiable layers on numpy with explicit forward/backward.

Just enough machinery for the velocity network: 1-D convolution,
gated recurrent units (run in both directions for a bidirectional
stack), linear layers, smooth GELU, inverted dropout, and Adam. No
autograd: every layer exposes

    forward(x, ..., train=True) -> y
    backward(dy)                -> dx     (accumulating parameter gradients)

A training forward (train=True, the layers' default) saves the arrays
its backward reads, and backward consumes them: it takes them from the
layer, so they are freed once it returns, and a second backward
without a new forward raises RuntimeError. An evaluation forward
(train=False) saves nothing and drops what an earlier forward saved, so
backward after it raises too. A training step thus holds each layer's
arrays from its forward to its backward only. What each layer saves:

    Linear    its input
    Conv1d    its zero-padded input
    Gelu      its derivative at the input, one array
    Dropout   which units it kept, as booleans
    Gru       its input and views of the scan's arrays (see Gru)

Sequence tensors are (batch, time, channels). A layer computes in the
dtype of its parameters and of its input, which agree: every buffer it
allocates, and every array it saves or returns, has that dtype. Layers
are built in float64, and cast(dtype) moves a layer to another; the
velocity network (motion_model.MotionNet) casts all of its layers to
float32, so its training and serving move half the bytes. Each layer
owns `params` and `grads` dicts keyed by local names; containers
namespace them per layer so an optimizer or a finite-difference checker
can address every trainable array through a flat dict.

One GRU scan (_scan) runs the recurrence of one direction, or of both
directions of a bidirectional layer in a single time loop; each step
writes into buffers allocated before the loop, and every output equals
a scan of each direction alone to the bit. GRU weight and bias
gradients are summed once over all batch*time rows by BLAS, after the
backward time loop, and GELU cubes as x*x*x: trained weights differ
from earlier versions' in the last bits, but stay bit-for-bit
reproducible for a fixed seed.

Initialization is deterministic given a generator: Glorot-uniform for
input weights, orthogonal (QR with sign fix) for recurrent weights,
zeros for biases unless a layer opts into zero_init for its weights
(used by decoder output layers so a fresh model predicts exactly zero).
Given None instead of a generator, a layer draws nothing and its
weights are zeros, for a model whose weights are read from a file.
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


class Layer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._saved: tuple | None = None  # the last training forward's, for backward

    def _take(self) -> tuple:
        """The arrays the last training forward saved, handed to backward
        once: the layer forgets them, so they are freed when backward is
        done with them."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise RuntimeError(
                f"{type(self).__name__} backward needs a full training forward since the last"
                " backward: an evaluation forward or a partial GRU scan saves nothing"
            )
        return saved

    def zero_grads(self):
        for k, p in self.params.items():
            self.grads[k] = np.zeros_like(p)

    def cast(self, dtype):
        """Hold the parameters, rounded, and zeroed gradients in dtype,
        which forward and backward then compute in."""
        self.params = {k: p.astype(dtype) for k, p in self.params.items()}
        self.zero_grads()


class Linear(Layer):
    def __init__(self, cin, cout, rng, zero_init=False):
        super().__init__()
        zero = zero_init or rng is None
        self.params["w"] = np.zeros((cin, cout)) if zero else glorot(rng, (cin, cout))
        self.params["b"] = np.zeros(cout)
        self.zero_grads()

    def forward(self, x, train=True):
        self._saved = (x,) if train else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy):
        (x,) = self._take()
        x2 = x.reshape(-1, x.shape[-1])
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
        shape = (kernel, cin, cout)
        self.params["w"] = np.zeros(shape) if rng is None else glorot(rng, shape)
        self.params["b"] = np.zeros(cout)
        self.zero_grads()

    def forward(self, x, train=True):
        b, t, cin = x.shape
        pad = self.kernel // 2
        xp = np.zeros((b, t + 2 * pad, cin), x.dtype)
        xp[:, pad : pad + t] = x
        self._saved = (xp,) if train else None
        y = np.tile(self.params["b"], (b, t, 1))
        for k in range(self.kernel):
            y += xp[:, k : k + t] @ self.params["w"][k]
        return y

    def backward(self, dy):
        (xp,) = self._take()
        b, t, _ = dy.shape
        pad = self.kernel // 2
        dxp = np.zeros_like(xp)
        dy2 = dy.reshape(-1, dy.shape[-1])
        for k in range(self.kernel):
            seg = xp[:, k : k + t].reshape(-1, xp.shape[-1])
            self.grads["w"][k] += seg.T @ dy2
            dxp[:, k : k + t] += dy @ self.params["w"][k].T
        self.grads["b"] += dy2.sum(axis=0)
        return dxp[:, pad : pad + t]


class Gelu(Layer):
    """tanh-form GELU; smooth, so finite-difference checks stay clean.

    A training forward saves the derivative at x, one array, so backward
    is a single product dy * g."""

    def forward(self, x, train=True):
        u = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
        half_x, one_u = 0.5 * x, 1.0 + u
        if train:
            du = (1.0 - u * u) * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
            self._saved = (0.5 * one_u + half_x * du,)
        else:
            self._saved = None
        return half_x * one_u

    def backward(self, dy):
        (g,) = self._take()
        return dy * g


class Dropout(Layer):
    """Inverted dropout; a no-op unless forward is given a generator.

    A training forward saves which units it kept, as booleans; backward
    scales by the same float mask, rebuilt from them in the dtype of
    the array it scales."""

    def __init__(self, p):
        super().__init__()
        self.p = float(p)

    def forward(self, x, rng=None, train=True):
        keep = None if rng is None or self.p <= 0.0 else rng.random(x.shape) >= self.p
        self._saved = (keep,) if train else None
        return x if keep is None else x * self._mask(keep, x.dtype)

    def backward(self, dy):
        (keep,) = self._take()
        return dy if keep is None else dy * self._mask(keep, dy.dtype)

    def _mask(self, keep, dtype):
        # keep / (1 - p) alone would be float64 whatever dtype is
        return np.divide(keep, 1.0 - self.p, dtype=dtype)


def _scan(grus, xs, steps):
    """The recurrence of d GRU directions in one time loop.

    grus are the d directions and xs their inputs (b, t, cin), each in
    its scan order. What they saved from the last pass is dropped first,
    so that those arrays are freed before this pass makes its own. Each
    input projection x W_i + b_i is copied into the rz and ns buffers,
    which each step then overwrites with its results, so only one
    projection exists at a time. Runs the first `steps`
    steps and returns, time-major so that each step works on contiguous
    rows of every direction:

        rz (t, 2, d, b, h)   the gates, rz[:, 0] r and rz[:, 1] z
        ns (t, d, b, h)      the candidates n
        ghn (t, d, b, h)     the n column of h W_h + b_h
        hs (t+1, d, b, h)    the states, hs[0] the zero initial one

    Rows past `steps` are zero in hs and undefined in the others. Every
    buffer, and each 0-d constant of the step, has the input's dtype. Each
    step writes into preallocated buffers, in the operation order of

        gh = h W_h + b_h            (one matmul over the d directions)
        r, z = sig(gh + gi),        sig(x) = 0.5 (1 + tanh(0.5 x))
        n = tanh(gi + r gh_n)
        h' = (1 - z) n + z h

    so every direction's rows equal a scan of that direction alone to
    the bit, whatever d is: numpy's matmul multiplies each matrix of a
    stack by the same BLAS call as a 2-D matmul of that matrix.
    """
    d, h = len(grus), grus[0].hidden
    b, t, _ = xs[0].shape
    dtype = xs[0].dtype
    for gru in grus:
        gru._saved = None
    rz = np.empty((t, 2, d, b, h), dtype)
    ns = np.empty((t, d, b, h), dtype)
    for k, (gru, x) in enumerate(zip(grus, xs)):
        gi = x @ gru.params["w_i"]  # (b, t, 3h)
        gi += gru.params["b_i"]
        rz[:, :, k] = gi[:, :, : 2 * h].reshape(b, t, 2, h).transpose(1, 2, 0, 3)
        ns[:, k] = gi[:, :, 2 * h :].transpose(1, 0, 2)
        del gi  # before the next direction's projection is made
    w_h = np.stack([gru.params["w_h"] for gru in grus])  # (d, h, 3h)
    b_h = np.stack([gru.params["b_h"] for gru in grus])  # (d, 3h)
    ghn = np.empty((t, d, b, h), dtype)
    hs = np.zeros((t + 1, d, b, h), dtype)
    gh = np.empty((d, b, 3 * h), dtype)
    gh_rz = gh[:, :, : 2 * h].reshape(d, b, 2, h).transpose(2, 0, 1, 3)  # (2, d, b, h)
    gh_n = gh[:, :, 2 * h :]
    b_rz = np.ascontiguousarray(b_h[:, : 2 * h].reshape(d, 1, 2, h).transpose(2, 0, 1, 3))
    b_n = np.ascontiguousarray(b_h[:, None, 2 * h :])
    s = np.empty((2, d, b, h), dtype)
    u = np.empty((d, b, h), dtype)
    v = np.empty((d, b, h), dtype)
    # 0-d arrays, which a ufunc takes without converting a Python float
    # per call; of the input's dtype, as a float64 one would promote a
    # float32 step to float64 (NEP 50)
    half, one = np.array(0.5, dtype), np.array(1.0, dtype)
    # local names and positional outputs: numpy's per-call overhead, not
    # the arithmetic, bounds a step at small batches
    add, multiply, subtract, tanh, matmul = np.add, np.multiply, np.subtract, np.tanh, np.matmul
    for rz_t, (r, z), n, ghn_t, h_t, h_next in zip(rz[:steps], rz, ns, ghn, hs, hs[1:]):
        matmul(h_t, w_h, gh)
        add(gh_rz, b_rz, s)
        add(gh_n, b_n, ghn_t)
        add(s, rz_t, s)  # rz_t holds gi's r and z columns until overwritten
        multiply(half, s, s)
        tanh(s, s)
        add(one, s, s)
        multiply(half, s, rz_t)
        multiply(r, ghn_t, u)
        add(n, u, u)  # n holds gi's n column until overwritten
        tanh(u, n)
        subtract(one, z, u)
        multiply(u, n, u)
        multiply(z, h_t, v)
        add(u, v, h_next)
    return rz, ns, ghn, hs


class Gru(Layer):
    """Single-direction GRU over (batch, time, channels).

    Gate order along the 3H axis is (r, z, n):

        r = sig(x W_ir + b_ir + h W_hr + b_hr)
        z = sig(x W_iz + b_iz + h W_hz + b_hz)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = (1 - z) n + z h

    Set reverse=True to scan right-to-left (output stays time-aligned
    with the input).

    forward runs the recurrence through _scan with one direction, the
    same scan that BiGru runs both its directions through at once. A
    training forward saves for backward the input x (a reversed view
    when reverse) and views of the scan's arrays: the gates rz (t, 2, b,
    h), r then z, the candidates ns and the n column of h W_h + b_h
    ghn, (t, b, h) each, and the states hs (t+1, b, h). Nothing else
    outlives forward: not the input projection, nor the r and z columns
    of h W_h + b_h. backward takes these from the layer, so they live
    from the forward to the backward only; an evaluation forward
    (train=False) saves none of them.

    forward(x, steps=k) runs only the first k steps of the scan: the
    first k frames, or the last k when reversed. The input projection
    and the output keep the whole window's shape; the rows the scan
    reached equal the full scan's to the bit and the others are zero.
    Such a partial scan saves nothing, so backward raises after it.

    Backward's time loop carries only the dh recursion. It stores each
    step's dgi and the n column of dgh, and the weight and bias gradients
    are summed from them once over all batch*time rows by BLAS. The views
    of rz, ns and ghn are dropped when the loop ends, before those sums.
    """

    def __init__(self, cin, hidden, rng, reverse=False):
        super().__init__()
        self.hidden = hidden
        self.reverse = reverse
        if rng is None:
            self.params["w_i"] = np.zeros((cin, 3 * hidden))
            self.params["w_h"] = np.zeros((hidden, 3 * hidden))
        else:
            self.params["w_i"] = glorot(rng, (cin, 3 * hidden))
            self.params["w_h"] = np.hstack([orthogonal(rng, hidden) for _ in range(3)])
        self.params["b_i"] = np.zeros(3 * hidden)
        self.params["b_h"] = np.zeros(3 * hidden)
        self.zero_grads()

    def _in_scan_order(self, x):
        return x[:, ::-1] if self.reverse else x

    def _keep(self, x, scan, k, save):
        """Direction k of a _scan's output, time-aligned with the input;
        with save, that direction's arrays are saved for backward."""
        rz, ns, ghn, hs = scan
        if save:
            self._saved = (x, rz[:, :, k], ns[:, k], ghn[:, k], hs[:, k])
        out = hs[1:, k].transpose(1, 0, 2)
        return out[:, ::-1] if self.reverse else out

    def forward(self, x, steps=None, train=True):
        x = self._in_scan_order(x)
        t = x.shape[1]
        steps = t if steps is None else min(steps, t)
        if steps < 1:
            raise ValueError("a GRU scan needs at least one step")
        scan = _scan((self,), (x,), steps)
        return self._keep(x, scan, 0, train and steps == t)

    def backward(self, dy):
        x, rz, ns, ghn, hs = self._take()
        if self.reverse:
            dy = dy[:, ::-1]
        b, t, cin = x.shape
        h = self.hidden
        w_h = self.params["w_h"]
        dgi = np.empty((b, t, 3 * h), hs.dtype)
        dghn = np.empty((t, b, h), hs.dtype)
        dh = np.zeros((b, h), hs.dtype)
        for step in range(t - 1, -1, -1):
            dh = dh + dy[:, step]
            (r, z), n = rz[step], ns[step]
            omz = 1.0 - z
            dn_pre = dh * omz * (1.0 - n * n)
            dgh = np.concatenate(
                [dn_pre * ghn[step] * r * (1.0 - r), dh * (hs[step] - n) * z * omz, dn_pre * r],
                axis=1,
            )
            dgi[:, step, : 2 * h] = dgh[:, : 2 * h]
            dgi[:, step, 2 * h :] = dn_pre
            dghn[step] = dgh[:, 2 * h :]
            dh = dh * z + dgh @ w_h.T
        del rz, ns, ghn, r, z, n  # only x and hs are read from here on
        rows = dgi.reshape(-1, 3 * h)  # (b*t, 3h)
        self.grads["w_i"] += x.reshape(-1, cin).T @ rows
        self.grads["b_i"] += rows.sum(axis=0)
        h_rows = hs[:-1].transpose(1, 0, 2).reshape(-1, h)  # step-start states, as rows
        self.grads["w_h"][:, : 2 * h] += h_rows.T @ rows[:, : 2 * h]
        self.grads["b_h"][: 2 * h] += rows[:, : 2 * h].sum(axis=0)
        dghn_rows = dghn.reshape(-1, h)  # (t*b, h): dgh's n column, t-major
        self.grads["w_h"][:, 2 * h :] += hs[:-1].reshape(-1, h).T @ dghn_rows
        self.grads["b_h"][2 * h :] += dghn_rows.sum(axis=0)
        dx = dgi @ self.params["w_i"].T
        return dx[:, ::-1] if self.reverse else dx


class BiGru(Layer):
    """Forward and reverse GRUs, outputs concatenated to 2*hidden.

    A full forward pass runs both directions through one _scan, their
    weights stacked: one time loop of t steps, not two. In training each
    direction then saves its own views of the scan's arrays (see Gru),
    so the two keep no more for backward than two single-direction
    passes would, and Gru.backward serves each as before. The scan's
    gate arrays are freed once both directions' time loops have read
    them; an evaluation pass (train=False) saves none. backward adds the
    reverse direction's input gradient into the forward one's in place.

    forward(x, tail=k) is exact on the newest k frames only: the forward
    GRU scans the whole window, the reverse one only its first k steps
    (see Gru). Rows before the tail carry zeros in the reverse half, and
    backward raises after such a pass.
    """

    def __init__(self, cin, hidden, rng):
        super().__init__()
        self.fwd = Gru(cin, hidden, rng, reverse=False)
        self.bwd = Gru(cin, hidden, rng, reverse=True)

    def forward(self, x, tail=None, train=True):
        if tail is not None:
            return np.concatenate(
                [self.fwd.forward(x, train=train), self.bwd.forward(x, tail, train)], axis=2
            )
        grus = (self.fwd, self.bwd)
        xs = [gru._in_scan_order(x) for gru in grus]
        scan = _scan(grus, xs, x.shape[1])
        out = [gru._keep(x_k, scan, k, train) for k, (gru, x_k) in enumerate(zip(grus, xs))]
        return np.concatenate(out, axis=2)

    def backward(self, dy):
        h = self.fwd.hidden
        dx_bwd = self.bwd.backward(dy[:, :, h:])  # first: it raises after a tail pass
        dx = self.fwd.backward(dy[:, :, :h])
        dx += dx_bwd  # in place: the bits of dx + dx_bwd, without a third array
        return dx

    def zero_grads(self):
        self.fwd.zero_grads()
        self.bwd.zero_grads()

    def cast(self, dtype):
        self.fwd.cast(dtype)
        self.bwd.cast(dtype)


class Adam:
    """Standard Adam on a flat {name: array} parameter dict, with the
    usual constants beta1 = 0.9, beta2 = 0.999, eps = 1e-8. Its moments,
    and each update, are in the dtype of the parameter they belong to."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            p -= self.lr * (self.m[k] / bias1) / (np.sqrt(self.v[k] / bias2) + self.EPS)


class PlateauScheduler:
    """Multiply the optimizer lr by FACTOR, down to MIN_LR, after
    PATIENCE epochs without an improvement of more than TOL."""

    PATIENCE, FACTOR, MIN_LR, TOL = 5, 0.2, 1e-6, 1e-12

    def __init__(self, optimizer):
        self.opt = optimizer
        self.best = math.inf
        self.bad_epochs = 0

    def step(self, metric):
        if metric < self.best - self.TOL:
            self.best = metric
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        if self.bad_epochs > self.PATIENCE:
            self.opt.lr = max(self.opt.lr * self.FACTOR, self.MIN_LR)
            self.bad_epochs = 0
            return True
        return False
