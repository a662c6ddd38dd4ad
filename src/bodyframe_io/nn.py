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
    Gru       its input and its output, which holds its states (see Gru)

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
        hs (t+1, d, b, h)    the states, hs[0] the zero initial one

    Rows past `steps` are zero in hs and undefined in the others. The n
    column of h W_h + b_h lives one step in a (d, b, h) buffer. No layer
    keeps rz, ns or that column: Gru.backward rebuilds them from the
    input and the states, to the bit (Gru._rebuild), so they are freed
    when the layer's forward returns. Every buffer, and each 0-d
    constant of the step, has the input's dtype. Each step writes
    into preallocated buffers, in the operation order of

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
    hs = np.zeros((t + 1, d, b, h), dtype)
    gh = np.empty((d, b, 3 * h), dtype)
    gh_rz = gh[:, :, : 2 * h].reshape(d, b, 2, h).transpose(2, 0, 1, 3)  # (2, d, b, h)
    gh_n = gh[:, :, 2 * h :]
    b_rz = np.ascontiguousarray(b_h[:, : 2 * h].reshape(d, 1, 2, h).transpose(2, 0, 1, 3))
    b_n = np.ascontiguousarray(b_h[:, None, 2 * h :])
    s = np.empty((2, d, b, h), dtype)
    ghn = np.empty((d, b, h), dtype)
    u = np.empty((d, b, h), dtype)
    v = np.empty((d, b, h), dtype)
    # 0-d arrays, which a ufunc takes without converting a Python float
    # per call; of the input's dtype, as a float64 one would promote a
    # float32 step to float64 (NEP 50)
    half, one = np.array(0.5, dtype), np.array(1.0, dtype)
    # local names and positional outputs: numpy's per-call overhead, not
    # the arithmetic, bounds a step at small batches
    add, multiply, subtract, tanh, matmul = np.add, np.multiply, np.subtract, np.tanh, np.matmul
    for rz_t, (r, z), n, h_t, h_next in zip(rz[:steps], rz, ns, hs, hs[1:]):
        matmul(h_t, w_h, gh)
        add(gh_rz, b_rz, s)
        add(gh_n, b_n, ghn)
        add(s, rz_t, s)  # rz_t holds gi's r and z columns until overwritten
        multiply(half, s, s)
        tanh(s, s)
        add(one, s, s)
        multiply(half, s, rz_t)
        multiply(r, ghn, u)
        add(n, u, u)  # n holds gi's n column until overwritten
        tanh(u, n)
        subtract(one, z, u)
        multiply(u, n, u)
        multiply(z, h_t, v)
        add(u, v, h_next)
    return rz, ns, hs


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
    training forward saves for backward only the input x (a reversed
    view when reverse) and the output y (b, t, h) it returns, a view of
    the scan's states. Nothing else outlives forward: not the input
    projection, the gates, the candidates, nor any column of
    h W_h + b_h. backward takes x and y from the layer, so they live
    from the forward to the backward only; an evaluation forward
    (train=False) saves neither.

    forward(x, steps=k) runs only the first k steps of the scan: the
    first k frames, or the last k when reversed. The input projection
    and the output keep the whole window's shape; the rows the scan
    reached equal the full scan's to the bit and the others are zero.
    Such a partial scan saves nothing, so backward raises after it.

    backward first reads the step-start states back from y, in scan
    order, into one (t, b, h) array. It then rebuilds the gates r and
    z, the candidates n and the n column of h W_h + b_h for the whole
    window from x and those states (_rebuild), with the scan's own
    operations, so every value is the bit of the scan's. Its time loop
    carries only the dh recursion, newest step first, and writes each
    step's dgi and the n column of dgh over what that step has read;
    the weight and bias gradients are then summed from them once over
    all batch*time rows by BLAS, each sum freeing what no later one
    reads. A backward thus allocates, beyond what it returns, about six
    (t, b, h) arrays of its own dtype (see _rebuild), and only one
    direction's at a time.
    """

    REBUILD_ROWS = 512  # about the state rows backward rebuilds at a time (see _rebuild)

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

    def _output(self, hs, k):
        """Direction k's states hs[1:, k] of a _scan, as the output
        (b, t, h): time-aligned with the input, a view."""
        out = hs[1:, k].transpose(1, 0, 2)
        return out[:, ::-1] if self.reverse else out

    def forward(self, x, steps=None, train=True):
        x = self._in_scan_order(x)
        t = x.shape[1]
        steps = t if steps is None else min(steps, t)
        if steps < 1:
            raise ValueError("a GRU scan needs at least one step")
        _, _, hs = _scan((self,), (x,), steps)
        y = self._output(hs, 0)
        if train and steps == t:
            self._saved = (x, y)
        return y

    def _step_states(self, y):
        """The state each step of the scan started from, (t, b, h) in scan
        order and contiguous: the zero initial state, then every row of
        the output y but the scan's last."""
        if self.reverse:
            y = y[:, ::-1]
        hs = np.empty((y.shape[1], y.shape[0], y.shape[2]), y.dtype)
        hs[0] = 0
        hs[1:] = y[:, :-1].transpose(1, 0, 2)
        return hs

    def _rebuild(self, gi, hs):
        """The gates, candidates and n column of h W_h + b_h of k steps of
        the scan whose input projection x W_i + b_i, in scan order, is
        gi (b, k, 3h) and whose step-start states are hs (k, b, h), to
        the bit the scan's. Returns them time-major, gate-major and
        contiguous, as the scan lays them out:

            rz (k, 2, b, h)   the gates, rz[:, 0] r and rz[:, 1] z
            n (k, b, h)       the candidates
            ghn (k, b, h)     the n column of hs W_h + b_h

        gi's gate columns are copied into rz and n, which the scan's
        elementwise operations, in its order, then overwrite with the
        gates and candidates. A stacked matmul multiplies each step's
        (b, h) states by the whole (h, 3h) W_h, the BLAS call the scan
        makes, and b_h is added to all of it.
        """
        b, k, _ = gi.shape
        h = self.hidden
        half, one = np.array(0.5, hs.dtype), np.array(1.0, hs.dtype)
        g = gi.reshape(b, k, 3, h)
        rz = np.ascontiguousarray(g[:, :, :2].transpose(1, 2, 0, 3))
        n = np.ascontiguousarray(g[:, :, 2].transpose(1, 0, 2))
        gh = np.matmul(hs, self.params["w_h"])  # (k, b, 3h)
        gh += self.params["b_h"]
        ghn = np.ascontiguousarray(gh[:, :, 2 * h :])
        np.add(rz, gh[:, :, : 2 * h].reshape(k, b, 2, h).transpose(0, 2, 1, 3), rz)
        np.multiply(half, rz, rz)
        np.tanh(rz, rz)
        np.add(one, rz, rz)
        np.multiply(half, rz, rz)
        n += rz[:, 0] * ghn
        np.tanh(n, n)
        return rz, n, ghn

    def backward(self, dy):
        x, y = self._take()
        hs = self._step_states(y)
        del y  # hs holds all that backward reads of the output
        b, t, cin = x.shape
        h = self.hidden
        dtype = hs.dtype
        # the projection as the scan makes it; each chunk's columns are
        # rebuilt from it and become dgi's when the chunk is done
        dgi = x @ self.params["w_i"]
        dgi += self.params["b_i"]
        dgi4 = dgi.reshape(b, t, 3, h)
        dghn = np.empty((t, b, h), dtype)  # dgh's n column, time-major
        if self.reverse:
            dy = dy[:, ::-1]
        one = np.array(1.0, dtype)
        w_ht = self.params["w_h"].T
        dh = np.zeros((b, h), dtype)
        dgh = np.empty((b, 3 * h), dtype)
        dgh_rz = dgh[:, : 2 * h].reshape(b, 2, h).transpose(1, 0, 2)  # (2, b, h)
        dgh_n = dgh[:, 2 * h :]
        drz = np.empty((2, b, h), dtype)  # dgh's r and z columns, gate-major
        drz_r, drz_z = drz
        om = np.empty((2, b, h), dtype)  # 1 - r, then 1 - z
        omz = om[1]
        dh_omz, dh_w = np.empty((b, h), dtype), np.empty((b, h), dtype)
        add, multiply, subtract, matmul = np.add, np.multiply, np.subtract, np.matmul
        k = max(1, self.REBUILD_ROWS // b)
        for start in range(((t - 1) // k) * k, -1, -k):  # newest chunk first
            steps = slice(start, start + k)
            rz, n, ghn = self._rebuild(dgi[:, steps], hs[steps])
            hmn = hs[steps] - n
            multiply(n, n, n)
            subtract(one, n, n)  # 1 - n^2, which becomes dn
            dyc = np.ascontiguousarray(dy[:, steps].transpose(1, 0, 2))
            # each step, newest first, adds dy to dh and computes, every
            # product from the left,
            #     dn = dh (1 - z) (1 - n^2)
            #     dgh = [dn ghn r (1 - r), dh (h - n) z (1 - z), dn r]
            #     dgi = [dgh_r, dgh_z, dn],  dh' = dh z + dgh W_h^T
            # on contiguous (b, h) rows of the chunk's buffers, the r and
            # z gates in one call each, and gathers dgh for the matmul
            per_step = (dyc, rz, n, ghn, hmn, dghn[steps])
            for dy_t, rz_t, n_t, ghn_t, hmn_t, dghn_t in zip(*(a[::-1] for a in per_step)):
                r_t, z_t = rz_t
                add(dh, dy_t, dh)
                subtract(one, rz_t, om)
                multiply(dh, omz, dh_omz)
                multiply(dh_omz, n_t, n_t)  # dn, in n's place
                multiply(n_t, ghn_t, drz_r)
                multiply(dh, hmn_t, drz_z)
                multiply(drz, rz_t, drz)
                multiply(drz, om, drz)
                multiply(n_t, r_t, dghn_t)
                multiply(dh, z_t, dh)  # the last read of this step's gates
                rz_t[...] = drz
                dgh_rz[...] = drz
                dgh_n[...] = dghn_t
                matmul(dgh, w_ht, dh_w)
                add(dh, dh_w, dh)
            dgi4[:, steps, :2] = rz.transpose(2, 0, 1, 3)
            dgi4[:, steps, 2] = n.transpose(1, 0, 2)
        # each sum frees what no later one reads
        del per_step, dghn_t  # views of dghn
        dghn_rows = dghn.reshape(-1, h)  # (t*b, h): dgh's n column, t-major
        self.grads["w_h"][:, 2 * h :] += hs.reshape(-1, h).T @ dghn_rows
        self.grads["b_h"][2 * h :] += dghn_rows.sum(axis=0)
        del dghn, dghn_rows
        rows = dgi.reshape(-1, 3 * h)  # (b*t, 3h)
        h_rows = hs.transpose(1, 0, 2).reshape(-1, h)  # step-start states, as rows
        del hs
        self.grads["w_h"][:, : 2 * h] += h_rows.T @ rows[:, : 2 * h]
        self.grads["b_h"][: 2 * h] += rows[:, : 2 * h].sum(axis=0)
        del h_rows
        self.grads["w_i"] += x.reshape(-1, cin).T @ rows
        self.grads["b_i"] += rows.sum(axis=0)
        del x  # freed before dx is made, when no other layer holds it
        dx = dgi @ self.params["w_i"].T
        return dx[:, ::-1] if self.reverse else dx


class BiGru(Layer):
    """Forward and reverse GRUs, outputs concatenated to 2*hidden.

    A full forward pass runs both directions through one _scan, their
    weights stacked: one time loop of t steps, not two. In training each
    direction then saves only its input and its half of the concatenated
    output (see Gru), which the next layer reads too: the states are kept
    once, and the scan's gate, candidate and state buffers are freed when
    forward returns. An evaluation pass (train=False) saves nothing.
    backward runs the reverse direction, then the forward one, each
    rebuilding its own gates, and adds the reverse direction's input
    gradient into the forward one's in place.

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
        y = np.concatenate([gru._output(scan[2], k) for k, gru in enumerate(grus)], axis=2)
        if train:
            h = self.fwd.hidden
            for k, (gru, x_k) in enumerate(zip(grus, xs)):
                gru._saved = (x_k, y[:, :, k * h : (k + 1) * h])
        return y

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
