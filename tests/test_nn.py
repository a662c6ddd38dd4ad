"""Gradient checks for the hand-rolled layers.

Every backward pass is compared against central finite differences of
a scalar projection loss L = sum(y * c) with random c. At float64 and
step 1e-6 the FD truncation error sits around 1e-10 for O(1) values,
so rtol 1e-6 is a comfortable but honest gate.
"""

import numpy as np
import pytest

from bodyframe_io.nn import (
    _GELU_C,
    Adam,
    BiGru,
    Conv1d,
    Dropout,
    Gelu,
    Gru,
    Linear,
    PlateauScheduler,
    orthogonal,
)

STEP = 1e-6


def fd_array(loss_fn, arr, step=STEP):
    """Central finite differences of loss_fn() w.r.t. arr (in place)."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        lp = loss_fn()
        arr[idx] = orig - step
        lm = loss_fn()
        arr[idx] = orig
        g[idx] = (lp - lm) / (2.0 * step)
    return g


def check_layer(layer, x, forward=None):
    """Assert analytic input/parameter grads match finite differences."""
    rng = np.random.default_rng(99)
    run = forward if forward is not None else layer.forward
    c = rng.standard_normal(run(x).shape)

    def loss():
        return float(np.sum(run(x) * c))

    layer.zero_grads()
    loss()  # populate caches at the base point
    dx = layer.backward(c)
    np.testing.assert_allclose(dx, fd_array(loss, x), rtol=1e-6, atol=1e-8)
    for name, p in layer.params.items():
        np.testing.assert_allclose(
            layer.grads[name], fd_array(loss, p), rtol=1e-6, atol=1e-8, err_msg=name
        )


class TestLinear:
    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng)
        x = rng.standard_normal((5, 4))
        np.testing.assert_allclose(lin.forward(x), x @ lin.params["w"] + lin.params["b"])

    def test_zero_init_outputs_bias_only(self):
        lin = Linear(4, 3, np.random.default_rng(0), zero_init=True)
        x = np.random.default_rng(1).standard_normal((6, 4))
        np.testing.assert_array_equal(lin.forward(x), np.zeros((6, 3)))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        lin = Linear(4, 3, rng)
        check_layer(lin, rng.standard_normal((5, 4)))

    def test_gradients_batched_time(self):
        rng = np.random.default_rng(2)
        lin = Linear(3, 2, rng)
        check_layer(lin, rng.standard_normal((2, 4, 3)))


class TestConv1d:
    def test_same_length_output(self):
        rng = np.random.default_rng(3)
        conv = Conv1d(3, 5, 5, rng)
        y = conv.forward(rng.standard_normal((2, 11, 3)))
        assert y.shape == (2, 11, 5)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(4)
        conv = Conv1d(2, 3, 3, rng)
        x = rng.standard_normal((1, 6, 2))
        y = conv.forward(x)
        w, b = conv.params["w"], conv.params["b"]
        xp = np.zeros((1, 8, 2))
        xp[:, 1:7] = x
        for t in range(6):
            ref = b + sum(xp[0, t + k] @ w[k] for k in range(3))
            np.testing.assert_allclose(y[0, t], ref)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(2, 2, 4, np.random.default_rng(0))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        conv = Conv1d(3, 4, 5, rng)
        check_layer(conv, rng.standard_normal((2, 7, 3)))


class TestGelu:
    def test_known_values(self):
        g = Gelu()
        np.testing.assert_allclose(g.forward(np.array([0.0])), [0.0])
        # large positive ~ identity, large negative ~ 0
        np.testing.assert_allclose(g.forward(np.array([10.0])), [10.0], rtol=1e-8)
        np.testing.assert_allclose(g.forward(np.array([-10.0])), [0.0], atol=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        check_layer(Gelu(), rng.standard_normal((3, 5)))

    @pytest.mark.parametrize("train", [True, False])
    def test_bits_of_the_direct_formulas(self, train):
        # forward and backward give the bits of the textbook expressions,
        # with the derivative computed where forward computes it
        x = np.random.default_rng(16).standard_normal((4, 50, 8)) * 3.0
        dy = np.random.default_rng(17).standard_normal(x.shape)
        u = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
        g = Gelu()
        assert np.array_equal(g.forward(x, train=train), 0.5 * x * (1.0 + u))
        if train:
            du = (1.0 - u * u) * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
            assert np.array_equal(g.backward(dy), dy * (0.5 * (1.0 + u) + 0.5 * x * du))

    def test_cube_by_products_matches_power(self):
        # Gelu computes x^3 as x * x * x: two roundings instead of pow's
        # one, so at most about one ulp apart. Only the absolute error of
        # the output is bounded: in the negative tail 1 + tanh cancels, and
        # the relative difference there grows to ~3e-13.
        x = np.linspace(-8.0, 8.0, 10001)
        cube = x**3
        np.testing.assert_allclose(x * x * x, cube, rtol=4e-16, atol=0.0)
        pow_form = 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * cube)))
        np.testing.assert_allclose(Gelu().forward(x), pow_form, rtol=0.0, atol=1e-15)


class TestDropout:
    def test_eval_mode_is_identity(self):
        d = Dropout(0.5)
        x = np.random.default_rng(7).standard_normal((4, 6))
        np.testing.assert_array_equal(d.forward(x), x)
        np.testing.assert_array_equal(d.backward(x), x)

    def test_train_mode_scales_kept_units(self):
        d = Dropout(0.5)
        x = np.ones((2000, 8))
        y = d.forward(x, rng=np.random.default_rng(8))
        kept = y != 0.0
        np.testing.assert_allclose(y[kept], 2.0)  # 1 / (1 - p)
        assert abs(kept.mean() - 0.5) < 0.05

    def test_backward_uses_same_mask(self):
        d = Dropout(0.3)
        x = np.random.default_rng(9).standard_normal((5, 5))
        y = d.forward(x, rng=np.random.default_rng(10))
        dy = np.ones_like(x)
        dx = d.backward(dy)
        np.testing.assert_array_equal((dx != 0.0), (y != 0.0))
        np.testing.assert_allclose(dx[dx != 0.0], 1.0 / 0.7)

    def test_bits_of_a_float_mask(self):
        # the saved booleans rebuild the float mask (keep / (1 - p)) exactly
        d = Dropout(0.3)
        x = np.random.default_rng(11).standard_normal((4, 50, 8))
        dy = np.random.default_rng(12).standard_normal(x.shape)
        mask = (np.random.default_rng(13).random(x.shape) >= 0.3) / (1.0 - 0.3)
        assert np.array_equal(d.forward(x, rng=np.random.default_rng(13)), x * mask)
        assert np.array_equal(d.backward(dy), dy * mask)


def layer_cases():
    """(name, layer, x, forward kwargs) for every layer; each call of the
    kwargs gives the dropout a generator of the same seed."""
    rng = np.random.default_rng(30)
    x = rng.standard_normal((2, 7, 3))
    no_kwargs = dict
    return [
        ("linear", Linear(3, 4, rng), x, no_kwargs),
        ("conv", Conv1d(3, 4, 3, rng), x, no_kwargs),
        ("gelu", Gelu(), x, no_kwargs),
        ("dropout", Dropout(0.5), x, lambda: {"rng": np.random.default_rng(31)}),
        ("identity dropout", Dropout(0.5), x, no_kwargs),
        ("gru", Gru(3, 4, rng), x, no_kwargs),
        ("reverse gru", Gru(3, 4, rng, reverse=True), x, no_kwargs),
        ("bigru", BiGru(3, 4, rng), x, no_kwargs),
    ]


def held_arrays(layer):
    """The arrays a layer references outside its params and grads, its
    directions' too for a BiGru."""
    held = []
    for key, value in vars(layer).items():
        if isinstance(value, Gru):
            held += held_arrays(value)
        elif key not in ("params", "grads"):
            items = value if isinstance(value, tuple) else (value,)
            held += [a for a in items if isinstance(a, np.ndarray)]
    return held


class TestSavedForBackward:
    """A training forward saves what backward reads; backward consumes it."""

    @pytest.mark.parametrize("case", range(len(layer_cases())),
                             ids=[c[0] for c in layer_cases()])
    def test_backward_consumes_what_forward_saved(self, case):
        name, layer, x, kwargs = layer_cases()[case]
        y = layer.forward(x, **kwargs())
        dy = np.ones_like(y)
        layer.zero_grads()
        first = layer.backward(dy)
        assert not held_arrays(layer)
        with pytest.raises(RuntimeError, match="training forward"):
            layer.backward(dy)
        # a new training forward makes backward available again
        layer.forward(x, **kwargs())
        assert np.array_equal(layer.backward(dy), first)

    @pytest.mark.parametrize("case", range(len(layer_cases())),
                             ids=[c[0] for c in layer_cases()])
    def test_evaluation_forward_saves_nothing(self, case):
        name, layer, x, kwargs = layer_cases()[case]
        y = layer.forward(x, **kwargs())
        if name != "identity dropout":
            assert held_arrays(layer)  # the training pass saved arrays
        assert np.array_equal(layer.forward(x, **kwargs(), train=False), y)
        assert not held_arrays(layer)  # and the evaluation pass dropped them
        with pytest.raises(RuntimeError, match="training forward"):
            layer.backward(np.ones_like(y))


class TestCast:
    """A layer cast to float32 computes in float32: what it returns and
    what it saves, and its gradients."""

    @pytest.mark.parametrize("case", range(len(layer_cases())),
                             ids=[c[0] for c in layer_cases()])
    def test_float32_layer_computes_in_float32(self, case):
        name, layer, x, kwargs = layer_cases()[case]
        _, twin, _, _ = layer_cases()[case]
        layer.cast(np.float32)
        twin.cast(np.float32)
        twin.cast(np.float64)  # the same rounded weights, in float64
        x = x.astype(np.float32)
        y, y64 = layer.forward(x, **kwargs()), twin.forward(x.astype(np.float64), **kwargs())
        assert y.dtype == np.float32
        assert all(a.dtype in (np.float32, bool) for a in held_arrays(layer))
        dy = np.ones_like(y)
        dx, dx64 = layer.backward(dy), twin.backward(dy.astype(np.float64))
        assert dx.dtype == np.float32
        np.testing.assert_allclose(y, y64, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dx, dx64, rtol=1e-5, atol=1e-6)
        grus = (layer.fwd, layer.bwd) if name == "bigru" else (layer,)
        assert all(g.dtype == np.float32 for gru in grus for g in gru.grads.values())


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_gru(params, hidden, reverse, x, dy):
    """The per-step GRU loop that accumulated every weight gradient inside
    the time loop (and w_i by einsum); returns (y, dx, grads, cache), the
    cache holding the forward loop's gates, candidates and states laid
    out as Gru saves them."""
    w_i, w_h = params["w_i"], params["w_h"]
    if reverse:
        x = x[:, ::-1]
    b, t, _ = x.shape
    h = hidden
    gi = x @ w_i + params["b_i"]  # (b, t, 3h)
    hs = np.zeros((t, b, h))
    cache_r = np.empty((t, b, h))
    cache_z = np.empty((t, b, h))
    cache_n = np.empty((t, b, h))
    cache_ghn = np.empty((t, b, h))
    h_prev = np.zeros((b, h))
    for step in range(t):
        gh = h_prev @ w_h + params["b_h"]
        r = sigmoid(gi[:, step, :h] + gh[:, :h])
        z = sigmoid(gi[:, step, h : 2 * h] + gh[:, h : 2 * h])
        ghn = gh[:, 2 * h :]
        n = np.tanh(gi[:, step, 2 * h :] + r * ghn)
        h_prev = (1.0 - z) * n + z * h_prev
        hs[step] = h_prev
        cache_r[step], cache_z[step] = r, z
        cache_n[step], cache_ghn[step] = n, ghn
    out = hs.transpose(1, 0, 2)
    y = out[:, ::-1] if reverse else out
    cache = {
        "rz": np.stack([cache_r, cache_z], axis=1),  # (t, 2, b, h) as Gru saves it
        "ns": cache_n,
        "ghn": cache_ghn,
        "hs": np.concatenate([np.zeros((1, b, h)), hs]),
    }

    if reverse:
        dy = dy[:, ::-1]
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
    grads = {
        "w_i": np.einsum("btc,bth->ch", x, dgi_all),
        "b_i": dgi_all.sum(axis=(0, 1)),
        "w_h": dw_h,
        "b_h": db_h,
    }
    return y, (dx[:, ::-1] if reverse else dx), grads, cache


class TestGru:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_step_reference(self, reverse):
        # Weight gradients are now summed over all batch*time rows after the
        # loop, in another order, so they match the reference to rounding:
        # 1e-12 relative, plus 1e-12 of the array's largest entry for the
        # entries that cancel to near zero. The forward pass is unchanged.
        rng = np.random.default_rng(20)
        gru = Gru(12, 32, rng, reverse=reverse)
        for p in gru.params.values():
            p += 0.1 * rng.standard_normal(p.shape)  # nonzero biases
        x = rng.standard_normal((16, 200, 12))
        dy = rng.standard_normal((16, 200, 32))
        y_ref, dx_ref, grads_ref, _ = reference_gru(gru.params, 32, reverse, x, dy)
        assert np.array_equal(gru.forward(x), y_ref)
        dx = gru.backward(dy)
        for name, got, ref in [("dx", dx, dx_ref)] + [
            (k, gru.grads[k], grads_ref[k]) for k in gru.params
        ]:
            np.testing.assert_allclose(
                got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=name
            )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_batch3_steps9(self, reverse):
        rng = np.random.default_rng(21)
        check_layer(Gru(3, 4, rng, reverse=reverse), rng.standard_normal((3, 9, 3)))

    def test_gradients_forward_direction(self):
        rng = np.random.default_rng(11)
        gru = Gru(3, 4, rng)
        check_layer(gru, rng.standard_normal((2, 5, 3)))

    def test_gradients_reverse_direction(self):
        rng = np.random.default_rng(12)
        gru = Gru(3, 4, rng, reverse=True)
        check_layer(gru, rng.standard_normal((2, 5, 3)))

    def test_reverse_equals_flipped_forward(self):
        rng = np.random.default_rng(13)
        fwd = Gru(3, 4, rng)
        rev = Gru(3, 4, rng, reverse=True)
        rev.params = {k: v.copy() for k, v in fwd.params.items()}
        x = rng.standard_normal((2, 6, 3))
        np.testing.assert_allclose(
            rev.forward(x), fwd.forward(x[:, ::-1])[:, ::-1], atol=1e-14
        )

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", [1, 7, 30])
    def test_partial_scan_rows_equal_full_scan(self, reverse, steps):
        rng = np.random.default_rng(23)
        gru = Gru(5, 6, rng, reverse=reverse)
        for p in gru.params.values():
            p += 0.1 * rng.standard_normal(p.shape)  # nonzero biases
        x = rng.standard_normal((3, 30, 5))
        full = gru.forward(x)
        part = gru.forward(x, steps=steps)
        # the scan reaches the first `steps` frames, or the last when reversed
        reached = np.arange(30 - steps, 30) if reverse else np.arange(steps)
        assert part.shape == full.shape
        assert np.array_equal(part[:, reached], full[:, reached])
        assert not np.delete(part, reached, axis=1).any()

    def test_backward_after_partial_scan_raises(self):
        rng = np.random.default_rng(24)
        gru = Gru(3, 4, rng, reverse=True)
        x = rng.standard_normal((2, 6, 3))
        gru.forward(x, steps=2)
        with pytest.raises(RuntimeError, match="partial"):
            gru.backward(np.ones((2, 6, 4)))
        gru.forward(x)  # a full scan makes backward available again
        assert gru.backward(np.ones((2, 6, 4))).shape == x.shape

    def test_steps_below_one_rejected(self):
        gru = Gru(3, 4, np.random.default_rng(25))
        with pytest.raises(ValueError):
            gru.forward(np.zeros((1, 5, 3)), steps=0)

    def test_recurrent_blocks_orthogonal(self):
        gru = Gru(3, 5, np.random.default_rng(14))
        w_h = gru.params["w_h"]
        for i in range(3):
            blk = w_h[:, 5 * i : 5 * (i + 1)]
            np.testing.assert_allclose(blk.T @ blk, np.eye(5), atol=1e-12)

    def test_single_step_matches_gate_equations(self):
        rng = np.random.default_rng(15)
        gru = Gru(2, 3, rng)
        x = rng.standard_normal((1, 1, 2))
        gi = x[0, 0] @ gru.params["w_i"] + gru.params["b_i"]
        gh = gru.params["b_h"]  # h0 = 0
        r = sigmoid(gi[:3] + gh[:3])
        z = sigmoid(gi[3:6] + gh[3:6])
        n = np.tanh(gi[6:] + r * gh[6:])
        np.testing.assert_allclose(gru.forward(x)[0, 0], (1 - z) * n, atol=1e-15)


class TestBiGru:
    def test_output_width_doubles(self):
        rng = np.random.default_rng(16)
        big = BiGru(3, 4, rng)
        assert big.forward(rng.standard_normal((2, 5, 3))).shape == (2, 5, 8)

    def test_gradients(self):
        check_bigru(np.random.default_rng(17), batch=2, steps=4)

    @pytest.mark.parametrize("tail", [1, 3, 9])
    def test_tail_rows_equal_full_pass(self, tail):
        rng = np.random.default_rng(26)
        big = BiGru(3, 4, rng)
        x = rng.standard_normal((2, 9, 3))
        full = big.forward(x)
        part = big.forward(x, tail=tail)
        assert part.shape == full.shape
        assert np.array_equal(part[:, -tail:], full[:, -tail:])

    def test_backward_after_tail_pass_raises(self):
        rng = np.random.default_rng(27)
        big = BiGru(3, 4, rng)
        y = big.forward(rng.standard_normal((2, 9, 3)), tail=3)
        with pytest.raises(RuntimeError):
            big.backward(np.ones_like(y))

    def test_gradients_batch3_steps9(self):
        check_bigru(np.random.default_rng(22), batch=3, steps=9)


def owner(a):
    """The array that owns a view's memory."""
    while a.base is not None:
        a = a.base
    return a


class TestBiGruLockstep:
    """A full BiGru pass runs both directions in one scan; every value it
    computes or keeps must equal two scans of one direction each."""

    @staticmethod
    def make(rng, cin, hidden):
        big = BiGru(cin, hidden, rng)
        for gru in (big.fwd, big.bwd):
            for p in gru.params.values():
                p += 0.1 * rng.standard_normal(p.shape)  # nonzero biases
        return big

    @pytest.mark.parametrize("batch", [1, 6, 16])
    def test_full_pass_equals_per_direction_scans(self, batch):
        rng = np.random.default_rng(40 + batch)
        h, t = 8, 30
        big = self.make(rng, 5, h)
        x = rng.standard_normal((batch, t, 5))
        dy = rng.standard_normal((batch, t, 2 * h))
        halves = (dy[:, :, :h], dy[:, :, h:])
        grus = (big.fwd, big.bwd)
        refs = [reference_gru(g.params, h, g.reverse, x, d) for g, d in zip(grus, halves)]
        y = big.forward(x)
        assert np.array_equal(y, np.concatenate([ref[0] for ref in refs], axis=2))
        for gru, ref in zip(grus, refs):
            _, rz, ns, ghn, hs = gru._saved
            for name, got in (("rz", rz), ("ns", ns), ("ghn", ghn), ("hs", hs)):
                assert np.array_equal(got, ref[3][name]), name

        # backward from the lockstep caches equals backward from lone
        # directions whose caches the reference loop filled
        big.zero_grads()
        dx = big.backward(dy)
        lone_dx = []
        for gru, ref, d in zip(grus, refs, halves):
            lone = Gru(5, h, rng, reverse=gru.reverse)
            lone.params = {k: p.copy() for k, p in gru.params.items()}
            lone.zero_grads()
            c = ref[3]
            lone._saved = (x[:, ::-1] if gru.reverse else x, c["rz"], c["ns"], c["ghn"], c["hs"])
            lone_dx.append(lone.backward(d))
            for k in gru.params:
                assert np.array_equal(gru.grads[k], lone.grads[k]), k
        assert np.array_equal(dx, lone_dx[0] + lone_dx[1])

        # tail passes: the newest rows equal the full pass's; a pass that
        # scans fewer than t reverse steps leaves no backward, and one that
        # scans all t is a full pass
        for tail in (1, 3, t):
            part = big.forward(x, tail=tail)
            assert np.array_equal(part[:, -tail:], y[:, -tail:])
            if tail < t:
                big.zero_grads()
                with pytest.raises(RuntimeError, match="partial"):
                    big.backward(dy)
                for gru in grus:  # raised before either direction accumulated
                    assert not any(g.any() for g in gru.grads.values())
            else:
                big.zero_grads()
                assert np.array_equal(big.backward(dy), dx)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("batch", [1, 6, 16])
    def test_stacked_matmul_equals_2d_matmuls(self, d, batch, dtype):
        # the scan multiplies every direction's state by its recurrent
        # weights in one stacked matmul; each product must be the bits of
        # the 2-D matmul a lone direction would make, in the float32 of
        # the velocity network too, whose exact tail serving rests on it
        rng = np.random.default_rng(50 + batch)
        hs = rng.standard_normal((d, batch, 32)).astype(dtype)
        w = rng.standard_normal((d, 32, 96)).astype(dtype)
        out = np.empty((d, batch, 96), dtype)
        np.matmul(hs, w, out)
        for k in range(d):
            assert np.array_equal(out[k], hs[k] @ w[k])

    def test_kept_for_backward_no_more_than_two_lone_scans(self):
        # x, and per direction rz (t, b, 2h), ns and ghn (t, b, h) and hs
        # (t+1, b, h): no projection, and no r and z columns of h W_h
        rng = np.random.default_rng(45)
        b, t, h = 4, 30, 8
        big = self.make(rng, 5, h)
        x = rng.standard_normal((b, t, 5))
        big.forward(x)
        kept = {id(owner(a)): owner(a) for g in (big.fwd, big.bwd) for a in g._saved}
        per_direction = (t * b * 2 * h + 2 * t * b * h + (t + 1) * b * h) * 8
        assert sum(a.nbytes for a in kept.values()) <= x.nbytes + 2 * per_direction


def check_bigru(rng, batch, steps):
    """check_layer for BiGru, whose parameters live in its two directions."""
    big = BiGru(3, 3, rng)
    x = rng.standard_normal((batch, steps, 3))
    c = rng.standard_normal((batch, steps, 6))

    def loss():
        return float(np.sum(big.forward(x) * c))

    big.zero_grads()
    loss()
    dx = big.backward(c)
    np.testing.assert_allclose(dx, fd_array(loss, x), rtol=1e-6, atol=1e-8)
    for direction in (big.fwd, big.bwd):
        for name, p in direction.params.items():
            np.testing.assert_allclose(
                direction.grads[name], fd_array(loss, p), rtol=1e-6, atol=1e-8
            )


class TestOptim:
    def test_adam_first_step_is_signed_lr(self):
        # With bias correction the first update is lr * g / (|g| + eps').
        p = {"w": np.array([1.0, -2.0])}
        opt = Adam(p, lr=0.1)
        opt.step({"w": np.array([0.5, -3.0])})
        np.testing.assert_allclose(p["w"], [1.0 - 0.1, -2.0 + 0.1], rtol=1e-6)

    def test_adam_converges_on_quadratic(self):
        p = {"w": np.array([5.0])}
        opt = Adam(p, lr=0.3)
        for _ in range(300):
            opt.step({"w": 2.0 * (p["w"] - 1.5)})
        np.testing.assert_allclose(p["w"], [1.5], atol=1e-3)

    def test_plateau_scheduler_decays_after_patience(self):
        # the schedule is a constant: times 0.2 after 5 epochs without improvement
        assert (PlateauScheduler.PATIENCE, PlateauScheduler.FACTOR) == (5, 0.2)
        p = {"w": np.zeros(1)}
        opt = Adam(p, lr=1.0)
        sched = PlateauScheduler(opt)
        sched.step(1.0)  # best
        assert opt.lr == 1.0
        for _ in range(5):
            sched.step(1.0)  # no improvement, within patience
        assert opt.lr == 1.0
        sched.step(1.0)  # exceeds patience
        assert opt.lr == 0.2
        sched.step(0.1)  # improvement resets counter
        for _ in range(6):
            sched.step(0.2)
        assert opt.lr == 0.2 * 0.2

    def test_orthogonal_is_orthogonal(self):
        q = orthogonal(np.random.default_rng(18), 7)
        np.testing.assert_allclose(q @ q.T, np.eye(7), atol=1e-12)
