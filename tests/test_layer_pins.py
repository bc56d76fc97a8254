"""Each fast path in layers.py pinned against the formula it replaced.

The reference functions below are the earlier implementations, kept inline
so that the fast paths stay equal to them: bit for bit where the new path
does the same arithmetic, within 1e-12 in float64 where only the order of
operations changed.
"""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.layers import (
    FFN,
    GELU,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    no_backward,
)
from caterpillar.smlp import Smlp
from caterpillar.tensor import Rng, max_rel_error
from helpers import rand


def close(a, b, tol=1e-12):
    assert a.shape == b.shape
    assert max_rel_error(a, b) < tol


class TestReluPin:
    @staticmethod
    def old_forward(x):
        return np.where(x > 0, x, 0.0).astype(x.dtype)

    @staticmethod
    def old_backward(x, dy):
        return np.where(x > 0, dy, 0.0).astype(dy.dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_inputs_equal_old_path(self, dtype):
        x = rand((2, 5, 7, 6), seed=1).astype(dtype)
        x.reshape(-1)[:4] = (0.0, -0.0, np.finfo(dtype).tiny, -np.finfo(dtype).tiny)
        dy = rand(x.shape, seed=2).astype(dtype)
        relu = ReLU()
        out = relu.forward(x)
        assert out.dtype == dtype and np.array_equal(out, self.old_forward(x))
        dx = relu.backward(dy)
        assert dx.dtype == dtype and np.array_equal(dx, self.old_backward(x, dy))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        relu = ReLU()
        out = relu.forward(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype))
        assert np.isnan(out[0]) and out[1] == np.inf
        npt.assert_array_equal(out[2:], 0.0)
        assert not np.signbit(out[2:]).any()  # -inf and -0.0 give +0.0
        # masked positions (x <= 0 or NaN) scale dy by 0; unmasked ones pass it
        relu.forward(np.array([-1.0, -1.0, -1.0, np.nan, 2.0, 2.0], dtype))
        with np.errstate(invalid="ignore"):  # inf * 0
            dx = relu.backward(np.array([-3.0, np.nan, np.inf, 5.0, np.inf, -4.0], dtype))
        assert dx[0] == 0.0 and np.signbit(dx[0])  # -0.0 where dy < 0 is masked
        assert np.isnan(dx[1]) and np.isnan(dx[2])
        assert dx[3] == 0.0 and dx[4] == np.inf and dx[5] == -4.0


def old_bn_forward(bn, x, training):
    """BatchNorm2d.forward before buffer reuse; returns (out, cache)."""
    c = bn.c
    if training:
        m = x.shape[0] * x.shape[1] * x.shape[2]
        mean = x.reshape(-1, c).mean(axis=0)
        centered = x - mean
        sq = centered.reshape(-1, c)
        var = np.mean(sq * sq, axis=0)
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = centered * inv
        mom = bn.momentum
        bn.running_mean = (1 - mom) * bn.running_mean + mom * mean
        bn.running_var = (1 - mom) * bn.running_var + mom * var * (m / (m - 1))
        cache = (xhat, inv, m, True)
    else:
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        xhat = (x - bn.running_mean) * inv
        cache = (xhat, inv, 0, False)
    return bn.gamma.value * xhat + bn.beta.value, cache


def old_bn_backward(bn, dy, cache):
    """BatchNorm2d.backward before buffer reuse; returns (dx, dgamma, dbeta)."""
    xhat, inv, m, was_training = cache
    flat_dy = dy.reshape(-1, bn.c)
    prod_sum = (flat_dy * xhat.reshape(-1, bn.c)).sum(axis=0)
    dy_sum = flat_dy.sum(axis=0)
    g = bn.gamma.value * inv
    if not was_training:
        return dy * g, prod_sum, dy_sum
    return g * (dy - dy_sum / m - xhat * (prod_sum / m)), prod_sum, dy_sum


def _bn_pair(c, seed):
    """Two BatchNorm2d with the same random affine and running statistics."""
    pair = [BatchNorm2d(c), BatchNorm2d(c)]
    gamma, beta = rand((c,), seed) + 1.0, rand((c,), seed + 1)
    rmean, rvar = rand((c,), seed + 2), np.abs(rand((c,), seed + 3)) + 0.5
    for bn in pair:
        bn.gamma.value[:], bn.beta.value[:] = gamma, beta
        bn.running_mean, bn.running_var = rmean.copy(), rvar.copy()
    return pair


# C=1; M=N*H*W=2; M odd, so no power of two divides it; M=105 with C=6;
# M=64 on the wide view; a transposed (non-contiguous) input
BN_SHAPES = [(2, 3, 3, 1), (1, 1, 2, 4), (3, 5, 7, 6), (4, 4, 4, 8), "transposed"]


def _bn_input(shape, seed):
    if shape == "transposed":
        return rand((2, 6, 4, 5), seed).transpose(0, 2, 1, 3)
    return rand(shape, seed) * 3.0 + 1.5


class TestBatchNormPin:
    @pytest.mark.parametrize("shape", BN_SHAPES)
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_old_path(self, shape, training):
        x = _bn_input(shape, seed=3)
        new, ref = _bn_pair(x.shape[3], seed=4)
        out = new.forward(x, training)
        ref_out, cache = old_bn_forward(ref, x, training)
        close(out, ref_out)
        close(new.running_mean, ref.running_mean)
        close(new.running_var, ref.running_var)
        dy = rand(out.shape, seed=5)
        close(new.backward(dy), old_bn_backward(ref, dy, cache)[0])
        _, dgamma, dbeta = old_bn_backward(ref, dy, cache)
        close(new.gamma.grad, dgamma)
        close(new.beta.grad, dbeta)

    def test_eval_backward_uses_forward_input(self):
        # the eval cache is the input; backward after a later eval forward sees the new one
        bn, ref = _bn_pair(3, seed=6)
        bn.forward(rand((2, 3, 3, 3), seed=7), training=False)
        x = rand((2, 3, 3, 3), seed=8)
        bn.forward(x, training=False)
        _, cache = old_bn_forward(ref, x, training=False)
        dy = rand(x.shape, seed=9)
        close(bn.backward(dy), old_bn_backward(ref, dy, cache)[0])
        close(bn.gamma.grad, old_bn_backward(ref, dy, cache)[1])

    def test_eval_float32_large_mean(self):
        # centring before scaling: a folded x * scale + shift would cancel here
        bn = BatchNorm2d(2).astype(np.float32)
        bn.running_mean = np.array([1e4, -3e4], np.float32)
        bn.running_var = np.array([1e-2, 4e-2], np.float32)
        x = (bn.running_mean + 0.1 * rand((2, 4, 4, 2), seed=10)).astype(np.float32)
        out = bn.forward(x, training=False)
        exact = (x.astype(np.float64) - bn.running_mean) / np.sqrt(
            bn.running_var.astype(np.float64) + 1e-5
        )
        assert out.dtype == np.float32
        assert np.abs(out - exact).max() < 1e-5


def old_ln_forward(ln, x):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ln.eps)
    xhat = (x - mean) * inv
    return ln.gamma.value * xhat + ln.beta.value, (xhat, inv)


def old_ln_backward(ln, dy, cache):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    g = dy * ln.gamma.value
    g_mean = g.mean(axis=-1, keepdims=True)
    proj = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - g_mean - xhat * proj), dgamma, dbeta


class TestLayerNormPin:
    @pytest.mark.parametrize(
        "x",
        [
            rand((2, 3, 5, 7), seed=11) * 2.0 + 4.0,
            rand((9, 4), seed=12),
            rand((5,), seed=13),
            rand((2, 5, 3, 6), seed=14).transpose(0, 2, 1, 3),
            rand((1, 1, 2, 1), seed=15),
        ],
        ids=["4d", "2d", "1d", "transposed", "one_channel"],
    )
    def test_matches_old_path(self, x):
        c = x.shape[-1]
        new, ref = LayerNorm(c), LayerNorm(c)
        for ln in (new, ref):
            ln.gamma.value[:] = rand((c,), seed=16) + 1.0
            ln.beta.value[:] = rand((c,), seed=17)
        out = new.forward(x)
        ref_out, cache = old_ln_forward(ref, x)
        close(out, ref_out)
        dy = rand(out.shape, seed=18)
        dx, dgamma, dbeta = old_ln_backward(ref, dy, cache)
        close(new.backward(dy), dx)
        close(new.gamma.grad, dgamma)
        close(new.beta.grad, dbeta)


def conv_windows(conv, x):
    """(n, ho, wo, cin, k, k) windows of the zero-padded input.

    Overlapping windows (stride < k) are padded by k // 2, tiling ones not at all.
    """
    pad = conv.k // 2 if conv.stride < conv.k else 0
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (conv.k, conv.k), axis=(1, 2))
    _, ho, wo, _ = conv.out_shape(x.shape)
    return xp, win[:, :: conv.stride, :: conv.stride][:, :ho, :wo], pad


class TestConv2dPin:
    """Stride 3 reaches an overlapping window past stride 2 (7x7/3, padded by 3) and a 1x1 window with gaps."""

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_matches_einsum(self, k, stride, layout):
        conv = Conv2d(k, 3, 4, stride=stride, rng=Rng(19))
        conv.b.value = rand((4,), seed=20)
        x = rand((2, 9, 8, 3), seed=21)
        if layout == "transposed":
            x = rand((2, 8, 9, 3), seed=21).transpose(0, 2, 1, 3)
        w = conv.w.value
        xp, win, pad = conv_windows(conv, x)
        out = conv.forward(x)
        close(out, np.einsum("nhwcij,ijco->nhwo", win, w) + conv.b.value)

        dy = rand(out.shape, seed=22)
        dx = conv.backward(dy)
        close(conv.w.grad, np.einsum("nhwcij,nhwo->ijco", win, dy))
        close(conv.b.grad, dy.sum(axis=(0, 1, 2)))
        dwin = np.einsum("nhwo,ijco->nhwcij", dy, w)
        dxp = np.zeros_like(xp)
        s, ho, wo = stride, out.shape[1], out.shape[2]
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + s * ho : s, j : j + s * wo : s, :] += dwin[..., i, j]
        close(dx, dxp[:, pad : pad + x.shape[1], pad : pad + x.shape[2], :])


class TestConv2dNonOverlappingPin:
    """stride >= k with k > 1 (patch embedding and downsampling convs), which `TestConv2dPin` reaches only at 3x3/3."""

    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 3), (2, 3)])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_matches_einsum(self, k, stride, layout):
        conv = Conv2d(k, 5, 4, stride=stride, rng=Rng(35))
        x = rand((2, 9, 8, 5), seed=36)
        if layout == "transposed":
            x = rand((2, 8, 9, 5), seed=36).transpose(0, 2, 1, 3)
        xp, win, _ = conv_windows(conv, x)
        out = conv.forward(x)
        close(out, np.einsum("nhwcij,ijco->nhwo", win, conv.w.value))
        dy = rand(out.shape, seed=37)
        dx = conv.backward(dy)
        close(conv.w.grad, np.einsum("nhwcij,nhwo->ijco", win, dy))
        dwin = np.einsum("nhwo,ijco->nhwcij", dy, conv.w.value)
        dxp = np.zeros_like(xp)
        ho, wo = out.shape[1:3]
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride, :] += dwin[..., i, j]
        close(dx, dxp)


class TestLinearBiasPin:
    @pytest.mark.parametrize("shape", [(4, 8, 8, 3), (3, 5, 7, 8), (2, 1, 1, 33)])
    def test_bias_grad_matches_column_sum(self, shape):
        lin = Linear(shape[-1], 6, rng=Rng(38))
        x = rand(shape, seed=39)
        dy = rand(lin.forward(x).shape, seed=40)
        lin.backward(dy)
        close(lin.b.grad, dy.reshape(-1, 6).sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, cout", [((32768, 16), 8), ((2, 3, 5, 6), 4), ((40, 8), 3000)])
    def test_forward_bias_on_wide_view(self, dtype, shape, cout):
        """The bias added on the _wide view: each element gets the same sum as x @ w + b."""
        lin = Linear(shape[-1], cout, rng=Rng(43)).astype(dtype)
        lin.b.value[...] = rand((cout,), seed=44)
        x = rand(shape, seed=45).astype(dtype)
        expected = (x.reshape(-1, shape[-1]) @ lin.w.value + lin.b.value).reshape(shape[:-1] + (cout,))
        npt.assert_array_equal(lin.forward(x), expected)


class TestAvgPoolPin:
    """Strided-add forward and broadcast-write backward against the reshape-mean formula."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, k", [((2, 5, 7, 3), 2), ((2, 8, 6, 3), 2), ((1, 7, 8, 2), 3)])
    def test_matches_reshape_mean(self, dtype, shape, k):
        n, h, w, c = shape
        ho, wo = h // k, w // k
        x = rand(shape, seed=41).astype(dtype)
        pool = AvgPool2d(k)
        out = pool.forward(x)
        expected = x[:, : ho * k, : wo * k].reshape(n, ho, k, wo, k, c).mean(axis=(2, 4))
        assert out.dtype == dtype
        npt.assert_allclose(out, expected, rtol=1e-6 if dtype == np.float32 else 1e-12)
        dy = rand(out.shape, seed=42).astype(dtype)
        spread = np.broadcast_to(dy[:, :, None, :, None, :] / (k * k), (n, ho, k, wo, k, c))
        expected = np.zeros(shape, dtype)
        expected[:, : ho * k, : wo * k] = spread.reshape(n, ho * k, wo * k, c)
        dx = pool.backward(dy)
        assert dx.dtype == dtype
        npt.assert_array_equal(dx, expected)


class TestPoolBackwardPin:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_matches_where(self, dtype):
        pool = MaxPool2d(3, 2)
        x = rand((2, 7, 6, 3), seed=23).astype(dtype)
        out = pool.forward(x)
        dy = rand(out.shape, seed=24).astype(dtype)
        n, h, w, c = x.shape
        ho, wo = out.shape[1:3]
        expected = np.zeros((n, h + 2, w + 2, c), dtype)
        for idx in range(9):
            di, dj = divmod(idx, 3)
            expected[:, di : di + 2 * ho : 2, dj : dj + 2 * wo : 2, :] += np.where(
                pool._arg == idx, dy, 0.0
            )
        dx = pool.backward(dy)
        assert dx.dtype == dtype
        npt.assert_array_equal(dx, expected[:, 1 : 1 + h, 1 : 1 + w, :])

    @pytest.mark.parametrize("k,stride,pad,index", [(3, 2, 1, np.uint8), (17, 3, 8, np.uint16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_small_index_matches_int64(self, dtype, k, stride, pad, index):
        """The kept index in its small type gives the int64 argmax's backward.

        On ties, -inf (also whole windows of it) and NaN inputs.
        """
        x = np.floor(rand((2, 19, 18, 3), seed=29) * 1.5).astype(dtype)  # many ties
        x[0, ::4, ::3] = -np.inf
        x[1, 2:9, 5:12, 0] = -np.inf  # whole windows of -inf
        x[1, ::5, 1::4, 1] = np.nan
        pool = MaxPool2d(k, stride)
        out = pool.forward(x)
        dy = rand(out.shape, seed=30).astype(dtype)
        n, h, w, c = x.shape
        ho, wo = out.shape[1:3]
        xp = np.full((n, h + 2 * pad, w + 2 * pad, c), -np.inf, dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
        s = stride
        windows = [(di, dj) for di in range(k) for dj in range(k)]
        stack = np.stack([xp[:, di : di + s * ho : s, dj : dj + s * wo : s] for di, dj in windows])
        arg = stack.argmax(axis=0)
        assert arg.dtype == np.int64 and pool._arg.dtype == index
        npt.assert_array_equal(pool._arg, arg)
        expected = np.zeros_like(xp)
        for idx, (di, dj) in enumerate(windows):
            expected[:, di : di + s * ho : s, dj : dj + s * wo : s] += dy * (arg == idx)
        npt.assert_array_equal(pool.backward(dy), expected[:, pad : pad + h, pad : pad + w])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_global_avg_pool_matches_copy(self, dtype):
        gap = GlobalAvgPool()
        out = gap.forward(rand((2, 3, 5, 4), seed=25).astype(dtype))
        dy = rand(out.shape, seed=26).astype(dtype)
        expected = np.broadcast_to(dy / 15, (2, 3, 5, 4)).astype(dy.dtype)
        dx = gap.backward(dy)
        assert dx.dtype == dtype
        npt.assert_array_equal(dx, expected)


class TestGeluLimits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinities_without_warning(self, dtype):
        gelu = GELU()
        x = np.array([-np.inf, np.inf, np.nan, -1e30], dtype)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            out = gelu.forward(x)
            dx = gelu.backward(np.ones_like(x))
        assert out.dtype == dtype and dx.dtype == dtype
        assert out[0] == 0.0 and out[1] == np.inf and np.isnan(out[2]) and out[3] == 0.0
        assert dx[0] == 0.0 and dx[1] == 1.0 and np.isnan(dx[2]) and dx[3] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_values_are_x_times_phi(self, dtype):
        # more than one 32K chunk, so the per-chunk product covers a chunk edge
        x = (rand((40_001,), seed=27) * 6.0).astype(dtype)
        gelu = GELU()
        out = gelu.forward(x)
        phi = gelu._phi  # read before backward, which drops it
        npt.assert_array_equal(out, x * phi)
        dy = rand(x.shape, seed=28).astype(dtype)
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi).astype(dtype)
        npt.assert_array_equal(gelu.backward(dy), dy * (phi + x * pdf))


class TestGeluTanhBound:
    """float32 phi = 0.5 + 0.5 * tanh(x * P(x^2)) on x clipped at 6: within 3e-7 of exact."""

    def test_dense_grid_and_every_float32_near_the_clip(self):
        from scipy.special import erf

        lo, hi = np.array([5.99, 6.01], np.float32).view(np.int32)
        edge = np.arange(lo, hi + 1, dtype=np.int32).view(np.float32)
        x = np.concatenate([np.linspace(-12, 12, 2_400_001, dtype=np.float32), edge, -edge])
        gelu = GELU()
        gelu.forward(x)
        exact = 0.5 * (1.0 + erf(x.astype(np.float64) / math.sqrt(2.0)))
        assert np.abs(gelu._phi.astype(np.float64) - exact).max() <= 3e-7
        beyond = np.abs(x) >= 6
        npt.assert_array_equal(gelu._phi[beyond], (x[beyond] > 0).astype(np.float32))

    def test_path_without_phi_keeps_the_bound(self):
        """Under no_backward() phi is built in the output and not kept; x * phi keeps its bound."""
        from scipy.special import erf

        x = np.linspace(-12, 12, 2_400_001, dtype=np.float32)
        kept = GELU()
        y_kept = kept.forward(x)
        gelu = GELU()
        with no_backward():
            y = gelu.forward(x)
        assert gelu._phi is None and gelu._x is None
        npt.assert_array_equal(y, y_kept)
        x64 = x.astype(np.float64)
        exact = x64 * 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
        # phi within 3e-7, and one float32 rounding of the product
        assert np.all(np.abs(y - exact) <= 3e-7 * np.abs(x64) + 2.0**-24 * np.abs(y))


class TestFfnStreamPin:
    """The FFN forward streamed in row blocks when no backward follows, against the chain."""

    @pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 3 * 2048 + 5])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_layer_chain(self, rows, dtype, tol):
        ffn = FFN(8, 3, rng=Rng(40))
        for k, lin in enumerate((ffn.fc1, ffn.fc2)):
            lin.b.value = rand(lin.b.value.shape, seed=41 + k)
        ffn.astype(dtype)
        x = rand((1, 1, rows, 8), seed=43).astype(dtype)
        ref = ffn.forward(x)
        blocks = []
        fc1_forward = ffn.fc1.forward
        ffn.fc1.forward = lambda a, training=False: blocks.append(a.size // 8) or fc1_forward(a)
        with no_backward():
            out = ffn.forward(x)
        assert blocks == [min(2048, rows - start) for start in range(0, rows, 2048)]
        assert out.shape == ref.shape and out.dtype == ref.dtype == dtype
        assert np.all(np.abs(out - ref) <= tol * np.maximum(1.0, np.abs(ref)))


def smlp_transposed_forward(layer, x):
    """The earlier Smlp.forward: mixes on channel-transposed views, then a concatenate."""
    row = (x.transpose(0, 1, 3, 2) @ layer.row_w.value).transpose(0, 1, 3, 2)
    row = row + layer.row_b.value[None, None, :, None]
    col = (x.transpose(0, 2, 3, 1) @ layer.col_w.value).transpose(0, 3, 1, 2)
    col = col + layer.col_b.value[None, :, None, None]
    return np.concatenate([row, col, x], axis=-1) @ layer.fuse.w.value + layer.fuse.b.value


def smlp_transposed_backward(layer, x, dy):
    """The earlier Smlp.backward: (d row_w, d row_b, d col_w, d col_b, dx)."""
    c = layer.c
    dcat = dy @ layer.fuse.w.value.T
    drow, dcol, did = dcat[..., :c], dcat[..., c : 2 * c], dcat[..., 2 * c :]
    drow_t = drow.transpose(0, 1, 3, 2)
    d_row_w = x.transpose(0, 1, 3, 2).reshape(-1, layer.w).T @ drow_t.reshape(-1, layer.w)
    dcol_t = dcol.transpose(0, 2, 3, 1)
    d_col_w = x.transpose(0, 2, 3, 1).reshape(-1, layer.h).T @ dcol_t.reshape(-1, layer.h)
    dx = did + (drow_t @ layer.row_w.value.T).transpose(0, 1, 3, 2)
    dx = dx + (dcol_t @ layer.col_w.value.T).transpose(0, 3, 1, 2)
    return d_row_w, drow.sum(axis=(0, 1, 3)), d_col_w, dcol.sum(axis=(0, 2, 3)), dx


class TestSmlpPin:
    @pytest.mark.parametrize("bias", [True])  # random biases
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_matches_transposed_matmuls(self, bias, layout):
        h, w, c = 5, 4, 3
        layer = Smlp(h, w, c, rng=Rng(29))
        for k, p in enumerate((layer.row_b, layer.col_b, layer.fuse.b)):
            p.value = rand(p.value.shape, seed=30 + k)
        x = rand((2, h, w, c), seed=33)
        if layout == "transposed":
            x = rand((2, w, h, c), seed=33).transpose(0, 2, 1, 3)
        close(layer.forward(x), smlp_transposed_forward(layer, x))

        dy = rand((2, h, w, c), seed=34)
        dx = layer.backward(dy)
        d_row_w, d_row_b, d_col_w, d_col_b, dx_ref = smlp_transposed_backward(layer, x, dy)
        close(dx, dx_ref)
        close(layer.row_w.grad, d_row_w)
        close(layer.col_w.grad, d_col_w)
        close(layer.row_b.grad, d_row_b)
        close(layer.col_b.grad, d_col_b)
