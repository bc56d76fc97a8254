import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.blocks import BlockConfig, MixerBlock
from caterpillar.errors import InsufficientBatchError, ShapeError, StateError
from caterpillar.layers import (
    FFN,
    GELU,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DWConv2d,
    GlobalAvgPool,
    LayerNorm,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    finite_diff_check,
    no_backward,
)
from caterpillar.smlp import Smlp
from caterpillar.spc import Spc, SpcConfig
from caterpillar.tensor import Rng, max_rel_error
from oracles import pillars_shift


def rand(shape, seed=0):
    return Rng(seed).normal(int(np.prod(shape))).reshape(shape)


def series_erf(x: float, terms: int = 60) -> float:
    """Maclaurin series for erf, independent of scipy."""
    acc = 0.0
    for n in range(terms):
        acc += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * acc


class TestBatchNorm:
    def test_normalizes_batch(self):
        # scale the input up so the eps bias in output variance stays < 1e-6
        x = 10.0 * rand((4, 3, 3, 2), seed=1)
        bn = BatchNorm2d(2)
        out = bn.forward(x, training=True)
        mean = out.mean(axis=(0, 1, 2))
        var = out.var(axis=(0, 1, 2))
        npt.assert_allclose(mean, 0.0, atol=1e-10)
        npt.assert_allclose(var, 1.0, atol=1e-6)

    def test_gamma_zero_gives_beta(self):
        bn = BatchNorm2d(3)
        bn.gamma.value[:] = 0.0
        bn.beta.value[:] = (1.0, 2.0, 3.0)
        out = bn.forward(rand((2, 2, 2, 3), seed=2), training=True)
        npt.assert_array_equal(out, np.broadcast_to((1.0, 2.0, 3.0), out.shape))

    def test_matches_two_pass_loop(self):
        x = rand((4, 3, 3, 2), seed=3)
        bn = BatchNorm2d(2)
        bn.gamma.value[:] = (1.5, -0.5)
        bn.beta.value[:] = (0.25, 1.0)
        out = bn.forward(x, training=True)
        expected = np.zeros_like(x)
        for c in range(2):
            vals = x[..., c].reshape(-1)
            mean = sum(vals) / vals.size
            var = sum((v - mean) ** 2 for v in vals) / vals.size
            expected[..., c] = (x[..., c] - mean) / np.sqrt(var + 1e-5)
            expected[..., c] = bn.gamma.value[c] * expected[..., c] + bn.beta.value[c]
        assert max_rel_error(out, expected) < 1e-12

    def test_running_stats_and_eval_determinism(self):
        bn = BatchNorm2d(2)
        x = rand((4, 3, 3, 2), seed=4)
        bn.forward(x, training=True)
        m = x.mean(axis=(0, 1, 2))
        v = x.var(axis=(0, 1, 2)) * (36 / 35)  # unbiased update
        npt.assert_allclose(bn.running_mean, 0.1 * m, atol=1e-14)
        npt.assert_allclose(bn.running_var, 0.9 + 0.1 * v, atol=1e-14)
        y = rand((2, 3, 3, 2), seed=5)
        out1 = bn.forward(y, training=False)
        out2 = bn.forward(y, training=False)
        npt.assert_array_equal(out1, out2)

    def test_insufficient_batch(self):
        with pytest.raises(InsufficientBatchError):
            BatchNorm2d(4).forward(np.ones((1, 1, 1, 4)), training=True)


class TestLayerNorm:
    def test_two_value_pillar(self):
        # hand arithmetic: mean 2, variance 1, so (1,3) -> +-1/sqrt(1+eps)
        ln = LayerNorm(2)
        out = ln.forward(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        expected = np.array([-1.0, 1.0]) / math.sqrt(1.0 + 1e-5)
        npt.assert_allclose(out[0, 0, 0], expected, atol=1e-9)

    def test_constant_pillar_zeros(self):
        out = LayerNorm(4).forward(np.full((1, 2, 2, 4), 3.3))
        npt.assert_allclose(out, 0.0, atol=1e-12)

    def test_per_pillar_moments(self):
        x = 10.0 * rand((2, 3, 3, 8), seed=6)
        out = LayerNorm(8).forward(x)
        npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)


class TestActivations:
    def test_fixed_points(self):
        assert GELU().forward(np.zeros((1, 1, 1, 1)))[0, 0, 0, 0] == 0.0
        assert ReLU().forward(np.full((1, 1, 1, 1), -1.0))[0, 0, 0, 0] == 0.0

    def test_gelu_asymptote(self):
        out = GELU().forward(np.full((1, 1, 1, 1), 10.0))
        assert abs(out[0, 0, 0, 0] - 10.0) < 1e-8

    def test_gelu_against_series_erf(self):
        out = GELU().forward(np.full((1, 1, 1, 1), 1.0))
        expected = 0.5 * 1.0 * (1.0 + series_erf(1.0 / math.sqrt(2.0)))
        assert abs(out[0, 0, 0, 0] - expected) < 1e-14


def _linear_inputs(cin):
    """1-D, 2-D, 4-D, transposed-view and channel-slice inputs with cin channels."""
    wide = rand((2, 3, 5, cin + 3), seed=40)
    return {
        "1d": rand((cin,), seed=41),
        "2d": rand((7, cin), seed=42),
        "4d": rand((2, 3, 5, cin), seed=43),
        "transposed": rand((2, 5, 3, cin), seed=44).transpose(0, 2, 1, 3),
        "channel_slice": wide[..., 1 : cin + 1],
    }


class TestLinearFlatGemm:
    """The one-GEMM Linear matches the per-pillar contraction on any input layout."""

    @pytest.mark.parametrize("bias", [True])  # a random bias
    @pytest.mark.parametrize("kind", ["1d", "2d", "4d", "transposed", "channel_slice"])
    def test_matches_einsum(self, kind, bias):
        lin = Linear(6, 4, rng=Rng(5))
        lin.b.value = rand((4,), seed=45)
        x = _linear_inputs(6)[kind]
        expected = np.einsum("...i,io->...o", x, lin.w.value) + lin.b.value
        out = lin.forward(x)
        assert out.shape == x.shape[:-1] + (4,)
        npt.assert_allclose(out, expected, rtol=0, atol=1e-12)
        dy = rand(out.shape, seed=46)
        dx = lin.backward(dy)
        assert dx.shape == x.shape
        npt.assert_allclose(dx, np.einsum("...o,io->...i", dy, lin.w.value), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["1d", "4d", "transposed"])
    def test_float32_in_float32_out(self, kind):
        lin = Linear(6, 4, rng=Rng(5)).astype(np.float32)
        x = _linear_inputs(6)[kind].astype(np.float32)
        out = lin.forward(x)
        assert out.dtype == np.float32 and out.shape == x.shape[:-1] + (4,)
        dx = lin.backward(np.ones_like(out))
        assert dx.dtype == np.float32 and dx.shape == x.shape


class TestGeluFloat32:
    """The float32 GELU states its error bound; float64 stays scipy's exact erf."""

    def test_phi_error_bound(self):
        from scipy.special import erf

        f32 = np.finfo(np.float32)
        special = [0.0, -0.0, 4.0, -4.0, 1e30, -1e30, f32.max, -f32.max, f32.tiny, -f32.tiny]
        x = np.concatenate(
            [np.linspace(-10, 10, 400_001, dtype=np.float32), np.array(special, np.float32)]
        )
        gelu = GELU()
        gelu.forward(x)
        assert gelu._phi.dtype == np.float32
        exact = 0.5 * (1.0 + erf(x.astype(np.float64) / math.sqrt(2.0)))
        assert np.abs(gelu._phi.astype(np.float64) - exact).max() <= 3e-7

    def test_nan_and_inf(self):
        gelu = GELU()
        out = gelu.forward(np.array([np.nan, np.inf], np.float32))
        assert np.isnan(out[0]) and np.isnan(gelu._phi[0])
        assert out[1] == np.inf

    def test_float32_shape_and_layout(self):
        x = rand((2, 3, 5, 9), seed=47).astype(np.float32).transpose(0, 2, 1, 3)[..., 1:8]
        out = GELU().forward(x)
        assert out.dtype == np.float32 and out.shape == x.shape
        expected = GELU().forward(x.astype(np.float64))
        npt.assert_allclose(out, expected, rtol=0, atol=3e-7 * np.abs(x).max() + 1e-6)

    def test_float64_is_exact_erf(self):
        from scipy.special import erf

        x = rand((2, 3, 3, 5), seed=48) * 4.0
        expected = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        npt.assert_array_equal(GELU().forward(x), expected)

    def test_import_loads_no_scipy(self):
        """scipy.special loads on the first float64 GELU call, not on import."""
        import caterpillar

        src = os.path.dirname(os.path.dirname(os.path.abspath(caterpillar.__file__)))
        code = (
            "import sys, numpy as np, caterpillar\n"
            "assert 'scipy.special' not in sys.modules, 'imported by caterpillar'\n"
            "caterpillar.GELU().forward(np.ones(2, np.float32))\n"
            "assert 'scipy.special' not in sys.modules, 'imported by the float32 GELU'\n"
            "caterpillar.GELU().forward(np.ones(2))\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestFFN:
    def test_asymptotic_identity(self):
        # duplicate-and-average identity blocks; gelu(10) ~ 10 makes it pass through
        ffn = FFN(3, 2, rng=Rng(1))
        ffn.fc1.w.value = np.hstack([np.eye(3), np.eye(3)])
        ffn.fc1.b.value[:] = 0.0
        ffn.fc2.w.value = np.vstack([np.eye(3), np.eye(3)]) / 2.0
        ffn.fc2.b.value[:] = 0.0
        x = np.full((1, 2, 2, 3), 10.0)
        npt.assert_allclose(ffn.forward(x), x, atol=1e-7)

    def test_zero_input_zero_output(self):
        ffn = FFN(4, 3, rng=Rng(2))
        ffn.fc1.b.value[:] = 0.0
        ffn.fc2.b.value[:] = 0.0
        out = ffn.forward(np.zeros((1, 2, 2, 4)))
        npt.assert_array_equal(out, np.zeros_like(out))

    def test_matches_composed_oracle(self):
        from scipy.special import erf

        ffn = FFN(3, 2, rng=Rng(7))
        x = rand((1, 2, 2, 3), seed=8)
        mid = x @ ffn.fc1.w.value + ffn.fc1.b.value
        act = 0.5 * mid * (1.0 + erf(mid / math.sqrt(2.0)))
        expected = act @ ffn.fc2.w.value + ffn.fc2.b.value
        assert max_rel_error(ffn.forward(x), expected) < 1e-12


def conv_loop_oracle(x, kernel, bias, stride, pad):
    n, h, w, cin = x.shape
    k = kernel.shape[0]
    cout = kernel.shape[3]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, ho, wo, cout))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = bias[co] if bias is not None else 0.0
                    for di in range(k):
                        for dj in range(k):
                            for ci in range(cin):
                                acc += (
                                    xp[b, i * stride + di, j * stride + dj, ci]
                                    * kernel[di, dj, ci, co]
                                )
                    out[b, i, j, co] = acc
    return out


class TestConv2d:
    def test_1x1_equals_per_pillar_projection(self):
        conv = Conv2d(1, 4, 6, rng=Rng(3))
        x = rand((2, 3, 3, 4), seed=9)
        expected = x @ conv.w.value[0, 0] + conv.b.value
        npt.assert_array_equal(conv.forward(x), expected)

    def test_identity_kernel(self):
        conv = Conv2d(3, 2, 2, rng=Rng(4))
        conv.w.value[:] = 0.0
        conv.w.value[1, 1] = np.eye(2)
        conv.b.value[:] = 0.0
        x = rand((1, 4, 4, 2), seed=10)
        npt.assert_allclose(conv.forward(x), x, atol=1e-15)

    @pytest.mark.parametrize("stride,pad_mode", [(1, "same"), (2, "same"), (2, "valid")])
    def test_matches_loop_oracle(self, stride, pad_mode):
        conv = Conv2d(3, 3, 5, stride=stride, padding=pad_mode, rng=Rng(5))
        x = rand((2, 5, 5, 3), seed=11)
        pad = 1 if pad_mode == "same" else 0
        expected = conv_loop_oracle(x, conv.w.value, conv.b.value, stride, pad)
        assert max_rel_error(conv.forward(x), expected) < 1e-12

    def test_one_hot_kernel_is_zero_padded_shift(self):
        # cross-validates the shift module: offset (dy,dx)=(1,0) pulls the
        # pillar below, which is the "up" neighboring map under zero padding
        conv = Conv2d(3, 2, 2, rng=Rng(6))
        conv.w.value[:] = 0.0
        conv.w.value[2, 1] = np.eye(2)  # kernel offset (+1, 0) from center
        x = rand((1, 4, 4, 2), seed=12)
        shifted = pillars_shift(x, SpcConfig(directions=("up",), padding="zero"))[0]
        npt.assert_allclose(conv.forward(x), shifted, atol=1e-15)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError, match="larger"):
            Conv2d(5, 2, 2, padding="valid", rng=Rng(7)).forward(np.ones((1, 3, 3, 2)))


class TestDWConv2d:
    def test_center_one_identity(self):
        dw = DWConv2d(3, 4, rng=Rng(8))
        dw.w.value[:] = 0.0
        dw.w.value[1, 1, :] = 1.0
        dw.b.value[:] = 0.0
        x = rand((2, 3, 3, 4), seed=13)
        npt.assert_allclose(dw.forward(x), x, atol=1e-15)

    def test_param_count_is_9c(self):
        dw = DWConv2d(3, 64, rng=Rng(9))
        assert dw.w.value.size == 9 * 64 == 576

    def test_matches_loop_oracle(self):
        dw = DWConv2d(3, 3, rng=Rng(10))
        x = rand((2, 4, 4, 3), seed=14)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        expected = np.zeros_like(x)
        for b in range(2):
            for i in range(4):
                for j in range(4):
                    for c in range(3):
                        acc = dw.b.value[c]
                        for di in range(3):
                            for dj in range(3):
                                acc += xp[b, i + di, j + dj, c] * dw.w.value[di, dj, c]
                        expected[b, i, j, c] = acc
        assert max_rel_error(dw.forward(x), expected) < 1e-12


class TestPools:
    def test_avg_pool(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = AvgPool2d(2).forward(x)
        npt.assert_array_equal(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = MaxPool2d(3, 2, 1).forward(x)
        npt.assert_array_equal(out[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_gap_module(self):
        x = rand((2, 3, 3, 4), seed=15)
        npt.assert_allclose(
            GlobalAvgPool().forward(x), x.mean(axis=(1, 2), keepdims=True), atol=0
        )


class _ZeroLayer(Module):
    def forward(self, x, training=False):
        return np.zeros_like(x)

    def backward(self, dy):
        return np.zeros_like(dy)


class TestFiniteDiff:
    def test_linear_tight(self):
        assert finite_diff_check(Linear(6, 4, rng=Rng(1)), rand((1, 3, 3, 6), 16)) < 1e-8

    def test_gelu(self):
        assert finite_diff_check(GELU(), rand((1, 3, 3, 4), 17)) < 1e-6

    def test_constant_zero_layer_exact(self):
        assert finite_diff_check(_ZeroLayer(), rand((1, 2, 2, 2), 18)) == 0.0

    @pytest.mark.parametrize(
        "factory,tol",
        [
            (lambda: Linear(8, 5, rng=Rng(2)), 1e-8),
            (lambda: Conv2d(3, 8, 6, rng=Rng(3)), 1e-8),
            (lambda: Conv2d(3, 8, 6, stride=2, rng=Rng(3)), 1e-8),
            (lambda: DWConv2d(3, 8, rng=Rng(3)), 1e-8),
            (lambda: AvgPool2d(2), 1e-8),
            (lambda: GlobalAvgPool(), 1e-8),
            (lambda: MaxPool2d(3, 2, 1), 1e-4),
            (lambda: BatchNorm2d(8), 1e-4),
            (lambda: LayerNorm(8), 1e-4),
            (lambda: GELU(), 1e-4),
            (lambda: ReLU(), 1e-4),
            (lambda: FFN(8, 2, rng=Rng(4)), 1e-4),
            (lambda: DWConv2d(1, 8, rng=Rng(3)), 1e-8),
        ],
    )
    def test_layer_gradients(self, factory, tol):
        assert finite_diff_check(factory(), rand((2, 4, 4, 8), 19)) < tol

    def test_eval_mode_batchnorm_gradient(self):
        bn = BatchNorm2d(4)
        bn.forward(rand((2, 3, 3, 4), 20), training=True)  # populate running stats
        assert finite_diff_check(bn, rand((2, 3, 3, 4), 21), training=False) < 1e-8


def _weighted_sum_merge():
    """The parallel merge of a weighted_sum block: the element that ends its token path."""
    block = MixerBlock(4, 4, 8, BlockConfig(combine="weighted_sum"), rng=Rng(6))
    return block.layers[0][1].path.layers[-1][1]


# Every layer whose backward reads what its forward kept; the class its error names.
_KEEPING_LAYERS = {
    "Linear": (lambda: Linear(8, 5, rng=Rng(1)), "Linear"),
    "Conv2d": (lambda: Conv2d(3, 8, 6, rng=Rng(2)), "Conv2d"),
    "DWConv2d": (lambda: DWConv2d(3, 8, rng=Rng(3)), "DWConv2d"),
    "BatchNorm2d": (lambda: BatchNorm2d(8), "BatchNorm2d"),
    "LayerNorm": (lambda: LayerNorm(8), "LayerNorm"),
    "GELU": (GELU, "GELU"),
    "ReLU": (ReLU, "ReLU"),
    "MaxPool2d": (lambda: MaxPool2d(3, 2, 1), "MaxPool2d"),
    "Spc": (lambda: Spc(8, 4, rng=Rng(4)), "Spc"),
    "Smlp": (lambda: Smlp(4, 4, 8, rng=Rng(5)), "Smlp"),
    "weighted_sum": (_weighted_sum_merge, "MixerBlock"),
    "FFN": (lambda: FFN(8, 2, rng=Rng(7)), "GELU"),  # fc2's input is rebuilt from what GELU keeps
}


class TestBackwardConsumesCache:
    """A backward takes what its forward kept; a second one finds nothing and says so."""

    @pytest.mark.parametrize("name", sorted(_KEEPING_LAYERS))
    def test_backward_after_forward_that_kept_nothing(self, name):
        factory, owner = _KEEPING_LAYERS[name]
        layer = factory()
        x = rand((2, 4, 4, 8), seed=50)
        with no_backward():
            y = layer(x, True)
        with pytest.raises(StateError, match=owner):
            layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("name", sorted(_KEEPING_LAYERS))
    def test_second_backward(self, name):
        factory, owner = _KEEPING_LAYERS[name]
        layer = factory()
        y = layer(rand((2, 4, 4, 8), seed=51), True)
        layer.backward(np.ones_like(y))
        with pytest.raises(StateError, match=owner):
            layer.backward(np.ones_like(y))


class TestZeroGrad:
    def test_each_gradient_is_its_own_zeroed_array(self):
        """zero_grad shares one buffer per dtype; no two gradients may overlap in it."""
        block = MixerBlock(4, 4, 8, BlockConfig(ffn_ratio=2), rng=Rng(3))
        params = list(block.parameters())
        params[0].value = params[0].value.astype(np.float32)
        block.zero_grad()
        for p in params:
            assert p.grad.shape == p.value.shape and p.grad.dtype == p.value.dtype
            assert not p.grad.any()
        for i, p in enumerate(params):
            p.grad += i + 1
        for i, p in enumerate(params):
            assert (p.grad == i + 1).all()


class TestGradientOnFirstRead:
    def test_first_read_is_zeros_like_the_value(self):
        lin = Linear(6, 4, rng=Rng(1)).astype(np.float32)
        assert lin.w._grad is None
        grad = lin.w.grad
        assert grad.shape == (6, 4) and grad.dtype == np.float32 and not grad.any()
        assert lin.w.grad is grad
        lin.w.grad = None
        assert lin.w._grad is None

    def test_astype_casts_only_the_gradients_read(self):
        block = MixerBlock(4, 4, 8, BlockConfig(ffn_ratio=2), rng=Rng(3))
        params = list(block.parameters())
        params[0].grad += 1.0
        block.astype(np.float32)
        assert params[0].grad.dtype == np.float32 and (params[0].grad == 1.0).all()
        assert all(p._grad is None for p in params[1:])
        assert all(p.value.dtype == np.float32 for p in params)


@pytest.mark.parametrize(
    "build",
    [
        lambda **kw: Linear(6, 4, **kw),
        lambda **kw: FFN(4, 2, **kw),
        lambda **kw: Conv2d(3, 2, 4, **kw),
        lambda **kw: DWConv2d(3, 4, **kw),
        lambda **kw: Smlp(4, 4, 8, **kw),
        lambda **kw: Spc(8, **kw),
        lambda **kw: MixerBlock(4, 4, 8, BlockConfig(ffn_ratio=2), **kw),
    ],
    ids=["Linear", "FFN", "Conv2d", "DWConv2d", "Smlp", "Spc", "MixerBlock"],
)
def test_weights_come_from_the_callers_rng(build):
    """No layer falls back to a generator of its own: rng is required, and it alone sets the weights."""
    with pytest.raises(TypeError, match="rng"):
        build()
    weights = lambda layer: [p.value for p in layer.parameters()]
    for a, b in zip(weights(build(rng=Rng(5))), weights(build(rng=Rng(5)))):
        npt.assert_array_equal(a, b)
    assert any((a != b).any() for a, b in zip(weights(build(rng=Rng(5))), weights(build(rng=Rng(6)))))
