import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.blocks import (
    COMBINE_STRATEGIES,
    LOCAL_MIXERS,
    BlockConfig,
    MixerBlock,
    block_param_count,
)
from caterpillar.layers import DWConv2d, finite_diff_check
from caterpillar.spc import Spc, SpcConfig
from caterpillar.tensor import Rng, max_rel_error
from helpers import rand


def zero_params(module):
    for p in module.parameters():
        p.value[...] = 0.0


def make_smlp_identity(block):
    block.smlp.row_w.value = np.eye(block.smlp.w)
    block.smlp.row_b.value[:] = 0.0
    block.smlp.col_w.value = np.eye(block.smlp.h)
    block.smlp.col_b.value[:] = 0.0
    c = block.smlp.c
    block.smlp.fuse.w.value = np.vstack([np.eye(c)] * 3) / 3.0
    block.smlp.fuse.b.value[:] = 0.0


class TestResidualIntegrity:
    @pytest.mark.parametrize("combine", COMBINE_STRATEGIES)
    @pytest.mark.parametrize("mixer", LOCAL_MIXERS)
    def test_zeroed_block_is_identity(self, combine, mixer):
        cfg = BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=2)
        block = MixerBlock(3, 3, 4, cfg, rng=Rng(1))
        zero_params(block)
        x = rand((2, 3, 3, 4), 2)
        out = block.forward(x, training=True)
        npt.assert_array_equal(out, x)

    def test_zero_weights_affine_gamma_zero(self):
        # spelled-out version: zero weights and gamma=0 give Z = Y = X
        cfg = BlockConfig(ffn_ratio=2)
        block = MixerBlock(3, 3, 4, cfg, rng=Rng(3))
        zero_params(block)
        x = rand((1, 3, 3, 4), 4)
        npt.assert_array_equal(block.forward(x, training=True), x)


class TestCombineStrategies:
    def test_weighted_sum_degenerate_weights(self):
        cfg = BlockConfig(combine="weighted_sum", ffn_ratio=2)
        block = MixerBlock(3, 3, 4, cfg, rng=Rng(5))
        block.local_scale.value = np.array(1.0)
        block.global_scale.value = np.array(0.0)
        x = rand((1, 3, 3, 4), 6)
        got = block.forward(x, training=True)
        # local-only branch plus residual, then the shared FFN sub-block
        a = block.act1(block.bn1(x, True), True)
        y = x + block.local(a, True)
        expected = block.ffn(block.ln(y, True), True) + y
        assert max_rel_error(got, expected) < 1e-14

    def test_param_deltas_against_lg(self):
        c, h, w = 8, 4, 4
        def total(combine):
            cfg = BlockConfig(combine=combine, ffn_ratio=2)
            block = MixerBlock(h, w, c, cfg, rng=Rng(7))
            return sum(p.value.size for p in block.parameters())
        lg = total("LG")
        # parallel strategies drop bn2 (2c) relative to the sequential default
        assert total("weighted_sum") == lg - 2 * c + 2
        assert total("concat_reduce") == lg - 2 * c + 2 * c * c + c
        assert total("sum") == lg - 2 * c
        assert total("GL") == lg
        assert total("two_residual") == lg

    def test_closed_form_matches_enumeration(self):
        for combine in COMBINE_STRATEGIES:
            for mixer in LOCAL_MIXERS:
                cfg = BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=3)
                block = MixerBlock(5, 6, 8, cfg, rng=Rng(8))
                enumerated = sum(p.value.size for p in block.parameters())
                assert enumerated == block_param_count(5, 6, 8, cfg), (combine, mixer)

    def test_lg_gl_coincide_with_identity_mixers(self):
        x = rand((1, 3, 3, 4), 9)
        outs = {}
        for combine in ("LG", "GL"):
            cfg = BlockConfig(local_mixer="identity", combine=combine, ffn_ratio=2)
            block = MixerBlock(3, 3, 4, cfg, rng=Rng(10))
            make_smlp_identity(block)
            outs[combine] = block.forward(x, training=True)
        assert max_rel_error(outs["LG"], outs["GL"]) < 1e-14


class TestLocalMixers:
    def test_spc_vs_dwconv_biasless_delta(self):
        c = 16
        spc, dw = Spc(c, cfg=SpcConfig(), rng=Rng(1)), DWConv2d(3, c, rng=Rng(1))
        spc_weights, dw_weights = (
            sum(p.value.size for n, p in m.named_parameters() if n.endswith("w")) for m in (spc, dw)
        )
        assert spc_weights - dw_weights == 2 * c * c - 9 * c

    def test_center_one_dwconv_equals_identity_mixer(self):
        x = rand((1, 3, 3, 4), 11)
        cfg_dw = BlockConfig(local_mixer="dwconv", ffn_ratio=2)
        block_dw = MixerBlock(3, 3, 4, cfg_dw, rng=Rng(12))
        block_dw.local.w.value[:] = 0.0
        block_dw.local.w.value[1, 1, :] = 1.0
        block_dw.local.b.value[:] = 0.0
        cfg_id = BlockConfig(local_mixer="identity", ffn_ratio=2)
        block_id = MixerBlock(3, 3, 4, cfg_id, rng=Rng(12))
        # match every weight the two blocks share (init streams differ)
        dw_params = dict(block_dw.named_parameters())
        for name, p in block_id.named_parameters():
            if name in dw_params:
                p.value = dw_params[name].value.copy()
        out_dw = block_dw.forward(x, training=True)
        out_id = block_id.forward(x, training=True)
        npt.assert_array_equal(out_dw, out_id)

    def test_one_hot_locality_difference(self):
        # identity vs shift mixer differ exactly on the 4-neighborhood pattern
        x = np.zeros((1, 5, 5, 4))
        x[0, 2, 2] = 1.0
        cfgs = {
            "identity": BlockConfig(local_mixer="identity", ffn_ratio=2),
            "spc": BlockConfig(local_mixer="spc", ffn_ratio=2),
        }
        outs = {}
        for name, cfg in cfgs.items():
            block = MixerBlock(5, 5, 4, cfg, rng=Rng(13))
            outs[name] = block.forward(x, training=True)
        delta = np.abs(outs["identity"] - outs["spc"]).sum(axis=3)[0]
        assert delta[2, 2] > 0 and delta[1, 2] > 0 and delta[3, 2] > 0
        assert delta[2, 1] > 0 and delta[2, 3] > 0


class TestGradients:
    # Every mixer x combine wiring; the spc cases keep their bare combine ids.
    @pytest.mark.parametrize(
        "mixer, combine",
        [(m, c) for m in LOCAL_MIXERS for c in COMBINE_STRATEGIES],
        ids=[c if m == "spc" else f"{m}-{c}" for m in LOCAL_MIXERS for c in COMBINE_STRATEGIES],
    )
    def test_block_finite_diff(self, mixer, combine):
        cfg = BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=1)
        block = MixerBlock(3, 3, 4, cfg, rng=Rng(14))
        err = finite_diff_check(block, rand((1, 3, 3, 4), 15))
        assert err < 1e-4, (mixer, combine, err)

    def test_smlpnet_style_block_finite_diff(self):
        cfg = BlockConfig(local_mixer="dwconv", ffn_ratio=1)
        block = MixerBlock(3, 3, 4, cfg, rng=Rng(16))
        assert finite_diff_check(block, rand((1, 3, 3, 4), 17)) < 1e-4


class TestBlockMacs:
    @pytest.mark.parametrize("combine", COMBINE_STRATEGIES)
    @pytest.mark.parametrize("mixer", LOCAL_MIXERS)
    def test_closed_form(self, combine, mixer):
        n, h, w, c, r = 2, 5, 6, 8, 3
        cfg = BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=r)
        block = MixerBlock(h, w, c, cfg, rng=Rng(0))
        p = n * h * w
        local = {"spc": 2 * c * c, "dwconv": 9 * c, "identity": 0}[mixer]
        smlp = c * (w + h) + 3 * c * c
        token = {
            "LG": c, "GL": c, "two_residual": c,  # bn2
            "sum": 0, "weighted_sum": 2 * c, "concat_reduce": 2 * c * c,
        }[combine]
        ffn = c + 2 * r * c * c  # ln, fc1, fc2
        assert block.macs((n, h, w, c)) == p * (c + local + smlp + token + ffn)


def token_mix_forward(block, x, training, kept):
    """The earlier hand-written token-mixing forward; kept gets weighted_sum's branches."""
    combine = block.cfg.combine
    if combine in ("LG", "GL"):
        first, second = (block.local, block.smlp) if combine == "LG" else (block.smlp, block.local)
        x1 = first(block.act1(block.bn1(x, training), training), training)
        return second(block.act2(block.bn2(x1, training), training), training) + x
    if combine == "two_residual":
        y1 = block.local(block.act1(block.bn1(x, training), training), training) + x
        return block.smlp(block.act2(block.bn2(y1, training), training), training) + y1
    a = block.act1(block.bn1(x, training), training)
    lo = block.local(a, training)
    gl = block.smlp(a, training)
    if combine == "sum":
        return x + lo + gl
    if combine == "weighted_sum":
        kept[:] = lo, gl
        return x + block.local_scale.value * lo + block.global_scale.value * gl
    return x + block.merge(np.concatenate((lo, gl), axis=3), training)


def token_mix_backward(block, dy, kept):
    """The earlier hand-written token-mixing backward."""
    combine = block.cfg.combine
    if combine in ("LG", "GL"):
        first, second = (block.local, block.smlp) if combine == "LG" else (block.smlp, block.local)
        dx1 = block.bn2.backward(block.act2.backward(second.backward(dy)))
        return dy + block.bn1.backward(block.act1.backward(first.backward(dx1)))
    if combine == "two_residual":
        dy1 = dy + block.bn2.backward(block.act2.backward(block.smlp.backward(dy)))
        return dy1 + block.bn1.backward(block.act1.backward(block.local.backward(dy1)))
    if combine == "sum":
        da = block.local.backward(dy) + block.smlp.backward(dy)
    elif combine == "weighted_sum":
        lo, gl = kept
        block.local_scale.grad += np.sum(dy * lo)
        block.global_scale.grad += np.sum(dy * gl)
        da = block.local.backward(block.local_scale.value * dy)
        da += block.smlp.backward(block.global_scale.value * dy)
    else:
        dcat = block.merge.backward(dy)
        da = block.local.backward(dcat[..., : block.c])
        da += block.smlp.backward(np.ascontiguousarray(dcat[..., block.c :]))
    return dy + block.bn1.backward(block.act1.backward(da))


class TestBlockPin:
    """MixerBlock against its earlier hand-written forward and backward, in float64.

    Bit for bit, except that sum and weighted_sum may add the residual in
    another order: within 1e-12 of max(1, |reference|) there.
    """

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("combine", COMBINE_STRATEGIES)
    @pytest.mark.parametrize("mixer", LOCAL_MIXERS)
    def test_matches_hand_written_block(self, mixer, combine, training):
        cfg = BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=2)
        block, ref = (MixerBlock(4, 5, 8, cfg, rng=Rng(40)) for _ in range(2))
        for k, (p, q) in enumerate(zip(block.parameters(), ref.parameters())):
            p.value = rand(p.value.shape, seed=41 + k)
            q.value = p.value.copy()
        x, dz = rand((2, 4, 5, 8), 60), rand((2, 4, 5, 8), 61)

        z = block.forward(x, training)
        dx = block.backward(dz)
        kept = []
        y = token_mix_forward(ref, x, training, kept)
        z_ref = ref.ffn(ref.ln(y, training), training) + y
        dx_ref = token_mix_backward(ref, dz + ref.ln.backward(ref.ffn.backward(dz)), kept)

        pairs = [("z", z, z_ref), ("dx", dx, dx_ref)]
        pairs += [
            (name, p.grad, q.grad)
            for (name, p), q in zip(block.named_parameters(), ref.parameters())
        ]
        for name, got, want in pairs:
            if combine in ("sum", "weighted_sum"):
                assert max_rel_error(got, want) < 1e-12, name
            else:
                npt.assert_array_equal(got, want, err_msg=name)
