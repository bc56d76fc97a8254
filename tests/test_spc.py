import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caterpillar.errors import CaterpillarError, ConfigError, ReflectRangeError, ShiftRangeError
from caterpillar.spc import (
    DIRECTION_PRESETS,
    DIRECTIONS,
    MIXING_WAYS,
    PADDING_MODES,
    Spc,
    SpcConfig,
    _shift_plan,
    spc_param_count,
)
from caterpillar.layers import finite_diff_check
from caterpillar.models import parse_spc_config, spc_config_text
from caterpillar.tensor import Rng, max_rel_error
from oracles import pillars_shift, spc_oracle


def rand(shape, seed=0):
    return Rng(seed).normal(int(np.prod(shape))).reshape(shape)


def random_biases(layer, seed):
    """The layer with every bias drawn at random; a fresh layer's biases are all zero."""
    rng = Rng(seed)
    for name, p in layer.named_parameters():
        if name.endswith("b"):
            p.value = rng.normal(p.value.size)
    return layer


def grid_channels(cfg: SpcConfig, base: int = 8) -> int:
    """Smallest channel count >= base satisfying the reduce divisibility rule."""
    if not cfg.reduces_channels or base % cfg.n_directions == 0:
        return base
    nd = cfg.n_directions
    return nd * ((base + nd - 1) // nd)


def shift_one(x, direction, steps=1, padding="zero"):
    """The neighboring map of a single direction."""
    cfg = SpcConfig(directions=(direction,), steps=steps, padding=padding)
    return pillars_shift(x, cfg)[0]


X22 = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)


class TestShift2d:
    """Where the moved pillars land (the source side of the shift)."""

    def test_up_drops_first_row(self):
        out = shift_one(X22, "up")
        assert out.shape == X22.shape
        npt.assert_array_equal(out[0, :1, :, 0], [[3.0, 4.0]])

    def test_zero_steps_unchanged(self):
        x = rand((2, 3, 4, 5), 1)
        npt.assert_array_equal(shift_one(x, "down", 0), x)
        npt.assert_array_equal(shift_one(x, "center", 3), x)

    def test_down_right_composes(self):
        x = rand((1, 3, 3, 1), 2)
        out = shift_one(x, "down-right")
        # index arithmetic: out[i, j] = x[i - 1, j - 1] on the kept region
        npt.assert_array_equal(out[:, 1:, 1:, :], x[:, :2, :2, :])
        npt.assert_array_equal(out[:, 0, :, :], 0.0)
        npt.assert_array_equal(out[:, :, 0, :], 0.0)

    def test_out_of_range(self):
        with pytest.raises(ShiftRangeError):
            shift_one(X22, "up", 2)
        with pytest.raises(ShiftRangeError):
            shift_one(X22, "left", 5)


class TestPad2d:
    """How each padding mode refills the vacated border."""

    def test_zero_pads_vacated_bottom(self):
        out = shift_one(X22, "up", padding="zero")
        npt.assert_array_equal(out[0, :, :, 0], [[3.0, 4.0], [0.0, 0.0]])

    def test_replicate_copies_new_edge(self):
        out = shift_one(X22, "up", padding="replicate")
        npt.assert_array_equal(out[0, :, :, 0], [[3.0, 4.0], [3.0, 4.0]])

    def test_circular_is_roll(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
        out = shift_one(x, "up", padding="circular")
        npt.assert_array_equal(out[0, :, 0, 0], [2.0, 3.0, 1.0])

    def test_reflect_mirrors_without_edge(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = shift_one(x, "up", padding="reflect")
        npt.assert_array_equal(out[0, :, 0, 0], [2.0, 3.0, 4.0, 3.0])
        out = shift_one(x, "down", padding="reflect")
        npt.assert_array_equal(out[0, :, 0, 0], [2.0, 1.0, 2.0, 3.0])

    def test_reflect_range_error(self):
        with pytest.raises(ReflectRangeError):
            shift_one(X22, "up", padding="reflect")


class TestPillarsShift:
    def test_zero_steps_every_map_is_input(self):
        x = rand((1, 3, 3, 4), 3)
        for nd in DIRECTION_PRESETS:
            maps = pillars_shift(x, SpcConfig.preset(nd, steps=0))
            assert len(maps) == nd
            for m in maps:
                npt.assert_array_equal(m, x)

    def test_worked_2x2_example(self):
        maps = pillars_shift(X22, SpcConfig())
        expected = {
            "up": [[3.0, 4.0], [0.0, 0.0]],
            "down": [[0.0, 0.0], [1.0, 2.0]],
            "left": [[2.0, 0.0], [4.0, 0.0]],
            "right": [[0.0, 1.0], [0.0, 3.0]],
        }
        for d, m in zip(("up", "down", "left", "right"), maps):
            npt.assert_array_equal(m[0, :, :, 0], expected[d])

    def test_preset9_center_map(self):
        x = rand((1, 3, 3, 2), 4)
        cfg = SpcConfig.preset(9, steps=1)
        maps = pillars_shift(x, cfg)
        assert len(maps) == 9
        npt.assert_array_equal(maps[cfg.directions.index("center")], x)

    def test_canonical_preset_order(self):
        assert DIRECTION_PRESETS[4] == ("up", "down", "left", "right")
        assert DIRECTION_PRESETS[5][:4] == DIRECTION_PRESETS[4]
        assert DIRECTION_PRESETS[5][4] == "center"
        assert DIRECTION_PRESETS[8][:4] == DIRECTION_PRESETS[4]
        assert DIRECTION_PRESETS[9][:8] == DIRECTION_PRESETS[8]
        assert DIRECTION_PRESETS[9][8] == "center"


class TestMixing:
    def test_basis_selection(self):
        # reduce_d = d-th standard basis column, fuse = identity: output
        # channel d is exactly channel d of neighboring map d
        layer = Spc(4, cfg=SpcConfig(), rng=Rng(1))
        for d, lin in enumerate(layer._reduce):
            lin.w.value[:] = 0.0
            lin.w.value[d, 0] = 1.0
        layer.fuse.w.value = np.eye(4)
        x = rand((1, 3, 3, 4), 5)
        out = layer.forward(x)
        maps = pillars_shift(x, layer.cfg)
        for d in range(4):
            npt.assert_array_equal(out[..., d], maps[d][..., d])

    def test_sum_of_worked_maps(self):
        layer = Spc(1, cfg=SpcConfig(mixing="sum"), rng=Rng(1))
        out = layer.forward(X22)
        maps = pillars_shift(X22, layer.cfg)
        expected = maps[0] + maps[1] + maps[2] + maps[3]
        npt.assert_array_equal(out, expected)
        npt.assert_array_equal(out[0, :, :, 0], [[5.0, 5.0], [5.0, 5.0]])

    def test_reduce_concat_fuse_matches_oracle(self):
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(2))
        x = rand((1, 4, 4, 8), 6)
        assert max_rel_error(layer.forward(x), spc_oracle(x, layer)) < 1e-12

    def test_sum_requires_matching_width(self):
        with pytest.raises(ConfigError):
            Spc(8, cout=16, cfg=SpcConfig(mixing="sum"), rng=Rng(1))

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            Spc(10, cfg=SpcConfig.preset(4), rng=Rng(1))


class TestSpcLayer:
    def test_zero_input_zero_everything(self):
        layer = Spc(4, cfg=SpcConfig(), rng=Rng(3))
        x = np.zeros((1, 3, 3, 4))
        out = layer.forward(x)
        npt.assert_array_equal(out, np.zeros_like(out))
        layer.zero_grad()
        dx = layer.backward(np.zeros_like(out))
        npt.assert_array_equal(dx, np.zeros_like(x))
        for p in layer.parameters():
            npt.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_finite_diff_default_config(self):
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(4))
        assert finite_diff_check(layer, rand((1, 4, 4, 8), 7)) < 1e-6

    def test_param_count_closed_form(self):
        layer = Spc(80, cfg=SpcConfig(), rng=Rng(5))
        weights = sum(p.value.size for n, p in layer.named_parameters() if n.endswith("w"))
        assert weights == 4 * (80 * 20) + 80 * 80 == 12800 == 2 * 80**2
        assert spc_param_count(80, 80, SpcConfig()) == 12800 + 4 * 20 + 80

    def test_param_count_all_mixings(self):
        for mixing in MIXING_WAYS:
            cfg = SpcConfig(mixing=mixing)
            layer = Spc(8, cfg=cfg, rng=Rng(6))
            enumerated = sum(p.value.size for p in layer.parameters())
            assert enumerated == spc_param_count(8, 8, cfg), mixing

    @pytest.mark.parametrize("nd", sorted(DIRECTION_PRESETS))
    @pytest.mark.parametrize("mixing", MIXING_WAYS)
    def test_macs_closed_form(self, nd, mixing):
        # p = N*H*W pillars, D = nd directions; cout != cin wherever a fuse allows it
        cfg = SpcConfig.preset(nd, mixing=mixing)
        cin = 2 * nd
        cout = cin if mixing in ("reduce_concat", "sum") else cin + 3
        p = 2 * 5 * 3
        expected = {
            "reduce_concat_fuse": p * cin * cin + p * cin * cout,
            "reduce_concat": p * cin * cin,
            "concat_fuse": p * nd * cin * cout,
            "sum_fuse": p * cin * cout,
            "sum": 0,
        }[mixing]
        assert Spc(cin, cout, cfg=cfg, rng=Rng(0)).macs((2, 5, 3, cin)) == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 12, 8), (2, 4, 4, 8)])  # rows longer than cin/N; 4x4
    @pytest.mark.parametrize("mixing", MIXING_WAYS)
    def test_outputs_are_contiguous_nhwc(self, mixing, shape, dtype):
        # A channel-major buffer let out as an NHWC view passes every value
        # test, but makes each reshape downstream copy it.
        cout = shape[3] if mixing in ("reduce_concat", "sum") else 12
        layer = Spc(shape[3], cout, cfg=SpcConfig(mixing=mixing), rng=Rng(9)).astype(dtype)
        y = layer.forward(rand(shape, 10).astype(dtype))
        dx = layer.backward(np.ones_like(y))
        for out, want in ((y, shape[:3] + (cout,)), (dx, shape)):
            assert out.shape == want and out.dtype == dtype and out.flags.c_contiguous

    def test_interior_receptive_field(self):
        # interior pillar output depends only on its 4-neighborhood
        layer = Spc(4, cfg=SpcConfig(), rng=Rng(7))
        x = rand((1, 5, 5, 4), 8)
        base = layer.forward(x).copy()
        x2 = x.copy()
        x2[0, 0, 0] += 1.0  # far corner, outside (2,2)'s neighborhood
        x2[0, 4, 4] += 1.0
        moved = layer.forward(x2)
        npt.assert_array_equal(moved[0, 2, 2], base[0, 2, 2])
        x3 = x.copy()
        x3[0, 1, 2] += 1.0  # direct up-neighbor
        assert np.abs(layer.forward(x3)[0, 2, 2] - base[0, 2, 2]).max() > 0

    def test_border_missing_neighbor_is_bias_only(self):
        layer = random_biases(Spc(4, cfg=SpcConfig(), rng=Rng(8)), 18)
        zero_out = layer.forward(np.zeros((1, 3, 3, 4)))
        # with zero input every gathered neighbor is zero or zero-padding,
        # so the output is exactly the composed bias at every pillar
        npt.assert_allclose(zero_out, np.broadcast_to(zero_out[0, 0, 0], zero_out.shape))
        for name, p in layer.named_parameters():
            if name.endswith("b"):
                p.value[:] = 0.0
        npt.assert_array_equal(layer.forward(np.zeros((1, 3, 3, 4))), np.zeros((1, 3, 3, 4)))


class TestInvariants:
    def test_homogeneity(self):
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(9))
        x = rand((1, 4, 4, 8), 9)
        for alpha in (-2.0, 0.5, 3.0):
            assert max_rel_error(layer.forward(alpha * x), alpha * layer.forward(x)) < 1e-12

    def test_circular_roll_identity_bit_exact(self):
        x = rand((2, 5, 6, 3), 10)
        for d, axis_shift in [
            ("up", (-2, 0)),
            ("down", (2, 0)),
            ("left", (0, -2)),
            ("right", (0, 2)),
            ("up-left", (-2, -2)),
            ("down-right", (2, 2)),
        ]:
            out = shift_one(x, d, 2, "circular")
            npt.assert_array_equal(out, np.roll(x, axis_shift, axis=(1, 2)))

    def test_translation_equivariance_interior(self):
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(11))
        x = rand((1, 6, 6, 8), 12)
        out = layer.forward(x).copy()
        for di, dj in ((1, 0), (0, 1)):
            x_t = np.roll(x, (di, dj), axis=(1, 2))
            out_t = layer.forward(x_t)
            # rows/cols >= s+1 = 2 from every border in the shifted frame
            npt.assert_allclose(
                out_t[:, 2:5, 2:5, :], out[:, 2 - di : 5 - di, 2 - dj : 5 - dj, :],
                rtol=0, atol=1e-12,
            )

    def test_structured_convolution_equivalence(self):
        # reduce+concat+fuse is a sum of shifted maps times composed low-rank
        # matrices: map_d @ (reduce_d @ fuse_rows_d) + composed bias
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(12))
        x = rand((2, 5, 5, 8), 13)
        maps = pillars_shift(x, layer.cfg)
        width = 8 // 4
        composed_bias = layer.fuse.b.value.copy()
        total = np.zeros((2, 5, 5, 8))
        for d, lin in enumerate(layer._reduce):
            fuse_rows = layer.fuse.w.value[d * width : (d + 1) * width, :]
            total += maps[d] @ (lin.w.value @ fuse_rows)
            composed_bias = composed_bias + lin.b.value @ fuse_rows
        total += composed_bias
        assert max_rel_error(layer.forward(x), total) < 1e-10

    def test_oracle_equivalence_spot_grid(self):
        # full grid runs in the acceptance suite; spot-check one cell per way
        for mixing in MIXING_WAYS:
            cfg = SpcConfig.preset(8, steps=2, padding="circular", mixing=mixing)
            c = grid_channels(cfg)
            layer = Spc(c, cfg=cfg, rng=Rng(13))
            x = rand((2, 5, 5, c), 14)
            assert max_rel_error(layer.forward(x), spc_oracle(x, layer)) < 1e-12


class TestConfig:
    def test_serialize_parse_roundtrip(self):
        for cfg in (
            SpcConfig(),
            SpcConfig.preset(9, steps=2, padding="reflect", mixing="sum"),
            SpcConfig(directions=("up", "center"), steps=0, mixing="concat_fuse"),
        ):
            assert parse_spc_config(spc_config_text(cfg)) == cfg

    def test_parse_partial_override(self):
        cfg = parse_spc_config("padding=reflect")
        assert cfg.padding == "reflect" and cfg.directions == DIRECTION_PRESETS[4]

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            SpcConfig(directions=())
        with pytest.raises(ConfigError):
            SpcConfig(directions=("up", "up"))
        with pytest.raises(ConfigError):
            SpcConfig(directions=("sideways",))
        with pytest.raises(ConfigError):
            SpcConfig(padding="torus")
        with pytest.raises(ConfigError):
            SpcConfig(mixing="blend")
        with pytest.raises(ConfigError):
            parse_spc_config("directions=7")

    def test_gradients_across_modes(self):
        # denser sweep lives in the acceptance suite
        for padding in PADDING_MODES:
            for mixing in ("reduce_concat_fuse", "sum"):
                cfg = SpcConfig(padding=padding, mixing=mixing, steps=1)
                layer = Spc(4, cfg=cfg, rng=Rng(14))
                err = finite_diff_check(layer, rand((1, 4, 4, 4), 15))
                assert err < 1e-8, (padding, mixing, err)


@st.composite
def spc_cases(draw, mixing=st.sampled_from(MIXING_WAYS)):
    dirs = draw(st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=9, unique=True))
    cfg = SpcConfig(
        directions=tuple(dirs),
        steps=draw(st.integers(0, 3)),
        padding=draw(st.sampled_from(PADDING_MODES)),
        mixing=draw(mixing),
    )
    if cfg.reduces_channels:
        cin = cfg.n_directions * draw(st.integers(1, 2))
    else:
        cin = draw(st.integers(1, 4))
    cout = cin if cfg.mixing in ("reduce_concat", "sum") else draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 7)), draw(st.integers(1, 7)), cin)
    return cfg, cout, shape, draw(st.integers(0, 2**16))


def _range_errors(cfg, h, w):
    """(a moved axis has steps >= extent, reflect and a moved axis has 2*steps >= extent)."""
    if cfg.steps == 0:
        return False, False
    extents = []
    for d in cfg.directions:
        if "up" in d or "down" in d:
            extents.append(h)
        if "left" in d or "right" in d:
            extents.append(w)
    shift = any(cfg.steps >= e for e in extents)
    reflect = cfg.padding == "reflect" and any(2 * cfg.steps >= e for e in extents)
    return shift, reflect


class TestProperties:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spc_cases())
    def test_forward_matches_oracle_or_range_error(self, case):
        cfg, cout, shape, seed = case
        layer = random_biases(Spc(shape[3], cout, cfg=cfg, rng=Rng(seed)), seed + 3)
        x = rand(shape, seed + 1)
        shift_err, reflect_err = _range_errors(cfg, shape[1], shape[2])
        if shift_err or reflect_err:
            with pytest.raises((ShiftRangeError, ReflectRangeError)) as info:
                layer.forward(x)
            if not reflect_err:
                assert info.type is ShiftRangeError
            if not shift_err:
                assert info.type is ReflectRangeError
            return
        assert max_rel_error(layer.forward(x), spc_oracle(x, layer)) < 1e-12

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spc_cases(mixing=st.just("sum")))
    def test_sum_backward_is_adjoint(self, case):
        cfg, cout, shape, seed = case
        assume(_range_errors(cfg, shape[1], shape[2]) == (False, False))
        layer = Spc(shape[3], cout, cfg=cfg, rng=Rng(seed))
        x = rand(shape, seed + 1)
        g = rand(shape, seed + 2)
        lhs = float(np.sum(layer.forward(x) * g))
        rhs = float(np.sum(x * layer.backward(g)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def old_backward(layer, x, dy):
    """The earlier Spc.backward after one forward of x: one zero-filled buffer and
    one Linear backward per reduction, with every unshift accumulated into zeros.

    Returns dx and the name -> gradient of every parameter, starting from zero.
    """
    n, h, w, c = x.shape
    cfg = layer.cfg
    plans = [_shift_plan(d, h, w, cfg.steps, cfg.padding) for d in cfg.directions]
    grads = {name: np.zeros_like(p.value) for name, p in layer.named_parameters()}
    dz = dy
    if layer.fuse is not None:
        z = layer.fuse._x.reshape(-1, layer.fuse.cin)
        grads["fuse.w"] += z.T @ dy.reshape(-1, layer.cout)
        grads["fuse.b"] += dy.reshape(-1, layer.cout).sum(axis=0)
        dz = (dy.reshape(-1, layer.cout) @ layer.fuse.w.value.T).reshape(layer.fuse._x.shape)

    def add_unshifted(dsrc, dout, plan):
        for (ro, co), (rs, cs) in plan[0]:
            dsrc[:, rs, cs] += dout[:, ro, co]

    dx = np.zeros(x.shape)
    if not cfg.reduces_channels:
        concat = cfg.mixing == "concat_fuse"
        for k, plan in enumerate(plans):
            add_unshifted(dx, dz[..., k * c : (k + 1) * c] if concat else dz, plan)
        return dx, grads
    width = c // cfg.n_directions
    for k, (d, lin, plan) in enumerate(zip(cfg.directions, layer._reduce, plans)):
        name = f"reduce_{d.replace('-', '_')}"
        dzk = dz[..., k * width : (k + 1) * width]
        dyk = np.zeros((n, h, w, width))
        add_unshifted(dyk, dzk, plan)
        flat = dyk.reshape(-1, width)
        grads[f"{name}.w"] += x.reshape(-1, c).T @ flat
        for ro, co in plan[1]:
            grads[f"{name}.b"] += dzk[:, ro, co].sum(axis=(0, 1, 2))
        grads[f"{name}.b"] += flat.sum(axis=0)
        dx += (flat @ lin.w.value.T).reshape(x.shape)
    return dx, grads


def _check_backward_matches_old(case):
    cfg, cout, shape, seed = case
    assume(_range_errors(cfg, shape[1], shape[2]) == (False, False))
    layer = Spc(shape[3], cout, cfg=cfg, rng=Rng(seed))
    x = rand(shape, seed + 1)
    dy = rand(layer.forward(x).shape, seed + 2)
    dx_ref, grads_ref = old_backward(layer, x, dy)
    dx = layer.backward(dy)
    assert dx.shape == x.shape and max_rel_error(dx, dx_ref) < 1e-12
    for name, p in layer.named_parameters():
        assert max_rel_error(p.grad, grads_ref[name]) < 1e-12, name


class TestBackwardPin:
    """Spc.backward against the per-reduction backward it replaced, in float64."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spc_cases(mixing=st.sampled_from(("reduce_concat_fuse", "reduce_concat"))))
    def test_reduce_mixings_match_old_path(self, case):
        _check_backward_matches_old(case)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(spc_cases(mixing=st.sampled_from(("concat_fuse", "sum_fuse", "sum"))))
    def test_other_mixings_match_old_path(self, case):
        _check_backward_matches_old(case)


_SPC_VALUES = ["4", "5", "7", "²", "٤", "up+down", "up+up", "center", "", "-1", "0", "2",
               "x", "zero", "reflect", "torus", "sum", "blend", "1_0"]
_spc_chunks = st.one_of(
    st.tuples(
        st.sampled_from(["directions", "steps", "padding", "mixing", "colour", ""]),
        st.sampled_from(_SPC_VALUES),
    ).map("=".join),
    st.sampled_from(["", " ", "steps", "=", "==1"]),
)


class TestConfigText:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(_spc_chunks, max_size=5), st.sampled_from([";", ",", " ; "]))
    def test_parse_succeeds_or_raises_typed(self, chunks, sep):
        try:
            parse_spc_config(sep.join(chunks))
        except CaterpillarError:
            pass
