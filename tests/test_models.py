import dataclasses
import hashlib
import pathlib
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import example
from hypothesis import strategies as st

from caterpillar.blocks import COMBINE_STRATEGIES, LOCAL_MIXERS, BlockConfig
from caterpillar.errors import BuildError, CaterpillarError, ConfigError, FormatError
from caterpillar.models import (
    SPEC_KEYS,
    VARIANT_PRESETS,
    ModelSpec,
    ResnetSpec,
    adapt_small_images,
    build_model,
    caterpillar_param_formula,
    count_params,
    estimate_flops,
    load_checkpoint,
    local_mixer_param_count,
    parse_model_spec,
    save_checkpoint,
)
from caterpillar.models import _BasicBlock
from caterpillar.layers import Linear, Module, Sequential, finite_diff_check, no_backward
from caterpillar.errors import ShapeError
from caterpillar.layers import FFN, Conv2d, DWConv2d, ReLU, Residual
from caterpillar.models import CaterpillarModel, ResNetModel
from caterpillar.spc import DIRECTION_PRESETS, MIXING_WAYS, PADDING_MODES, SpcConfig
from caterpillar.tensor import Rng
from helpers import rand


MICRO = ModelSpec(
    variant="custom",
    base_width=8,
    depths=(1, 1, 1, 1),
    patch_size=1,
    input=(16, 16, 3),
    num_classes=5,
    block=BlockConfig(ffn_ratio=2),
)


class TestStagePlans:
    def test_preset_t_at_224(self):
        plan = ModelSpec.preset("T").stage_plan()
        assert [(s["h"], s["w"], s["c"]) for s in plan] == [
            (56, 56, 80),
            (28, 28, 160),
            (14, 14, 320),
            (7, 7, 640),
        ]
        assert [s["depth"] for s in plan] == [2, 8, 14, 2]

    def test_preset_mi(self):
        spec = ModelSpec.preset("Mi")
        assert spec.widths == (40, 80, 160, 320)
        assert spec.depths == (2, 6, 10, 2)

    def test_all_preset_tables(self):
        expect = {
            "Mi": (40, (2, 6, 10, 2)),
            "Tx": (60, (2, 8, 14, 2)),
            "T": (80, (2, 8, 14, 2)),
            "S": (96, (2, 10, 24, 2)),
            "B": (112, (2, 10, 24, 2)),
        }
        for name, (width, depths) in expect.items():
            spec = ModelSpec.preset(name)
            assert spec.base_width == width and spec.depths == depths

    def test_small_image_profiles(self):
        t = ModelSpec.preset("T")
        cifar = adapt_small_images(t, "CIFAR")
        assert [(s["h"], s["w"]) for s in cifar.stage_plan()] == [
            (32, 32), (16, 16), (8, 8), (4, 4)
        ]
        fashion = adapt_small_images(t, "FASHION")
        assert [(s["h"], s["w"]) for s in fashion.stage_plan()] == [
            (28, 28), (14, 14), (7, 7), (7, 7)
        ]
        assert fashion.input == (28, 28, 1)
        mini = adapt_small_images(t, "MIN")
        assert [(s["h"], s["w"]) for s in mini.stage_plan()] == [
            (28, 28), (14, 14), (7, 7), (7, 7)
        ]
        assert mini.patch_size == 3

    def test_channel_schedule_override(self):
        t_dag = ModelSpec.preset("T", channel_schedule=(72, 144, 288, 576))
        assert t_dag.widths == (72, 144, 288, 576)
        assert [s["c"] for s in t_dag.stage_plan()] == [72, 144, 288, 576]

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            adapt_small_images(ModelSpec.preset("T"), "IMAGENET")

    def test_patch_mismatch_names_stage(self):
        bad = dataclasses.replace(MICRO, patch_size=3)
        with pytest.raises(BuildError, match="stage 1"):
            bad.stage_plan()

    def test_spc_divisibility_names_stage(self):
        bad = dataclasses.replace(MICRO, base_width=6)  # 6 % 4 != 0
        with pytest.raises(BuildError, match=r"^stage1\.block1: spc: .*divisible"):
            build_model(bad)


class TestBuildAndForward:
    def test_micro_forward_shape(self):
        model = build_model(MICRO, seed=1)
        out = model.forward(rand((3, 16, 16, 3), 1), training=True)
        assert out.shape == (3, 5)
        assert np.all(np.isfinite(out))

    def test_micro_32px_patch1(self):
        spec = ModelSpec(
            variant="custom", base_width=16, depths=(1, 1, 1, 1), patch_size=1,
            input=(32, 32, 3), num_classes=10, block=BlockConfig(ffn_ratio=2),
        )
        model = build_model(spec)
        out = model.forward(rand((2, 32, 32, 3), 2))
        assert out.shape == (2, 10)

    def test_backward_runs_and_shapes(self):
        model = build_model(MICRO, seed=2)
        x = rand((2, 16, 16, 3), 3)
        out = model.forward(x, training=True)
        model.zero_grad()
        dx = model.backward(np.ones_like(out))
        assert dx.shape == x.shape
        assert any(np.abs(p.grad).max() > 0 for p in model.parameters())

    def test_stage_features_match_plan(self):
        spec = adapt_small_images(ModelSpec.preset("Mi"), "CIFAR")
        model = build_model(spec, seed=1)
        feats = model.stage_features(rand((1, 32, 32, 3), 9))
        plan = spec.stage_plan()
        assert [f.shape for f in feats] == [
            (1, st["h"], st["w"], st["c"]) for st in plan
        ]
        out = model.forward(rand((2, 32, 32, 3), 10))
        assert out.shape == (2, spec.num_classes)

    def test_parameter_names_unique_and_structured(self):
        model = build_model(MICRO, seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert "stage1.block1.spc.fuse.w" in names
        assert "stage2.downsample.w" in names
        assert "head.fc.b" in names


class TestConcurrentEval:
    def test_two_threads_match_serial(self):
        """Eval-mode forward on one shared model gives each caller its serial output.

        Every layer still writes its cache for a possible backward, so a layer
        that read its own cache back inside forward would mix up the callers.
        """
        model = build_model(MICRO, seed=3)
        inputs = [rand((4, 16, 16, 3), seed=k) for k in (1, 2)]
        serial = [model.forward(x, training=False) for x in inputs]
        results = [[], []]

        def run(k):
            for _ in range(100):
                results[k].append(model.forward(inputs[k], training=False))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in (0, 1):
            assert len(results[k]) == 100
            for out in results[k]:
                npt.assert_array_equal(out, serial[k])

    def test_switch_is_per_thread(self):
        """Eval forwards inside no_backward() in one thread leave another thread keeping.

        The main thread trains a second model meanwhile; a process-wide switch
        would leave its layers without caches, or its gradients changed.
        """
        shared = build_model(MICRO, seed=3)
        trained = build_model(MICRO, seed=5)
        x, d = rand((4, 16, 16, 3), seed=11), rand((4, 5), seed=12)

        def grads():
            trained.forward(x, training=True)
            trained.zero_grad()
            return [trained.backward(d)] + [p.grad.copy() for p in trained.parameters()]

        serial = grads()
        stop = threading.Event()
        evals = []

        def eval_loop():
            with no_backward():
                while not stop.is_set():
                    evals.append(shared.forward(x, training=False))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=eval_loop)
        try:
            thread.start()
            for _ in range(20):
                for got, want in zip(grads(), serial, strict=True):
                    npt.assert_array_equal(got, want)
        finally:
            stop.set()
            thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and evals


_EVAL_BACKWARD_MODELS = {
    "micro-LG": lambda: build_model(MICRO, seed=4),
    "micro-weighted_sum": lambda: build_model(
        dataclasses.replace(MICRO, block=BlockConfig(ffn_ratio=2, combine="weighted_sum")), seed=4
    ),
    "resnet18-spc": lambda: build_model(ResnetSpec(8, "spc", 5, (16, 16, 3)), seed=4),
}


class TestBackwardAfterEval:
    @pytest.mark.parametrize("name", sorted(_EVAL_BACKWARD_MODELS))
    def test_matches_a_forward_that_keeps(self, name):
        """model.forward(x, False) then backward equals the plain chain's keeping forward."""
        x = rand((2, 16, 16, 3), seed=6)
        d = rand((2, 5), seed=7)
        grads = []
        for keep in (True, False):
            model = _EVAL_BACKWARD_MODELS[name]()
            model.forward(rand((2, 16, 16, 3), seed=8), training=True)  # running stats
            if keep:
                Sequential.forward(model, x, False)
            else:
                model.forward(x, training=False)
            model.zero_grad()
            dx = model.backward(d)
            grads.append([dx] + [p.grad.copy() for p in model.parameters()])
        assert len(grads[0]) == len(grads[1])
        for kept, recomputed in zip(*grads):
            npt.assert_array_equal(recomputed, kept)


def _walk(module, path="model"):
    yield path, module
    for name, child in module._children():
        yield from _walk(child, f"{path}.{name}")


def _kept_arrays(module) -> list[str]:
    """ndarray attributes, also inside tuples, besides Parameters and buffers.

    This is what perfbench counts as retained_bytes.
    """

    def holds(value):
        if isinstance(value, np.ndarray):
            return True
        return isinstance(value, (tuple, list)) and any(holds(v) for v in value)

    buffers = set(type(module).buffer_names)
    return [k for k, v in vars(module).items() if k not in buffers and holds(v)]


class TestKeepsNothing:
    @pytest.mark.parametrize("name", sorted(_EVAL_BACKWARD_MODELS))
    def test_eval_forward_keeps_only_the_model_input(self, name):
        model = _EVAL_BACKWARD_MODELS[name]()
        x = rand((2, 16, 16, 3), seed=9)

        def layers_holding():
            return [
                (path, k) for path, m in _walk(model) if m is not model for k in _kept_arrays(m)
            ]

        model.forward(x, training=True)
        assert layers_holding()
        model.forward(x, training=False)
        assert layers_holding() == []
        assert _kept_arrays(model) == ["_eval_x"] and model._eval_x is x
        model.stage_features(x)
        assert layers_holding() == []


def _held_modules(module):
    """Modules a module holds as attributes, also inside (nested) lists."""
    stack = list(vars(module).values())
    while stack:
        obj = stack.pop()
        if isinstance(obj, Module):
            yield obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)


def _all_model_variants():
    for mixer in LOCAL_MIXERS:
        for combine in COMBINE_STRATEGIES:
            block = BlockConfig(ffn_ratio=2, local_mixer=mixer, combine=combine)
            yield f"caterpillar-{mixer}-{combine}", build_model(
                dataclasses.replace(MICRO, block=block)
            )
    for mixer in ("conv3x3", "spc"):
        for small_stem in (True, False):
            # at 32 px the large stem leaves 1x1 maps, too small to shift
            spec = ResnetSpec(8, mixer, 4, (64, 64, 3), small_stem=small_stem)
            yield f"resnet18-{mixer}-small{small_stem}", build_model(spec)


class TestTrainingStepKeepsNothing:
    def test_backward_consumes_every_cache(self):
        """After one forward and its backward, no module holds an array for a backward."""
        for label, model in _all_model_variants():
            x = rand((2,) + model.spec.input, seed=10)
            out = model.forward(x, training=True)
            model.backward(rand(out.shape, seed=11))
            held = [(path, k) for path, m in _walk(model) for k in _kept_arrays(m)]
            assert held == [], label


def _arrays_held(module) -> list[np.ndarray]:
    """The arrays behind _kept_arrays(module), tuples unpacked."""
    out, stack = [], [getattr(module, k) for k in _kept_arrays(module)]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            out.append(value)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
    return out


class TestEachActivationKeptOnce:
    """A training forward holds no array that another kept array already fixes."""

    @pytest.mark.parametrize("name", ["resnet18-spc", "resnet18-conv3x3", "micro", "micro-dwconv"])
    def test_relu_conv2d_and_fc2_keep_no_copy(self, name):
        if name.startswith("micro"):
            mixer = "dwconv" if name == "micro-dwconv" else "spc"
            block = dataclasses.replace(MICRO.block, local_mixer=mixer)
            model = build_model(dataclasses.replace(MICRO, block=block))
            x = rand((2, 16, 16, 3), seed=12)
        else:
            model = build_model(ResnetSpec(8, name.split("-")[1], 4, (64, 64, 3)))
            x = rand((2, 64, 64, 3), seed=12)
        calls = {}  # id(layer) -> (input, output) of its forward
        watched = [m for _, m in _walk(model) if isinstance(m, (ReLU, Conv2d, DWConv2d))]
        for m in watched:
            def forward(a, training=False, m=m, inner=m.forward):
                calls[id(m)] = (a, inner(a, training))
                return calls[id(m)][1]

            m.forward = forward
        model.forward(x, training=True)
        for m in watched:
            del m.forward
        for m in watched:
            a, y = calls[id(m)]
            held = _arrays_held(m)
            assert len(held) == 1 and held[0] is (y if isinstance(m, ReLU) else a), type(m)
        ffns = [m for _, m in _walk(model) if isinstance(m, FFN)]
        assert all(_kept_arrays(m.fc2) == [] for m in ffns)
        assert watched and bool(ffns) == name.startswith("micro")
        assert any(isinstance(m, DWConv2d) for m in watched) == (name == "micro-dwconv")


class TestChildren:
    def test_every_held_module_is_a_listed_child(self):
        # tracing, named_buffers and astype reach only what _children() lists
        for label, model in _all_model_variants():
            stack = [("", model)]
            while stack:
                path, module = stack.pop()
                children = module._children()
                listed = {id(child) for _, child in children}
                for held in _held_modules(module):
                    assert id(held) in listed, (label, path, type(held).__name__)
                stack.extend((f"{path}.{name}", child) for name, child in children)


class TestAccounting:
    def test_local_mixer_closed_forms(self):
        d = 13
        assert local_mixer_param_count(d, d, "conv", 3) == 9 * d * d
        assert local_mixer_param_count(d, d, "spc") == 2 * d * d
        assert local_mixer_param_count(d, d, "conv", 3) / local_mixer_param_count(d, d, "spc") == 4.5
        assert local_mixer_param_count(64, 64, "dwconv", 3) == 576
        assert local_mixer_param_count(80, 80, "spc") == 12800

    def test_enumeration_matches_formula_across_specs(self):
        specs = [
            MICRO,
            adapt_small_images(ModelSpec.preset("Mi"), "CIFAR"),
            dataclasses.replace(
                MICRO, block=BlockConfig(local_mixer="dwconv", combine="sum", ffn_ratio=2)
            ),
            dataclasses.replace(
                MICRO,
                block=BlockConfig(combine="concat_reduce", ffn_ratio=4),
            ),
            dataclasses.replace(
                MICRO,
                block=BlockConfig(
                    combine="weighted_sum",
                    ffn_ratio=2,
                    spc=SpcConfig.preset(8, mixing="concat_fuse"),
                ),
            ),
        ]
        for spec in specs:
            total, _ = count_params(build_model(spec))
            assert total == caterpillar_param_formula(spec), spec

    def test_delta_independent_of_ffn_ratio(self):
        deltas = []
        for ratio in (2, 3, 4):
            spc_spec = dataclasses.replace(
                MICRO, block=dataclasses.replace(MICRO.block, ffn_ratio=ratio)
            )
            dw_spec = dataclasses.replace(
                spc_spec,
                block=dataclasses.replace(spc_spec.block, local_mixer="dwconv"),
            )
            deltas.append(
                caterpillar_param_formula(spc_spec) - caterpillar_param_formula(dw_spec)
            )
        assert deltas[0] == deltas[1] == deltas[2]

    def test_single_projection_macs(self):
        lin = Linear(6, 11, rng=Rng(1))
        assert lin.macs((1, 7, 5, 6)) == 7 * 5 * 6 * 11

    def test_estimate_flops_input_binding(self):
        model = build_model(MICRO)
        with pytest.raises(Exception):
            estimate_flops(model, (1, 32, 32, 3))

    def test_flops_rows_cover_model(self):
        model = build_model(MICRO)
        total, rows = estimate_flops(model, (1, 16, 16, 3))
        names = [n for n, _ in rows]
        assert names[0] == "embed" and names[-1] == "head"
        assert total == sum(m for _, m in rows) and total > 0


class TestResnet:
    def test_conv_baseline_params(self):
        total, _ = count_params(build_model(ResnetSpec(64, "conv3x3", 1000, (224, 224, 3))))
        assert abs(total - 12e6) <= 0.10 * 12e6

    def test_spc_small_image_params(self):
        total, _ = count_params(build_model(ResnetSpec(64, "spc", 10, (32, 32, 3))))
        assert abs(total - 2.6e6) <= 0.15 * 2.6e6

    def test_spc_nc128_builds_and_runs(self):
        model = build_model(ResnetSpec(128, "spc", 10, (32, 32, 3)))
        out = model.forward(rand((2, 32, 32, 3), 4))
        assert out.shape == (2, 10)

    def test_spc_divisibility_error(self):
        with pytest.raises(BuildError, match="divisible"):
            build_model(ResnetSpec(6, "spc", 10, (32, 32, 3)))

    def test_spc_config_error_names_the_block(self):
        with pytest.raises(BuildError, match=r"^stage1\.block1: spc: .*divisible"):
            build_model(ResnetSpec(6, "spc", 10, (32, 32, 3)))
        with pytest.raises(BuildError, match=r"^stage2\.block1: spc: .*cannot emit"):
            build_model(ResnetSpec(8, "spc", 10, (32, 32, 3), spc=SpcConfig(mixing="sum")))

    def test_small_stem_auto(self):
        assert ResnetSpec(input=(32, 32, 3)).small_stem is True
        assert ResnetSpec(input=(224, 224, 3)).small_stem is False

    def test_backward_runs(self):
        model = build_model(ResnetSpec(8, "spc", 4, (16, 16, 3)), seed=3)
        x = rand((2, 16, 16, 3), 5)
        out = model.forward(x, training=True)
        model.zero_grad()
        dx = model.backward(np.ones_like(out))
        assert dx.shape == x.shape


_SHORTCUTS = [(4, 4, 1), (4, 8, 1), (4, 8, 2)]  # identity, projection, stride 2


class TestBasicBlock:
    @pytest.mark.parametrize("cin, cout, stride", _SHORTCUTS)
    @pytest.mark.parametrize("mixer", ["conv3x3", "spc"])
    def test_finite_diff(self, mixer, cin, cout, stride):
        # Seeds fixed away from ReLU kinks, where a central difference at
        # eps 1e-5 straddles the kink and reads up to 0.4.
        block = _BasicBlock(cin, cout, stride, ResnetSpec(local_mixer=mixer), Rng(1))
        err = finite_diff_check(block, rand((2, 4, 4, cin), 20))
        assert err < 1e-4, (mixer, cin, cout, stride, err)

    @pytest.mark.parametrize("cin, cout, stride", _SHORTCUTS)
    @pytest.mark.parametrize("mixer", ["conv3x3", "spc"])
    def test_macs_closed_form(self, mixer, cin, cout, stride):
        n, h = 2, 4
        block = _BasicBlock(cin, cout, stride, ResnetSpec(local_mixer=mixer), Rng(1))
        p_in, p_out = n * h * h, n * (h // stride) ** 2
        if mixer == "conv3x3":
            mix = p_out * 9 * (cin * cout + cout * cout)
        else:  # spc: cin -> cin reductions, cin -> cout fuse, at the input resolution
            mix = p_in * (cin * cin + cin * cout) + p_out * 2 * cout * cout
        short = 0 if (cin, stride) == (cout, 1) else p_out * (cin * cout + cout)
        assert block.macs((n, h, h, cin)) == mix + 2 * p_out * cout + short


_DIRECTION_SETS = [
    DIRECTION_PRESETS[4], DIRECTION_PRESETS[8], ("up", "down"), ("left", "right"),
    ("up-left", "down-right"), ("up", "center"),
]


@st.composite
def extent_specs(draw):
    """Small pyramid and resnet specs over input extent, shift steps, padding and directions."""
    spc = SpcConfig(
        directions=draw(st.sampled_from(_DIRECTION_SETS)),
        steps=draw(st.integers(0, 3)),
        padding=draw(st.sampled_from(PADDING_MODES)),
    )
    if draw(st.booleans()):
        extent = st.integers(1, 40)
        return ResnetSpec(
            8, draw(st.sampled_from(["spc", "conv3x3"])), 3, (draw(extent), draw(extent), 1),
            small_stem=draw(st.booleans()), spc=spc,
        )
    extent = st.integers(1, 20)
    return dataclasses.replace(
        MICRO, input=(draw(extent), draw(extent), 1), block=BlockConfig(ffn_ratio=1, spc=spc)
    )


def _residual_without_broadcast(self, x, training=False):
    """Residual.__call__, except that a path and skip of different shapes fail."""
    mid, skip = self.path(x, training), self.skip(x, training)
    if mid.shape != skip.shape:
        raise ShapeError(f"residual broadcasts {mid.shape} against {skip.shape}")
    return self.post(mid + skip, training)


class TestBuildChecksExtents:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(extent_specs())
    # Stride-2 SPC block at extent 3: AvgPool's floor gives the path 1x1, the
    # 1x1 stride-2 shortcut's ceil gives 2x2, and numpy would broadcast them.
    @example(ResnetSpec(8, "spc", 3, (12, 12, 1), spc=SpcConfig(steps=0)))
    def test_builds_exactly_when_one_image_runs(self, spec):
        """build_model fails exactly when a forward of one image must, naming the layer that fails.

        The forward counts a residual whose path and skip differ in shape as
        a failure, although numpy may broadcast them: the sum is not the
        block's output then.
        """
        unchecked = (CaterpillarModel if isinstance(spec, ModelSpec) else ResNetModel)(spec)
        x, fails = rand((1,) + spec.input, seed=13), None
        with mock.patch.object(Residual, "__call__", _residual_without_broadcast), no_backward():
            for name, layer in unchecked.layers:
                try:
                    x = layer(x)
                except (CaterpillarError, ValueError):
                    fails = name
                    break
        try:
            build_model(spec)
            named = None
        except BuildError as exc:
            named = str(exc).split(":")[0]
        assert named == fails

    def test_error_names_the_layer(self):
        reflect = dataclasses.replace(MICRO, block=BlockConfig(spc=SpcConfig(padding="reflect")))
        with pytest.raises(BuildError, match=r"^stage4\.block1: spc shift: reflect"):
            build_model(reflect)
        with pytest.raises(BuildError, match=r"^stage4\.block1: spc shift"):
            build_model(ResnetSpec(8, "spc", 4, (32, 32, 3), small_stem=False))
        with pytest.raises(BuildError, match=r"^stage4\.block1: residual: path gives"):
            build_model(ResnetSpec(8, "spc", 4, (20, 20, 3)))
        even = dataclasses.replace(MICRO, block=BlockConfig(local_mixer="dwconv", dw_kernel=2))
        with pytest.raises(BuildError, match=r"^stage1\.block1: dwconv: kernel must be odd"):
            build_model(even)

    def test_load_checkpoint_goes_through_the_gate(self, tmp_path):
        path = str(tmp_path / "r18.ckpt")
        save_checkpoint(path, ResNetModel(ResnetSpec(8, "spc", 4, (32, 32, 3), small_stem=False)))
        with pytest.raises(BuildError, match=r"^stage4\.block1: spc shift"):
            load_checkpoint(path)


class TestSerialization:
    def test_spec_text_roundtrip(self):
        for spec in (
            ModelSpec.preset("T"),
            adapt_small_images(ModelSpec.preset("Mi"), "FASHION"),
            dataclasses.replace(
                MICRO,
                block=BlockConfig(
                    local_mixer="dwconv",
                    combine="weighted_sum",
                    ffn_ratio=4,
                    spc=SpcConfig.preset(8, steps=2, padding="reflect", mixing="sum"),
                ),
                channel_schedule=(8, 16, 32, 64),
            ),
            ResnetSpec(32, "spc", 7, (32, 32, 3)),
        ):
            assert parse_model_spec(spec.serialize()) == spec

    def test_schedule_spec_without_base_width_round_trips(self, tmp_path):
        spec = dataclasses.replace(MICRO, base_width=None, channel_schedule=(8, 16, 32, 64))
        text = spec.serialize()
        assert "base_width" not in text
        assert parse_model_spec(text) == spec
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), build_model(spec, seed=2))
        loaded = load_checkpoint(str(p1))
        assert loaded.spec == spec
        save_checkpoint(str(p2), loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rebuild_identical_table(self):
        model = build_model(MICRO, seed=4)
        rebuilt = build_model(parse_model_spec(MICRO.serialize()), seed=9)
        table = lambda m: [(n, p.value.shape) for n, p in m.named_parameters()]
        assert table(model) == table(rebuilt)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        model = build_model(MICRO, seed=5).astype(np.float32)
        # make running stats nontrivial before saving
        model.forward(rand((2, 16, 16, 3), 6).astype(np.float32), training=True)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(str(p1), model)
        loaded = load_checkpoint(str(p1))
        save_checkpoint(str(p2), loaded)
        assert p1.read_bytes() == p2.read_bytes()
        x = rand((2, 16, 16, 3), 7).astype(np.float32)
        npt.assert_array_equal(model.forward(x), loaded.forward(x))

    @pytest.mark.parametrize("combine", COMBINE_STRATEGIES)
    def test_checkpoint_roundtrip_every_combine(self, tmp_path, combine):
        # weighted_sum's scalar tensors are written with the shape "scalar";
        # seed 2 differs from the seed load_checkpoint builds with
        spec = dataclasses.replace(MICRO, block=BlockConfig(ffn_ratio=2, combine=combine))
        save_checkpoint(str(tmp_path / "a.ckpt"), build_model(spec, seed=2))
        save_checkpoint(str(tmp_path / "b.ckpt"), load_checkpoint(str(tmp_path / "a.ckpt")))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_checkpoint_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\n")
        with pytest.raises(FormatError):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize(
        "old, new, needle",
        [
            # "²" passes str.isdigit() but not int()
            (b"\nDATA ", b"\nDATA \xc2\xb2", "DATA line"),
            # the first line's span overlaps embed.w; the second line alone would load
            (b"\nembed.b 8 24\n", b"\nembed.b 8 0\nembed.b 8 24\n",
             "'embed.b 8 0', the writer writes 'embed.b 8 24'"),
            # int() takes each of these manifest fields as 24 or 8
            (b"\nembed.b 8 24\n", "\nembed.b 8 \u0662\u0664\n".encode(), "manifest"),
            (b"\nembed.b 8 24\n", b"\nembed.b 8 +24\n", "manifest"),
            (b"\nembed.b 8 24\n", b"\nembed.b 8 2_4\n", "manifest"),
            (b"\nembed.b 8 24\n", b"\nembed.b +8 24\n", "manifest"),
            # the marker only ends the spec at the start of a line
            (b"=reduce_concat_fuse\n[tensors]\n", b"=reduce_concat_fuse [tensors]\n", "tensors"),
            # each of these parses to the stored spec, which the writer writes otherwise
            (b"\ndw_kernel=3\n", b"\n#dw_kernel=3\n", "spec line 14 is '#dw_kernel=3'"),
            (b"\nsteps=1\n", b"\n", "spec line 17 is 'padding=zero'"),
            (b"\n[block]\n", b"\n\n[block]\n", "spec line 10 is ''"),
            (b"\nsteps=1\n", b"\nsteps = 1\n", "spec line 17 is 'steps = 1'"),
            (b"\nembed.w 1x1x3x8 0\nembed.b 8 24\n", b"\nembed.b 8 24\nembed.w 1x1x3x8 0\n",
             "manifest line 21 is 'embed.b 8 24'"),
            # cut just before the DATA line's newline (None)
            (b"\nDATA 62969\n", None, "DATA line 153 is cut short at 'DATA 62969'"),
        ],
    )
    def test_checkpoint_rejects_malformed_header(self, tmp_path, old, new, needle):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), build_model(MICRO))
        raw = path.read_bytes()
        assert raw.count(old) == 1
        if new is None:
            path.write_bytes(raw[: raw.index(old) + len(old) - 1])
        else:
            path.write_bytes(raw.replace(old, new))
        with pytest.raises(FormatError) as info:
            load_checkpoint(str(path))
        assert needle in str(info.value).replace(str(path), "")

    @pytest.mark.parametrize(
        "old, new",
        [
            # int() takes each of these as 10, 2, 2 or 16; isdecimal() takes "٤" as 4
            ("steps=1", "steps=1_0"),
            ("steps=1", "steps=+2"),
            ("steps=1", "steps=\u0662"),
            ("base_width=8", "base_width=1_6"),
            ("directions=4", "directions=\u0664"),
        ],
    )
    def test_spec_integers_take_ascii_digits_alone(self, old, new):
        text = MICRO.serialize()
        assert text.count(f"\n{old}\n") == 1
        with pytest.raises(ConfigError):
            parse_model_spec(text.replace(f"\n{old}\n", f"\n{new}\n"))
        with pytest.raises(ConfigError, match="steps must be >= 0"):
            parse_model_spec(text.replace("\nsteps=1\n", "\nsteps=-1\n"))

    def test_readme_spec_example_parses(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("## Model spec files"):]
        start = section.index("```ini\n") + len("```ini\n")
        text = section[start : section.index("```", start)]
        assert parse_model_spec(text) == ModelSpec.preset("T", channel_schedule=(72, 144, 288, 576))

    def test_resnet_checkpoint_roundtrip(self, tmp_path):
        model = build_model(ResnetSpec(8, "spc", 4, (16, 16, 3)), seed=6).astype(np.float32)
        path = tmp_path / "r.ckpt"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        x = rand((1, 16, 16, 3), 8).astype(np.float32)
        npt.assert_array_equal(model.forward(x), loaded.forward(x))


class TestGradientsOnDemand:
    """A Parameter allocates its gradient on the first read, so an eval holds no gradients."""

    def test_eval_holds_the_weights_and_no_gradients(self):
        spec = ModelSpec(variant="custom", base_width=32, depths=(1, 1, 1, 1), patch_size=2,
                         input=(32, 32, 3), num_classes=10)
        x = rand((2, 32, 32, 3), 30).astype(np.float32)
        tracemalloc.start()
        try:
            model = build_model(spec, seed=0).astype(np.float32)
            model.forward(x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = sum(p.value.nbytes for p in model.parameters())
        assert weights > 4 << 20
        # The margin covers the modules' Python objects, buffers and logits; a
        # gradient per parameter would add the weights' bytes again.
        assert held < weights + weights // 4
        assert all(p._grad is None for p in model.parameters())

    def test_checkpoint_load_allocates_no_gradient(self, tmp_path):
        model = build_model(MICRO, seed=5).astype(np.float32)
        model.zero_grad()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        assert all(p._grad is None for p in loaded.parameters())
        for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            npt.assert_array_equal(a.value, b.value)
            assert b.grad.dtype == np.float32 and b.grad.shape == b.value.shape
            assert not b.grad.any()


def _header_sha256(path) -> str:
    """sha256 of a checkpoint's text header: spec, tensor manifest, DATA line."""
    raw = path.read_bytes()
    end = raw.index(b"\n", raw.index(b"\nDATA ") + 1) + 1
    return hashlib.sha256(raw[:end]).hexdigest()


class TestLayoutPin:
    # Literals recorded from the builders: a refactor that renames, reorders
    # or reshapes a tensor, or moves a MAC row, changes one of them.
    def test_micro_layout(self, tmp_path):
        model = build_model(MICRO)
        save_checkpoint(str(tmp_path / "m.ckpt"), model)
        assert _header_sha256(tmp_path / "m.ckpt") == (
            "cbfbbef51f6f4d181b7259ad34a8930aeef27f3f7716f44f677dd1bab6d7cb87"
        )
        assert estimate_flops(model, (1, 16, 16, 3))[1] == [
            ("embed", 6144),
            ("stage1.block1", 219136),
            ("stage2.downsample", 32768),
            ("stage2.block1", 166912),
            ("stage3.downsample", 32768),
            ("stage3.block1", 153088),
            ("stage4.downsample", 32768),
            ("stage4.block1", 149248),
            ("head", 384),
        ]

    def test_micro_gl_layout(self, tmp_path):
        # GL runs smlp before the local mixer but lists its children in LG order
        model = build_model(
            dataclasses.replace(MICRO, block=BlockConfig(ffn_ratio=2, combine="GL"))
        )
        save_checkpoint(str(tmp_path / "m.ckpt"), model)
        assert _header_sha256(tmp_path / "m.ckpt") == (
            "9380d759274021363ca0b65bcd8741cf77c3029030c9adaa5dc7a1cc67e03982"
        )
        assert estimate_flops(model, (1, 16, 16, 3))[1] == [
            ("embed", 6144),
            ("stage1.block1", 219136),
            ("stage2.downsample", 32768),
            ("stage2.block1", 166912),
            ("stage3.downsample", 32768),
            ("stage3.block1", 153088),
            ("stage4.downsample", 32768),
            ("stage4.block1", 149248),
            ("head", 384),
        ]

    def test_resnet18_conv3x3_large_stem_layout(self, tmp_path):
        model = build_model(ResnetSpec(8, "conv3x3", 4, (64, 64, 3)))
        assert not model.spec.small_stem
        save_checkpoint(str(tmp_path / "r.ckpt"), model)
        assert _header_sha256(tmp_path / "r.ckpt") == (
            "7b5824283cfe4b9e35b3fa4e624978a407a53137280c109db68abd9e1b30d7ca"
        )
        assert estimate_flops(model, (1, 64, 64, 3))[1] == [
            ("stem_conv", 1204224),
            ("stem_bn", 8192),
            ("stage1.block1", 299008),
            ("stage1.block2", 299008),
            ("stage2.block1", 232448),
            ("stage2.block2", 296960),
            ("stage3.block1", 230912),
            ("stage3.block2", 295936),
            ("stage4.block1", 230144),
            ("stage4.block2", 295424),
            ("fc", 256),
        ]

    def test_resnet18_spc_layout(self, tmp_path):
        model = build_model(ResnetSpec(8, "spc", 4, (32, 32, 3)))
        save_checkpoint(str(tmp_path / "r.ckpt"), model)
        assert _header_sha256(tmp_path / "r.ckpt") == (
            "3cbe3141d603db379751f367fb5547561c77cd66e0e7cd11ee48f3c9bc849bf8"
        )
        assert estimate_flops(model, (1, 32, 32, 3))[1] == [
            ("stem_conv", 221184),
            ("stem_bn", 8192),
            ("stage1.block1", 278528),
            ("stage1.block2", 278528),
            ("stage2.block1", 372736),
            ("stage2.block2", 270336),
            ("stage3.block1", 366592),
            ("stage3.block2", 266240),
            ("stage4.block1", 363520),
            ("stage4.block2", 264192),
            ("fc", 256),
        ]

    # The whole file, header and float32 blob: initial weights take no BLAS
    # call, so a change to the builders, the draws or the format moves these.
    @pytest.mark.parametrize(
        "spec, digest",
        [
            (MICRO, "454f3a7c988d8d160a3ed480b910d6a54c6604722eef8383ab759c2b8f153e2e"),
            (ResnetSpec(8, "spc", 4, (32, 32, 3)),
             "bf224f68b2a0f82ce4ba7402752624ef8cc60af10c4c0a6d0307f994f2d58df4"),
        ],
        ids=["micro", "resnet18-spc"],
    )
    def test_whole_checkpoint(self, tmp_path, spec, digest):
        save_checkpoint(str(tmp_path / "m.ckpt"), build_model(spec, seed=0))
        assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == digest


# Texts drawn for each table key: tiny valid values, out-of-range and
# malformed ones.  The size keys are always written, so every model that
# builds is tiny.
_KEY_TEXTS = {
    "variant": ["custom", "Mi", "x y", ""],
    "base_width": ["1", "4", "8", "0", "-3", "x"],
    "depths": ["1,1,1,1", "1,2,1,1", "1,1,1", "1,0,1,1", "a"],
    "patch_size": ["1", "2", "3", "0"],
    "input": ["8,8,3", "4,8,1", "8,8", "0,8,3", "8,8,3,1", "2,2,1"],
    "num_classes": ["1", "3", "0", "-1"],
    "channel_schedule": ["4,8,8,16", "4,8,16", "4,0,8,8"],
    "local_mixer": [*LOCAL_MIXERS, "conv3x3", "nope"],
    "combine": [*COMBINE_STRATEGIES, "XX"],
    "ffn_ratio": ["1", "2", "0"],
    "dw_kernel": ["1", "3", "2", "-1"],
    "n_c": ["4", "8", "3", "0"],
    "small_stem": ["yes", "no", "maybe", ""],
    "directions": ["4", "5", "8", "7", "up+down", "up+up", ""],
    "steps": ["0", "1", "2", "-1", "x"],
    "padding": [*PADDING_MODES, "torus"],
    "mixing": [*MIXING_WAYS, "blend"],
}
_ALWAYS = ("family", "input", "num_classes", "base_width", "n_c")


@pytest.mark.parametrize("family", sorted(SPEC_KEYS))
def test_every_spec_field_has_a_key(family):
    # a field is a key of its section or the next section of the table
    table = SPEC_KEYS[family]
    for cls, keys in table.values():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert sorted(fields - set(table)) == sorted(set(keys) - {"family"}), cls


@st.composite
def spec_texts(draw):
    """(text, stray): spec text over the table's keys, with a stray key or section."""
    family = draw(st.sampled_from(sorted(SPEC_KEYS)))
    table = SPEC_KEYS[family]
    sections = {}
    for section, (_, keys) in table.items():
        pairs = {}
        for key in keys:
            if key in _ALWAYS or draw(st.booleans()):
                pairs[key] = family if key == "family" else draw(st.sampled_from(_KEY_TEXTS[key]))
        sections[section] = pairs
    stray = draw(st.sampled_from([None, "key", "section"]))
    if stray == "key":
        section = draw(st.sampled_from(sorted(sections)))
        names = [k for k in ("ffn_ration", "n_c", "variant", "combine", "steps")
                 if k not in table[section][1]]
        sections[section][draw(st.sampled_from(names))] = "1"
    elif stray == "section":
        sections[draw(st.sampled_from([s for s in ("mdoel", "block") if s not in table]))] = {}
    lines = []
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        lines += draw(st.permutations([f"{k}={v}" for k, v in pairs.items()]))
    return "\n".join(lines) + "\n", stray


_words = st.text(alphabet=st.sampled_from("aZ_9.+- \n=#[]"), max_size=5)


@st.composite
def valid_specs(draw):
    ints = st.integers(1, 10**6)
    spc = SpcConfig(
        directions=draw(st.sampled_from([*DIRECTION_PRESETS.values(), ("up", "center")])),
        steps=draw(st.integers(0, 3)),
        padding=draw(st.sampled_from(PADDING_MODES)),
        mixing=draw(st.sampled_from(MIXING_WAYS)),
    )
    if draw(st.booleans()):
        return ResnetSpec(
            n_c=draw(ints),
            local_mixer=draw(st.sampled_from(["conv3x3", "spc"])),
            num_classes=draw(ints),
            input=draw(st.tuples(ints, ints, ints)),
            small_stem=draw(st.sampled_from([None, True, False])),
            spc=spc,
        )
    kwargs = dict(
        variant=draw(st.one_of(st.sampled_from([*VARIANT_PRESETS, "custom"]), _words)),
        patch_size=draw(ints),
        input=draw(st.tuples(ints, ints, ints)),
        num_classes=draw(ints),
        channel_schedule=draw(st.none() | st.tuples(ints, ints, ints, ints)),
        block=BlockConfig(
            local_mixer=draw(st.sampled_from(LOCAL_MIXERS)),
            combine=draw(st.sampled_from(COMBINE_STRATEGIES)),
            ffn_ratio=draw(ints),
            dw_kernel=draw(ints),
            spc=spc,
        ),
    )
    if kwargs["variant"] not in VARIANT_PRESETS or draw(st.booleans()):
        kwargs.update(base_width=draw(ints), depths=draw(st.tuples(ints, ints, ints, ints)))
    try:
        return ModelSpec(**kwargs)
    except ConfigError:
        assume(False)


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(str(path), build_model(MICRO))
    raw = path.read_bytes()
    return raw, raw.index(b"\n", raw.index(b"\nDATA ") + 1) + 1


class TestSpecProperties:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spec_texts())
    def test_spec_text_builds_or_raises_typed(self, case):
        text, stray = case
        try:
            build_model(parse_model_spec(text))
        except CaterpillarError:
            return
        assert stray is None, f"accepted a stray {stray}:\n{text}"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(valid_specs())
    def test_valid_specs_round_trip(self, spec):
        assert parse_model_spec(spec.serialize()) == spec

    @settings(
        max_examples=200, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_checkpoint_header_byte_loads_or_raises_typed(self, micro_checkpoint, tmp_path, data):
        raw, header_end = micro_checkpoint
        pos = data.draw(st.integers(0, header_end - 1))
        byte = data.draw(st.integers(0, 255))
        path = tmp_path / "m.ckpt"
        path.write_bytes(raw[:pos] + bytes([byte]) + raw[pos + 1 :])
        try:
            model = load_checkpoint(str(path))
        except CaterpillarError:
            return
        # a file that loads is what the writer writes for its spec
        save_checkpoint(str(tmp_path / "again.ckpt"), model)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
