"""Model builders, parameter/MAC accounting, and on-disk formats.

Two families are provided.  The pyramid family stacks four stages of mixer
blocks with non-overlapping patch embedding, patch-merge downsampling, and a
pool/norm/linear head; the named presets Mi/Tx/T/S/B fix width and depth.
The resnet18 family is the standard 4-stage basic-block topology, optionally
with every 3x3 convolution inside the basic blocks replaced by the shift
concatenation mixer (stride-2 positions become mixer + 2x2 average pool).
Each model is one flat chain of named layers (a layers.Sequential), and
that list fixes the parameter names, checkpoint layout and MAC rows.

Accounting: count_params enumerates parameter arrays; estimate_flops counts
multiply-accumulates (1 MAC per learnable-weight application) layer by
layer.  Reported "G" figures are 1e9 MACs.

File formats (both documented in the README):
  * model spec: key=value lines grouped in [model] / [block] / [spc] sections
  * checkpoint: text header (spec + tensor manifest) followed by a flat
    little-endian float32 blob; round-trips bit-exactly
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockConfig, MixerBlock, block_param_count
from .errors import BuildError, ConfigError, FormatError, ShapeError, parse_int
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool,
    LayerNorm,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from .spc import Spc, SpcConfig
from .tensor import Rng

VARIANT_PRESETS = {
    "Mi": (40, (2, 6, 10, 2)),
    "Tx": (60, (2, 8, 14, 2)),
    "T": (80, (2, 8, 14, 2)),
    "S": (96, (2, 10, 24, 2)),
    "B": (112, (2, 10, 24, 2)),
}

SMALL_IMAGE_PROFILES = {
    # profile: (input (H, W, Cin), pyramid patch size, default classes)
    "MIN": ((84, 84, 3), 3, 100),
    "CIFAR": ((32, 32, 3), 1, 10),
    "FASHION": ((28, 28, 1), 1, 10),
}


@dataclass(frozen=True)
class ModelSpec:
    """Pyramid-family architecture description."""

    variant: str = "custom"
    base_width: int = 80
    depths: tuple[int, int, int, int] = (2, 8, 14, 2)
    patch_size: int = 4
    input: tuple[int, int, int] = (224, 224, 3)
    num_classes: int = 1000
    block: BlockConfig = field(default_factory=BlockConfig)
    channel_schedule: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(self.depths))
        object.__setattr__(self, "input", tuple(self.input))
        if self.channel_schedule is not None:
            object.__setattr__(self, "channel_schedule", tuple(self.channel_schedule))
        if len(self.depths) != 4:
            raise ConfigError(f"model spec: need 4 stage depths, got {self.depths}")
        if any(d < 1 for d in self.depths):
            raise ConfigError(f"model spec: stage depths must be >= 1, got {self.depths}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "ModelSpec":
        if name not in VARIANT_PRESETS:
            raise ConfigError(
                f"model spec: unknown preset {name!r}, choose from {sorted(VARIANT_PRESETS)}"
            )
        width, depths = VARIANT_PRESETS[name]
        return cls(variant=name, base_width=width, depths=depths, **overrides)

    @property
    def widths(self) -> tuple[int, int, int, int]:
        if self.channel_schedule is not None:
            return self.channel_schedule
        c = self.base_width
        return (c, 2 * c, 4 * c, 8 * c)

    def stage_plan(self) -> list[dict]:
        """Spatial/width schedule with downsample kinds; raises BuildError."""
        h, w, _ = self.input
        p = self.patch_size
        if p < 1 or h % p or w % p:
            raise BuildError(
                f"stage 1: patch size {p} does not divide input {h}x{w}"
            )
        h, w = h // p, w // p
        plan = []
        for idx, (depth, width) in enumerate(zip(self.depths, self.widths), start=1):
            if idx > 1:
                if h % 2 == 0 and w % 2 == 0:
                    h, w = h // 2, w // 2
                    down = 2
                else:
                    down = 1  # odd extent: keep resolution, still double channels
            else:
                down = 0
            if h < 1 or w < 1:
                raise BuildError(f"stage {idx}: spatial extent fell below 1")
            cfg = self.block
            if cfg.local_mixer == "spc":
                moving = [d for d in cfg.spc.directions if d != "center"]
                if moving and cfg.spc.steps >= min(h, w):
                    raise BuildError(
                        f"stage {idx}: extent {h}x{w} too small for shift steps "
                        f"{cfg.spc.steps}"
                    )
                if cfg.spc.reduces_channels:
                    nd = cfg.spc.n_directions
                    if width % nd != 0:
                        raise BuildError(
                            f"stage {idx}: width {width} not divisible by {nd} shift "
                            f"directions required by mixing {cfg.spc.mixing!r}"
                        )
            plan.append({"h": h, "w": w, "c": width, "depth": depth, "down": down})
        return plan

    def serialize(self) -> str:
        lines = [
            "[model]",
            "family=caterpillar",
            f"variant={self.variant}",
            f"base_width={self.base_width}",
            "depths=" + ",".join(str(d) for d in self.depths),
            f"patch_size={self.patch_size}",
            "input=" + ",".join(str(d) for d in self.input),
            f"num_classes={self.num_classes}",
        ]
        if self.channel_schedule is not None:
            lines.append("channel_schedule=" + ",".join(str(c) for c in self.channel_schedule))
        blk = self.block
        lines += [
            "[block]",
            f"local_mixer={blk.local_mixer}",
            f"combine={blk.combine}",
            f"ffn_ratio={blk.ffn_ratio}",
            f"dw_kernel={blk.dw_kernel}",
            "[spc]",
        ]
        lines += blk.spc.serialize().split(";")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ResnetSpec:
    """resnet18-family description (conv baseline or shift-mixer variant)."""

    n_c: int = 64
    local_mixer: str = "conv3x3"  # conv3x3 | spc
    num_classes: int = 1000
    input: tuple[int, int, int] = (224, 224, 3)
    small_stem: bool | None = None  # None: auto (3x3 stride-1 stem below 64 px)
    spc: SpcConfig = field(default_factory=SpcConfig)

    def __post_init__(self):
        object.__setattr__(self, "input", tuple(self.input))
        if self.local_mixer not in ("conv3x3", "spc"):
            raise ConfigError(f"resnet spec: unknown local mixer {self.local_mixer!r}")
        if self.small_stem is None:
            object.__setattr__(self, "small_stem", min(self.input[0], self.input[1]) < 64)

    @property
    def use_small_stem(self) -> bool:
        return bool(self.small_stem)

    def serialize(self) -> str:
        lines = [
            "[model]",
            "family=resnet18",
            f"n_c={self.n_c}",
            f"local_mixer={self.local_mixer}",
            f"num_classes={self.num_classes}",
            "input=" + ",".join(str(d) for d in self.input),
            f"small_stem={'yes' if self.use_small_stem else 'no'}",
            "[spc]",
        ]
        lines += self.spc.serialize().split(";")
        return "\n".join(lines) + "\n"


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise FormatError(f"model spec: cannot parse line {raw!r}")
        key, value = line.split("=", 1)
        sections[current][key.strip()] = value.strip()
    return sections


def _int(section: dict, key: str, default: int) -> int:
    return parse_int(section.get(key, default), f"model spec: {key}")


def _ints(value: str, key: str) -> tuple[int, ...]:
    return tuple(parse_int(v, f"model spec: {key}") for v in value.split(","))


def parse_model_spec(text: str) -> "ModelSpec | ResnetSpec":
    """Parse the key=value spec format; dispatches on [model] family."""
    sections = _parse_sections(text)
    model = sections.get("model", {})
    family = model.get("family", "caterpillar")
    spc_cfg = SpcConfig()
    if "spc" in sections:
        flat = ";".join(f"{k}={v}" for k, v in sections["spc"].items())
        spc_cfg = SpcConfig.parse(flat)
    if family == "resnet18":
        return ResnetSpec(
            n_c=_int(model, "n_c", 64),
            local_mixer=model.get("local_mixer", "conv3x3"),
            num_classes=_int(model, "num_classes", 1000),
            input=_ints(model.get("input", "224,224,3"), "input"),
            small_stem={"yes": True, "no": False}.get(model.get("small_stem", ""), None),
            spc=spc_cfg,
        )
    if family != "caterpillar":
        raise FormatError(f"model spec: unknown family {family!r}")
    blk = sections.get("block", {})
    block = BlockConfig(
        local_mixer=blk.get("local_mixer", "spc"),
        spc=spc_cfg,
        dw_kernel=_int(blk, "dw_kernel", 3),
        combine=blk.get("combine", "LG"),
        ffn_ratio=_int(blk, "ffn_ratio", 3),
    )
    kwargs = dict(
        variant=model.get("variant", "custom"),
        patch_size=_int(model, "patch_size", 4),
        input=_ints(model.get("input", "224,224,3"), "input"),
        num_classes=_int(model, "num_classes", 1000),
        block=block,
    )
    if kwargs["variant"] in VARIANT_PRESETS:
        width, depths = VARIANT_PRESETS[kwargs["variant"]]
        kwargs["base_width"] = _int(model, "base_width", width)
        kwargs["depths"] = _ints(model.get("depths", ",".join(map(str, depths))), "depths")
    else:
        missing = [k for k in ("base_width", "depths") if k not in model]
        if missing:
            raise ConfigError(f"model spec: custom variant needs {' and '.join(missing)}")
        kwargs["base_width"] = _int(model, "base_width", None)
        kwargs["depths"] = _ints(model["depths"], "depths")
    if "channel_schedule" in model:
        kwargs["channel_schedule"] = _ints(model["channel_schedule"], "channel_schedule")
    return ModelSpec(**kwargs)


def adapt_small_images(spec: ModelSpec, profile: str, num_classes: int | None = None) -> ModelSpec:
    """Re-target a pyramid spec at a small-image dataset profile.

    Sets the dataset's native input size and the pyramid patch size (3 for
    84 px inputs, 1 for 32/28 px inputs); stages whose extent cannot halve
    keep their resolution (channels still double).
    """
    if profile not in SMALL_IMAGE_PROFILES:
        raise ConfigError(
            f"unknown dataset profile {profile!r}, choose from {sorted(SMALL_IMAGE_PROFILES)}"
        )
    inp, patch, default_classes = SMALL_IMAGE_PROFILES[profile]
    return dataclasses.replace(
        spec,
        input=inp,
        patch_size=patch,
        num_classes=default_classes if num_classes is None else num_classes,
    )


class _Chain(Sequential):
    """A model as one flat chain of named layers ending in (N, 1, 1, K) logits.

    Owns the (N, 1, 1, K) <-> (N, K) logits reshape, the stage feature maps
    (the outputs of the layers at stage_ends) and the MAC rows (one per
    layer with non-zero MACs).
    """

    def __init__(self, spec, layers: list[tuple[str, Module]], stage_ends: list[int]):
        super().__init__(layers)
        self.spec = spec
        self.stage_ends = stage_ends

    def forward(self, x, training=False):
        out = super().forward(x, training)
        return out.reshape(out.shape[0], self.spec.num_classes)

    def backward(self, dlogits):
        return super().backward(dlogits.reshape(dlogits.shape[0], 1, 1, self.spec.num_classes))

    def stage_features(self, x) -> list[np.ndarray]:
        """Eval-mode feature map after each stage's last layer."""
        feats = []
        for i, (_, layer) in enumerate(self.layers[: self.stage_ends[-1] + 1]):
            x = layer(x, False)
            if i in self.stage_ends:
                feats.append(x)
        return feats

    def macs_rows(self, input_shape) -> list[tuple[str, int]]:
        return [(name, m) for name, m in self._layer_macs(input_shape) if m]


class CaterpillarModel(_Chain):
    """Four-stage pyramid of mixer blocks with patch embedding and pooled head."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        plan = spec.stage_plan()
        rng = Rng(seed)
        p = spec.patch_size
        embed = Conv2d(p, spec.input[2], plan[0]["c"], stride=p, padding="valid", rng=rng)
        layers = [("embed", embed)]
        stage_ends = []
        prev_c = plan[0]["c"]
        for s, st in enumerate(plan, start=1):
            if st["down"]:
                k = st["down"]
                down = Conv2d(k, prev_c, st["c"], stride=k, padding="valid", rng=rng)
                layers.append((f"stage{s}.downsample", down))
            for b in range(1, st["depth"] + 1):
                block = MixerBlock(st["h"], st["w"], st["c"], spec.block, rng=rng)
                layers.append((f"stage{s}.block{b}", block))
            stage_ends.append(len(layers) - 1)
            prev_c = st["c"]
        head = Sequential(
            [
                ("pool", GlobalAvgPool()),
                ("norm", LayerNorm(prev_c)),
                ("fc", Linear(prev_c, spec.num_classes, rng=rng)),
            ]
        )
        layers.append(("head", head))
        super().__init__(spec, layers, stage_ends)


class _BasicBlock(Module):
    """resnet18 basic block; the two 3x3 convs may be swapped for shift mixers."""

    def __init__(self, cin: int, cout: int, stride: int, spec: ResnetSpec, rng: Rng):
        use_spc = spec.local_mixer == "spc"
        if use_spc and (cin % spec.spc.n_directions or cout % spec.spc.n_directions):
            raise BuildError(
                f"resnet block {cin}->{cout}: width not divisible by "
                f"{spec.spc.n_directions} shift directions"
            )
        if use_spc:
            self.mix1 = Spc(cin, cout, cfg=spec.spc, rng=rng)
            if stride == 2:
                # stride-2 stand-in for a strided conv: shift mixer, 2x2 mean pool
                self.mix1 = Sequential([("spc", self.mix1), ("pool", AvgPool2d(2))])
            self.mix2 = Spc(cout, cout, cfg=spec.spc, rng=rng)
        else:
            self.mix1 = Conv2d(3, cin, cout, stride=stride, padding="same", rng=rng)
            self.mix2 = Conv2d(3, cout, cout, stride=1, padding="same", rng=rng)
        self.bn1 = BatchNorm2d(cout)
        self.relu1 = ReLU()
        self.bn2 = BatchNorm2d(cout)
        self.short_conv = None
        self.short_bn = None
        if stride != 1 or cin != cout:
            self.short_conv = Conv2d(1, cin, cout, stride=stride, padding="valid", rng=rng)
            self.short_bn = BatchNorm2d(cout)
        self.relu_out = ReLU()

    def _children(self):
        out = [
            ("mix1", self.mix1),
            ("bn1", self.bn1),
            ("relu1", self.relu1),
            ("mix2", self.mix2),
            ("bn2", self.bn2),
        ]
        if self.short_conv is not None:
            out += [("short_conv", self.short_conv), ("short_bn", self.short_bn)]
        out.append(("relu_out", self.relu_out))
        return out

    def forward(self, x, training=False):
        path = self.bn2(self.mix2(self.relu1(self.bn1(self.mix1(x, training), training), training), training), training)
        if self.short_conv is not None:
            short = self.short_bn(self.short_conv(x, training), training)
        else:
            short = x
        return self.relu_out(path + short, training)

    def backward(self, dy):
        dsum = self.relu_out.backward(dy)
        dpath = self.mix1.backward(
            self.bn1.backward(self.relu1.backward(self.mix2.backward(self.bn2.backward(dsum))))
        )
        if self.short_conv is not None:
            dshort = self.short_conv.backward(self.short_bn.backward(dsum))
        else:
            dshort = dsum
        return dpath + dshort

    def out_shape(self, in_shape):
        return self.mix1.out_shape(in_shape)

    def macs(self, in_shape):
        mid = self.mix1.out_shape(in_shape)
        total = self.mix1.macs(in_shape) + self.bn1.macs(mid)
        total += self.mix2.macs(mid) + self.bn2.macs(mid)
        if self.short_conv is not None:
            total += self.short_conv.macs(in_shape) + self.short_bn.macs(mid)
        return total


class ResNetModel(_Chain):
    """Standard resnet18 topology with a pool + linear head."""

    def __init__(self, spec: ResnetSpec, seed: int = 0):
        rng = Rng(seed)
        nc = spec.n_c
        k, stride = (3, 1) if spec.use_small_stem else (7, 2)
        layers = [
            ("stem_conv", Conv2d(k, spec.input[2], nc, stride=stride, padding="same", rng=rng)),
            ("stem_bn", BatchNorm2d(nc)),
            ("stem_relu", ReLU()),
        ]
        if not spec.use_small_stem:
            layers.append(("stem_pool", MaxPool2d(3, 2, 1)))
        stage_ends = []
        prev = nc
        for s, cout in enumerate((nc, 2 * nc, 4 * nc, 8 * nc), start=1):
            layers += [
                (f"stage{s}.block1", _BasicBlock(prev, cout, 1 if s == 1 else 2, spec, rng)),
                (f"stage{s}.block2", _BasicBlock(cout, cout, 1, spec, rng)),
            ]
            stage_ends.append(len(layers) - 1)
            prev = cout
        layers += [("pool", GlobalAvgPool()), ("fc", Linear(prev, spec.num_classes, rng=rng))]
        super().__init__(spec, layers, stage_ends)


def build_caterpillar(spec: ModelSpec, seed: int = 0) -> CaterpillarModel:
    """Build the pyramid model; validates the stage plan first."""
    return CaterpillarModel(spec, seed=seed)


def build_resnet18(
    n_c: int = 64,
    local_mixer: str = "conv3x3",
    num_classes: int = 1000,
    input: tuple[int, int, int] = (224, 224, 3),
    small_stem: bool | None = None,
    spc: SpcConfig | None = None,
    seed: int = 0,
) -> ResNetModel:
    spec = ResnetSpec(
        n_c=n_c,
        local_mixer=local_mixer,
        num_classes=num_classes,
        input=input,
        small_stem=small_stem,
        spc=spc or SpcConfig(),
    )
    return ResNetModel(spec, seed=seed)


def build_model(spec: "ModelSpec | ResnetSpec", seed: int = 0) -> Module:
    if isinstance(spec, ModelSpec):
        return build_caterpillar(spec, seed=seed)
    return ResNetModel(spec, seed=seed)


def local_mixer_param_count(d_in: int, d_out: int, kind: str, k: int = 3) -> int:
    """Biasless parameter counts of the three local mixers.

    conv: d_in * k^2 * d_out; dwconv: d_in * k^2;
    shift-concat (reduce+concat+fuse): d_in * d_in + d_in * d_out.
    """
    if kind == "conv":
        return d_in * k * k * d_out
    if kind == "dwconv":
        return d_in * k * k
    if kind == "spc":
        return d_in * d_in + d_in * d_out
    raise ConfigError(f"local_mixer_param_count: unknown kind {kind!r}")


def count_params(model: Module) -> tuple[int, list[tuple[str, tuple, int]]]:
    """Exact enumeration: total and per-parameter (name, shape, count) rows."""
    rows = []
    total = 0
    seen = set()
    for name, p in model.named_parameters():
        if name in seen:
            raise BuildError(f"duplicate parameter name {name!r}")
        seen.add(name)
        rows.append((name, tuple(p.value.shape), int(p.value.size)))
        total += int(p.value.size)
    return total, rows


def caterpillar_param_formula(spec: ModelSpec) -> int:
    """Closed-form parameter total for a pyramid spec (independent of build)."""
    plan = spec.stage_plan()
    cin = spec.input[2]
    total = spec.patch_size**2 * cin * plan[0]["c"] + plan[0]["c"]
    prev = plan[0]["c"]
    for st in plan:
        if st["down"]:
            total += st["down"] ** 2 * prev * st["c"] + st["c"]
        total += st["depth"] * block_param_count(st["h"], st["w"], st["c"], spec.block)
        prev = st["c"]
    total += 2 * plan[-1]["c"]  # head norm
    total += plan[-1]["c"] * spec.num_classes + spec.num_classes
    return total


def estimate_flops(model: Module, input_shape: tuple) -> tuple[int, list[tuple[str, int]]]:
    """Total MACs and per-layer rows for one forward pass on input_shape."""
    if not hasattr(model, "macs_rows"):
        raise ConfigError("estimate_flops: model does not expose macs_rows")
    if input_shape[1:4] != tuple(model.spec.input[:2]) + (model.spec.input[2],):
        raise ShapeError(
            f"estimate_flops: input {input_shape[1:4]} != model binding {model.spec.input}"
        )
    rows = model.macs_rows(tuple(input_shape))
    return sum(m for _, m in rows), rows


CHECKPOINT_MAGIC = "CATERPILLAR-CKPT-V1"


def _named_tensors(model: Module) -> list[tuple[str, np.ndarray]]:
    out = [(name, p.value) for name, p in model.named_parameters()]
    out += [(name, getattr(owner, attr)) for name, owner, attr in model.named_buffers()]
    return out


def save_checkpoint(path: str, model: Module) -> None:
    """Write spec text, tensor manifest, and a flat little-endian f32 blob."""
    tensors = _named_tensors(model)
    lines = [CHECKPOINT_MAGIC]
    lines += model.spec.serialize().rstrip("\n").split("\n")
    lines.append("[tensors]")
    offset = 0
    blobs = []
    for name, value in tensors:
        shape = "x".join(str(d) for d in value.shape) if value.ndim else "scalar"
        lines.append(f"{name} {shape} {offset}")
        flat = np.ascontiguousarray(value, dtype="<f4").reshape(-1)
        blobs.append(flat)
        offset += flat.size
    lines.append(f"DATA {offset}")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(header)
        for blob in blobs:
            f.write(blob.tobytes())


def load_checkpoint(path: str, dtype=np.float32) -> Module:
    """Rebuild the model from the stored spec and restore every tensor."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("utf-8", "replace") != CHECKPOINT_MAGIC:
        raise FormatError(f"checkpoint {path}: bad magic line")
    marker = raw.find(b"\nDATA ")
    if marker < 0:
        raise FormatError(f"checkpoint {path}: missing DATA marker")
    data_line_end = raw.find(b"\n", marker + 1)
    header = raw[nl + 1 : marker].decode("utf-8")
    count_s = raw[marker + 6 : data_line_end].decode("utf-8", "replace")
    if not count_s.isdigit():
        raise FormatError(f"checkpoint {path}: bad DATA count {count_s!r}")
    count = int(count_s)
    blob = raw[data_line_end + 1 :]
    if len(blob) != 4 * count:
        raise FormatError(
            f"checkpoint {path}: data blob has {len(blob)} bytes, expected {4 * count}"
        )
    data = np.frombuffer(blob, dtype="<f4")
    spec_text, _, manifest_text = header.partition("[tensors]\n")
    spec = parse_model_spec(spec_text)
    model = build_model(spec, seed=0).astype(dtype)
    entries = {}
    for line in manifest_text.strip().splitlines():
        try:
            name, shape_s, offset_s = line.rsplit(" ", 2)
            shape = () if shape_s == "scalar" else tuple(int(d) for d in shape_s.split("x"))
            offset = int(offset_s)
        except ValueError:
            raise FormatError(f"checkpoint {path}: bad manifest line {line!r}") from None
        if offset < 0 or min(shape, default=0) < 0 or offset + int(np.prod(shape)) > count:
            raise FormatError(f"checkpoint {path}: tensor {name} lies outside the data blob")
        entries[name] = (shape, offset)
    params = dict(model.named_parameters())
    if set(entries) != set(params) | {n for n, _, _ in model.named_buffers()}:
        raise FormatError(f"checkpoint {path}: tensor names do not match the spec's model")

    def stored(name, like):
        shape, offset = entries[name]
        if shape != like.shape:
            raise FormatError(
                f"checkpoint {path}: {name} has shape {shape}, the spec's model {like.shape}"
            )
        return data[offset : offset + like.size].reshape(shape).astype(dtype)

    for name, p in params.items():
        p.value = stored(name, p.value)
        p.grad = np.zeros_like(p.value)
    for name, owner, attr in model.named_buffers():
        setattr(owner, attr, stored(name, getattr(owner, attr)))
    return model
