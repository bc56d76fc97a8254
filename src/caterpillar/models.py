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
  * checkpoint: text header (spec + tensor manifest, from checkpoint_header)
    followed by a flat little-endian float32 blob; a file loads only if its
    header is byte for byte what the writer writes for the stored spec, so
    it round-trips bit-exactly
"""

from __future__ import annotations

import contextlib
import dataclasses
import re
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .blocks import BlockConfig, MixerBlock, block_param_count
from .errors import BuildError, CaterpillarError, ConfigError, FormatError, ShapeError
from .errors import parse_int, parse_ints
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
    Residual,
    Sequential,
    no_backward,
)
from .spc import DIRECTION_PRESETS, Spc, SpcConfig
from .tensor import _MAX_DRAWS, Rng

VARIANT_PRESETS = {
    "Mi": (40, (2, 6, 10, 2)),
    "Tx": (60, (2, 8, 14, 2)),
    "T": (80, (2, 8, 14, 2)),
    "S": (96, (2, 10, 24, 2)),
    "B": (112, (2, 10, 24, 2)),
}

RESNET_MIXERS = ("conv3x3", "spc")  # what replaces each 3x3 conv in a basic block

SMALL_IMAGE_PROFILES = {
    # profile: (input (H, W, Cin), pyramid patch size, classes)
    "MIN": ((84, 84, 3), 3, 100),
    "CIFAR": ((32, 32, 3), 1, 10),
    "FASHION": ((28, 28, 1), 1, 10),
}


@dataclass(frozen=True)
class ModelSpec:
    """Pyramid-family architecture description.

    A preset variant fills base_width and depths when they are None; any
    other variant (custom) must give depths, and base_width unless
    channel_schedule gives the stage widths.
    """

    family: ClassVar[str] = "caterpillar"

    variant: str = "custom"
    base_width: int | None = None
    depths: tuple[int, int, int, int] | None = None
    patch_size: int = 4
    input: tuple[int, int, int] = (224, 224, 3)
    num_classes: int = 1000
    block: BlockConfig = field(default_factory=BlockConfig)
    channel_schedule: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if not re.fullmatch(r"[\w.+-]+", self.variant):
            raise ConfigError(f"model spec: variant must be one word, got {self.variant!r}")
        width, depths = VARIANT_PRESETS.get(self.variant, (None, None))
        if self.base_width is None:
            object.__setattr__(self, "base_width", width)
        if self.depths is None:
            object.__setattr__(self, "depths", depths)
        needed = ("depths",) if self.channel_schedule is not None else ("base_width", "depths")
        missing = [k for k in needed if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"model spec: custom variant needs {' and '.join(missing)}")
        for name, n in (("depths", 4), ("input", 3), ("channel_schedule", 4),
                        ("base_width", None), ("patch_size", None), ("num_classes", None)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_ints(getattr(self, name), name, n))

    @classmethod
    def preset(cls, name: str, **overrides) -> "ModelSpec":
        if name not in VARIANT_PRESETS:
            raise ConfigError(
                f"model spec: unknown preset {name!r}, choose from {sorted(VARIANT_PRESETS)}"
            )
        return cls(variant=name, **overrides)

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
        if h % p or w % p:
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
            plan.append({"h": h, "w": w, "c": width, "depth": depth, "down": down})
        return plan

    def serialize(self) -> str:
        return _write_spec(self)


@dataclass(frozen=True)
class ResnetSpec:
    """resnet18-family description (conv baseline or shift-mixer variant)."""

    family: ClassVar[str] = "resnet18"

    n_c: int = 64
    local_mixer: str = "conv3x3"  # one of RESNET_MIXERS
    num_classes: int = 1000
    input: tuple[int, int, int] = (224, 224, 3)
    small_stem: bool | None = None  # None: auto (3x3 stride-1 stem below 64 px)
    spc: SpcConfig = field(default_factory=SpcConfig)

    def __post_init__(self):
        if self.local_mixer not in RESNET_MIXERS:
            raise ConfigError(f"resnet spec: unknown local mixer {self.local_mixer!r}")
        for name, n in (("n_c", None), ("num_classes", None), ("input", 3)):
            object.__setattr__(self, name, _check_ints(getattr(self, name), name, n))
        if self.small_stem is None:
            object.__setattr__(self, "small_stem", min(self.input[0], self.input[1]) < 64)

    def serialize(self) -> str:
        return _write_spec(self)


def _check_ints(value, name: str, n: int | None):
    """An int >= 1 (n None) or a tuple of n ints >= 1; ConfigError naming the field."""
    if n is None:
        if value < 1:
            raise ConfigError(f"model spec: {name} must be >= 1, got {value}")
        return value
    value = tuple(value)
    if len(value) != n or min(value) < 1:
        raise ConfigError(f"model spec: {name} needs {n} values >= 1, got {value}")
    return value


def _decode_yes_no(text: str, what: str) -> bool:
    if text not in ("yes", "no"):
        raise ConfigError(f"{what}: expected yes or no, got {text!r}")
    return text == "yes"


def _decode_directions(text: str, what: str) -> tuple[str, ...]:
    """A DIRECTION_PRESETS number in ASCII digits, or an explicit list a+b+c."""
    if text.isascii() and text.isdigit():
        return SpcConfig.preset(int(text)).directions
    return tuple(d.strip() for d in text.split("+"))


_PRESET_NUMBERS = {dirs: str(n) for n, dirs in DIRECTION_PRESETS.items()}

# Value kinds: (encode value -> text, decode (text, what) -> value).
_INT = (str, parse_int)
_INTS = (lambda v: ",".join(str(d) for d in v), parse_ints)
_STR = (str, lambda text, what: text)
_YES_NO = (lambda v: "yes" if v else "no", _decode_yes_no)
_DIRECTIONS = (lambda v: _PRESET_NUMBERS.get(v, "+".join(v)), _decode_directions)

# The model spec text format: per family, each [section] in written order
# with the class it builds and its keys in written order, each with its
# kind.  A key names the field it sets; a section after [model] is the
# field of that name on the section before it (spec.block, spec.block.spc).
# Both families share the [spc] entry.  `family` picks the table.
_SPC_SECTION = (SpcConfig, {"directions": _DIRECTIONS, "steps": _INT, "padding": _STR,
                            "mixing": _STR})
SPEC_KEYS = {
    "caterpillar": {
        "model": (ModelSpec, {"family": _STR, "variant": _STR, "base_width": _INT, "depths": _INTS,
                              "patch_size": _INT, "input": _INTS, "num_classes": _INT,
                              "channel_schedule": _INTS}),
        "block": (BlockConfig, {"local_mixer": _STR, "combine": _STR, "ffn_ratio": _INT,
                                "dw_kernel": _INT}),
        "spc": _SPC_SECTION,
    },
    "resnet18": {
        "model": (ResnetSpec, {"family": _STR, "n_c": _INT, "local_mixer": _STR,
                               "num_classes": _INT, "input": _INTS, "small_stem": _YES_NO}),
        "spc": _SPC_SECTION,
    },
}


def _encode_section(keys: dict, obj) -> list[str]:
    """obj's key=value texts in table order; a None value is left out."""
    return [f"{key}={encode(getattr(obj, key))}" for key, (encode, _) in keys.items()
            if getattr(obj, key) is not None]


def _decode_section(entry: tuple, pairs: dict[str, str], where: str, **inner):
    """Build entry's class from one section's key=value texts; every key must be in its table."""
    cls, keys = entry
    kwargs = {}
    for key, text in pairs.items():
        if key not in keys:
            raise ConfigError(f"model spec: {where} has no key {key!r}")
        kwargs[key] = keys[key][1](text, f"model spec: {key}")
    kwargs.pop("family", None)  # picks the table; a class constant, not a field
    return cls(**kwargs, **inner)


def _write_spec(spec) -> str:
    lines = []
    obj = spec
    for section, (_, keys) in SPEC_KEYS[spec.family].items():
        obj = getattr(obj, section, obj)  # [model] is the spec itself
        lines += [f"[{section}]", *_encode_section(keys, obj)]
    return "\n".join(lines) + "\n"


def split_pairs(text: str) -> dict[str, str]:
    """Split flat `key=value` text (`;` or `,` between pairs) into an ordered dict."""
    pairs = {}
    for chunk in text.replace(",", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"spc config: expected key=value, got {chunk!r}")
        key, value = (t.strip() for t in chunk.split("=", 1))
        pairs[key] = value
    return pairs


def split_spec(text: str) -> dict[str, dict[str, str]]:
    """Split spec text into {section: {key: value text}}; FormatError on a stray line."""
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


def _family_table(sections: dict) -> tuple[str, dict]:
    family = sections.get("model", {}).get("family", ModelSpec.family)
    if family not in SPEC_KEYS:
        raise ConfigError(f"model spec: unknown family {family!r}, choose from {sorted(SPEC_KEYS)}")
    return family, SPEC_KEYS[family]


def set_spec_key(sections: dict, key: str, text: str, what: str) -> None:
    """Write key=text into the section of the family's table that holds key."""
    family, table = _family_table(sections)
    for section, (_, keys) in table.items():
        if key in keys:
            sections.setdefault(section, {})[key] = text
            return
    raise ConfigError(f"{what}: a {family} spec has no {key} key")


def decode_spec(sections: dict[str, dict[str, str]]) -> "ModelSpec | ResnetSpec":
    """Build the spec that split_spec sections describe; every key must be in the table."""
    family, table = _family_table(sections)
    for section in sections:
        if section not in table:
            raise ConfigError(f"model spec: a {family} spec has no [{section}] section")
    inner = {}  # innermost section first: each object is a field of the one before it
    for section, entry in reversed(table.items()):
        obj = _decode_section(entry, sections.get(section, {}), f"a {family} [{section}]", **inner)
        inner = {section: obj}
    return obj


def parse_model_spec(text: str) -> "ModelSpec | ResnetSpec":
    """Parse the key=value spec format; dispatches on [model] family."""
    return decode_spec(split_spec(text))


def spc_config_text(cfg: SpcConfig) -> str:
    """cfg's [spc] key=value pairs joined by `;`."""
    return ";".join(_encode_section(_SPC_SECTION[1], cfg))


def parse_spc_config(text: str) -> SpcConfig:
    """SpcConfig from [spc] key=value pairs split by `;` or `,`; a missing key takes its default."""
    return _decode_section(_SPC_SECTION, split_pairs(text), "[spc]")


def adapt_small_images(spec: ModelSpec, profile: str) -> ModelSpec:
    """Re-target a pyramid spec at a small-image dataset profile.

    Sets the dataset's native input size, its class count and the pyramid
    patch size (3 for 84 px inputs, 1 for 32/28 px inputs); stages whose
    extent cannot halve keep their resolution (channels still double).
    """
    if profile not in SMALL_IMAGE_PROFILES:
        raise ConfigError(
            f"unknown dataset profile {profile!r}, choose from {sorted(SMALL_IMAGE_PROFILES)}"
        )
    inp, patch, classes = SMALL_IMAGE_PROFILES[profile]
    return dataclasses.replace(spec, input=inp, patch_size=patch, num_classes=classes)


class _Chain(Sequential):
    """A model as one flat chain of named layers ending in (N, 1, 1, K) logits.

    Owns the (N, 1, 1, K) <-> (N, K) logits reshape, the stage feature maps
    (the outputs of the layers at stage_ends) and the MAC rows (one per
    layer with non-zero MACs).

    An eval forward runs its layers under no_backward() and keeps only its
    input; a backward after it first re-runs that forward with the layers
    keeping.  Eval mode is deterministic, so the gradients are those of a
    forward that kept everything.
    """

    def __init__(self, spec, layers: list[tuple[str, Module]], stage_ends: list[int]):
        super().__init__(layers)
        self.spec = spec
        self.stage_ends = stage_ends
        self._eval_x = None

    def forward(self, x, training=False):
        if training:
            self._eval_x = None
            out = super().forward(x, training)
        else:
            self._eval_x = x
            with no_backward():
                out = super().forward(x, training)
        return out.reshape(out.shape[0], self.spec.num_classes)

    def backward(self, dlogits):
        if self._eval_x is not None:
            super().forward(self._eval_x, False)
        return super().backward(dlogits.reshape(dlogits.shape[0], 1, 1, self.spec.num_classes))

    def stage_features(self, x) -> list[np.ndarray]:
        """Eval-mode feature map after each stage's last layer; keeps nothing."""
        feats = []
        with no_backward():
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
        total = caterpillar_param_formula(spec)
        if total > _MAX_DRAWS:
            raise BuildError(
                f"model needs {total} parameters, over the largest draw count {_MAX_DRAWS}"
            )
        rng = Rng(seed)
        p = spec.patch_size
        embed = Conv2d(p, spec.input[2], plan[0]["c"], stride=p, rng=rng)
        layers = [("embed", embed)]
        stage_ends = []
        prev_c = plan[0]["c"]
        for s, st in enumerate(plan, start=1):
            if st["down"]:
                k = st["down"]
                down = Conv2d(k, prev_c, st["c"], stride=k, rng=rng)
                layers.append((f"stage{s}.downsample", down))
            for b in range(1, st["depth"] + 1):
                name = f"stage{s}.block{b}"
                with _naming(name):
                    block = MixerBlock(st["h"], st["w"], st["c"], spec.block, rng=rng)
                layers.append((name, block))
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


class _BasicBlock(Sequential):
    """resnet18 basic block: one Residual unit; the two 3x3 convs may be shift mixers."""

    def __init__(self, cin: int, cout: int, stride: int, spec: ResnetSpec, rng: Rng):
        if spec.local_mixer == "spc":
            mix1 = Spc(cin, cout, cfg=spec.spc, rng=rng)
            if stride == 2:
                # stride-2 stand-in for a strided conv: shift mixer, 2x2 mean pool
                mix1 = Sequential([("spc", mix1), ("pool", AvgPool2d(2))])
            mix2 = Spc(cout, cout, cfg=spec.spc, rng=rng)
        else:
            mix1 = Conv2d(3, cin, cout, stride=stride, rng=rng)
            mix2 = Conv2d(3, cout, cout, stride=1, rng=rng)
        path = [
            ("mix1", mix1),
            ("bn1", BatchNorm2d(cout)),
            ("relu1", ReLU()),
            ("mix2", mix2),
            ("bn2", BatchNorm2d(cout)),
        ]
        skip = []
        if stride != 1 or cin != cout:
            short_conv = Conv2d(1, cin, cout, stride=stride, rng=rng)
            skip = [("short_conv", short_conv), ("short_bn", BatchNorm2d(cout))]
        super().__init__([("residual", Residual(path, skip, [("relu_out", ReLU())]))])


class ResNetModel(_Chain):
    """Standard resnet18 topology with a pool + linear head."""

    def __init__(self, spec: ResnetSpec, seed: int = 0):
        rng = Rng(seed)
        nc = spec.n_c
        k, stride = (3, 1) if spec.small_stem else (7, 2)
        layers = [
            ("stem_conv", Conv2d(k, spec.input[2], nc, stride=stride, rng=rng)),
            ("stem_bn", BatchNorm2d(nc)),
            ("stem_relu", ReLU()),
        ]
        if not spec.small_stem:
            layers.append(("stem_pool", MaxPool2d(3, 2)))
        stage_ends = []
        prev = nc
        for s, cout in enumerate((nc, 2 * nc, 4 * nc, 8 * nc), start=1):
            for name, cin, block_stride in ((f"stage{s}.block1", prev, 1 if s == 1 else 2),
                                            (f"stage{s}.block2", cout, 1)):
                with _naming(name):
                    layers.append((name, _BasicBlock(cin, cout, block_stride, spec, rng)))
            stage_ends.append(len(layers) - 1)
            prev = cout
        layers += [("pool", GlobalAvgPool()), ("fc", Linear(prev, spec.num_classes, rng=rng))]
        super().__init__(spec, layers, stage_ends)


@contextlib.contextmanager
def _naming(name: str):
    """Re-raise a package error from inside as a BuildError naming the layer."""
    try:
        yield
    except CaterpillarError as exc:
        raise BuildError(f"{name}: {exc}") from None


def build_model(spec: "ModelSpec | ResnetSpec", seed: int = 0) -> Module:
    """The model a spec describes, with its weights drawn from seed.

    The one build gate, for both families: BuildError naming the layer unless
    every block builds and every layer runs on one image of the spec's input.
    Layers' out_shape raises what a forward on that shape would raise (or,
    for a residual whose path and skip shapes differ, would fail with).
    """
    model = (CaterpillarModel if isinstance(spec, ModelSpec) else ResNetModel)(spec, seed=seed)
    shape = (1,) + tuple(spec.input)
    for name, layer in model.layers:
        with _naming(name):
            shape = layer.out_shape(shape)
    return model


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
    if input_shape[1:4] != tuple(model.spec.input):
        raise ShapeError(
            f"estimate_flops: input {input_shape[1:4]} != model binding {model.spec.input}"
        )
    rows = model.macs_rows(tuple(input_shape))
    return sum(m for _, m in rows), rows


CHECKPOINT_MAGIC = "CATERPILLAR-CKPT-V1"


def checkpoint_header(model: Module) -> tuple[bytes, list[np.ndarray]]:
    """The header save_checkpoint writes for model, and model's arrays in blob order.

    The magic line, the spec text, `[tensors]`, one `name shape offset` line per
    tensor (parameters, then buffers; offsets in floats) and `DATA <count>`.
    """
    named = [(name, p.value) for name, p in model.named_parameters()]
    named += [(name, getattr(owner, attr)) for name, owner, attr in model.named_buffers()]
    lines = [CHECKPOINT_MAGIC, model.spec.serialize() + "[tensors]"]
    offset = 0
    for name, value in named:
        shape = "x".join(str(d) for d in value.shape) if value.ndim else "scalar"
        lines.append(f"{name} {shape} {offset}")
        offset += value.size
    lines.append(f"DATA {offset}")
    return ("\n".join(lines) + "\n").encode("utf-8"), [value for _, value in named]


def save_checkpoint(path: str, model: Module) -> None:
    """Write checkpoint_header(model), then its arrays as one flat little-endian f32 blob."""
    header, arrays = checkpoint_header(model)
    with open(path, "wb") as f:
        f.write(header)
        for value in arrays:
            f.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def _header_mismatch(path: str, raw: bytes, header: bytes) -> FormatError:
    """FormatError naming the first line of header that raw does not hold byte for byte."""
    lines = header.splitlines(keepends=True)
    i = start = 0
    while raw.startswith(lines[i], start):
        start, i = start + len(lines[i]), i + 1
    got = raw[start : start + len(lines[i]) + 80].partition(b"\n")[0]
    part = ("spec" if i <= lines.index(b"[tensors]\n")
            else "DATA" if i == len(lines) - 1 else "manifest")
    where = f"{part} line {i + 1} " + ("is cut short at" if start + len(got) == len(raw) else "is")
    got, want = (b.decode("utf-8", "replace") for b in (got, lines[i].rstrip(b"\n")))
    return FormatError(f"checkpoint {path}: {where} {got!r}, the writer writes {want!r}")


def load_checkpoint(path: str) -> Module:
    """Rebuild the model from the stored spec and restore every tensor, in float32.

    The file must start with exactly the checkpoint_header of the model that the
    spec before its `[tensors]` line describes, then hold its DATA count of floats.
    """
    with open(path, "rb") as f:
        raw = f.read()
    magic = f"{CHECKPOINT_MAGIC}\n".encode("utf-8")
    if not raw.startswith(magic):
        raise FormatError(f"checkpoint {path}: bad magic line")
    end = raw.find(b"\n[tensors]\n", len(magic) - 1)
    if end < 0:
        raise FormatError(f"checkpoint {path}: no [tensors] line")
    try:
        spec_text = raw[len(magic) : end + 1].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = len(magic) + exc.start
        raise FormatError(f"checkpoint {path}: header byte {at} is not UTF-8") from None
    model = build_model(parse_model_spec(spec_text), seed=0).astype(np.float32)
    header, arrays = checkpoint_header(model)
    if not raw.startswith(header):
        raise _header_mismatch(path, raw, header)
    blob, count = len(raw) - len(header), sum(value.size for value in arrays)
    if blob != 4 * count:
        raise FormatError(f"checkpoint {path}: data blob has {blob} bytes, expected {4 * count}")
    data = np.frombuffer(raw, dtype="<f4", offset=len(header))
    offset = 0
    for into in arrays:  # in place: no gradient or cast copy per tensor
        into[...] = data[offset : offset + into.size].reshape(into.shape)
        offset += into.size
    return model
