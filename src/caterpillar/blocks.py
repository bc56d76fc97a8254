"""Token-mixing + channel-mixing block assembly.

A block is a Sequential of Residual units (layers.Residual), each
path(x) + x.  The default "LG" block has one token-mixing unit, the local
mixer then the global sparse-MLP, and a pre-norm FFN unit:

    y = smlp(gelu(bn2(local(gelu(bn1(x)))))) + x
    z = ffn(ln(y)) + y

`combine` rewires only the token-mixing units:
  * LG: one unit, path bn1, act1, local, bn2, act2, smlp
  * GL: one unit, path bn1, act1, smlp, bn2, act2, local
  * two_residual: two units, paths bn1, act1, local and bn2, act2, smlp
  * sum, weighted_sum, concat_reduce: one unit, path bn1, act1 and a merge
    that runs local and smlp on the same input and adds them, adds them
    with learned scalar weights, or concatenates them into a Linear 2C -> C
The [ln, ffn] unit is the same everywhere, and the children keep the LG
order in every mode.  The local mixer is the shift-concatenation operator,
a 3x3 depthwise convolution, or the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .layers import (
    FFN,
    GELU,
    BatchNorm2d,
    DWConv2d,
    Identity,
    LayerNorm,
    Linear,
    Parameter,
    Residual,
    Sequential,
    keeping,
)
from .smlp import Smlp, smlp_param_count
from .spc import Spc, SpcConfig, spc_param_count
from .tensor import Rng

LOCAL_MIXERS = ("spc", "dwconv", "identity")
COMBINE_STRATEGIES = ("LG", "GL", "two_residual", "sum", "weighted_sum", "concat_reduce")
_SEQUENTIAL = ("LG", "GL", "two_residual")


@dataclass(frozen=True)
class BlockConfig:
    """Per-block knobs: local mixer kind, combination strategy, FFN ratio."""

    local_mixer: str = "spc"
    spc: SpcConfig = field(default_factory=SpcConfig)
    dw_kernel: int = 3
    combine: str = "LG"
    ffn_ratio: int = 3

    def __post_init__(self):
        if self.local_mixer not in LOCAL_MIXERS:
            raise ConfigError(f"block config: unknown local mixer {self.local_mixer!r}")
        if self.combine not in COMBINE_STRATEGIES:
            raise ConfigError(f"block config: unknown combine strategy {self.combine!r}")
        if self.ffn_ratio < 1:
            raise ConfigError(f"block config: ffn_ratio must be >= 1, got {self.ffn_ratio}")
        if self.dw_kernel < 1:
            raise ConfigError(f"block config: dw_kernel must be >= 1, got {self.dw_kernel}")


class MixerBlock(Sequential):
    """One token-mixing + channel-mixing block bound to a stage's (H, W, C).

    A Sequential of Residual units; see the module docstring for the units
    of each combine strategy.
    """

    def __init__(self, h: int, w: int, c: int, cfg: BlockConfig, rng: Rng):
        self.cfg = cfg
        self.c = c
        self.bn1 = BatchNorm2d(c)
        self.act1 = GELU()
        if cfg.local_mixer == "spc":
            self.local = Spc(c, cfg=cfg.spc, rng=rng)
        elif cfg.local_mixer == "dwconv":
            self.local = DWConv2d(cfg.dw_kernel, c, rng=rng)
        else:
            self.local = Identity()
        self.smlp = Smlp(h, w, c, rng=rng)
        pre = [("bn1", self.bn1), ("act1", self.act1)]
        local, smlp = [(cfg.local_mixer, self.local)], [("smlp", self.smlp)]
        mid = merge = []
        if cfg.combine in _SEQUENTIAL:
            self.bn2, self.act2 = BatchNorm2d(c), GELU()
            mid = [("bn2", self.bn2), ("act2", self.act2)]
        if cfg.combine == "weighted_sum":
            self.local_scale = Parameter(np.array(1.0))
            self.global_scale = Parameter(np.array(1.0))
        if cfg.combine == "concat_reduce":
            self.merge = Linear(2 * c, c, rng=rng)
            merge = [("merge", self.merge)]
        self.ln = LayerNorm(c)
        self.ffn = FFN(c, cfg.ffn_ratio, rng=rng)
        channel = Residual([("ln", self.ln), ("ffn", self.ffn)])
        # The children keep this order in every mode, although GL runs smlp first.
        self._listed = pre + local + mid + smlp + merge + channel.layers
        if cfg.combine == "LG":
            token = [Residual(pre + local + mid + smlp)]
        elif cfg.combine == "GL":
            token = [Residual(pre + smlp + mid + local)]
        elif cfg.combine == "two_residual":
            token = [Residual(pre + local), Residual(mid + smlp)]
        else:
            token = [Residual(pre + [("parallel", _Parallel(self))])]
        super().__init__([("token", unit) for unit in token] + [("channel", channel)])

    def _children(self):
        return self._listed


class _Parallel:
    """The parallel modes' merge of local and smlp run on one input.

    Not a Module: the block lists local, smlp and merge as its children and
    keeps weighted_sum's branch outputs, which backward needs, on itself.
    """

    def __init__(self, block: MixerBlock):
        self.block = block

    def __call__(self, a, training=False):
        b = self.block
        lo, gl = b.local(a, training), b.smlp(a, training)
        if b.cfg.combine == "sum":
            return lo + gl
        if b.cfg.combine == "weighted_sum":
            b._branches = (lo, gl) if keeping() else None
            return b.local_scale.value * lo + b.global_scale.value * gl
        return b.merge(np.concatenate((lo, gl), axis=3), training)

    def backward(self, dy):
        b = self.block
        if b.cfg.combine == "sum":
            return b.local.backward(dy) + b.smlp.backward(dy)
        if b.cfg.combine == "weighted_sum":
            lo, gl = b._take("_branches")
            b.local_scale.grad += np.sum(dy * lo)
            b.global_scale.grad += np.sum(dy * gl)
            da = b.local.backward(b.local_scale.value * dy)
            da += b.smlp.backward(b.global_scale.value * dy)
            return da
        dcat = b.merge.backward(dy)
        da = b.local.backward(dcat[..., : b.c])
        da += b.smlp.backward(np.ascontiguousarray(dcat[..., b.c :]))
        return da

    def out_shape(self, in_shape):
        return self.block.local.out_shape(in_shape)

    def macs(self, in_shape):
        b = self.block
        total = b.local.macs(in_shape) + b.smlp.macs(in_shape)
        if b.cfg.combine == "weighted_sum":
            total += 2 * int(np.prod(in_shape))
        if b.cfg.combine == "concat_reduce":
            total += b.merge.macs(tuple(in_shape[:3]) + (2 * b.c,))
        return total


def block_param_count(h: int, w: int, c: int, cfg: BlockConfig) -> int:
    """Closed-form parameter count for one MixerBlock (mirrors the builder)."""
    total = 2 * c  # bn1
    if cfg.combine in _SEQUENTIAL:
        total += 2 * c  # bn2
    if cfg.local_mixer == "spc":
        total += spc_param_count(c, c, cfg.spc)
    elif cfg.local_mixer == "dwconv":
        total += cfg.dw_kernel * cfg.dw_kernel * c + c
    total += smlp_param_count(h, w, c)
    if cfg.combine == "weighted_sum":
        total += 2
    if cfg.combine == "concat_reduce":
        total += 2 * c * c + c
    total += 2 * c  # ln
    total += c * cfg.ffn_ratio * c + cfg.ffn_ratio * c + cfg.ffn_ratio * c * c + c
    return total
