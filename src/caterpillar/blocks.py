"""Token-mixing + channel-mixing block assembly.

The default block applies a local mixer and the global sparse-MLP
sequentially inside one residual, then a pre-norm FFN inside a second
residual:

    x1 = local(gelu(bn1(x)))
    y  = global(gelu(bn2(x1))) + x
    z  = ffn(ln(y)) + y

`combine` rearranges the token-mixing half: "GL" swaps the two mixers,
"two_residual" gives each mixer its own residual, and the parallel modes
("sum", "weighted_sum", "concat_reduce") feed both mixers the same
gelu(bn1(x)) and merge their outputs.  The FFN half is identical everywhere.
The local mixer is the shift-concatenation operator, a 3x3 depthwise
convolution, or the identity.
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
    Module,
    Parameter,
)
from .smlp import Smlp
from .spc import Spc, SpcConfig
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


class MixerBlock(Module):
    """One token-mixing + channel-mixing block bound to a stage's (H, W, C)."""

    def __init__(self, h: int, w: int, c: int, cfg: BlockConfig, rng: Rng | None = None):
        rng = rng or Rng(0)
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
        if cfg.combine in _SEQUENTIAL:
            self.bn2 = BatchNorm2d(c)
            self.act2 = GELU()
        else:
            self.bn2 = None
            self.act2 = None
        if cfg.combine == "weighted_sum":
            self.local_scale = Parameter(np.array(1.0), weight_decay=False)
            self.global_scale = Parameter(np.array(1.0), weight_decay=False)
        if cfg.combine == "concat_reduce":
            self.merge = Linear(2 * c, c, rng=rng)
        self.ln = LayerNorm(c)
        self.ffn = FFN(c, cfg.ffn_ratio, rng=rng)

    def _children(self):
        out = [("bn1", self.bn1), ("act1", self.act1), (self.cfg.local_mixer, self.local)]
        if self.bn2 is not None:
            out += [("bn2", self.bn2), ("act2", self.act2)]
        out.append(("smlp", self.smlp))
        if self.cfg.combine == "concat_reduce":
            out.append(("merge", self.merge))
        out += [("ln", self.ln), ("ffn", self.ffn)]
        return out

    def _token_mix_forward(self, x, training):
        combine = self.cfg.combine
        if combine in ("LG", "GL"):
            first, second = (self.local, self.smlp) if combine == "LG" else (self.smlp, self.local)
            x1 = first(self.act1(self.bn1(x, training), training), training)
            return second(self.act2(self.bn2(x1, training), training), training) + x
        if combine == "two_residual":
            y1 = self.local(self.act1(self.bn1(x, training), training), training) + x
            return self.smlp(self.act2(self.bn2(y1, training), training), training) + y1
        a = self.act1(self.bn1(x, training), training)
        lo = self.local(a, training)
        gl = self.smlp(a, training)
        if combine == "sum":
            return x + lo + gl
        if combine == "weighted_sum":
            self._branches = (lo, gl)
            return x + self.local_scale.value * lo + self.global_scale.value * gl
        return x + self.merge(np.concatenate((lo, gl), axis=3), training)

    def _token_mix_backward(self, dy):
        combine = self.cfg.combine
        if combine in ("LG", "GL"):
            first, second = (self.local, self.smlp) if combine == "LG" else (self.smlp, self.local)
            dx1 = self.bn2.backward(self.act2.backward(second.backward(dy)))
            return dy + self.bn1.backward(self.act1.backward(first.backward(dx1)))
        if combine == "two_residual":
            dy1 = dy + self.bn2.backward(self.act2.backward(self.smlp.backward(dy)))
            return dy1 + self.bn1.backward(self.act1.backward(self.local.backward(dy1)))
        if combine == "sum":
            da = self.local.backward(dy) + self.smlp.backward(dy)
        elif combine == "weighted_sum":
            lo, gl = self._branches
            self.local_scale.grad += np.sum(dy * lo)
            self.global_scale.grad += np.sum(dy * gl)
            da = self.local.backward(self.local_scale.value * dy)
            da += self.smlp.backward(self.global_scale.value * dy)
        else:
            dcat = self.merge.backward(dy)
            da = self.local.backward(dcat[..., : self.c])
            da += self.smlp.backward(np.ascontiguousarray(dcat[..., self.c :]))
        return dy + self.bn1.backward(self.act1.backward(da))

    def forward(self, x, training=False):
        y = self._token_mix_forward(x, training)
        return self.ffn(self.ln(y, training), training) + y

    def backward(self, dz):
        dy = dz + self.ln.backward(self.ffn.backward(dz))
        return self._token_mix_backward(dy)

    def macs(self, in_shape):
        p = int(np.prod(in_shape[:3]))
        total = self.bn1.macs(in_shape) + self.local.macs(in_shape) + self.smlp.macs(in_shape)
        if self.bn2 is not None:
            total += self.bn2.macs(in_shape)
        if self.cfg.combine == "weighted_sum":
            total += 2 * p * self.c
        if self.cfg.combine == "concat_reduce":
            total += self.merge.macs(tuple(in_shape[:3]) + (2 * self.c,))
        total += self.ln.macs(in_shape) + self.ffn.macs(in_shape)
        return total


def block_param_count(h: int, w: int, c: int, cfg: BlockConfig) -> int:
    """Closed-form parameter count for one MixerBlock (mirrors the builder)."""
    from .smlp import smlp_param_count
    from .spc import spc_param_count

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
