"""Shifted-pillars-concatenation: the window-free local mixing operator.

In the paper the operator has two halves.  The shift half turns the input
map into one "neighboring map" per direction: map_d holds, at every
position, the pillar that lies `steps` away in direction d, with the vacated
border rows/columns refilled per the padding mode.  The concatenation half
mixes the maps back into one tensor with per-direction channel reductions,
concatenation and a final fusion projection (or the lighter variants of the
mixing ablation).

Direction semantics (steps = s, zero padding shown):

    up:    out[i, j] = x[i + s, j]   bottom s rows refilled
    down:  out[i, j] = x[i - s, j]   top s rows refilled
    left:  out[i, j] = x[i, j + s]   right s cols refilled
    right: out[i, j] = x[i, j - s]   left s cols refilled

Diagonals compose one vertical and one horizontal move of s steps each;
`center` returns the input unchanged.  Refilled pillars are zero (zero), the
nearest edge pillar (replicate), the pillar mirrored about the edge without
repeating it (reflect), or the pillar wrapped from the opposite side, so the
map is a cyclic roll (circular).

All of this lives in one shift plan (`_shift_plan`): per direction, the
(output, source) slice pairs that cover every output pillar exactly once,
plus the zero-mode gaps that have no source.  `Spc` never builds the
neighboring maps.  Every mixing way runs one loop over the directions that
writes a source, shifted, into the mixed buffer (`_write_shifted`): into the
direction's channel slice for the concatenations, or added into the one
buffer for the sums.  The source is the input, or, for the reducing ways,
the direction's reduction run once on the unshifted input: it reduces first
and shifts second.  That is exact because a per-pillar linear map commutes
with every shift and refill above (refilling only copies pillars), except
that a zero-mode gap pillar reduces to the reduction's bias, so the gaps are
filled with that bias.  The backward is the mirror loop (`_write_unshifted`)
into one input-shaped buffer.  Without reductions that buffer is the input
gradient.  With them it holds every reduction's unshifted output gradient
in its channel slice, and one weight GEMM and one input GEMM over it serve
all reductions together.  A reduction's bias reaches every pillar of its
slice of the mixed buffer, gaps included, so its gradient is the sum of
that slice of the mixed gradient: the fuse weight times the sum of dy.

Both loops see their arrays channel-first, (c, n, h, w), and the plan's
slices index the last two axes, whatever the memory order underneath (`Spc`
says which order each mixing way uses).  In channel-major memory each
channel is whole image rows, so a shift copies rows of w - s floats, or
whole (h - s) * w planes for vertical moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ReflectRangeError, ShapeError, ShiftRangeError
from .layers import Linear, Module, _channel_sum, keeping, no_backward
from .tensor import Rng, ensure_nhwc

DIRECTIONS = (
    "up",
    "down",
    "left",
    "right",
    "center",
    "up-left",
    "up-right",
    "down-left",
    "down-right",
)

# (vertical, horizontal) unit components; +1 pulls from larger indices.
_COMPONENTS = {
    "up": (1, 0),
    "down": (-1, 0),
    "left": (0, 1),
    "right": (0, -1),
    "center": (0, 0),
    "up-left": (1, 1),
    "up-right": (1, -1),
    "down-left": (-1, 1),
    "down-right": (-1, -1),
}

DIRECTION_PRESETS = {
    4: ("up", "down", "left", "right"),
    5: ("up", "down", "left", "right", "center"),
    8: ("up", "down", "left", "right", "up-left", "up-right", "down-left", "down-right"),
    9: (
        "up",
        "down",
        "left",
        "right",
        "up-left",
        "up-right",
        "down-left",
        "down-right",
        "center",
    ),
}

PADDING_MODES = ("zero", "replicate", "circular", "reflect")
MIXING_WAYS = ("reduce_concat_fuse", "reduce_concat", "concat_fuse", "sum_fuse", "sum")


@dataclass(frozen=True)
class SpcConfig:
    """Full ablation space: direction set, shift steps, padding, mixing way."""

    directions: tuple[str, ...] = DIRECTION_PRESETS[4]
    steps: int = 1
    padding: str = "zero"
    mixing: str = "reduce_concat_fuse"

    def __post_init__(self):
        dirs = tuple(self.directions)
        object.__setattr__(self, "directions", dirs)
        if not dirs:
            raise ConfigError("spc config: empty direction set")
        if len(set(dirs)) != len(dirs):
            raise ConfigError(f"spc config: duplicate directions in {dirs}")
        for d in dirs:
            if d not in DIRECTIONS:
                raise ConfigError(f"spc config: unknown direction {d!r}")
        if self.steps < 0:
            raise ConfigError(f"spc config: steps must be >= 0, got {self.steps}")
        if self.padding not in PADDING_MODES:
            raise ConfigError(f"spc config: unknown padding {self.padding!r}")
        if self.mixing not in MIXING_WAYS:
            raise ConfigError(f"spc config: unknown mixing {self.mixing!r}")

    @property
    def n_directions(self) -> int:
        return len(self.directions)

    @property
    def reduces_channels(self) -> bool:
        return self.mixing in ("reduce_concat_fuse", "reduce_concat")

    @property
    def sums_maps(self) -> bool:
        return self.mixing in ("sum_fuse", "sum")

    @property
    def fuses(self) -> bool:
        return self.mixing.endswith("_fuse")

    @classmethod
    def preset(cls, n: int, **overrides) -> "SpcConfig":
        if n not in DIRECTION_PRESETS:
            raise ConfigError(f"spc config: no direction preset for N={n}")
        return cls(directions=DIRECTION_PRESETS[n], **overrides)


def _shift_plan(direction: str, h: int, w: int, steps: int, padding: str):
    """Slices that move an (n, h, w, c) map `steps` in `direction`.

    Returns (pairs, gaps).  Each pair ((ro, co), (rs, cs)) says that output
    pillars [:, ro, co] are the source pillars [:, rs, cs]; each gap (ro, co)
    is a zero-mode region with no source.  Pairs and gaps together cover
    every output pillar exactly once.
    """

    def runs(length: int, comp: int) -> list[tuple[slice, slice | None]]:
        # output index i reads source index i + comp * steps, resolved per mode
        if comp == 0 or steps == 0:
            return [(slice(0, length), slice(0, length))]
        if steps >= length:
            raise ShiftRangeError(
                f"spc shift: {direction!r} steps {steps} >= extent {length}"
            )
        if padding == "reflect" and 2 * steps >= length:
            raise ReflectRangeError(
                f"spc shift: reflect needs 2*steps < extent, got steps {steps}, "
                f"extent {length}"
            )
        lo, hi = (0, length - steps) if comp > 0 else (steps, length)
        out = [(slice(lo, hi), slice(lo + comp * steps, hi + comp * steps))]
        for i in range(hi, length) if comp > 0 else range(lo):
            m = i + comp * steps
            if padding == "zero":
                out.append((slice(i, i + 1), None))
                continue
            if padding == "replicate":
                src = min(max(m, 0), length - 1)
            elif padding == "circular":
                src = m % length
            else:
                src = -m if m < 0 else 2 * (length - 1) - m
            out.append((slice(i, i + 1), slice(src, src + 1)))
        return out

    vc, hc = _COMPONENTS[direction]
    pairs, gaps = [], []
    for ro, rs in runs(h, vc):
        for co, cs in runs(w, hc):
            if rs is None or cs is None:
                gaps.append((ro, co))
            else:
                pairs.append(((ro, co), (rs, cs)))
    return pairs, gaps


def _write_shifted(dst: np.ndarray, src: np.ndarray, plan, fill, add: bool = False) -> None:
    """dst = src moved per `plan`, with zero-mode gaps set to `fill`.

    dst and src are channel-first, (c, n, h, w) or views in that axis order,
    and the plan indexes their last two axes.  With `add` the moved pairs
    accumulate into dst and the gaps are left as they are.
    """
    pairs, gaps = plan
    for (ro, co), (rs, cs) in pairs:
        if add:
            dst[..., ro, co] += src[..., rs, cs]
        else:
            dst[..., ro, co] = src[..., rs, cs]
    if not add:
        for ro, co in gaps:
            dst[..., ro, co] = fill


def _write_unshifted(dsrc: np.ndarray, dout: np.ndarray, plan, add: bool = False) -> None:
    """Adjoint of `_write_shifted`: dsrc[src] = sum of dout[out] over the pairs; gaps drop out.

    Channel-first arrays as there.  The first pair is the main run.  Without
    `add` it is assigned, the source strips it does not read are zeroed, and
    only the refill pairs accumulate, so dsrc needs no zero fill.  With `add`
    every pair accumulates into dsrc.
    """
    ((ro, co), (rs, cs)), *refills = plan[0]
    if add:
        dsrc[..., rs, cs] += dout[..., ro, co]
    else:
        dsrc[..., rs, cs] = dout[..., ro, co]
        dsrc[..., : rs.start, :] = 0
        dsrc[..., rs.stop :, :] = 0
        dsrc[..., rs, : cs.start] = 0
        dsrc[..., rs, cs.stop :] = 0
    for (ro, co), (rs, cs) in refills:
        dsrc[..., rs, cs] += dout[..., ro, co]


def _empty_channel_first(shape: tuple, dtype, channel_major: bool) -> np.ndarray:
    """An empty array of NHWC `shape`, seen channel-first as (c, n, h, w).

    Its memory is channel-major, or NHWC under the transposed view.
    """
    n, h, w, c = shape
    if channel_major:
        return np.empty((c, n, h, w), dtype)
    return np.empty(shape, dtype).transpose(3, 0, 1, 2)


class Spc(Module):
    """The shift-and-concatenate local mixer as a differentiable layer.

    The mixing way decides whether each map is reduced, whether the maps are
    concatenated or summed, and whether a fuse follows (SpcConfig's
    reduces_channels, sums_maps and fuses).  The children are the Linears
    reduce_<direction>, in direction order, then fuse, and the MACs are
    theirs.  The parameters per mixing way:
      reduce_concat_fuse: one cin x (cin/N) reduction per direction + cin x cout fuse
      reduce_concat:      reductions only (cout must equal cin)
      concat_fuse:        single (N*cin) x cout fuse over the raw concatenation
      sum_fuse:           cin x cout fuse over the elementwise sum
      sum:                parameter-free elementwise sum (cout must equal cin)

    Every way runs one loop over the directions.  The source of direction k,
    its reduction's output or else the input itself, is written shifted into
    channel slice k of the mixed buffer; the sums give every direction the
    whole buffer and add into it.  The backward loop writes each slice of the
    mixed gradient unshifted into one input-shaped buffer: one slice per
    reduction side by side, or else all added into the whole buffer, which is
    then the input gradient.

    reduce_concat_fuse keeps the mixed buffer, its gradient and the
    reductions' gradient buffer channel-major, (C, n, h, w): its slices are
    only cin/N channels wide, which in NHWC are short strided slivers, and
    its weight gradients become plain GEMMs over contiguous rows.  The fuse
    reads the buffer through its NHWC view, an F-contiguous (n*h*w, C)
    matrix, and keeps that view; backward makes the fuse's GEMMs itself.
    The other ways stay NHWC: concat_fuse and sum_fuse move whole cin-wide
    input pillars, which NHWC already holds contiguously, and reduce_concat
    and sum return the buffer as their output.  The reductions and the fuse
    still run as child Linear forwards, so that a tracer which times and
    counts MACs per leaf forward sees them.
    """

    def __init__(
        self,
        cin: int,
        cout: int | None = None,
        cfg: SpcConfig | None = None,
        *,
        rng: Rng,
    ):
        cfg = cfg or SpcConfig()
        cout = cin if cout is None else cout
        self.cin, self.cout, self.cfg = cin, cout, cfg
        nd = cfg.n_directions
        if cfg.reduces_channels and cin % nd != 0:
            raise ConfigError(
                f"spc: mixing {cfg.mixing!r} needs channels {cin} divisible by "
                f"{nd} directions"
            )
        if not cfg.fuses and cout != cin:
            raise ConfigError(
                f"spc: mixing {cfg.mixing!r} keeps {cin} channels, cannot emit {cout}"
            )
        width = cin // nd if cfg.reduces_channels else cin
        self._reduce = []
        if cfg.reduces_channels:
            for d in cfg.directions:
                lin = Linear(cin, width, rng=rng)
                setattr(self, f"reduce_{d.replace('-', '_')}", lin)
                self._reduce.append(lin)
        self._mixed = width if cfg.sums_maps else nd * width
        self.fuse = Linear(self._mixed, cout, rng=rng) if cfg.fuses else None
        # the memory order of the mixed buffer and the gradient buffers
        self._channel_major = cfg.reduces_channels and cfg.fuses
        # direction k's channels in the mixed buffer
        self._chans = [
            slice(0, width) if cfg.sums_maps else slice(k * width, (k + 1) * width)
            for k in range(nd)
        ]

    def _plans(self, h: int, w: int) -> list:
        cfg = self.cfg
        return [_shift_plan(d, h, w, cfg.steps, cfg.padding) for d in cfg.directions]

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "spc input")
        if x.shape[3] != self.cin:
            raise ShapeError(f"spc: input channels {x.shape[3]} != cin {self.cin}")
        self._x = x if keeping() else None
        n, h, w, _ = x.shape
        dtype = np.result_type(x, *(r.w.value for r in self._reduce))
        z = _empty_channel_first((n, h, w, self._mixed), dtype, self._channel_major)
        xt = x.transpose(3, 0, 1, 2)
        # backward makes the reductions' GEMMs itself, so they keep nothing
        with no_backward():
            for k, (plan, ch) in enumerate(zip(self._plans(h, w), self._chans)):
                lin = self._reduce[k] if self._reduce else None
                src = xt if lin is None else lin(x, training).transpose(3, 0, 1, 2)
                fill = 0.0 if lin is None else lin.b.value[:, None, None, None]
                _write_shifted(z[ch], src, plan, fill, self.cfg.sums_maps and k > 0)
        z = z.transpose(1, 2, 3, 0)  # NHWC axes: C-contiguous, or channel-major memory
        return z if self.fuse is None else self.fuse(z, training)

    def backward(self, dy):
        x = self._take("_x")
        n, h, w, c = x.shape
        plans = self._plans(h, w)
        if self.fuse is None:
            dz = dy.transpose(3, 0, 1, 2)
        else:
            # The fuse's backward, with dz made in z's memory order.  z is
            # freed right after its weight GEMM, before dz is allocated.
            fuse, flat_dy = self.fuse, dy.reshape(-1, self.cout)
            fuse.w.grad += fuse._take("_x").reshape(-1, self._mixed).T @ flat_dy
            dy_sum = _channel_sum(flat_dy, self.cout)
            fuse.b.grad += dy_sum
            if self._channel_major:
                dz = fuse.w.value @ flat_dy.T
            else:
                dz = (flat_dy @ fuse.w.value.T).T
            dz = dz.reshape(self._mixed, n, h, w)
        # the input gradient without reductions, else theirs; z's memory order
        du = _empty_channel_first(x.shape, dz.dtype, self._channel_major)
        shared = not self._reduce  # every direction's source is x itself
        for k, (plan, ch) in enumerate(zip(plans, self._chans)):
            _write_unshifted(du if shared else du[ch], dz[ch], plan, shared and k > 0)
        if shared:
            return du.transpose(1, 2, 3, 0)
        # Each reduction commutes with its shift, so all of them back-propagate
        # through du together: one weight GEMM and one input GEMM.  A bias
        # reaches every pillar of its slice of z, moved there or filled into
        # a zero-mode gap, so its gradient is that slice's sum of dz.
        flat_du = du.reshape(c, -1)
        dw = flat_du @ x.reshape(-1, c)
        db = _channel_sum(dy, c) if self.fuse is None else self.fuse.w.value @ dy_sum
        for lin, ch in zip(self._reduce, self._chans):
            lin.w.grad += dw[ch].T
            lin.b.grad += db[ch]
        w_all = np.concatenate([lin.w.value for lin in self._reduce], axis=1)
        return (flat_du.T @ w_all.T).reshape(x.shape)

    def out_shape(self, in_shape):
        self._plans(in_shape[1], in_shape[2])  # raises what forward would on this extent
        return tuple(in_shape[:3]) + (self.cout,)

    def macs(self, in_shape):
        return sum(lin.macs(in_shape) for _, lin in self._children())


def spc_param_count(cin: int, cout: int, cfg: SpcConfig) -> int:
    """Closed-form parameter count for an Spc layer (cross-checked by enumeration)."""
    nd = cfg.n_directions
    # each reduction is a cin x (cin/N) Linear and its bias
    reduce = (cin + 1) * (cin // nd) * nd if cfg.reduces_channels else 0
    fuse_in = nd * cin if cfg.mixing == "concat_fuse" else cin
    fuse = (fuse_in + 1) * cout if cfg.fuses else 0
    return reduce + fuse
