"""Reference implementations the tests check the package against.

`spc_oracle` and `smlp_loop_oracle` recompute a layer's forward with scalar
python loops from the layer's parameters alone.  `pillars_shift` builds the
paper's neighboring maps, one full-size map per direction, from the
production shift plan, so that tests can state where each pillar lands.
"""

from __future__ import annotations

import numpy as np

from caterpillar.smlp import Smlp
from caterpillar.spc import Spc, SpcConfig, _shift_plan, _write_shifted
from caterpillar.tensor import ensure_nhwc

# Per direction, the (vertical, horizontal) offset of the source pillar in
# units of steps: out[i, j] = x[i + v * s, j + h * s].  "up" reads the row
# below, "left" the column to the right, and a diagonal does both moves.
SPC_OFFSETS = {
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


def pillars_shift(x: np.ndarray, cfg: SpcConfig) -> list[np.ndarray]:
    """One full-size neighboring map per configured direction, in order."""
    x = ensure_nhwc(x, "pillars_shift input")
    _, h, w, _ = x.shape
    maps = []
    for d in cfg.directions:
        m = np.empty_like(x)
        plan = _shift_plan(d, h, w, cfg.steps, cfg.padding)
        _write_shifted(m.transpose(3, 0, 1, 2), x.transpose(3, 0, 1, 2), plan, 0.0)
        maps.append(m)
    return maps


def spc_oracle(x: np.ndarray, layer: Spc) -> np.ndarray:
    """Brute-force reference for Spc.forward.

    Gathers every neighbor by scalar index arithmetic from SPC_OFFSETS,
    resolves out-of-range indices per padding mode inline, and applies all
    weights with explicit python loops.  Shares no code with the production
    path.
    """
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    cfg = layer.cfg
    s = cfg.steps
    nd = len(cfg.directions)
    cout = layer.cout
    mixing = cfg.mixing
    mode = cfg.padding

    def resolve(m: int, length: int) -> int | None:
        if 0 <= m < length:
            return m
        if mode == "zero":
            return None
        if mode == "replicate":
            return 0 if m < 0 else length - 1
        if mode == "circular":
            return m % length
        return -m if m < 0 else 2 * (length - 1) - m

    comps = [SPC_OFFSETS[d] for d in cfg.directions]
    reduce_ws = [lin.w.value for lin in layer._reduce]
    reduce_bs = [lin.b.value for lin in layer._reduce]
    fuse_w = layer.fuse.w.value if layer.fuse is not None else None
    fuse_b = layer.fuse.b.value if layer.fuse is not None else None

    out = np.zeros((n, h, w, cout))
    for b in range(n):
        for i in range(h):
            for j in range(w):
                neighbors = []
                for vc, hc in comps:
                    si = resolve(i + vc * s, h) if vc else i
                    sj = resolve(j + hc * s, w) if hc else j
                    if si is None or sj is None:
                        neighbors.append([0.0] * c)
                    else:
                        neighbors.append([float(x[b, si, sj, ch]) for ch in range(c)])
                if mixing in ("reduce_concat_fuse", "reduce_concat"):
                    width = c // nd
                    stacked = []
                    for d in range(nd):
                        wd = reduce_ws[d]
                        bd = reduce_bs[d]
                        vec = neighbors[d]
                        for cc in range(width):
                            acc = 0.0
                            for ci in range(c):
                                acc += vec[ci] * float(wd[ci, cc])
                            stacked.append(acc + float(bd[cc]))
                elif mixing == "concat_fuse":
                    stacked = []
                    for d in range(nd):
                        stacked.extend(neighbors[d])
                else:
                    stacked = [0.0] * c
                    for d in range(nd):
                        vec = neighbors[d]
                        for ci in range(c):
                            stacked[ci] += vec[ci]
                if mixing in ("reduce_concat", "sum"):
                    for cc in range(cout):
                        out[b, i, j, cc] = stacked[cc]
                else:
                    for cc in range(cout):
                        acc = 0.0
                        for zi, zv in enumerate(stacked):
                            acc += zv * float(fuse_w[zi, cc])
                        out[b, i, j, cc] = acc + float(fuse_b[cc])
    return out


def smlp_loop_oracle(x: np.ndarray, layer: Smlp) -> np.ndarray:
    """Scalar triple-loop reference for Smlp.forward."""
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    row_w, col_w = layer.row_w.value, layer.col_w.value
    row_b, col_b = layer.row_b.value, layer.col_b.value
    fuse_w, fuse_b = layer.fuse.w.value, layer.fuse.b.value
    out = np.zeros((n, h, w, c))
    for b in range(n):
        for i in range(h):
            for j in range(w):
                cat = []
                for ch in range(c):
                    acc = row_b[j]
                    for jj in range(w):
                        acc += x[b, i, jj, ch] * row_w[jj, j]
                    cat.append(acc)
                for ch in range(c):
                    acc = col_b[i]
                    for ii in range(h):
                        acc += x[b, ii, j, ch] * col_w[ii, i]
                    cat.append(acc)
                for ch in range(c):
                    cat.append(x[b, i, j, ch])
                for co in range(c):
                    acc = fuse_b[co]
                    for zi in range(3 * c):
                        acc += cat[zi] * fuse_w[zi, co]
                    out[b, i, j, co] = acc
    return out
