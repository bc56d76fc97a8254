"""Sparse-MLP global token mixer.

Three branches over the same input: row mixing (each output column is a
linear combination of all columns in its row, weights shared across rows,
channels and batch), column mixing (symmetric along the other axis), and an
identity path.  The branches are concatenated channel-wise in the fixed
order [row, column, identity] and fused by a 3C x C projection, so one layer
gives every pillar the information of its full row and column and two
stacked layers cover the whole image.

The mixing matrices are bound to a fixed (H, W): models must be rebuilt to
change resolution.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .layers import Linear, Module, Parameter, trunc_normal_init
from .tensor import Rng, concat_channels, ensure_nhwc


class Smlp(Module):
    """Row mix + column mix + identity, concatenated and fused back to C."""

    def __init__(self, h: int, w: int, c: int, bias: bool = True, rng: Rng | None = None):
        rng = rng or Rng(0)
        self.h, self.w, self.c = h, w, c
        self.row_w = Parameter(trunc_normal_init(rng, (w, w)))
        self.row_b = Parameter(np.zeros(w), weight_decay=False) if bias else None
        self.col_w = Parameter(trunc_normal_init(rng, (h, h)))
        self.col_b = Parameter(np.zeros(h), weight_decay=False) if bias else None
        self.fuse = Linear(3 * c, c, bias=bias, rng=rng)

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "smlp input")
        n, h, w, c = x.shape
        if (h, w, c) != (self.h, self.w, self.c):
            raise ShapeError(
                f"smlp: bound to (H,W,C)=({self.h},{self.w},{self.c}), got {(h, w, c)}"
            )
        self._x = x
        # row mix: out[n,i,v,c] = sum_j x[n,i,j,c] * row_w[j,v], done as a
        # batched matmul on the channel-transposed view (BLAS beats einsum here)
        row = (x.transpose(0, 1, 3, 2) @ self.row_w.value).transpose(0, 1, 3, 2)
        if self.row_b is not None:
            row = row + self.row_b.value[None, None, :, None]
        col = (x.transpose(0, 2, 3, 1) @ self.col_w.value).transpose(0, 3, 1, 2)
        if self.col_b is not None:
            col = col + self.col_b.value[None, :, None, None]
        return self.fuse(concat_channels([row, col, x]), training)

    def backward(self, dy):
        x = self._x
        c = self.c
        dcat = self.fuse.backward(dy)
        drow = dcat[..., :c]
        dcol = dcat[..., c : 2 * c]
        did = dcat[..., 2 * c :]
        x_rt = x.transpose(0, 1, 3, 2)  # (N, H, C, W)
        drow_t = drow.transpose(0, 1, 3, 2)  # (N, H, C, V)
        self.row_w.grad += x_rt.reshape(-1, self.w).T @ drow_t.reshape(-1, self.w)
        if self.row_b is not None:
            self.row_b.grad += drow.sum(axis=(0, 1, 3))
        x_ct = x.transpose(0, 2, 3, 1)  # (N, W, C, H)
        dcol_t = dcol.transpose(0, 2, 3, 1)  # (N, W, C, K)
        self.col_w.grad += x_ct.reshape(-1, self.h).T @ dcol_t.reshape(-1, self.h)
        if self.col_b is not None:
            self.col_b.grad += dcol.sum(axis=(0, 2, 3))
        dx = np.ascontiguousarray(did)
        dx = dx + (drow_t @ self.row_w.value.T).transpose(0, 1, 3, 2)
        dx = dx + (dcol_t @ self.col_w.value.T).transpose(0, 3, 1, 2)
        return dx

    def macs(self, in_shape):
        p = int(np.prod(in_shape[:3]))
        return p * self.c * (self.w + self.h) + p * 3 * self.c * self.c


def smlp_param_count(h: int, w: int, c: int, biased: bool = True) -> int:
    """Closed-form count: H^2 + W^2 + 3C^2 weights, plus H + W + C biases."""
    count = h * h + w * w + 3 * c * c
    if biased:
        count += h + w + c
    return count


def smlp_loop_oracle(x: np.ndarray, layer: Smlp) -> np.ndarray:
    """Scalar triple-loop reference for Smlp.forward (test oracle)."""
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    row_w, col_w = layer.row_w.value, layer.col_w.value
    row_b = layer.row_b.value if layer.row_b is not None else np.zeros(w)
    col_b = layer.col_b.value if layer.col_b is not None else np.zeros(h)
    fuse_w = layer.fuse.w.value
    fuse_b = layer.fuse.b.value if layer.fuse.b is not None else np.zeros(c)
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
