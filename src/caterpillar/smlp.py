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
from .layers import Linear, Module, Parameter, keeping, trunc_normal_init
from .tensor import Rng, ensure_nhwc


class Smlp(Module):
    """Row mix + column mix + identity, concatenated and fused back to C."""

    def __init__(self, h: int, w: int, c: int, rng: Rng):
        self.h, self.w, self.c = h, w, c
        self.row_w = Parameter(trunc_normal_init(rng, (w, w)))
        self.row_b = Parameter(np.zeros(w))
        self.col_w = Parameter(trunc_normal_init(rng, (h, h)))
        self.col_b = Parameter(np.zeros(h))
        self.fuse = Linear(3 * c, c, rng=rng)

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "smlp input")
        n, h, w, c = x.shape
        if (h, w, c) != (self.h, self.w, self.c):
            raise ShapeError(
                f"smlp: bound to (H,W,C)=({self.h},{self.w},{self.c}), got {(h, w, c)}"
            )
        self._x = x if keeping() else None
        # Both mixes contract an axis before the channels, so each is a matmul
        # with the mixing matrix on the left and needs no transposed copy:
        # row[n,i,v,:] = sum_j row_w[j,v] x[n,i,j,:], col[n,k,j,:] = sum_i col_w[i,k] x[n,i,j,:].
        cat = np.empty((n, h, w, 3 * c), np.result_type(x, self.row_w.value))
        row = cat[..., :c].reshape(n * h, w, c)  # a view, since cat is contiguous
        np.matmul(self.row_w.value.T, x.reshape(n * h, w, c), out=row)
        row += self.row_b.value[:, None]
        col = np.matmul(self.col_w.value.T, x.reshape(n, h, w * c))
        col += self.col_b.value[:, None]
        cat[..., c : 2 * c] = col.reshape(n, h, w, c)
        cat[..., 2 * c :] = x
        return self.fuse(cat, training)

    def backward(self, dy):
        x = self._take("_x")
        n, h, w, c = x.shape
        dcat = self.fuse.backward(dy)
        drow = dcat[..., :c].reshape(n * h, w, c)
        dcol = np.ascontiguousarray(dcat[..., c : 2 * c]).reshape(n, h, w * c)
        x_row, x_col = x.reshape(n * h, w, c), x.reshape(n, h, w * c)
        self.row_w.grad += np.matmul(x_row, drow.transpose(0, 2, 1)).sum(axis=0)
        self.row_b.grad += drow.sum(axis=(0, 2))
        self.col_w.grad += np.matmul(x_col, dcol.transpose(0, 2, 1)).sum(axis=0)
        self.col_b.grad += dcol.sum(axis=(0, 2))
        dx = np.matmul(self.row_w.value, drow)
        dx += dcat[..., 2 * c :].reshape(n * h, w, c)
        dx = dx.reshape(n, h, w * c)
        dx += np.matmul(self.col_w.value, dcol)
        return dx.reshape(n, h, w, c)

    def macs(self, in_shape):
        p = int(np.prod(in_shape[:3]))
        return p * self.c * (self.w + self.h) + p * 3 * self.c * self.c


def smlp_param_count(h: int, w: int, c: int) -> int:
    """Closed-form count: H^2 + W^2 + 3C^2 weights, plus H + W + C biases."""
    return h * h + w * w + 3 * c * c + h + w + c
