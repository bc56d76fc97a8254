"""Differentiable primitive layers with explicit forward/backward.

There is no tape: every layer caches what its own backward needs, unless
no backward will follow.  Inside `with no_backward():` the calling thread's
layers keep nothing (keeping() is False) and drop what an earlier forward
kept; the switch is per thread, so another thread's forward still keeps.
A backward consumes what its forward kept (Module._take): it drops each
cache as it reads it, so a training step's activations are freed layer by
layer during backward instead of living until the next forward.  That
allows one backward per forward; a second one, or a backward after a
forward that kept nothing, raises StateError.  Each activation is kept
once: a ReLU keeps its output, the array the next layer keeps as its input;
a Conv2d or DWConv2d keeps its unpadded input; an FFN keeps nothing for fc2
and rebuilds fc2's input from the x and phi its GELU keeps.

A chain is a Sequential: one ordered list of named layers that forward runs
left to right, backward right to left, and that also fixes the child names
and order.  A skip connection is a Residual unit inside a Sequential; its
layers count as the Sequential's own children.  All layers are built in
float64 and can be cast with Module.astype for float32 training.

Gradient convention: backward(dy) accumulates into each Parameter.grad and
returns the gradient with respect to the layer input.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .errors import InsufficientBatchError, NumericError, ShapeError, StateError
from .tensor import Rng, ensure_nhwc, max_rel_error


class _Switch(threading.local):
    keep = True  # a class default: a thread that never set it reads this


_switch = _Switch()


def keeping() -> bool:
    """Whether this thread's layer forwards keep what their backward needs."""
    return _switch.keep


@contextlib.contextmanager
def no_backward():
    """Within the block, this thread's forwards keep nothing for a backward."""
    prev = _switch.keep
    _switch.keep = False
    try:
        yield
    finally:
        _switch.keep = prev


class Parameter:
    """A named weight array paired with a same-shaped gradient accumulator.

    The gradient is allocated on its first read, as zeros of the value's
    shape and dtype, so a model that only runs forwards holds no gradients.
    Assigning an array or None replaces it.
    """

    __slots__ = ("value", "_grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray | None):
        self._grad = grad


class Module:
    """Base class: parameter/buffer discovery, dtype casting, MAC accounting.

    Subclasses implement forward(x, training) and backward(dy); composites
    override _children() to fix child names and order.  Parameters are the
    Parameter attributes in assignment order.
    """

    buffer_names: tuple[str, ...] = ()

    def _children(self) -> list[tuple[str, "Module"]]:
        out = []
        for name, obj in self.__dict__.items():
            if isinstance(obj, Module):
                out.append((name, obj))
        return out

    def _local_params(self) -> list[tuple[str, Parameter]]:
        return [(n, o) for n, o in self.__dict__.items() if isinstance(o, Parameter)]

    def named_parameters(self, prefix: str = ""):
        for name, p in self._local_params():
            yield (f"{prefix}.{name}" if prefix else name, p)
        for name, child in self._children():
            yield from child.named_parameters(f"{prefix}.{name}" if prefix else name)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = ""):
        for name in type(self).buffer_names:
            yield (f"{prefix}.{name}" if prefix else name, self, name)
        for name, child in self._children():
            yield from child.named_buffers(f"{prefix}.{name}" if prefix else name)

    def zero_grad(self):
        """Fresh zero gradients: one buffer per dtype, each Parameter.grad a view of it.

        One allocation instead of one per parameter: after a training forward
        it does not land in the holes the forward left, so it stays above the
        activations backward frees and the heap is not handed back to the
        system during backward, to be faulted in again by the next forward.
        """
        params = list(self.parameters())
        for dtype in dict.fromkeys(p.value.dtype for p in params):
            group = [p for p in params if p.value.dtype == dtype]
            flat = np.zeros(sum(p.value.size for p in group), dtype)
            at = 0
            for p in group:
                p.grad = flat[at : at + p.value.size].reshape(p.value.shape)
                at += p.value.size

    def astype(self, dtype) -> "Module":
        """Cast parameters, the gradients read so far, and buffers to dtype."""
        for p in self.parameters():
            p.value = p.value.astype(dtype)
            if p._grad is not None:
                p.grad = p._grad.astype(dtype)
        for _, owner, name in self.named_buffers():
            setattr(owner, name, getattr(owner, name).astype(dtype))
        return self

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def out_shape(self, in_shape: tuple) -> tuple:
        return tuple(in_shape)

    def macs(self, in_shape: tuple) -> int:
        """Multiply-accumulates for one forward pass on in_shape (weight applications)."""
        return 0

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training)

    def _kept(self, name: str):
        """The value forward kept under `name`; StateError if it kept nothing."""
        kept = getattr(self, name, None)
        if kept is None:
            raise StateError(
                f"{type(self).__name__}: backward without a kept forward; each forward "
                "that keeps (outside no_backward()) allows one backward"
            )
        return kept

    def _take(self, name: str):
        """The value forward kept under `name`, handed over once: the attribute becomes None."""
        kept = self._kept(name)
        setattr(self, name, None)
        return kept


def trunc_normal_init(rng: Rng, shape: tuple) -> np.ndarray:
    """Truncated-normal weight init: std 0.02, clipped at two sigmas."""
    # math.prod, not np.prod: an int64 product can wrap to a small count.
    return rng.truncated_normal(math.prod(shape), std=0.02, clip=2.0).reshape(shape)


class Sequential(Module):
    """A chain of named layers; the list is also the child names and order.

    forward folds the list left to right, backward right to left, and
    out_shape/macs carry the shape along it.  A Residual in the list
    contributes its own named layers as children.
    """

    def __init__(self, layers: list[tuple[str, "Module | Residual"]]):
        self.layers = layers

    def _children(self):
        out = []
        for name, layer in self.layers:
            out += layer.layers if isinstance(layer, Residual) else [(name, layer)]
        return out

    def forward(self, x, training=False):
        for _, layer in self.layers:
            x = layer(x, training)
        return x

    def backward(self, dy):
        for _, layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def _layer_macs(self, in_shape):
        """(name, MACs) per layer, each on the shape its predecessor emits."""
        shape = tuple(in_shape)
        for name, layer in self.layers:
            yield name, layer.macs(shape)
            shape = layer.out_shape(shape)

    def out_shape(self, in_shape):
        for _, layer in self.layers:
            in_shape = layer.out_shape(in_shape)
        return tuple(in_shape)

    def macs(self, in_shape):
        return sum(m for _, m in self._layer_macs(in_shape))


class Residual:
    """One skip connection over named layers: post(path(x) + skip(x)).

    An empty skip is the identity and an empty post does nothing.  Not a
    Module: the Sequential that holds the unit lists path, skip and post
    (its `layers`) as its own children, so parameter names, checkpoints and
    tracing see only those layers.
    """

    def __init__(self, path, skip=(), post=()):
        self.path, self.skip, self.post = (Sequential(list(p)) for p in (path, skip, post))
        self.layers = [*path, *skip, *post]

    def __call__(self, x, training=False):
        return self.post(self.path(x, training) + self.skip(x, training), training)

    def backward(self, dy):
        dy = self.post.backward(dy)
        return self.path.backward(dy) + self.skip.backward(dy)

    def out_shape(self, in_shape):
        mid, skip = self.path.out_shape(in_shape), self.skip.out_shape(in_shape)
        if mid != skip:
            raise ShapeError(f"residual: path gives {mid}, skip gives {skip}")
        return self.post.out_shape(mid)

    def macs(self, in_shape):
        mid = self.path.out_shape(in_shape)
        return self.path.macs(in_shape) + self.skip.macs(in_shape) + self.post.macs(mid)


class Identity(Module):
    def forward(self, x, training=False):
        return x

    def backward(self, dy):
        return dy


class Linear(Module):
    """Per-pillar fully connected layer: (..., cin) -> (..., cout)."""

    def __init__(self, cin: int, cout: int, rng: Rng):
        self.cin = cin
        self.cout = cout
        self.w = Parameter(trunc_normal_init(rng, (cin, cout)))
        self.b = Parameter(np.zeros(cout))

    def forward(self, x, training=False):
        x = np.asarray(x)
        if x.shape[-1] != self.cin:
            raise ShapeError(f"linear: input channels {x.shape[-1]} != cin {self.cin}")
        self._x = x if keeping() else None
        # One 2-D GEMM over all pillars: a 4-D matmul would run one small GEMM per (n, h) row.
        out = x.reshape(-1, self.cin) @ self.w.value
        rows, k = _wide(out, self.cout)
        rows += np.tile(self.b.value, k)
        return out.reshape(x.shape[:-1] + (self.cout,))

    def backward(self, dy):
        return self.backward_at(self._take("_x"), dy)

    def backward_at(self, x, dy):
        """The backward of a forward on input x, given x instead of a kept copy."""
        flat_x = x.reshape(-1, self.cin)
        flat_dy = dy.reshape(-1, self.cout)
        self.w.grad += flat_x.T @ flat_dy
        self.b.grad += _channel_sum(flat_dy, self.cout)
        return (flat_dy @ self.w.value.T).reshape(x.shape)

    def out_shape(self, in_shape):
        return tuple(in_shape[:-1]) + (self.cout,)

    def macs(self, in_shape):
        return int(np.prod(in_shape[:-1])) * self.cin * self.cout


_WIDE = 2048  # target row width of the per-channel view


def _wide(a: np.ndarray, c: int) -> tuple[np.ndarray, int]:
    """A (..., c) array as (M/k, k*c) rows, and k.

    k is the largest power of two up to _WIDE/c that divides the M pillars.
    Row j of the view holds k whole pillars, so channel i sits in columns
    i, c+i, ...; a per-channel vector v applies as np.tile(v, k) and a column
    sum folds to per-channel with _fold.  Sums and broadcasts over (M, c)
    rows run one short inner loop per row; on this view they run a few times
    faster when c is small.
    """
    flat = a.reshape(-1, c)
    k = math.gcd(flat.shape[0], 1 << (max(1, _WIDE // c).bit_length() - 1))
    return flat.reshape(-1, k * c), k


def _fold(col_sums: np.ndarray, k: int) -> np.ndarray:
    """Per-channel totals of the k*c column sums of a _wide view."""
    return col_sums.reshape(k, -1).sum(axis=0)


def _channel_sum(a: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sum of a (..., c) array over every other axis."""
    rows, k = _wide(a, c)
    return _fold(rows.sum(axis=0), k)


class BatchNorm2d(Module):
    """Channel-wise batch normalization over (N, H, W); eps 1e-5, momentum 0.1.

    Training mode normalizes with batch statistics and updates running stats;
    it keeps the centered input x - mean for backward.  Eval mode is one
    in-place affine map with the running statistics,
    (x - mean) * (gamma * inv) + beta; it keeps the input itself and
    rebuilds the centered input in backward, so that a backward after an eval
    forward still yields every gradient.  All passes run on the _wide view.
    """

    buffer_names = ("running_mean", "running_var")
    eps = 1e-5
    momentum = 0.1

    def __init__(self, c: int):
        self.c = c
        self.gamma = Parameter(np.ones(c))
        self.beta = Parameter(np.zeros(c))
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "batchnorm input")
        if x.shape[3] != self.c:
            raise ShapeError(f"batchnorm: channels {x.shape[3]} != {self.c}")
        rows, k = _wide(x, self.c)
        if training:
            m = x.shape[0] * x.shape[1] * x.shape[2]
            if m < 2:
                raise InsufficientBatchError(f"batchnorm training needs N*H*W >= 2, got {m}")
            mean = _fold(rows.sum(axis=0), k) / m
            centered = rows - np.tile(mean, k)
            out = np.multiply(centered, centered)
            var = _fold(out.sum(axis=0), k) / m
            mom = self.momentum
            self.running_mean = ((1 - mom) * self.running_mean + mom * mean).astype(x.dtype)
            unbiased = var * (m / (m - 1))
            self.running_var = ((1 - mom) * self.running_var + mom * unbiased).astype(x.dtype)
        else:
            m, mean, var = 0, self.running_mean, self.running_var
            # Not folded into x * scale + shift: that cancels when |mean| >> std.
            centered = out = rows - np.tile(mean, k)
        inv = 1.0 / np.sqrt(var + self.eps)
        self._cache = (x if m == 0 else centered, mean, inv, m) if keeping() else None
        np.multiply(centered, np.tile(self.gamma.value * inv, k), out=out)
        out += np.tile(self.beta.value, k)
        return out.reshape(x.shape)

    def backward(self, dy):
        kept, mean, inv, m = self._take("_cache")
        if m == 0:  # eval forward: the cache holds the input
            rows, k = _wide(kept, self.c)
            centered = rows - np.tile(mean, k)
        else:
            centered, k = kept, kept.shape[1] // self.c
        flat_dy = dy.reshape(centered.shape)
        buf = flat_dy * centered
        prod_sum = _fold(buf.sum(axis=0), k) * inv
        dy_sum = _fold(flat_dy.sum(axis=0), k)
        self.gamma.grad += prod_sum
        self.beta.grad += dy_sum
        g = self.gamma.value * inv
        dx = flat_dy * np.tile(g, k)
        if m:
            dx -= np.multiply(centered, np.tile(g * inv * (prod_sum / m), k), out=buf)
            dx -= np.tile(g * (dy_sum / m), k)
        return dx.reshape(dy.shape)

    def macs(self, in_shape):
        return int(np.prod(in_shape[:3])) * self.c


class LayerNorm(Module):
    """Per-pillar normalization over the channel axis; eps 1e-5."""

    eps = 1e-5

    def __init__(self, c: int):
        self.c = c
        self.gamma = Parameter(np.ones(c))
        self.beta = Parameter(np.zeros(c))

    def forward(self, x, training=False):
        x = np.asarray(x)
        if x.shape[-1] != self.c:
            raise ShapeError(f"layernorm: channels {x.shape[-1]} != {self.c}")
        xhat = x - x.mean(axis=-1, keepdims=True)
        out = np.multiply(xhat, xhat)
        inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + self.eps)
        xhat *= inv
        self._cache = (xhat, inv) if keeping() else None
        np.multiply(xhat, self.gamma.value, out=out)
        out += self.beta.value
        return out

    def backward(self, dy):
        xhat, inv = self._take("_cache")
        buf = dy * xhat
        self.gamma.grad += _channel_sum(buf, self.c)
        self.beta.grad += _channel_sum(dy, self.c)
        buf *= self.gamma.value
        proj = buf.mean(axis=-1, keepdims=True)
        dx = dy * self.gamma.value
        g_mean = dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, proj, out=buf)
        dx -= g_mean
        dx *= inv
        return dx

    def macs(self, in_shape):
        return int(np.prod(in_shape))


# P of the float32 GELU's tanh form, highest degree first: a weighted least-squares
# fit of artanh(erf(x / sqrt(2))) / x in x^2 on [0, 5.5]; GELU gives the recipe.
_GELU_P = tuple(np.float32(c) for c in (
    1.7561730926043201e-09, -1.3226341718891815e-07, 3.964745306114637e-06,
    -5.5306198081996005e-05, -3.259496628732528e-05, 0.036333084566526265,
    0.7978849414618339,
))
_GELU_CLIP = np.float32(6.0)
_F32_LOWEST = np.finfo(np.float32).min
_PHI_CHUNK = 1 << 15  # elements per pass: the scratch buffers stay in cache
_PDF_CLIP = 40  # |x| beyond which the normal pdf is 0 in float64 and float32


def _gelu_f32(x: np.ndarray, keep_phi: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU x * phi(x) and the normal CDF phi of a float32 array; |phi error| <= 3e-7.

    phi(x) = 0.5 + 0.5 * tanh(x * P(x^2)) on x clipped to [-6, 6], 20 ufunc
    passes per chunk.  Runs one fixed-size chunk at a time with reused
    scratch buffers, so the only full-size allocations are the two results;
    without keep_phi, each chunk's phi is built in the output itself and
    None is returned for phi.
    """
    flat = x.reshape(-1)
    phi = np.empty(flat.shape, np.float32) if keep_phi else None
    y = np.empty(flat.shape, np.float32)
    z, s, p = (np.empty(min(_PHI_CHUNK, flat.size), np.float32) for _ in range(3))
    for start in range(0, flat.size, _PHI_CHUNK):
        xs = flat[start : start + _PHI_CHUNK]
        m = xs.size
        zc, sc, pc = z[:m], s[:m], p[:m]
        np.clip(xs, -_GELU_CLIP, _GELU_CLIP, out=zc)
        np.multiply(zc, zc, out=sc)
        np.multiply(sc, _GELU_P[0], out=pc)  # Horner in x^2
        np.add(pc, _GELU_P[1], out=pc)
        for c in _GELU_P[2:]:
            np.multiply(pc, sc, out=pc)
            np.add(pc, c, out=pc)
        np.multiply(pc, zc, out=pc)
        out = (y if phi is None else phi)[start : start + m]
        np.tanh(pc, out=out)
        np.multiply(out, np.float32(0.5), out=out)
        np.add(out, np.float32(0.5), out=out)
        # -inf becomes the lowest finite value, so its product with phi = 0 is -0, not NaN.
        np.maximum(xs, _F32_LOWEST, out=sc)
        np.multiply(sc, out, out=y[start : start + m])
    return y.reshape(x.shape), None if phi is None else phi.reshape(x.shape)


class GELU(Module):
    """GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    float64 inputs use scipy's exact erf, imported on the first float64
    call.  float32 inputs use the tanh form
    phi(x) = 0.5 + 0.5 * tanh(g(x)) with g(x) = artanh(erf(x / sqrt(2)))
    approximated by x * P(x^2), P of degree 6 (_GELU_P).  P was fitted with
    numpy by iteratively reweighted least squares of g(x) / x in x^2 on
    [0, 5.5], with weights dphi/dg = (1 - erf^2) / 2 multiplied by
    sqrt|residual| after each of 200 solves.  Its two lowest terms come out
    at sqrt(2/pi) and about 0.044715 * sqrt(2/pi): the degree-1 case is the
    classic tanh GELU.  x is clipped to [-6, 6]; g(6) is about 11.8, where
    float32 tanh rounds to exactly +-1, so phi is exactly 0 or 1 beyond the
    clip.  phi stays within 3e-7 of the exact normal CDF (9.8e-8 measured
    on a 20M-point float32 grid over [-12, 12]).
    On both dtypes NaN stays NaN, +inf maps to +inf and -inf to -0.0, and
    the gradient is 1 at +inf and 0 at -inf, without a floating-point warning.
    """

    def forward(self, x, training=False):
        x = np.asarray(x)
        keep = keeping()
        self._x = x if keep else None
        if x.dtype == np.float32:
            y, self._phi = _gelu_f32(x, keep)
            return y
        from scipy.special import erf  # only here, so that importing the package loads no scipy

        # The local phi, not self._phi, so that concurrent eval callers stay apart.
        phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0).astype(x.dtype)))
        self._phi = phi if keep else None
        return np.maximum(x, np.finfo(phi.dtype).min) * phi

    def kept_output(self) -> np.ndarray:
        """The kept forward's output, rebuilt from its x and phi by the forward's own float ops."""
        phi = self._kept("_phi")
        out = np.maximum(self._kept("_x"), np.finfo(phi.dtype).min)
        return np.multiply(out, phi, out=out)

    def backward(self, dy):
        """dy * (phi + x * pdf), one cache-sized chunk at a time like _gelu_f32."""
        x, phi = self._take("_x").reshape(-1), self._take("_phi").reshape(-1)
        flat_dy = dy.reshape(-1)
        dx = np.empty(flat_dy.shape, np.result_type(dy, x))
        a, b = (np.empty(min(_PHI_CHUNK, x.size), x.dtype) for _ in range(2))
        sqrt_2pi = np.sqrt(2.0 * np.pi).astype(x.dtype)
        for start in range(0, x.size, _PHI_CHUNK):
            chunk = slice(start, start + _PHI_CHUNK)
            m = x[chunk].size
            xc, t = a[:m], b[:m]
            # Beyond the clip the pdf is 0 either way; the clip keeps x * pdf at 0 for x = +-inf.
            np.clip(x[chunk], -_PDF_CLIP, _PDF_CLIP, out=xc)
            np.multiply(xc, -0.5, out=t)
            np.multiply(t, xc, out=t)
            np.exp(t, out=t)
            np.divide(t, sqrt_2pi, out=t)
            np.multiply(xc, t, out=t)
            np.add(phi[chunk], t, out=t)
            np.multiply(flat_dy[chunk], t, out=dx[chunk])
        return dx.reshape(dy.shape)


class ReLU(Module):
    """max(x, 0), with gradient dy where x > 0 and zero elsewhere.

    Forward: NaN stays NaN, -inf and -0.0 map to +0.0, +inf stays +inf.
    Backward is dy * (x > 0): a masked position gives -0.0 where dy is
    negative, and NaN where dy is NaN or infinite.  Forward keeps its output
    y, not a mask: y > 0 exactly where x > 0 (for -0.0, NaN and +-inf too),
    and the layer after the ReLU keeps the same array as its input.
    """

    def forward(self, x, training=False):
        y = np.maximum(x, 0)
        self._y = y if keeping() else None
        return y

    def backward(self, dy):
        return dy * (self._take("_y") > 0)


_FFN_ROWS = 2048  # pillars per block of the streamed FFN forward


class FFN(Sequential):
    """Channel-mixing block: per-pillar Linear -> GELU -> Linear.

    A forward that keeps runs fc2 under no_backward(): fc2's input, the GELU
    output, is max(x, lowest) * phi of the x and phi that GELU keeps, so
    backward rebuilds it (GELU.kept_output) instead of holding it a second
    time.  With no backward to follow (keeping() is False) forward runs the
    chain over blocks of _FFN_ROWS pillars into one output, so a block's
    ratio*c-wide hidden activation stays in cache.  Each block goes through
    the layers' own forward.
    """

    def __init__(self, c: int, ratio: int, rng: Rng):
        if ratio < 1:
            raise ShapeError(f"ffn: expansion ratio must be >= 1, got {ratio}")
        self.fc1 = Linear(c, ratio * c, rng=rng)
        self.fc2 = Linear(ratio * c, c, rng=rng)
        self.act = GELU()
        super().__init__([("fc1", self.fc1), ("act", self.act), ("fc2", self.fc2)])

    def forward(self, x, training=False):
        x = np.asarray(x)
        if keeping():
            hidden = self.act(self.fc1(x, training), training)
            with no_backward():
                return self.fc2(hidden, training)
        if x.size <= _FFN_ROWS * x.shape[-1]:
            return super().forward(x, training)
        flat = x.reshape(-1, x.shape[-1])
        out = None
        for start in range(0, len(flat), _FFN_ROWS):
            y = super().forward(flat[start : start + _FFN_ROWS], training)
            if out is None:
                out = np.empty((len(flat), y.shape[1]), y.dtype)
            out[start : start + len(y)] = y
        return out.reshape(x.shape[:-1] + out.shape[1:])

    def backward(self, dy):
        dy = self.fc2.backward_at(self.act.kept_output(), dy)
        return self.fc1.backward(self.act.backward(dy))


def _conv_geometry(h, w, k, stride, padding):
    if padding == "same":
        if k % 2 == 0:
            raise ShapeError(f"conv: same padding needs odd kernel, got {k}")
        pad = k // 2
    elif padding == "valid":
        pad = 0
    else:
        raise ShapeError(f"conv: unknown padding {padding!r}")
    if k > h + 2 * pad or k > w + 2 * pad:
        raise ShapeError(
            f"conv: kernel {k} larger than padded input {(h + 2 * pad, w + 2 * pad)}"
        )
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    return pad, ho, wo


def _pad_hw(x, pad):
    """x zero-padded by `pad` on both sides of H and W; x itself when pad is 0."""
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x


class Conv2d(Module):
    """Standard cross-correlation, kernel (k, k, cin, cout), zero padding.

    Forward keeps its unpadded input, often the array the layer before it
    keeps or returned, and backward pads it again (an exact copy).
    """

    def __init__(
        self,
        k: int,
        cin: int,
        cout: int,
        stride: int = 1,
        padding: str = "same",
        *,
        rng: Rng,
    ):
        self.k, self.cin, self.cout = k, cin, cout
        self.stride, self.padding = stride, padding
        self.w = Parameter(trunc_normal_init(rng, (k, k, cin, cout)))
        self.b = Parameter(np.zeros(cout))

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "conv input")
        n, h, w, c = x.shape
        if c != self.cin:
            raise ShapeError(f"conv: input channels {c} != cin {self.cin}")
        pad, ho, wo = _conv_geometry(h, w, self.k, self.stride, self.padding)
        self._cache = (x, pad, ho, wo) if keeping() else None
        # One GEMM over all taps: with cin = 3 (the stems) a GEMM per tap has
        # an inner dimension of 3.
        out = self._patches(_pad_hw(x, pad), ho, wo) @ self.w.value.reshape(-1, self.cout)
        out += self.b.value
        return out.reshape(n, ho, wo, self.cout)

    def _patches(self, xp, ho, wo):
        """The (N*Ho*Wo, k*k*cin) patch matrix, columns in the order of w's first three axes."""
        s, k = self.stride, self.k
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
        win = win[:, : s * ho : s, : s * wo : s]  # (N, Ho, Wo, cin, k, k)
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * self.cin)

    def backward(self, dy):
        x, pad, ho, wo = self._take("_cache")
        xp = _pad_hw(x, pad)
        n, h, w, cin = x.shape
        s, k = self.stride, self.k
        flat_dy = dy.reshape(-1, self.cout)
        self.w.grad += (self._patches(xp, ho, wo).T @ flat_dy).reshape(self.w.grad.shape)
        self.b.grad += flat_dy.sum(axis=0)
        w2d = self.w.value.reshape(-1, self.cout)
        if s < k:
            # Overlapping taps scatter-add into dxp.  Channel-first, each tap adds
            # runs of Wo pillars rather than of cin channels: on the cin = 3
            # stems that is several times faster.  Taps that do not overlap
            # (stride >= k, the patch embeddings) write dxp once per tap below.
            dpatch = (w2d @ flat_dy.T).reshape(k, k, cin, n, ho, wo)
            dxp = np.zeros((cin, n) + xp.shape[1:3], xp.dtype)
            for di in range(k):
                for dj in range(k):
                    dxp[:, :, di : di + s * ho : s, dj : dj + s * wo : s] += dpatch[di, dj]
            dx = dxp[:, :, pad : pad + h, pad : pad + w].transpose(1, 2, 3, 0)
            return np.ascontiguousarray(dx)
        dpatch = (flat_dy @ w2d.T).reshape(-1, ho, wo, k, k, cin)
        dxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                dxp[:, di : di + s * ho : s, dj : dj + s * wo : s, :] += dpatch[:, :, :, di, dj]
        if pad:
            return dxp[:, pad:-pad, pad:-pad, :]
        return dxp

    def out_shape(self, in_shape):
        _, ho, wo = _conv_geometry(in_shape[1], in_shape[2], self.k, self.stride, self.padding)
        return (in_shape[0], ho, wo, self.cout)

    def macs(self, in_shape):
        n, ho, wo, _ = self.out_shape(in_shape)
        return n * ho * wo * self.k * self.k * self.cin * self.cout


class DWConv2d(Module):
    """Depthwise convolution: kernel (k, k, c), channel c sees only slice c.

    Stride 1, same padding.  Forward keeps its unpadded input; backward pads it again.
    """

    def __init__(self, k: int, c: int, rng: Rng):
        if k % 2 == 0:
            raise ShapeError(f"dwconv: kernel must be odd, got {k}")
        self.k, self.c = k, c
        self.w = Parameter(trunc_normal_init(rng, (k, k, c)))
        self.b = Parameter(np.zeros(c))

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "dwconv input")
        n, h, w, c = x.shape
        if c != self.c:
            raise ShapeError(f"dwconv: input channels {c} != {self.c}")
        self._x = x if keeping() else None
        xp = _pad_hw(x, self.k // 2)
        out = np.zeros_like(x)
        for di in range(self.k):
            for dj in range(self.k):
                out += xp[:, di : di + h, dj : dj + w, :] * self.w.value[di, dj]
        out += self.b.value
        return out

    def backward(self, dy):
        pad, (_, h, w, _) = self.k // 2, dy.shape
        xp = _pad_hw(self._take("_x"), pad)
        dxp = np.zeros_like(xp)
        for di in range(self.k):
            for dj in range(self.k):
                patch = xp[:, di : di + h, dj : dj + w, :]
                self.w.grad[di, dj] += (patch * dy).sum(axis=(0, 1, 2))
                dxp[:, di : di + h, dj : dj + w, :] += dy * self.w.value[di, dj]
        self.b.grad += dy.sum(axis=(0, 1, 2))
        return dxp[:, pad : pad + h, pad : pad + w, :]

    def macs(self, in_shape):
        return int(np.prod(in_shape)) * self.k * self.k


class AvgPool2d(Module):
    """Non-overlapping k x k mean pooling (floor on odd extents)."""

    def __init__(self, k: int = 2):
        self.k = k

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "avgpool input")
        _, ho, wo, _ = self.out_shape(x.shape)
        k = self.k
        self._cache = (x.shape, ho, wo)
        out = x[:, : ho * k : k, : wo * k : k].copy()
        for t in range(1, k * k):
            i, j = divmod(t, k)
            out += x[:, i : ho * k : k, j : wo * k : k]
        out /= k * k
        return out

    def backward(self, dy):
        (n, h, w, c), ho, wo = self._cache
        k = self.k
        dx = np.empty((n, h, w, c), dtype=dy.dtype)
        # Splitting the H and W axes of the trimmed slice of a C-contiguous
        # array is always a view, even on odd extents, so the write lands in dx.
        cells = dx[:, : ho * k, : wo * k].reshape(n, ho, k, wo, k, c)
        cells[...] = (dy / (k * k))[:, :, None, :, None]
        dx[:, ho * k :] = 0
        dx[:, : ho * k, wo * k :] = 0
        return dx

    def out_shape(self, in_shape):
        n, h, w, c = in_shape
        if h < self.k or w < self.k:
            raise ShapeError(f"avgpool: window {self.k} larger than input {(h, w)}")
        return (n, h // self.k, w // self.k, c)


class MaxPool2d(Module):
    """k x k max pooling with stride and symmetric zero-region padding.

    Forward keeps the window position of each maximum (the first on ties)
    in the smallest unsigned type that holds k*k - 1: one byte for k = 3.
    """

    def __init__(self, k: int = 3, stride: int = 2, pad: int = 1):
        self.k, self.stride, self.pad = k, stride, pad

    def out_shape(self, in_shape):
        n, h, w, c = in_shape
        ho = (h + 2 * self.pad - self.k) // self.stride + 1
        wo = (w + 2 * self.pad - self.k) // self.stride + 1
        return (n, ho, wo, c)

    def forward(self, x, training=False):
        x = ensure_nhwc(x, "maxpool input")
        n, h, w, c = x.shape
        k, s, p = self.k, self.stride, self.pad
        _, ho, wo, _ = self.out_shape(x.shape)
        xp = np.full((n, h + 2 * p, w + 2 * p, c), -np.inf, dtype=x.dtype)
        xp[:, p : p + h, p : p + w, :] = x
        stack = np.stack(
            [
                xp[:, di : di + s * ho : s, dj : dj + s * wo : s, :]
                for di in range(k)
                for dj in range(k)
            ]
        )
        index = np.min_scalar_type(k * k - 1)
        self._arg = stack.argmax(axis=0).astype(index) if keeping() else None
        self._geom = (x.shape, ho, wo)
        return stack.max(axis=0)

    def backward(self, dy):
        arg = self._take("_arg")
        in_shape, ho, wo = self._geom
        n, h, w, c = in_shape
        k, s, p = self.k, self.stride, self.pad
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dy.dtype)
        for idx in range(k * k):
            di, dj = divmod(idx, k)
            mask = arg == idx
            dxp[:, di : di + s * ho : s, dj : dj + s * wo : s, :] += dy * mask
        return dxp[:, p : p + h, p : p + w, :]


class GlobalAvgPool(Module):
    def forward(self, x, training=False):
        x = ensure_nhwc(x, "gap input")
        self._hw = (x.shape[1], x.shape[2])
        return x.mean(axis=(1, 2), keepdims=True)

    def backward(self, dy):
        h, w = self._hw
        return np.broadcast_to(dy / (h * w), (dy.shape[0], h, w, dy.shape[3]))

    def out_shape(self, in_shape):
        return (in_shape[0], 1, 1, in_shape[3])


def finite_diff_check(
    module: Module,
    x: np.ndarray,
    seed: int = 0,
    training: bool = True,
) -> float:
    """Max relative gap between analytic gradients and central differences.

    The scalar objective is sum(forward(x) * R) for a fixed random R.  All
    input elements and all parameter elements are perturbed by +-1e-5; the
    relative error is |a - n| / max(1, |a|, |n|).  Requires float64 throughout.
    """
    eps = 1e-5
    x = np.asarray(x, dtype=np.float64)
    y0 = module.forward(x, training)
    r = Rng(seed).normal(y0.size).reshape(y0.shape)

    def objective() -> float:
        return float(np.sum(module.forward(x, training) * r))

    numeric_dx = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = objective()
        flat[i] = orig - eps
        lo = objective()
        flat[i] = orig
        numeric_dx.reshape(-1)[i] = (hi - lo) / (2 * eps)

    numeric_params = []
    for _, p in module.named_parameters():
        num = np.zeros_like(p.value)
        pflat = p.value.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(pflat.size):
            orig = pflat[i]
            pflat[i] = orig + eps
            hi = objective()
            pflat[i] = orig - eps
            lo = objective()
            pflat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        numeric_params.append(num)

    module.forward(x, training)
    module.zero_grad()
    analytic_dx = module.backward(r)
    if not np.all(np.isfinite(analytic_dx)):
        raise NumericError("finite_diff_check: non-finite input gradient")
    worst = max_rel_error(analytic_dx, numeric_dx)
    for (name, p), num in zip(module.named_parameters(), numeric_params):
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"finite_diff_check: non-finite gradient for {name}")
        worst = max(worst, max_rel_error(p.grad, num))
    return worst
