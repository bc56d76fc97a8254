"""Dense NHWC tensor substrate.

Every feature map in this package is a contiguous numpy array of shape
(N, H, W, C) in row-major order, dtype float32 or float64.  A "pillar" is the
C-vector at one spatial position.  The helpers here are the only primitives
the rest of the package builds on: input validation, a relative-error
metric, and a counter-based RNG whose stream is identical on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

FLOAT_DTYPES = (np.float32, np.float64)


def ensure_nhwc(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate an (N, H, W, C) float array and return it unchanged."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{name}: expected rank-4 (N,H,W,C), got rank {x.ndim} {x.shape}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name}: all dimensions must be >= 1, got {x.shape}")
    if x.dtype not in FLOAT_DTYPES:
        raise ShapeError(f"{name}: dtype must be float32/float64, got {x.dtype}")
    return x


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max over elements of |a-b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"max_rel_error: shapes differ {a.shape} vs {b.shape}")
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MAX_DRAWS = np.iinfo(np.intp).max // 8  # the most uint64 values one numpy array can hold


class Rng:
    """Counter-based SplitMix64 stream.

    Output i of seed s is mix64(s + (i+1) * 0x9E3779B97F4A7C15) with the
    standard SplitMix64 finalizer, so the stream is a pure function of
    (seed, index): identical on every platform and trivially vectorized.
    A ten-value reference sequence for seed 42 is pinned in the test suite.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._index = 0

    def next_u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs, mixed in place in one buffer."""
        if not 0 <= n <= _MAX_DRAWS:
            raise ShapeError(f"Rng: draw count {n} outside [0, {_MAX_DRAWS}]")
        z = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        z *= _GOLDEN
        z += self._seed
        s = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=s)
            z ^= s
            z *= mix
        np.right_shift(z, np.uint64(31), out=s)
        z ^= s
        return z

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in the open interval (0, 1)."""
        bits = self.next_u64(n)
        bits >>= np.uint64(11)
        u = bits.astype(np.float64)
        u += 0.5
        u *= 2.0 ** -53
        return u

    def normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs.

        The first half of the pairs' outputs is r*cos(t), the second r*sin(t).
        """
        m = (n + 1) // 2
        r = self.uniform(m)
        t = self.uniform(m)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        t *= 2.0 * np.pi
        z = np.empty(2 * m)
        for half, trig in ((z[:m], np.cos), (z[m:], np.sin)):
            trig(t, out=half)
            half *= r
        return z[:n]

    def truncated_normal(self, n: int, std: float = 0.02, clip: float = 2.0) -> np.ndarray:
        """Normals with |z| <= clip, scaled by std.

        Values beyond the clip are redrawn in index order until none is left;
        each round checks only the values it just redrew.
        """
        out = self.normal(n)
        bad = np.flatnonzero(np.abs(out) > clip)
        while bad.size:
            redrawn = self.normal(bad.size)
            out[bad] = redrawn
            bad = bad[np.abs(redrawn) > clip]
        out *= std
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")
