import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.errors import ShapeError
from caterpillar.layers import GlobalAvgPool, Linear
from caterpillar.tensor import _GOLDEN, _MIX1, _MIX2, Rng, max_rel_error

# Frozen reference stream: SplitMix64 outputs 1..10 for seed 42, checked
# against an independent scalar implementation of the published algorithm.
SPLITMIX64_SEED42 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
    701532786141963250,
    16015981125662989062,
    4028864712777624925,
    14769051326987775908,
    6270620877612482005,
    11408980392250668974,
]


def linear(w, b=None):
    """A Linear layer holding the given weight (and bias)."""
    lin = Linear(w.shape[0], w.shape[1], rng=Rng(0))
    lin.w.value = np.asarray(w, dtype=np.float64)
    if b is not None:
        lin.b.value = np.asarray(b, dtype=np.float64)
    return lin


class TestProjectChannels:
    """Linear as the per-pillar channel projection."""

    def test_identity(self):
        x = np.ones((1, 1, 1, 2))
        npt.assert_array_equal(linear(np.eye(2)).forward(x), x)

    def test_scalar_linearity(self):
        x = np.zeros((1, 1, 1, 2))
        x[0, 0, 0] = (1.0, 2.0)
        out = linear(3.0 * np.eye(2)).forward(x)
        npt.assert_array_equal(out[0, 0, 0], (3.0, 6.0))

    def test_matches_per_pillar_loop(self):
        rng = Rng(11)
        x = rng.normal(1 * 4 * 4 * 8).reshape(1, 4, 4, 8)
        w = rng.normal(64).reshape(8, 8)
        b = rng.normal(8)
        expected = np.zeros_like(x)
        for i in range(4):
            for j in range(4):
                expected[0, i, j] = x[0, i, j] @ w + b
        npt.assert_allclose(linear(w, b).forward(x), expected, rtol=0, atol=1e-14)

    def test_no_cross_pillar_mixing(self):
        rng = Rng(3)
        x = rng.normal(2 * 3 * 3 * 4).reshape(2, 3, 3, 4)
        w = rng.normal(16).reshape(4, 4)
        base = linear(w).forward(x)
        x2 = x.copy()
        x2[0, 1, 1] += 5.0
        moved = linear(w).forward(x2)
        diff = np.abs(moved - base) > 0
        assert diff[0, 1, 1].any()
        diff[0, 1, 1] = False
        assert not diff.any()

    def test_linearity_property(self):
        rng = Rng(17)
        for _ in range(20):
            x = rng.normal(1 * 2 * 3 * 5).reshape(1, 2, 3, 5)
            y = rng.normal(1 * 2 * 3 * 5).reshape(1, 2, 3, 5)
            w = rng.normal(5 * 4).reshape(5, 4)
            a, b = rng.normal(2)
            lhs = linear(w).forward(a * x + b * y)
            rhs = a * linear(w).forward(x) + b * linear(w).forward(y)
            assert max_rel_error(lhs, rhs) < 1e-12

    def test_shape_errors_name_axes(self):
        with pytest.raises(ShapeError, match="input channels 3 != cin 2"):
            linear(np.eye(2)).forward(np.ones((1, 1, 1, 3)))

    def test_input_not_mutated(self):
        x = np.ones((1, 2, 2, 2))
        snap = x.copy()
        linear(np.eye(2), np.ones(2)).forward(x)
        npt.assert_array_equal(x, snap)


class TestGlobalAvgPool:
    """GlobalAvgPool as the spatial mean over (H, W)."""

    def test_constant(self):
        x = np.full((2, 3, 4, 5), 2.5)
        out = GlobalAvgPool().forward(x)
        assert out.shape == (2, 1, 1, 5)
        npt.assert_array_equal(out, np.full((2, 1, 1, 5), 2.5))

    def test_two_rows(self):
        x = np.array([1.0, 3.0]).reshape(1, 2, 1, 1)
        assert GlobalAvgPool().forward(x)[0, 0, 0, 0] == 2.0

    def test_matches_double_loop(self):
        x = Rng(2).normal(2 * 7 * 7 * 16).reshape(2, 7, 7, 16)
        expected = np.zeros((2, 1, 1, 16))
        for n in range(2):
            for c in range(16):
                acc = 0.0
                for i in range(7):
                    for j in range(7):
                        acc += x[n, i, j, c]
                expected[n, 0, 0, c] = acc / 49.0
        assert max_rel_error(GlobalAvgPool().forward(x), expected) < 1e-12


class TestRng:
    def test_reference_sequence(self):
        assert [int(v) for v in Rng(42).next_u64(10)] == SPLITMIX64_SEED42

    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        npt.assert_array_equal(a.normal(100), b.normal(100))
        npt.assert_array_equal(a.uniform(50), b.uniform(50))

    def test_chunking_invariance(self):
        whole = Rng(9).next_u64(10)
        r = Rng(9)
        split = np.concatenate([r.next_u64(3), r.next_u64(7)])
        npt.assert_array_equal(whole, split)

    def test_uniform_open_interval(self):
        u = Rng(1).uniform(10000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_truncated_normal_bounds(self):
        t = Rng(4).truncated_normal(5000, std=0.02, clip=2.0)
        assert np.abs(t).max() <= 0.04 + 1e-15

    def test_permutation(self):
        p = Rng(3).permutation(100)
        assert sorted(p.tolist()) == list(range(100))
        npt.assert_array_equal(p, Rng(3).permutation(100))


class _ExpressionRng(Rng):
    """The Rng draws as whole-array expressions, the reference for the in-place ones."""

    def next_u64(self, n):
        idx = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        z = self._seed + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, n):
        bits = self.next_u64(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) * (2.0 ** -53)

    def normal(self, n):
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        t = 2.0 * np.pi * u2
        return np.concatenate([r * np.cos(t), r * np.sin(t)])[:n]

    def truncated_normal(self, n, std=0.02, clip=2.0):
        out = self.normal(n)
        bad = np.abs(out) > clip
        while bad.any():
            out[bad] = self.normal(int(bad.sum()))
            bad = np.abs(out) > clip
        return out * std


class TestRngPin:
    """The in-place draws equal the whole-array expressions bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 4097])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda r, n: r.next_u64(n),
            lambda r, n: r.uniform(n),
            lambda r, n: r.normal(n),
            # clip 0.5 rejects about 62% of the draws, so this takes several rounds.
            lambda r, n: r.truncated_normal(n, std=0.02, clip=0.5),
            lambda r, n: r.truncated_normal(n),
        ],
        ids=["next_u64", "uniform", "normal", "truncated_clip0.5", "truncated"],
    )
    def test_matches_expressions(self, n, draw):
        for seed in (0, 42, 2**64 - 1):
            new, ref = Rng(seed), _ExpressionRng(seed)
            got, want = draw(new, n), draw(ref, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            # Both streams stand at the same index afterwards.
            npt.assert_array_equal(new.next_u64(3), ref.next_u64(3))

    def test_resampling_takes_several_rounds(self):
        sizes = []

        class Counting(Rng):
            def normal(self, n):
                sizes.append(n)
                return super().normal(n)

        Counting(0).truncated_normal(4097, clip=0.5)
        assert len(sizes) > 5 and sizes[0] == 4097 and sizes[1] < 4097

    @pytest.mark.parametrize("n", [-1, 2**61, 2**64])
    def test_draw_count_out_of_range(self, n):
        r = Rng(0)
        with pytest.raises(ShapeError, match="draw count"):
            r.next_u64(n)
        npt.assert_array_equal(r.next_u64(10), Rng(0).next_u64(10))
