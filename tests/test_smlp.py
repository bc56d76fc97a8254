import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.errors import ShapeError
from caterpillar.layers import finite_diff_check
from caterpillar.smlp import Smlp, smlp_param_count
from caterpillar.tensor import Rng, max_rel_error
from oracles import smlp_loop_oracle


def rand(shape, seed=0):
    return Rng(seed).normal(int(np.prod(shape))).reshape(shape)


def identity_configured(h, w, c, seed=0):
    """Weights that make the module an exact identity map."""
    layer = Smlp(h, w, c, rng=Rng(seed))
    layer.row_w.value = np.eye(w)
    layer.row_b.value[:] = 0.0
    layer.col_w.value = np.eye(h)
    layer.col_b.value[:] = 0.0
    layer.fuse.w.value = np.vstack([np.eye(c)] * 3) / 3.0
    layer.fuse.b.value[:] = 0.0
    return layer


class TestForward:
    def test_identity_configuration(self):
        layer = identity_configured(3, 4, 5)
        x = rand((2, 3, 4, 5), 1)
        npt.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_branch_supports(self):
        h, w, c = 4, 5, 3
        layer = Smlp(h, w, c, rng=Rng(2))
        layer.fuse.b.value[:] = 0.0
        layer.row_b.value[:] = 0.0
        layer.col_b.value[:] = 0.0
        x = np.zeros((1, h, w, c))
        i, j = 1, 3
        x[0, i, j] = rand((c,), 3)
        # isolate the row branch: zero the column and identity fuse rows
        layer.fuse.w.value[:] = 0.0
        layer.fuse.w.value[:c] = np.eye(c)
        row_out = layer.forward(x)
        support = np.abs(row_out).sum(axis=3)[0] > 0
        assert support[i].all() and not support[np.arange(h) != i].any()
        # now the column branch
        layer.fuse.w.value[:] = 0.0
        layer.fuse.w.value[c : 2 * c] = np.eye(c)
        col_out = layer.forward(x)
        support = np.abs(col_out).sum(axis=3)[0] > 0
        assert support[:, j].all() and not support[:, np.arange(w) != j].any()

    def test_matches_loop_oracle(self):
        layer = Smlp(4, 5, 6, rng=Rng(4))
        for k, p in enumerate((layer.row_b, layer.col_b, layer.fuse.b)):
            p.value = rand(p.value.shape, 6 + k)  # a fresh layer's biases are all zero
        x = rand((1, 4, 5, 6), 5)
        assert max_rel_error(layer.forward(x), smlp_loop_oracle(x, layer)) < 1e-12

    def test_resolution_mismatch(self):
        with pytest.raises(ShapeError, match="bound"):
            Smlp(4, 4, 3, rng=Rng(5)).forward(np.ones((1, 5, 4, 3)))


class TestParamCount:
    def test_examples(self):
        assert smlp_param_count(8, 8, 16) == 64 + 64 + 768 + 8 + 8 + 16 == 928
        assert smlp_param_count(1, 1, 1) == 1 + 1 + 3 + 1 + 1 + 1 == 8
        assert smlp_param_count(56, 56, 80) == 56**2 * 2 + 3 * 80**2 + 56 + 56 + 80 == 25664

    def test_matches_enumeration(self):
        layer = Smlp(5, 7, 4, rng=Rng(6))
        enumerated = sum(p.value.size for p in layer.parameters())
        assert enumerated == smlp_param_count(5, 7, 4)
        weights = sum(p.value.size for n, p in layer.named_parameters() if n.endswith("w"))
        assert weights == 5 * 5 + 7 * 7 + 3 * 4 * 4


class TestGlobalReach:
    def test_two_layers_cover_the_image(self):
        # the Jacobian of a 2-layer stack is dense: perturbing any input
        # pillar moves every output pillar on a 3x3 grid
        h = w = 3
        c = 2
        l1 = Smlp(h, w, c, rng=Rng(7))
        l2 = Smlp(h, w, c, rng=Rng(8))
        x = rand((1, h, w, c), 9)
        base = l2.forward(l1.forward(x)).copy()
        for i in range(h):
            for j in range(w):
                x2 = x.copy()
                x2[0, i, j, 0] += 1.0
                moved = l2.forward(l1.forward(x2))
                delta = np.abs(moved - base).sum(axis=3)[0]
                assert (delta > 1e-12).all(), (i, j)

    def test_one_layer_is_not_global(self):
        h = w = 3
        l1 = Smlp(h, w, 2, rng=Rng(10))
        l1.row_b.value[:] = 0.0
        l1.col_b.value[:] = 0.0
        l1.fuse.b.value[:] = 0.0
        x = np.zeros((1, h, w, 2))
        x[0, 0, 0] = 1.0
        out = l1.forward(x)
        assert np.abs(out[0, 1, 1]).max() < 1e-15  # off-row, off-column pillar


def test_finite_diff():
    assert finite_diff_check(Smlp(4, 4, 8, rng=Rng(11)), rand((1, 4, 4, 8), 12)) < 1e-4
