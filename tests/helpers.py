"""Small helpers shared by the test modules."""

import numpy as np

from caterpillar.tensor import Rng


def rand(shape, seed=0):
    """Standard normal draws of the package RNG, in the given shape."""
    return Rng(seed).normal(int(np.prod(shape))).reshape(shape)
