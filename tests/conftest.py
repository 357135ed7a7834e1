"""Shared fixtures: the 2-D worked instance and random-instance helpers.

The worked instance used throughout the tests has three unit rows —
a=(1,0), b=(0,1), c=(√.5,√.5) — query (1,0), and λ′=1. Its expected values
are small closed forms recomputed by scalar arithmetic inside the tests.

Hypothesis draws the same examples for the same selection of tests in every
checkout, and keeps no database of past failures, so whether a change fails
a property test does not depend on where or how often the suite ran before.
It mixes literal constants from the loaded modules into its draws, so one
test file run alone can draw other examples than the whole suite does.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from siftsel import EmbeddingSet, KernelConfig

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

S = math.sqrt(0.5)
W_DATA = np.array([[1.0, 0.0], [0.0, 1.0], [S, S]])
W_QUERY = np.array([1.0, 0.0])


@pytest.fixture
def wspace() -> EmbeddingSet:
    return EmbeddingSet(data=W_DATA, normalized=True)


@pytest.fixture
def wquery() -> np.ndarray:
    return W_QUERY.copy()


@pytest.fixture
def wcfg() -> KernelConfig:
    return KernelConfig(lambda_prime=1.0)


def unit_rows(rng, n: int, d: int, nonneg: bool = False) -> np.ndarray:
    """n random unit-norm rows; nonneg restricts to the positive orthant."""
    x = rng.normal(size=(n, d))
    if nonneg:
        x = np.abs(x)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def unit_vector(rng, d: int, nonneg: bool = False) -> np.ndarray:
    v = rng.normal(size=d)
    if nonneg:
        v = np.abs(v)
    return v / np.linalg.norm(v)


def orthonormal_rows(rng, d: int) -> np.ndarray:
    """A uniformly random orthonormal basis of R^d (d rows)."""
    qmat = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return np.ascontiguousarray(qmat)
