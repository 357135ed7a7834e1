"""The certified scan behind preselect_candidates and nn_select.

Both rank rows by one fixed float64 rescoring routine. They get there by a
scan of the stored rows (float32 for a set read from a file) that drops only
rows provably outside the top k, so their picks must equal a full float64
stable argsort of that routine over every row, whatever the storage. The
families below aim at the places where a scan in lower precision could drop
a row it must keep.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftsel import EmbeddingSet, KernelConfig, nn_select, normalize_rows, preselect_candidates
from siftsel import selectors
from siftsel.selectors import _rescore

F32_MAX = float(np.finfo(np.float32).max)


def _near_ties(rng, K, d, dtype):
    """A cluster of rows one or two ulps apart around a row aligned with q,
    so that the k-th score often falls inside it."""
    q = rng.normal(size=d)
    x = rng.normal(size=(K, d)).astype(dtype)
    pivot = q.astype(dtype) * dtype(rng.uniform(0.5, 2.0))
    cluster = rng.random(K) < 0.6
    x[cluster] = pivot
    for i in np.flatnonzero(cluster):
        j = rng.integers(0, d)
        for _ in range(rng.integers(0, 3)):
            x[i, j] = np.nextafter(x[i, j], dtype(np.inf if rng.random() < 0.5 else -np.inf))
    return x, q


def _duplicates(rng, K, d, dtype):
    base = rng.normal(size=(int(rng.integers(1, 5)), d)).astype(dtype)
    return base[rng.integers(0, len(base), size=K)], rng.normal(size=d)


def _scaled(rng, K, d, dtype):
    scale = 10.0 ** rng.choice([-6.0, 0.0, 6.0], size=(K, 1))
    return (rng.normal(size=(K, d)) * scale).astype(dtype), rng.normal(size=d)


def _near_max(rng, K, d, dtype):
    """Rows whose entries lie near float32's maximum: their float32 scan
    overflows, so it cannot rank them, and they must be kept."""
    x = rng.normal(size=(K, d))
    big = rng.random(K) < 0.3
    x[big] = np.sign(x[big]) * rng.uniform(0.5, 1.0, size=(int(big.sum()), d)) * F32_MAX
    return x.astype(dtype), np.abs(rng.normal(size=d)) + 0.5


def _subnormal(rng, K, d, dtype):
    """Subnormal entries in the rows, and a query whose entries are
    subnormal in the storage dtype. Rounding such a query to that dtype
    moves the scan score of a large row by far more than the scan's own
    rounding does, or than the products' underflow."""
    tiny = float(np.finfo(dtype).smallest_subnormal)
    big = 1.0 if rng.random() < 0.25 else float(np.sqrt(np.finfo(dtype).max)) / 1e3
    x = rng.normal(size=(K, d)) * big
    mask = rng.random((K, d)) < 0.3
    x[mask] = rng.normal(size=int(mask.sum())) * tiny * 4
    q = rng.normal(size=d) * tiny * float(rng.choice([1.0, 4.0, 16.0]))
    return x.astype(dtype), q


FAMILIES = {"near_ties": _near_ties, "duplicates": _duplicates, "scaled": _scaled,
            "near_max": _near_max, "subnormal": _subnormal}


def _space(x: np.ndarray, normalized: bool) -> EmbeddingSet:
    """A set storing x as it is, float32 rows as a file reader stores them."""
    space = EmbeddingSet._certified(np.ascontiguousarray(x)) if x.dtype == np.float32 \
        else EmbeddingSet(data=x)
    return normalize_rows(space) if normalized else space


def _reference(space: EmbeddingSet, q) -> tuple[np.ndarray, np.ndarray]:
    scores = _rescore(space.data, q)
    return np.argsort(-scores, kind="stable"), scores


@settings(max_examples=400, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), dtype=st.sampled_from([np.float32, np.float64]),
       normalized=st.booleans(), d=st.integers(1, 12), K=st.integers(1, 150),
       frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_picks_equal_a_full_stable_argsort_of_the_rescoring(family, dtype, normalized, d, K,
                                                           frac, seed):
    rng = np.random.default_rng(seed)
    x, q = FAMILIES[family](rng, K, d, dtype)
    if normalized and not (np.linalg.norm(x.astype(np.float64), axis=1) >= 1e-12).all():
        x[:, 0] = 1  # a row of subnormals only cannot be normalized
    k = 1 + int(frac * (K - 1))
    space = _space(x, normalized)
    pool = preselect_candidates(space, q, k)
    # nn_select's σ trace runs the greedy kernel. Unnormalized rows of size
    # 1e16 and more, with λ′ = 0.01, leave it dividing by round-off once the
    # picks span the rows, and it raises NumericalFailure; so nn_select is
    # held to the oracle on the rest, rows scaled by 1e±6 included
    nn = normalized or family not in ("near_max", "subnormal")
    distinct = nn_select(space, q, k, KernelConfig()) if nn else None
    failure = nn_select(space, q, 3, KernelConfig(), failure_mode=True) if nn else None
    assert space._data is None  # the scan never builds the float64 matrix

    ranked, scores = _reference(_space(x, normalized), q)
    np.testing.assert_array_equal(pool.source_rows, ranked[:k])
    assert pool.data.tobytes() == space.data[ranked[:k]].tobytes()
    if nn:
        assert distinct.order == tuple(ranked[:k])
        assert distinct.objective_trace == tuple(scores[ranked[:k]])
        assert failure.order == (ranked[0],) * 3
        assert failure.objective_trace == (scores[ranked[0]],) * 3


def test_a_scan_that_overflows_keeps_the_row():
    """Row 1's float32 scan is inf - inf; its exact score is the largest."""
    x = np.array([[1.0, 0.0, 0.0], [F32_MAX, F32_MAX, -F32_MAX], [2.0, 0.0, 0.0]], np.float32)
    space = _space(x, False)
    q = np.array([1.0, 1.0, 1.0])
    assert preselect_candidates(space, q, 1).source_rows == (1,)
    assert nn_select(space, q, 2, KernelConfig()).order == (1, 2)


def test_survivors_are_few_on_gaussian_rows(monkeypatch):
    """On well-spread unit rows the filter keeps about k rows, not all."""
    rng = np.random.default_rng(3)
    space = _space(rng.normal(size=(20_000, 64)).astype(np.float32), True)
    seen = []
    monkeypatch.setattr(selectors, "_rescore",
                        lambda rows, q: seen.append(len(rows)) or _rescore(rows, q))
    preselect_candidates(space, rng.normal(size=64), 50)
    assert 50 <= sum(seen) <= 60


@pytest.mark.parametrize("normalized", [False, True])
def test_huge_float64_rows_keep_every_row(normalized):
    """Where a rescored score could overflow float64, nothing is dropped."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3)) * 1e300
    space = _space(x, normalized)
    q = rng.normal(size=3) * (1e10 if not normalized else 1e300)
    ranked, _ = _reference(space, q)
    np.testing.assert_array_equal(preselect_candidates(space, q, 7).source_rows, ranked[:7])
