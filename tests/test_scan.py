"""The certified scan behind preselect_candidates and nn_select.

Both rank rows by one fixed float64 rescoring routine. They get there by a
scan of the stored rows (float32 for a set read from a file) that drops only
rows provably outside the top k, so their picks must equal a full float64
stable argsort of that routine over every row, whatever the storage. The
families below aim at the places where a scan in lower precision could drop
a row it must keep.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


# one row near float32's maximum among rows of size 3: nn's 8 picks (fewer
# than d) are factored through their Gram, and a pivot tolerance from the
# largest row left the small rows out while the kernel conditioned on them
@example(family="near_max", dtype=np.float32, normalized=False, d=9, K=9, frac=0.875, seed=0)
# subnormal float32 queries, where the rounded query's √d·tiny/2 term of
# the bound decides the cut: the oracle fails at both without that term
@example(family="subnormal", dtype=np.float32, normalized=False, d=3, K=14, frac=0.0, seed=0)
@example(family="subnormal", dtype=np.float32, normalized=False, d=3, K=14, frac=1.0, seed=0)
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
    distinct = nn_select(space, q, k, KernelConfig())
    failure = nn_select(space, q, 3, KernelConfig(), failure_mode=True)
    assert space._data is None  # the scan never builds the float64 matrix

    ranked, scores = _reference(_space(x, normalized), q)
    np.testing.assert_array_equal(pool.source_rows, ranked[:k])
    assert pool.data.tobytes() == space.data[ranked[:k]].tobytes()
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


def test_a_divided_scan_that_overflows_keeps_the_row():
    """The normalized twin of the test above. Row 1's float32 scan is
    inf − inf, NaN, and its score over its norm is the largest; rows 0 and 2
    tie below it. Without the finiteness check, the one-number bound's
    partition would rank the NaN first and keep nothing."""
    x = np.array([[-1.0, 0.0], [F32_MAX, -0.9 * F32_MAX], [0.0, -1.0]], np.float32)
    space = _space(x, True)
    q = np.array([2.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(space._rows[1] @ q.astype(np.float32))
    assert preselect_candidates(space, q, 1).source_rows == (1,)
    assert nn_select(space, q, 2, KernelConfig()).order == (1, 0)


F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


@pytest.mark.parametrize("normalized", [False, True])
def test_a_query_beyond_float32s_range_keeps_every_row(normalized):
    """q rounds to float32 with an infinity, so every scan score is ±inf
    or NaN (0·inf), and the filter keeps every row."""
    x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]], np.float32)
    space, q = _space(x, normalized), np.array([1e39, 1.0])
    ranked, _ = _reference(space, q)
    for k in (1, 2):
        np.testing.assert_array_equal(preselect_candidates(space, q, k).source_rows, ranked[:k])


def test_the_query_rounding_bound_covers_subnormal_queries():
    """The query [1.49, 1.51]·2⁻¹⁴⁹ rounds to [1, 2]·2⁻¹⁴⁹ in float32, so
    the scan ranks row 1 first, though row 0's exact score is the larger.
    Only the √d·tiny/2 term of ‖q − q̃‖ ≤ u‖q‖ + √d·tiny/2 covers that
    rounding; without it the filter drops row 0."""
    x = np.array([[1e6, 0.0], [0.0, 0.98e6]], np.float32)
    space = EmbeddingSet._certified(x, norms=np.linalg.norm(x.astype(np.float64), axis=1))
    q = np.array([1.49, 1.51]) * F32_TINY
    np.testing.assert_array_equal(q.astype(np.float32), np.array([1, 2]) * F32_TINY)
    assert preselect_candidates(space, q, 1).source_rows == (0,)


def _product_overflows(rng):
    """Rows of norm about 1e-3 against a query near float32's maximum: the
    scan stays finite, and its product with 1/div ≈ 700 overflows for the
    rows closest to q."""
    q = np.full(2, 0.75 * F32_MAX)
    return rng.normal(size=(60, 2)) * 1e-3, q


def _product_underflows(rng):
    """Rows of norm about 1e20 against a query of float32 subnormals,
    exact in float32: the scan is near 1e-19 and its product with
    1/div ≈ 1e-20 lands among the subnormals."""
    return rng.normal(size=(60, 3)) * 1e20, rng.integers(-2**20, 2**20, size=3) * F32_TINY


def _reciprocal_underflows(rng):
    """One-column rows near float32's maximum: every row normalizes to
    ±1, so they tie, and 1/div is a float32 subnormal whose rounding errs
    by up to 4u relative. Rows 0 and 1 err most in either direction."""
    x = np.array([3.3909497e38, 3.3898979e38])
    return np.concatenate([x, rng.uniform(2e38, 3.4e38, size=40)])[:, None], np.array([1.0])


@pytest.mark.parametrize("case", [_product_overflows, _product_underflows,
                                  _reciprocal_underflows])
def test_a_product_with_the_reciprocal_divisors_that_leaves_float32s_range(case):
    """On a normalized float32 set the scan's scores are multiplied by
    1/div rounded to float32, in float32. Where that product overflows, its
    scores are not finite and the filter keeps the rows; where it
    underflows, or 1/div itself is a subnormal, the bound covers the lost
    bits. The picks still equal the full stable argsort."""
    x, q = case(np.random.default_rng(11))
    space = _space(x.astype(np.float32), True)
    rdiv = selectors._scan_bound(space)[2]
    with np.errstate(over="ignore"):
        s = (space._rows @ q.astype(np.float32)) * rdiv
    if case is _product_overflows:
        assert np.isinf(s).any() and np.isfinite(space._rows @ q.astype(np.float32)).all()
    elif case is _product_underflows:
        assert ((s != 0) & (np.abs(s) < np.finfo(np.float32).tiny)).any()
    else:
        assert (rdiv < np.finfo(np.float32).tiny).all()
    ranked, scores = _reference(space, q)
    for k in (1, 2, 7, len(x)):
        np.testing.assert_array_equal(preselect_candidates(space, q, k).source_rows, ranked[:k])
        assert nn_select(space, q, k, KernelConfig()).order == tuple(ranked[:k])


def _per_row(s, E, k):
    """The filter in float64 with a bound E_i for each row (a K-vector, or
    one number for every row): the rows with s_i + E_i not below the k-th
    largest s − E, and every row whose s_i is not finite: the reference
    that _survivors' one-number compares in the storage dtype must match."""
    s = np.asarray(s, dtype=np.float64)
    lo = s - E
    bad = ~np.isfinite(s)
    lo[bad] = -np.inf
    kth = -np.partition(-lo, k - 1)[k - 1]
    return np.flatnonzero(~(s + E < kth) | bad)


def test_the_one_number_threshold_rounds_up_to_the_storage_dtype():
    """kth − 2E is 1 + 2⁻²⁵ here, between the float32 scores 1 and
    1 + 2⁻²³, and nearer 1. A float32 score is at least it exactly when it
    is at least its round-up, so the row at 1 + 2⁻²³ survives and the row
    at 1 goes, as in the per-row reference, which works in float64. The
    cast alone rounds to 1 and would keep that row too. Under NumPy 2,
    s + E and kth − E in float32 would both round to 1.5 and keep it."""
    above = float(np.nextafter(np.float32(1), np.float32(2)))
    s = np.array([2.0, 1.0, above, 0.5, 2.0], dtype=np.float32)
    E = (1 - 2.0 ** -25) / 2
    assert float(np.float32(2.0 - 2 * E)) != 2.0 - 2 * E
    keep = selectors._survivors(s, E, 2)
    np.testing.assert_array_equal(keep, [0, 2, 4])
    np.testing.assert_array_equal(keep, _per_row(s, np.full(s.shape, E), 2))


def _one_partition(s, E, k):
    """The one-number filter with kth from one partition of every score:
    the rows with s_i ≥ kth − 2E, rounded up to s's dtype."""
    lo = float(np.partition(s, s.size - k)[s.size - k]) - 2 * E
    cut = s.dtype.type(lo)
    if float(cut) < lo:
        cut = np.nextafter(cut, s.dtype.type(np.inf))
    return np.flatnonzero(s >= cut)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["normal", "ties", "equal"]),
       dtype=st.sampled_from([np.float32, np.float64]), k=st.integers(1, 40),
       per_k=st.sampled_from([0, 1, 15, 16, 16, 17, 60]), offset=st.integers(-4, 4),
       E=st.sampled_from([0.0, 5e-324, 1e-7, 0.05, 0.2, 0.5, 1e3]),
       seed=st.integers(0, 2**31 - 1))
@example(shape="normal", dtype=np.float32, k=1000, per_k=3, offset=0, E=0.0, seed=0)
@example(shape="ties", dtype=np.float32, k=1000, per_k=16, offset=-4, E=1e-7, seed=1)
@example(shape="normal", dtype=np.float64, k=1000, per_k=1, offset=0, E=0.05, seed=2)
def test_the_sampled_kth_keeps_the_rows_of_one_partition(shape, dtype, k, per_k, offset, E,
                                                          seed):
    """With at least 16k scores the filter takes kth from the rows at or
    above a threshold from every 8th score, and below that from every
    score. On sizes from k itself through either side of that switch to
    well past it (at k = 1000: 1,000, 3,000 and 15,996 scores), with many
    ties at the k-th score, all scores equal, and E from 0 through the gap
    between that threshold and the k-th score (scores of size 1) to far
    beyond the spread, it keeps exactly the rows that one partition of
    every score keeps."""
    rng = np.random.default_rng(seed)
    n = max(k, per_k * k + offset)
    if shape == "normal":
        s = rng.normal(size=n)
    elif shape == "ties":  # a few values, so the k-th ties with many rows
        s = rng.integers(0, 4, size=n) * rng.normal()
    else:
        s = np.full(n, rng.normal())
    s = s.astype(dtype)
    np.testing.assert_array_equal(selectors._survivors(s, E, k), _one_partition(s, E, k))


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), dtype=st.sampled_from([np.float32, np.float64]),
       normalized=st.booleans(), d=st.integers(1, 12), K=st.integers(1, 150),
       frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_both_filter_branches_keep_the_same_rows(family, dtype, normalized, d, K, frac, seed):
    """The scan bound is one number for every set, normalized or not, and
    the filter takes the k-th score from partitions of the scan's scores in
    their dtype, or sets the non-finite ones to −inf first. It keeps the
    rows, in the same order, that the float64 per-row reference keeps given
    that number for every row; so _ranked returns the same rows and scores.
    Near-ties put ties at the k-th score."""
    rng = np.random.default_rng(seed)
    x, q = FAMILIES[family](rng, K, d, dtype)
    if normalized and not (np.linalg.norm(x.astype(np.float64), axis=1) >= 1e-12).all():
        x[:, 0] = 1
    k = 1 + int(frac * (K - 1))
    space = _space(x, normalized)
    survivors = selectors._survivors
    calls = []

    def per_row(s, E, k):
        assert np.ndim(E) == 0
        return _per_row(s, np.full(s.shape, E), k)

    def both(s, E, k):
        calls.append(k)
        expected = per_row(s, E, k)  # before the filter sets non-finite scores to −inf
        keep = survivors(s, E, k)
        np.testing.assert_array_equal(keep, expected)
        return keep

    with mock.patch.object(selectors, "_survivors", both):
        rows, scores, X = selectors._ranked(space, q, k)
    with mock.patch.object(selectors, "_survivors", per_row):
        rows_pr, scores_pr, X_pr = selectors._ranked(space, q, k)
    assert calls
    assert rows.tobytes() == rows_pr.tobytes() and scores.tobytes() == scores_pr.tobytes()
    assert X.tobytes() == X_pr.tobytes() == space.data[rows].tobytes()


def test_survivors_are_few_on_gaussian_rows(monkeypatch):
    """On well-spread unit rows the filter keeps about k rows, not all."""
    rng = np.random.default_rng(3)
    space = _space(rng.normal(size=(20_000, 64)).astype(np.float32), True)
    seen = []
    monkeypatch.setattr(selectors, "_rescore",
                        lambda rows, q: seen.append(len(rows)) or _rescore(rows, q))
    preselect_candidates(space, rng.normal(size=64), 50)
    assert 50 <= sum(seen) <= 60


def _log_normal_rows(rng, K, d):
    """float32 Gaussian rows whose norms spread log-normally (σ = 1)."""
    x = rng.standard_normal((K, d), dtype=np.float32)
    x *= np.exp(rng.standard_normal((K, 1))).astype(np.float32)
    return x


@pytest.mark.parametrize("normalized", [True, False])
def test_survivors_are_few_at_serving_scale(normalized):
    """The serving case: 100k float32 Gaussian rows of 128 values, k = 200,
    as unit rows, and raw with log-normal norms, where the one number is
    set by the longest row. The filter keeps 200–201 unit rows and 200–203
    raw ones, and at most 210 pass, so a bound a hundred times too loose
    (210–220 rows on the unit rows' queries) fails here rather than slowing
    every query."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((100_000, 128), dtype=np.float32) if normalized \
        else _log_normal_rows(rng, 100_000, 128)
    space = _space(x, normalized)
    kept = []
    survivors = selectors._survivors
    with mock.patch.object(selectors, "_survivors",
                           lambda *a: kept.append(len(r := survivors(*a))) or r):
        for _ in range(3):
            preselect_candidates(space, rng.normal(size=128), 200)
    assert len(kept) == 3 and all(200 <= n <= 210 for n in kept)


@pytest.mark.parametrize("normalized", [True, False])
def test_the_filter_widens_only_the_survivors(normalized):
    """On a float32 set whose scan scores are finite, normalized or raw
    with spread-out norms, _ranked allocates no K-sized float64 array: its
    peak is the float32 scan and one float32 copy that the partition takes,
    8 bytes a row. A float64 score array beside the scan would take it to
    12, and a float64 bound for each row with a float64 filter to 45."""
    rng = np.random.default_rng(6)
    K = 50_000
    space = _space(_log_normal_rows(rng, K, 16), normalized)
    q = rng.normal(size=16)
    selectors._ranked(space, q, 10)  # the set's bound constants are made once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        selectors._ranked(space, q, 10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 10 * K


@pytest.mark.parametrize("normalized", [False, True])
def test_huge_float64_rows_keep_every_row(normalized):
    """Where a rescored score could overflow float64, nothing is dropped."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3)) * 1e300
    space = _space(x, normalized)
    q = rng.normal(size=3) * (1e10 if not normalized else 1e300)
    ranked, _ = _reference(space, q)
    np.testing.assert_array_equal(preselect_candidates(space, q, 7).source_rows, ranked[:7])
