"""Selection strategies: exact greedy, NN baselines, uncertainty sampling,
preselection."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import W_DATA, W_QUERY, unit_rows, unit_vector
from siftsel import (
    EmbeddingSet,
    InvalidParameter,
    KernelConfig,
    NotEnoughCandidates,
    SelectionResult,
    StoppingPolicy,
    apply_adaptive_stopping,
    marginal_gain,
    nn_select,
    normalize_rows,
    posterior_variance,
    preselect_candidates,
    realized_info_gain,
    sift_select,
    submodularity_probe,
    uncertainty_sampling_select,
)
from siftsel import selectors
from siftsel.selectors import MAX_N_SELECT, _rescore


def nonneg_instance(seed, K, d, lam=0.01):
    rng = np.random.default_rng(seed)
    X = unit_rows(rng, K, d, nonneg=True)
    q = unit_vector(rng, d, nonneg=True)
    return EmbeddingSet(data=X, normalized=True), q, KernelConfig(lambda_prime=lam)


class TestSiftSelect:
    def test_worked_instance_repeats_the_aligned_row(self, wspace, wquery, wcfg):
        """Two picks of a=(1,0): σ² goes 1 → 1/2 → 1/3, gains 1/2 then 1/6."""
        r = sift_select(wspace, wquery, 2, wcfg)
        assert r.order == (0, 0)
        np.testing.assert_allclose(r.sigma_trace, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(r.objective_trace, [0.5, 1.0 / 6.0], atol=1e-12)
        assert r.method == "sift" and r.lambda_prime == 1.0

    def test_second_pick_diversifies_when_offaxis_mass_dominates(self):
        """q=(√.6,√.4) over {e1,e2}, λ′=1: 0.4 > (λ′/(2+λ′))·0.6, so the
        second selection is the orthogonal row rather than a repeat."""
        space = EmbeddingSet(data=np.eye(2), normalized=True)
        q = np.array([np.sqrt(0.6), np.sqrt(0.4)])
        r = sift_select(space, q, 2, KernelConfig(lambda_prime=1.0))
        assert r.order == (0, 1)

    def test_huge_regularizer_degenerates_to_repeated_nearest_neighbor(self):
        space, q, _ = nonneg_instance(17, 40, 6)
        cfg = KernelConfig(lambda_prime=1e6)
        r = sift_select(space, q, 3, cfg)
        top = int(np.argmax(space.data @ q))
        assert r.order == (top, top, top)

    def test_duplicated_basis_instance_reaches_the_closed_form(self):
        """Basis rows duplicated 4× per axis, q=(2,1)/√5, λ′=0.01: the greedy
        trace obeys σ² = λ′(q₁²/(m₁+λ′) + q₂²/(m₂+λ′)) for per-axis counts
        (m₁, m₂), and both axes appear within four picks."""
        rows = np.repeat(np.eye(2), 4, axis=0)
        space = EmbeddingSet(data=rows, normalized=True)
        q = np.array([2.0, 1.0]) / np.sqrt(5.0)
        r = sift_select(space, q, 4, KernelConfig(lambda_prime=0.01))
        axes = [0 if i < 4 else 1 for i in r.order]
        assert {0, 1} <= set(axes)
        m = [0, 0]
        for step, ax in enumerate(axes):
            m[ax] += 1
            expected = 0.01 * (0.8 / (m[0] + 0.01) + 0.2 / (m[1] + 0.01))
            np.testing.assert_allclose(r.sigma_trace[step + 1], expected, atol=1e-12)
        assert r.sigma_trace[4] <= 0.01

    def test_rejects_empty_candidates_and_bad_counts(self, wquery, wcfg):
        empty = EmbeddingSet(data=np.empty((0, 2)))
        with pytest.raises(NotEnoughCandidates):
            sift_select(empty, wquery, 1, wcfg)
        space = EmbeddingSet(data=np.eye(2))
        with pytest.raises(InvalidParameter):
            sift_select(space, wquery, 0, wcfg)

    @pytest.mark.parametrize("select", [
        sift_select, uncertainty_sampling_select, nn_select,
        lambda *a: nn_select(*a, failure_mode=True),
    ])
    def test_n_select_has_a_ceiling(self, wspace, wquery, wcfg, select):
        with pytest.raises(InvalidParameter, match="n_select must be an integer >= 1 and <= 100000"):
            select(wspace, wquery, MAX_N_SELECT + 1, wcfg)

    def test_single_candidate_is_repeated(self, wcfg):
        """K=1 < d runs the factored path; each repeat of the only row
        matches posterior_variance of that many copies."""
        space = EmbeddingSet(data=np.array([[1.0, 0.0]]), normalized=True)
        q = np.array([1.0, 0.0])
        r = sift_select(space, q, 3, wcfg)
        assert r.order == (0, 0, 0)
        direct = [1.0] + [
            posterior_variance(space.data[[0] * m], q, wcfg) for m in (1, 2, 3)
        ]
        np.testing.assert_allclose(r.sigma_trace, direct, atol=1e-8)


def duplicated_pool(seed):
    """Random unit rows, each repeated at random positions, a unit query
    and a λ′ drawn from {1e-4, 0.01, 1}."""
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(4, 33)), int(rng.integers(5, 30))
    base = unit_rows(rng, m, d)
    X = base[rng.integers(0, m, size=int(rng.integers(2 * m, 8 * m)))]
    q = unit_vector(rng, d)
    lam = float(rng.choice([1e-4, 0.01, 1.0]))
    return EmbeddingSet(data=X, normalized=True), q, KernelConfig(lambda_prime=lam)


def near_duplicate_pool(seed):
    """K unit rows in tight groups: copies of a few random rows, each
    moved by noise of size 1e-6 to 1e-2, with a fifth of them left as
    exact copies; and a unit query."""
    rng = np.random.default_rng([7, seed])
    d = int(rng.integers(12, 40))
    K = int(rng.integers(d + 10, 4 * d))
    base = rng.normal(size=(int(rng.integers(4, K // 3)), d))
    noise = rng.normal(size=(K, d)) * 10.0 ** rng.uniform(-6, -2)
    noise[rng.random(K) < 0.2] = 0.0
    X = base[rng.integers(0, len(base), size=K)] + noise
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return EmbeddingSet(data=X, normalized=True), unit_vector(rng, d)


def wide_pool(seed):
    """Fewer unit rows than dimensions, in tight groups around a few random
    rows, a fifth of them exact copies of the first; and a unit query."""
    rng = np.random.default_rng([11, seed])
    d = int(rng.integers(40, 120))
    K = int(rng.integers(d // 3, d))
    base = rng.normal(size=(int(rng.integers(4, K // 3)), d))
    X = base[rng.integers(0, len(base), size=K)] + rng.normal(size=(K, d)) * 1e-3
    X[rng.random(K) < 0.2] = base[0]
    return normalize_rows(EmbeddingSet(data=X)), unit_vector(rng, d)


def clustered_pool():
    """1000 unit rows around 8 random centres, 1% noise, d = 128, past the
    default _RING_MIN_WORK; and a unit query."""
    rng = np.random.default_rng(60)
    centers = unit_rows(rng, 8, 128)
    X = centers[rng.integers(0, 8, size=1000)] + 0.01 * rng.normal(size=(1000, 128))
    space = EmbeddingSet(data=X / np.linalg.norm(X, axis=1, keepdims=True), normalized=True)
    return space, unit_vector(rng, 128)


def with_and_without_ring(monkeypatch, space, q, n, cfg, ring_from):
    """sift_select with the column ring on for GEMVs of at least `ring_from`
    multiply-adds, and with it off."""
    runs = []
    for threshold in (ring_from, math.inf):
        with monkeypatch.context() as m:
            m.setattr(selectors, "_RING_MIN_WORK", threshold)
            runs.append(sift_select(space, q, n, cfg))
    return runs


class TestGreedyKernel:
    @pytest.mark.parametrize("select", [sift_select, uncertainty_sampling_select])
    def test_equal_rows_tie_to_their_smallest_index(self, select):
        """Every pick is the first row equal to it. OpenBLAS's GEMV can give
        equal rows different last bits, and a plain argmax then took a
        later copy in 56 of these 200 pools (39 for uncertainty sampling).
        A set whose rows repeat selects as the set of its distinct rows
        does, picks mapped back to their first indices: the same order,
        objectives and σ², byte for byte. Run over every copy, the kernel's
        traces differed from these in the last bits on 133 of the pools
        (134 for uncertainty sampling)."""
        for seed in range(200):
            space, q, cfg = duplicated_pool(seed)
            first = {}
            for i, row in enumerate(map(bytes, space.data)):
                first.setdefault(row, i)
            r = select(space, q, 20, cfg)
            assert all(first[bytes(space.data[p])] == p for p in r.order), seed
            keep = sorted(first.values())
            distinct = select(EmbeddingSet(data=space.data[keep], normalized=True), q, 20, cfg)
            assert r.order == tuple(keep[p] for p in distinct.order), seed
            assert np.array(r.objective_trace).tobytes() == \
                np.array(distinct.objective_trace).tobytes(), seed
            assert np.array(r.sigma_trace).tobytes() == \
                np.array(distinct.sigma_trace).tobytes(), seed

    @staticmethod
    def _check_against_direct(r, X, q, cfg):
        """σ² within 1e-9·σ²₀ of posterior_variance at every prefix, and
        sift's rule sigma_trace[i+1] = sigma_trace[i] − objective_trace[i]."""
        band = 1e-9 * float(q @ q)
        direct = [posterior_variance(X[list(r.order[:i])], q, cfg)
                  for i in range(len(r.order) + 1)]
        np.testing.assert_allclose(r.sigma_trace, direct, rtol=0, atol=band)
        if r.method == "sift":
            np.testing.assert_allclose(np.diff(r.sigma_trace), -np.array(r.objective_trace),
                                       rtol=0, atol=band)

    @staticmethod
    def _check_gain(r, X, cfg, rtol):
        """γ_n = ½ Σ ln(pivot_i/λ′) within rtol of realized_info_gain of the
        picks, at every prefix."""
        lam = cfg.lambda_prime
        gains = np.cumsum(0.5 * np.log(np.array(r.pivot_trace) / lam))
        oracle = [realized_info_gain(X[list(r.order[:n])], lam)
                  for n in range(1, len(r.order) + 1)]
        np.testing.assert_allclose(gains, oracle, rtol=rtol, atol=0)

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e8])
    @pytest.mark.parametrize("method", ["sift", "nn", "nn-f", "us"])
    def test_rows_far_from_unit_size(self, scale, method):
        """Round-off is judged against the size of each row: Gaussian rows
        times 1e6 once raised NumericalFailure on a diagonal of -1.2e-4.
        Times 1e8, λ′ = 0.01 is round-off next to the rows once the picks
        span them; conditioning on a downdated denominator then threw the
        diagonals to -1.5e10, and the kernel now recomputes it by
        projection. posterior_variance, the direct value each trace is
        checked against, reads a QR residual of the rows and forms no Gram,
        so no diagonal bump moves it."""
        cfg = KernelConfig()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(300, 16)) * scale
            q = rng.normal(size=16)
            r = TestSelectionResultInvariants._run(method, EmbeddingSet(data=X), q, 20, cfg)
            self._check_against_direct(r, X, q, cfg)

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e9, 1e10])
    def test_scaled_rows_follow_the_oracles(self, scale):
        """300×16 Gaussian rows times 1e6 to 1e10, 40 seeds, 50 picks at
        λ′ = 0.01, every method. Without the recompute rule 4 of these 800
        runs raised NumericalFailure on a negative diagonal, and γ_n read
        from the pivots fell short of the QR value by up to 10.1%. No run
        raises; σ² stays within 1e-9·σ²₀ of posterior_variance at every
        prefix, or, on larger rows, within 1e-26·scale²·σ²₀; γ_n is within
        1e-7 of realized_info_gain relatively. The wider band is the
        oracle's: a repeat pick's residual is known only to about u·‖x‖,
        and against 60-digit arithmetic posterior_variance erred by up to
        2.5e-7·σ²₀ at 1e10 for nn-f, the kernel by 3.7e-8·σ²₀. Every other
        method stayed within 4e-13·σ²₀ of posterior_variance."""
        cfg = KernelConfig()
        band = max(1e-9, 1e-26 * scale * scale)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(300, 16)) * scale
            q = rng.normal(size=16)
            space = EmbeddingSet(data=X)
            for method in ("sift", "us", "nn", "nn-f"):
                r = TestSelectionResultInvariants._run(method, space, q, 50, cfg)
                direct = [posterior_variance(X[list(r.order[:i])], q, cfg) for i in range(51)]
                np.testing.assert_allclose(r.sigma_trace, direct, rtol=0,
                                           atol=band * float(q @ q), err_msg=(seed, method))
                gain = 0.5 * np.log(np.array(r.pivot_trace) / cfg.lambda_prime).sum()
                assert gain == pytest.approx(realized_info_gain(X[list(r.order)], 0.01),
                                             rel=1e-7), (seed, method)

    def test_two_rows_that_differ_far_below_their_size(self):
        """Rows 1e8·u ± v, u ⊥ v unit vectors, and q = v: the first pick
        leaves the second a conditional variance of about 4, a difference of
        terms near 1e16. sift picks both rows, and σ²₂ is λ′/(2 + λ′), as
        posterior_variance gives it. Without the recompute rule the second
        pick was round-off: the order was (0, 0, 0) and σ² stayed at 1."""
        u, v = np.eye(16)[:2]
        X = np.array([1e8 * u + v, 1e8 * u - v])
        cfg = KernelConfig()
        r = sift_select(EmbeddingSet(data=X), v, 3, cfg)
        assert sorted(r.order[:2]) == [0, 1]
        exact = cfg.lambda_prime / (2 + cfg.lambda_prime)
        assert posterior_variance(X, v, cfg) == pytest.approx(exact, rel=1e-12)
        assert r.sigma_trace[2] == pytest.approx(exact, rel=1e-9)
        self._check_against_direct(r, X, v, cfg)
        self._check_gain(r, X, cfg, 1e-9)

    @pytest.mark.parametrize("lam", [1e-16, 1e-17, 1e-18])
    def test_unit_rows_at_a_vanishing_lambda(self, lam):
        """Whole-set sift on 300 normalized Gaussian rows in ℝ¹⁶, 50 picks,
        with each of the first 20 rows as the query. At λ′ ≤ 1e-16 a picked
        row's conditional variance is round-off next to its start, and 7 to
        10 of these 20 queries raised NumericalFailure on a negative
        diagonal. None raises, σ² follows posterior_variance, and γ_n
        follows realized_info_gain."""
        space = normalize_rows(EmbeddingSet(np.random.default_rng(0).standard_normal((300, 16))))
        cfg = KernelConfig(lambda_prime=lam)
        for i in range(20):
            r = sift_select(space, space.data[i], 50, cfg)
            self._check_against_direct(r, space.data, space.data[i], cfg)
            self._check_gain(r, space.data, cfg, 1e-10)

    @pytest.mark.parametrize("n", [20, 15])
    @pytest.mark.parametrize("big", [1e7, 1e9])
    @pytest.mark.parametrize("method", ["sift", "nn", "nn-f", "us"])
    def test_a_large_row_among_unit_sized_rows(self, method, big, n):
        """One row big·e₁ among Gaussian rows of length about 4, unnormalized.
        Round-off is judged against each row's own diagonal: a floor from
        the largest starting diagonal, about 91 at 1e7, took every fresh
        small row for round-off, so sift and us picked one row again and
        again with σ² never reduced. nn's 15 picks, fewer than d = 16, take
        the K < d factor, which must keep what the small rows add: a
        pivoted Cholesky of their Gram with a tolerance from the largest row
        dropped it, and σ² then stopped falling after the large row. σ²
        follows posterior_variance and γ_n realized_info_gain."""
        cfg = KernelConfig()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(300, 16))
            X[7] = 0.0
            X[7, 0] = big
            q = rng.normal(size=16)
            q[0] = abs(q[0])  # nn's first pick is the large row
            r = TestSelectionResultInvariants._run(method, EmbeddingSet(data=X), q, n, cfg)
            self._check_against_direct(r, X, q, cfg)
            self._check_gain(r, X, cfg, 1e-9)
            if method in ("us", "nn"):
                assert r.order[0] == 7 and len(set(r.order)) == n, seed

    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("lam", [1e-12, 0.01, 1.0])
    @pytest.mark.parametrize("select", [sift_select, uncertainty_sampling_select, nn_select])
    def test_step_shortcuts_change_no_byte(self, monkeypatch, select, lam, ring):
        """The kernel skips I·z before its first fold and the W product
        while no w waits to be folded. Over 130 picks on duplicate-heavy
        pools, where sift and us fold at least twice (the window is
        min(N, r) = d steps), with and without kept columns, its order and
        traces are the bytes of the step that always multiplies. The
        patched step runs on every pick whose k(p,p) is at least
        _PICK_FLOOR of its start, and the comparison tests nothing unless
        it runs: at λ′ ≥ 0.01 that is every pick, and at 1e-12, where near
        copies of a picked row fall below the floor and take the
        projection, at least 100 over the 8 runs. Without kept columns,
        σ² follows posterior_variance and γ_n realized_info_gain. At λ′ = 1e-12,
        before those picks took the projection, σ² erred by up to
        3.8e-6·σ²₀ here and γ_n by 3.4e-5 relatively; without the
        recompute rule, by 1.8e-5 and 4.9e-6."""
        calls = []

        def unshortened(Z, p, A, W):
            calls.append(p)
            z = Z[p]
            return (np.eye(z.size) if A is None else A) @ z - W.T @ (W @ z)

        cfg, n, ran = KernelConfig(lambda_prime=lam), 130, 0
        if ring:
            monkeypatch.setattr(selectors, "_RING_MIN_WORK", 0)
        for seed in range(8):
            space, q = near_duplicate_pool(seed)
            assert n > 2 * min(n, space.dim) and space.rows > space.dim
            picks = min(n, space.rows) if select is nn_select else n  # nn picks distinct rows
            fast = select(space, q, picks, cfg)
            if not ring:
                self._check_against_direct(fast, space.data, q, cfg)
                self._check_gain(fast, space.data, cfg, 1e-9)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(selectors, "_project", unshortened)
                full = select(space, q, picks, cfg)
            start = np.einsum("ij,ij->i", space.data, space.data)[list(fast.order)]
            above = np.array(fast.pivot_trace) - lam >= selectors._PICK_FLOOR * start
            assert len(calls) == above.sum() and (above.all() or lam < 0.01)
            ran += len(calls)
            assert fast.order == full.order
            assert fast.objective_trace == full.objective_trace
            assert fast.sigma_trace == full.sigma_trace
            assert fast.pivot_trace == full.pivot_trace
        assert ran >= 100

    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("lam", [1e-12, 0.01, 1.0])
    @pytest.mark.parametrize("select", [sift_select, uncertainty_sampling_select, nn_select])
    def test_identity_factor_is_read_not_multiplied(self, monkeypatch, select, lam, ring):
        """With fewer rows than dimensions Z is I, passed as None: the
        kernel reads the columns of A and W and takes w as the pick's column
        rather than multiplying by I, and keeps no columns, whatever
        _RING_MIN_WORK says. Over 130 picks on duplicate-heavy wide pools,
        its order and traces are the bytes of the kernel handed an explicit
        identity without kept columns."""
        def explicit(X):
            return np.eye(X.shape[0]), X @ X.T

        cfg, n = KernelConfig(lambda_prime=lam), 130
        if ring:
            monkeypatch.setattr(selectors, "_RING_MIN_WORK", 0)
        for seed in range(8):
            space, q = wide_pool(seed)
            picks = space.rows if select is nn_select else n  # nn picks distinct rows
            assert selectors._candidate_factor(space.data)[0] is None
            fast = select(space, q, picks, cfg)
            with monkeypatch.context() as m:
                m.setattr(selectors, "_candidate_factor", explicit)
                m.setattr(selectors, "_RING_MIN_WORK", math.inf)
                full = select(space, q, picks, cfg)
            assert fast.order == full.order
            assert fast.objective_trace == full.objective_trace
            assert fast.sigma_trace == full.sigma_trace
            assert fast.pivot_trace == full.pivot_trace

    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("lam", [1e-6, 0.01])
    @pytest.mark.parametrize("pool", [near_duplicate_pool, wide_pool])
    def test_selections_are_prefix_stable(self, monkeypatch, pool, lam, ring):
        """apply_adaptive_stopping and stats read an n-pick selection off a
        longer run. On duplicate-heavy pools with K ≥ d and K < d, with kept
        columns forced on and left off, sift, us and nn-f return the first n
        steps of the 130-pick run exactly, pivots included. Distinct nn
        conditions on its top n rows alone: the same order, and σ² within
        1e-10 relatively."""
        cfg, run = KernelConfig(lambda_prime=lam), TestSelectionResultInvariants._run
        if ring:
            monkeypatch.setattr(selectors, "_RING_MIN_WORK", 0)
        for seed in range(4):
            space, q = pool(seed)
            for method in ("sift", "us", "nn-f", "nn"):
                full = run(method, space, q, min(130, space.rows) if method == "nn" else 130, cfg)
                for n in (1, 3, 7, 20, 64, 65):
                    if n > len(full.order):
                        continue
                    r = run(method, space, q, n, cfg)
                    assert r.order == full.order[:n], (method, seed, n)
                    if method == "nn":
                        np.testing.assert_allclose(r.sigma_trace, full.sigma_trace[:n + 1],
                                                   rtol=1e-10, atol=0)
                        continue
                    assert r.objective_trace == full.objective_trace[:n], (method, seed, n)
                    assert r.sigma_trace == full.sigma_trace[:n + 1], (method, seed, n)
                    assert r.pivot_trace == full.pivot_trace[:n], (method, seed, n)

    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("pool", [near_duplicate_pool, wide_pool])
    def test_stopped_runs_are_the_truncated_full_run(self, monkeypatch, pool, alpha, ring):
        """Given alpha, the kernel stops at the adaptive rule itself. On
        duplicate-heavy pools with K ≥ d and K < d, with kept columns forced
        on and left off, every method's stopped run is the oracle's
        truncation of its full run of the same size, traces and pivots
        included. The queries are poorly explained, so every run stops
        early, after 2 or 3 picks at α ≥ 0.5 and after 20 or more at 0.05,
        but distinct nn's, whose size is the pool's on small pools."""
        cfg, run = KernelConfig(), TestSelectionResultInvariants._run
        if ring:
            monkeypatch.setattr(selectors, "_RING_MIN_WORK", 0)
        for seed in range(4):
            space, q = pool(seed)
            for method in ("sift", "us", "nn-f", "nn"):
                n = min(130, space.rows) if method == "nn" else 130
                full = run(method, space, q, n, cfg)
                cut = apply_adaptive_stopping(full, StoppingPolicy(alpha=alpha, n_max=n))
                r = run(method, space, q, n, cfg, alpha)
                assert r.order == cut.order, (method, seed)
                assert r.objective_trace == cut.objective_trace, (method, seed)
                assert r.sigma_trace == cut.sigma_trace, (method, seed)
                assert r.pivot_trace == cut.pivot_trace, (method, seed)
                assert len(r.order) < n or method == "nn", (method, seed)

    @pytest.mark.parametrize("method", ["sift", "us", "nn-f", "nn"])
    def test_the_stopping_rule_may_fire_on_a_recomputed_pick(self, method):
        """Rows ×1e8 in a plane of ℝ³: once two picks span it, every later
        pick's k(p,p) is round-off next to its start and is recomputed, and
        σ stays near the query's part off the plane, √0.75. At α = 0.5 the
        rule first holds at n = 3, σ_3 > 1/1.5, on such a pick, and the
        kernel ends there as the truncation does. σ² follows
        posterior_variance, and γ_n realized_info_gain."""
        rng = np.random.default_rng(5)
        X = np.zeros((40, 3))
        X[:, :2] = rng.normal(size=(40, 2)) * 1e8
        q, cfg = np.array([0.3, 0.4, math.sqrt(0.75)]), KernelConfig()
        space, run = EmbeddingSet(data=X), TestSelectionResultInvariants._run
        full = run(method, space, q, 10, cfg)
        self._check_against_direct(full, X, q, cfg)
        self._check_gain(full, X, cfg, 1e-9)
        r = run(method, space, q, 10, cfg, 0.5)
        assert len(r.order) == 3
        assert r == apply_adaptive_stopping(full, StoppingPolicy(alpha=0.5, n_max=10))

    @pytest.mark.parametrize("method", ["sift", "nn-f", "us"])
    def test_recomputed_picks_keep_the_pivot_record(self, monkeypatch, method):
        """Times 1e8, Gaussian rows leave round-off once the picks span
        them. A pick whose k(p,p) is below _PICK_FLOOR of its start takes
        its w, k(p,p) and k(q,p) from the projection and does not call
        _project; every other pick does. Such picks are as many as the
        steps that skip _project, at least 100 over these runs, and with
        them σ² follows posterior_variance and γ_n realized_info_gain."""
        calls = []
        project = selectors._project
        monkeypatch.setattr(selectors, "_project", lambda *a: calls.append(1) or project(*a))
        cfg, n, recomputed = KernelConfig(), 40, 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(300, 16)) * 1e8
            q = rng.normal(size=16)
            calls.clear()
            r = TestSelectionResultInvariants._run(method, EmbeddingSet(data=X), q, n, cfg)
            start = np.einsum("ij,ij->i", X, X)[list(r.order)]
            low = int(np.sum(np.array(r.pivot_trace) - cfg.lambda_prime
                             < selectors._PICK_FLOOR * start))
            assert low == n - len(calls), seed
            self._check_against_direct(r, X, q, cfg)
            self._check_gain(r, X, cfg, 1e-9)
            recomputed += low
        assert recomputed >= 100

    def test_the_starting_diagonal_is_kept_per_set(self):
        """The state the kernel starts from is computed once per set: the
        distinct rows, their squared norms (a fresh einsum's bytes) and
        their indices. With no two rows equal the rows are data itself and
        the indices None; with copies, the rows are the first of each group.
        None of it is writable, and none of it travels with a pickled set."""
        rng = np.random.default_rng(61)
        space = normalize_rows(EmbeddingSet(data=rng.normal(size=(300, 12)) * 3))
        copies = EmbeddingSet(data=space.data[[0, 1, 0, 2, 1]], normalized=True)
        q, cfg = unit_vector(rng, 12), KernelConfig()
        for space, first in ((space, None), (copies, [0, 1, 3])):
            assert space._sq is None
            sift = sift_select(space, q, 30, cfg)
            kept = space._sq
            X, sq, keep = kept
            if first is None:
                assert X is space.data and keep is None
            else:
                assert keep.tolist() == first
                assert X.tobytes() == space.data[first].tobytes() and not X.flags.writeable
            assert sq.tobytes() == np.einsum("ij,ij->i", X, X).tobytes()
            assert not sq.flags.writeable
            us = uncertainty_sampling_select(space, q, 30, cfg)
            assert space._sq is kept
            back = pickle.loads(pickle.dumps(space))
            assert back._sq is None
            assert sift_select(back, q, 30, cfg) == sift
            assert uncertainty_sampling_select(back, q, 30, cfg) == us

    @pytest.mark.parametrize("kind", ["distinct", "copies", "signed zeros"])
    def test_a_distinct_pool_arrives_with_its_start_state(self, kind):
        """A pool whose kept scores strictly fall arrives with its whole
        start state in _sq: its data, the bytes of the einsum on its data,
        read-only, and None for _first_rows, which the selectors then skip.
        A pool with copies, or with rows that differ only by ±0.0, has tied
        scores and arrives without one. Either way sift and us on the pool
        equal them on a fresh EmbeddingSet of its data, and so does the state
        they leave in _sq; a pickled pool carries no _sq."""
        rng = np.random.default_rng(64)
        X = rng.normal(size=(200, 16))
        X[:, 0] = 0.0
        if kind != "distinct":  # 120 of 100 twin pairs keep at least 20 pairs
            X[100:] = X[:100]
            X[100:, 0] = -0.0 if kind == "signed zeros" else 0.0
        space = normalize_rows(EmbeddingSet._certified(X.astype(np.float32)))
        q, cfg = unit_vector(rng, 16), KernelConfig()
        pool = preselect_candidates(space, q, 120)
        if kind == "distinct":
            assert pool._sq[0] is pool.data and pool._sq[2] is None
            assert pool._sq[1].tobytes() == np.einsum("ij,ij->i", pool.data, pool.data).tobytes()
            assert not pool._sq[1].flags.writeable
            assert selectors._first_rows(pool.data) is None
        else:
            assert pool._sq is None and selectors._first_rows(pool.data).size < 120
        fresh = EmbeddingSet(data=pool.data)
        assert sift_select(pool, q, 40, cfg) == sift_select(fresh, q, 40, cfg)
        assert uncertainty_sampling_select(pool, q, 40, cfg) == \
            uncertainty_sampling_select(fresh, q, 40, cfg)
        for a, b in zip(pool._sq, fresh._sq):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert pickle.loads(pickle.dumps(pool))._sq is None

    def test_an_identity_factor_keeps_no_columns(self, monkeypatch):
        """With fewer rows than dimensions a pick's column is w itself, so
        kept columns would only add work and rounding: on a 300×512
        near-duplicate pool, past the default _RING_MIN_WORK, where picks
        repeat within the window, the output is the same bytes with the
        ring's threshold at 0 as with no ring."""
        rng = np.random.default_rng(62)
        base = unit_rows(rng, 12, 512)
        X = base[rng.integers(0, 12, size=300)] + 1e-3 * rng.normal(size=(300, 512))
        space = normalize_rows(EmbeddingSet(data=X))
        q = unit_vector(rng, 512)
        assert 300 * 300 >= selectors._RING_MIN_WORK
        for lam in (1e-4, 0.01):
            ring, gemv = with_and_without_ring(monkeypatch, space, q, 100,
                                               KernelConfig(lambda_prime=lam), ring_from=0)
            assert len(set(ring.order)) < 100
            for a, b in zip((ring.order, ring.objective_trace, ring.sigma_trace),
                            (gemv.order, gemv.objective_trace, gemv.sigma_trace)):
                assert np.array(a).tobytes() == np.array(b).tobytes()

    @pytest.mark.parametrize("lam", [1e-12, 1e-4, 0.01, 1.0])
    def test_repeat_columns_match_the_gemv(self, monkeypatch, lam):
        """On near-duplicate pools, where the same rows come back within and
        beyond the kept window of R = min(N, d) steps, and from windows
        already folded, the kernel picks what the kernel
        without that window (a GEMV on every step) picks, up to a step whose
        best scores tie within rounding. Up to there its σ² and objectives
        are within 1e-12 of the GEMV's, and over all picks its σ² are as
        close to posterior_variance as the GEMV's are."""
        cfg, n = KernelConfig(lambda_prime=lam), 40
        gaps = set()
        worst = {"ring": 0.0, "gemv": 0.0}
        for seed in range(60):
            space, q = near_duplicate_pool(seed)
            ring, gemv = with_and_without_ring(monkeypatch, space, q, n, cfg, ring_from=0)
            R = min(n, space.dim)
            t = next((i for i in range(n) if ring.order[i] != gemv.order[i]), n)
            if t < n:
                assert abs(ring.objective_trace[t] - gemv.objective_trace[t]) <= 1e-12
            np.testing.assert_allclose(ring.sigma_trace[:t + 1], gemv.sigma_trace[:t + 1],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(ring.objective_trace[:t], gemv.objective_trace[:t],
                                       rtol=0, atol=1e-12)
            for name, r in (("ring", ring), ("gemv", gemv)):
                direct = [posterior_variance(space.data[list(r.order[:i])], q, cfg)
                          for i in range(n + 1)]
                worst[name] = max(worst[name], max(abs(np.subtract(r.sigma_trace, direct))))
            last = {}
            for step, p in enumerate(ring.order):
                if p in last:
                    gaps.add(step - last[p] < R)
                last[p] = step
        assert gaps == {True, False}
        assert worst["ring"] <= worst["gemv"] * (1 + 1e-6) + 1e-15

    def test_repeat_columns_at_the_default_threshold(self, monkeypatch):
        """The clustered pool is past _RING_MIN_WORK, and its window of
        min(N, r) = 100 steps holds all of its repeat picks; picks are the
        GEMV kernel's and σ² within 1e-12 of its."""
        space, q = clustered_pool()
        ring, gemv = with_and_without_ring(monkeypatch, space, q, 100, KernelConfig(),
                                           ring_from=selectors._RING_MIN_WORK)
        assert ring.order == gemv.order
        assert 100 - len(set(ring.order)) >= 10
        np.testing.assert_allclose(ring.sigma_trace, gemv.sigma_trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ring.objective_trace, gemv.objective_trace, rtol=0, atol=1e-12)

    def test_one_column_product_per_distinct_row(self, monkeypatch):
        """With N ≤ r the window never folds, so every repeat pick builds
        its column from kept ones: on the clustered pool at N = 100, the
        kernel multiplies the rows by a vector once per distinct pick (70),
        where a ring of r/4 steps made 85 products."""
        space, q = clustered_pool()
        gemvs, dot = [], np.dot

        def counting(a, *args, **kwargs):
            gemvs.append(a.shape == (1000, 128))
            return dot(a, *args, **kwargs)

        monkeypatch.setattr(np, "dot", counting)
        r = sift_select(space, q, 100, KernelConfig())
        assert sum(gemvs) == len(set(r.order)) == 70


class TestFirstRows:
    """_first_rows compares by value every pair of rows that its
    fingerprints cannot tell apart."""

    def test_colliding_fingerprints_keep_distinct_rows_apart(self, monkeypatch):
        """With every fingerprint forced to 0, all rows are compared by
        value: distinct rows stay apart, copies fold into their first
        index, and selection is unchanged."""
        rng = np.random.default_rng(63)
        X = rng.normal(size=(40, 6))
        dup = X[[0, 1, 2, 1, 0, 3]]
        runs = []
        for collide in (False, True):
            with monkeypatch.context() as m:
                if collide:
                    m.setattr(selectors, "_rescore", lambda rows, v: np.zeros(len(rows)))
                assert selectors._first_rows(X) is None
                assert selectors._first_rows(dup).tolist() == [0, 1, 2, 5]
                for seed in range(20):
                    space, q, cfg = duplicated_pool(seed)
                    runs.append([select(space, q, 20, cfg)
                                 for select in (sift_select, uncertainty_sampling_select)])
        assert runs[:20] == runs[20:]

    def test_rows_whose_fingerprints_overflow_are_compared(self):
        """Entries near float64's maximum, signed to match the fingerprint
        vector, overflow every fingerprint; copies are still found."""
        d = 4
        v = np.cos(np.arange(1, d + 1))
        row = np.sign(v) * 1.7e308
        other = row.copy()
        other[-1] = -other[-1]
        X = np.array([row, row, other, row, other])
        assert not np.isfinite(_rescore(X, v)).any()
        assert selectors._first_rows(X).tolist() == [0, 2]
        assert selectors._first_rows(X[[0, 2]]) is None

    def test_a_signed_zero_is_one_row(self):
        """Rows that differ only in the sign of a zero are equal rows, as
        their kernel values are: the later one is never picked."""
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]])
        assert selectors._first_rows(X).tolist() == [0, 2]
        space = EmbeddingSet(data=X, normalized=True)
        for select in (sift_select, uncertainty_sampling_select):
            r = select(space, np.array([0.6, 0.8]), 6, KernelConfig())
            assert 1 not in r.order and 0 in r.order


class TestNnSelect:
    def test_worked_instance_distinct_mode(self, wspace, wquery, wcfg):
        r = nn_select(wspace, wquery, 2, wcfg)
        assert r.order == (0, 2)
        assert r.method == "nn"
        np.testing.assert_allclose(r.objective_trace, [1.0, np.sqrt(0.5)], atol=1e-12)

    def test_failure_mode_repeats_the_top_row(self, wspace, wquery, wcfg):
        r = nn_select(wspace, wquery, 3, wcfg, failure_mode=True)
        assert r.order == (0, 0, 0)
        assert r.method == "nn-f"

    def test_sigma_trace_reports_posterior_variance(self, wspace, wquery, wcfg):
        r = nn_select(wspace, wquery, 2, wcfg)
        expected = [
            posterior_variance(wspace.data[list(r.order[:i])], wquery, wcfg)
            for i in range(3)
        ]
        np.testing.assert_allclose(r.sigma_trace, expected, atol=1e-12)

    def test_distinct_mode_needs_enough_rows(self, wspace, wquery, wcfg):
        with pytest.raises(NotEnoughCandidates):
            nn_select(wspace, wquery, 4, wcfg)
        # failure mode has no such limit
        assert len(nn_select(wspace, wquery, 4, wcfg, failure_mode=True).order) == 4

    def test_cosine_order_equals_negative_distance_order_on_unit_rows(self):
        rng = np.random.default_rng(23)
        X = unit_rows(rng, 40, 7)
        q = unit_vector(rng, 7)
        by_cosine = np.argsort(-(X @ q), kind="stable")
        by_distance = np.argsort(np.linalg.norm(X - q, axis=1) ** 2, kind="stable")
        np.testing.assert_array_equal(by_cosine, by_distance)


class TestUncertaintySampling:
    def test_all_unit_variances_tie_break_to_row_zero(self, wcfg):
        space = EmbeddingSet(data=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                             normalized=True)
        r = uncertainty_sampling_select(space, np.array([1.0, 0.0]), 1, wcfg)
        assert r.order == (0,)

    def test_duplicate_rows_stay_tied_and_pick_row_zero_again(self, wcfg):
        space = EmbeddingSet(data=np.array([[1.0, 0.0], [1.0, 0.0]]), normalized=True)
        r = uncertainty_sampling_select(space, np.array([1.0, 0.0]), 2, wcfg)
        assert r.order == (0, 0)

    def test_prefers_the_orthogonal_row_after_conditioning(self, wcfg):
        """After one pick of e1 the second copy's conditional variance drops
        to λ′/(1+λ′) while an orthogonal row keeps variance 1."""
        space = EmbeddingSet(data=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             normalized=True)
        r = uncertainty_sampling_select(space, np.array([1.0, 0.0]), 2, wcfg)
        assert r.order == (0, 2)
        np.testing.assert_allclose(r.objective_trace, [1.0, 1.0], atol=1e-12)

    def test_objective_is_the_picked_conditional_variance(self, wcfg):
        rng = np.random.default_rng(3)
        space = EmbeddingSet(data=unit_rows(rng, 12, 4), normalized=True)
        q = unit_vector(rng, 4)
        r = uncertainty_sampling_select(space, q, 4, wcfg)
        # first pick: variances are the squared norms (≈1), argmax of them
        assert r.objective_trace[0] == pytest.approx(1.0, abs=1e-9)


class TestPreselect:
    def test_worked_instance_top_two(self, wspace, wquery):
        sub = preselect_candidates(wspace, wquery, 2)
        assert sub.source_rows == (0, 2)
        np.testing.assert_allclose(sub.data, wspace.data[[0, 2]])

    def test_full_size_is_identity_up_to_score_order(self, wspace, wquery):
        sub = preselect_candidates(wspace, wquery, 3)
        assert sorted(sub.source_rows) == [0, 1, 2]
        assert sub.rows == 3

    def test_ids_are_carried(self, wquery):
        space = EmbeddingSet(data=W_DATA, ids=("a", "b", "c"), normalized=True)
        sub = preselect_candidates(space, wquery, 2)
        assert sub.ids == ("a", "c")

    def test_source_rows_are_the_stable_argsort_head(self, wquery):
        """Without prior source_rows, the kept rows are the head of the full
        stable argsort of −scores, as Python ints, with ids and rows in the
        same order. Dyadic rows give exact scores, so ties cross the cuts."""
        rng = np.random.default_rng(11)
        dyadic = np.array([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.0, 1.0]])
        data = dyadic[rng.integers(0, 4, size=60)]
        ids = tuple(f"doc{i}" for i in range(60))
        space = EmbeddingSet(data=data, ids=ids)
        scores = data @ wquery
        ranked = np.argsort(-scores, kind="stable")
        assert scores[ranked[6]] == scores[ranked[7]]
        for k in (1, 7, 31, 60):
            sub = preselect_candidates(space, wquery, k)
            assert sub.source_rows == tuple(int(i) for i in ranked[:k])
            assert all(type(i) is int for i in sub.source_rows)
            assert sub.ids == tuple(ids[i] for i in ranked[:k])
            np.testing.assert_array_equal(sub.data, data[ranked[:k]])

    def test_provenance_composes_through_nested_preselection(self, wquery):
        """Both levels keep the rows a full stable sort by the one rescoring
        routine keeps, and nn_select picks them in that order, with rows
        stored in float64 or, as a file reader stores them, in float32. The
        tied spaces repeat four dyadic rows (exact scores) so the 10th and
        3rd scores fall inside groups of equal rows, where the smallest
        indices win."""
        rng = np.random.default_rng(9)
        distinct = unit_rows(rng, 50, 2)
        dyadic = np.array([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.0, 1.0]])
        tied = dyadic[rng.integers(0, 4, size=50)]
        spaces = {
            "distinct": EmbeddingSet(data=distinct, normalized=True),
            "tied": EmbeddingSet(data=tied),
            "distinct f32": EmbeddingSet._certified(distinct.astype(np.float32)),
            "tied f32": EmbeddingSet._certified(tied.astype(np.float32)),
            "tied f32 normalized": normalize_rows(EmbeddingSet._certified(tied.astype(np.float32))),
        }
        for name, space in spaces.items():
            first = preselect_candidates(space, wquery, 10)
            second = preselect_candidates(first, wquery, 3)
            nn = nn_select(space, wquery, 10, KernelConfig())
            scores = _rescore(space.data, wquery)
            ranked = np.argsort(-scores, kind="stable")
            np.testing.assert_array_equal(first.source_rows, ranked[:10])
            np.testing.assert_array_equal(second.source_rows, ranked[:3])
            assert nn.order == tuple(ranked[:10])
            assert nn.objective_trace == tuple(scores[ranked[:10]])
            if name.startswith("tied"):  # it really does tie across both cut points
                assert scores[ranked[9]] == scores[ranked[10]]
                assert scores[ranked[2]] == scores[ranked[3]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_rows_are_the_spaces_rows_past_one_rescore_block(self, monkeypatch, dtype):
        """When more rows survive the filter than one rescoring block holds,
        the top rows are rebuilt on their own; the pool and nn_select's σ
        trace still come from the rows of space.data."""
        rng = np.random.default_rng(21)
        n = selectors._RESCORE_BLOCK + 900
        data = np.repeat(unit_rows(rng, 1, 6), n, axis=0)  # every row ties, so all survive
        data[::97] = unit_rows(rng, len(data[::97]), 6)
        space = normalize_rows(EmbeddingSet._certified(data.astype(dtype)))
        q = unit_vector(rng, 6)
        kept, real = [], selectors._survivors
        monkeypatch.setattr(selectors, "_survivors",
                            lambda *a: kept.append(len(r := real(*a))) or r)
        pool = preselect_candidates(space, q, 40)
        assert kept[-1] > selectors._RESCORE_BLOCK
        assert pool.data.tobytes() == space.data[list(pool.source_rows)].tobytes()
        cfg = KernelConfig()
        nn = nn_select(space, q, 8, cfg)
        for i in range(1, 9):
            picked = space.data[list(nn.order[:i])]
            assert math.isclose(nn.sigma_trace[i], posterior_variance(picked, q, cfg),
                                rel_tol=1e-9, abs_tol=1e-12)

    def test_errors(self, wspace, wquery):
        with pytest.raises(NotEnoughCandidates):
            preselect_candidates(wspace, wquery, 4)
        with pytest.raises(InvalidParameter):
            preselect_candidates(wspace, wquery, 0)


class TestSelectionResultInvariants:
    METHODS = ("sift", "nn", "nn-f", "us")

    @staticmethod
    def _run(method, space, q, n, cfg, alpha=None):
        if method == "sift":
            return sift_select(space, q, n, cfg, alpha=alpha)
        if method == "nn":
            return nn_select(space, q, n, cfg, alpha=alpha)
        if method == "nn-f":
            return nn_select(space, q, n, cfg, failure_mode=True, alpha=alpha)
        return uncertainty_sampling_select(space, q, n, cfg, alpha=alpha)

    @pytest.mark.parametrize("method", METHODS)
    def test_traces_and_indices_are_well_formed(self, method):
        for seed in range(6):
            rng = np.random.default_rng(400 + seed)
            K = int(rng.integers(6, 30))
            d = int(rng.integers(2, 8))
            space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
            q = unit_vector(rng, d)
            n = int(rng.integers(1, min(K, 10) + 1))
            cfg = KernelConfig(lambda_prime=float(rng.choice([1e-3, 1e-2, 1.0])))
            r = self._run(method, space, q, n, cfg)
            assert len(r.order) == n
            assert len(r.sigma_trace) == n + 1
            assert len(r.objective_trace) == n
            assert all(0 <= i < K for i in r.order)
            diffs = np.diff(r.sigma_trace)
            assert np.all(diffs <= 1e-9)
            direct = [posterior_variance(space.data[list(r.order[:i])], q, cfg)
                      for i in range(n + 1)]
            np.testing.assert_allclose(r.sigma_trace, direct, atol=1e-8)

    @pytest.mark.parametrize("sigma_trace, pivot_trace", [
        ((1.0,), (2.0,)), ((1.0, 0.5), ()), ((1.0, 0.5), (2.0, 2.0))])
    def test_result_length_validation(self, sigma_trace, pivot_trace):
        with pytest.raises(ValueError):
            SelectionResult(order=(0,), objective_trace=(0.5,), sigma_trace=sigma_trace,
                            pivot_trace=pivot_trace, method="sift", lambda_prime=1.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_query_scale_invariance(self, method):
        """Scaling the query by a positive constant rescales every score by
        the same factor and must leave the selection order unchanged."""
        rng = np.random.default_rng(88)
        space = EmbeddingSet(data=unit_rows(rng, 25, 5), normalized=True)
        q = unit_vector(rng, 5)
        cfg = KernelConfig(lambda_prime=0.01)
        base = self._run(method, space, q, 6, cfg)
        scaled = self._run(method, space, 7.5 * q, 6, cfg)
        assert scaled.order == base.order


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_greedy_trace_identity(seed):
    """sigma_trace[i+1] = sigma_trace[i] − objective_trace[i] for the greedy
    variance minimizer, and the objectives are exactly the per-step marginal
    gains of the picked rows."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(4, 20))
    d = int(rng.integers(2, 7))
    space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
    q = unit_vector(rng, d)
    cfg = KernelConfig(lambda_prime=float(rng.choice([1e-2, 1.0])))
    n = int(rng.integers(1, 8))
    r = sift_select(space, q, n, cfg)
    for i in range(n):
        np.testing.assert_allclose(
            r.sigma_trace[i + 1], r.sigma_trace[i] - r.objective_trace[i],
            atol=1e-12)
        gain = marginal_gain(
            space.data[r.order[i]], space.data[list(r.order[:i])], q, cfg)
        np.testing.assert_allclose(r.objective_trace[i], gain, atol=1e-9)


def clustered_unit_pool():
    """300 unit rows of d = 32 around 6 random centres, noise of 0.35 per
    coordinate, and a unit query near the first row."""
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(6, 32))
    X = centers[rng.integers(0, 6, size=300)] + 0.35 * rng.normal(size=(300, 32))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    q = X[0] + 0.5 * rng.normal(size=32) / math.sqrt(32)
    return EmbeddingSet(data=X, normalized=True), q / np.linalg.norm(q)


@pytest.mark.parametrize("lam", [1e-4, 0.01, 1.0])
@pytest.mark.parametrize("method", TestSelectionResultInvariants.METHODS)
def test_sigma_is_the_realized_error_of_the_posterior_mean(method, lam):
    """σ² means something: in the Bayesian linear model behind it, with
    w ~ N(0, I_d) and each pick, a repeat too, a fresh observation
    y = xᵀw + ε with Var ε = λ′, σ²_N is the mean squared error of the
    posterior mean of qᵀw (Rasmussen & Williams 2006, ch. 2). Over M =
    20,000 seeded draws, the squared error of that mean, computed from the
    picked rows by a dense solve, lies within 4 standard errors σ²√(2/M)
    of σ²_N, on the whole set, a preselected pool and a 24-row pool
    (K < d). sift at λ′ ≥ 0.01 and nn-f pick rows again."""
    space, q = clustered_unit_pool()
    pools = (space, preselect_candidates(space, q, 120),
             EmbeddingSet(data=space.data[:24], normalized=True))
    cfg, M = KernelConfig(lambda_prime=lam), 20_000
    for i, pool in enumerate(pools):
        r = TestSelectionResultInvariants._run(method, pool, q, 20, cfg)
        if method == "nn-f" or (method == "sift" and lam >= 0.01):
            assert len(set(r.order)) < 20, i
        X = pool.data[list(r.order)]
        a = np.linalg.solve(X @ X.T + lam * np.eye(20), X @ q)  # mean = aᵀy
        rng = np.random.default_rng([5, i])
        w = rng.standard_normal((M, 32))
        y = w @ X.T + math.sqrt(lam) * rng.standard_normal((M, 20))
        err = w @ q - y @ a
        s2 = r.sigma_trace[-1]
        z = (float(np.mean(err * err)) - s2) / (s2 * math.sqrt(2 / M))
        assert abs(z) < 4, (i, s2, z)
