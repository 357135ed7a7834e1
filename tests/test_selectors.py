"""Selection strategies: exact greedy, its sift-fast alias, NN baselines,
uncertainty sampling, preselection."""

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
    marginal_gain,
    nn_select,
    posterior_variance,
    preselect_candidates,
    sift_fast_select,
    sift_select,
    submodularity_probe,
    uncertainty_sampling_select,
)


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


class TestSiftFastSelect:
    def test_matches_exact_on_worked_instance(self, wspace, wquery, wcfg):
        exact = sift_select(wspace, wquery, 2, wcfg)
        fast = sift_fast_select(wspace, wquery, 2, wcfg)
        assert fast.order == exact.order
        np.testing.assert_allclose(fast.sigma_trace, exact.sigma_trace, atol=1e-8)
        assert fast.method == "sift-fast"

    def test_single_candidate_is_repeated(self, wcfg):
        space = EmbeddingSet(data=np.array([[1.0, 0.0]]), normalized=True)
        q = np.array([1.0, 0.0])
        r = sift_fast_select(space, q, 3, wcfg)
        assert r.order == (0, 0, 0)
        direct = [1.0] + [
            posterior_variance(space.data[[0] * m], q, wcfg) for m in (1, 2, 3)
        ]
        np.testing.assert_allclose(r.sigma_trace, direct, atol=1e-8)

    def test_matches_exact_wherever_the_probe_passes_at_scale(self):
        """K=1000, d=32 unit rows: on every seed whose submodularity probe
        passes, the sift-fast selection is identical to the exact one."""
        passed_any = False
        for lam in (0.01, 10.0):
            cfg = KernelConfig(lambda_prime=lam)
            for seed in range(4):
                rng = np.random.default_rng(5000 + seed)
                X = unit_rows(rng, 1000, 32, nonneg=True)
                q = unit_vector(rng, 32, nonneg=True)
                space = EmbeddingSet(data=X, normalized=True)
                probe = submodularity_probe(space, q, cfg, trials=256, seed=seed)
                if not probe.passed:
                    continue
                passed_any = True
                exact = sift_select(space, q, 20, cfg)
                fast = sift_fast_select(space, q, 20, cfg)
                assert fast.order == exact.order
                np.testing.assert_allclose(
                    fast.sigma_trace, exact.sigma_trace, atol=1e-8)
        assert passed_any, "suite never exercised the fidelity claim"

    def test_duplicate_rows_may_swap_equivalent_picks_but_traces_agree(self):
        """Exact duplicates tie mathematically; a tie may resolve to a
        different copy of the same vector, but the variance trace must still
        match the exact selector."""
        rows = np.repeat(np.eye(2), 4, axis=0)
        space = EmbeddingSet(data=rows, normalized=True)
        q = np.array([2.0, 1.0]) / np.sqrt(5.0)
        cfg = KernelConfig(lambda_prime=0.1)
        exact = sift_select(space, q, 5, cfg)
        fast = sift_fast_select(space, q, 5, cfg)
        np.testing.assert_allclose(fast.sigma_trace, exact.sigma_trace, atol=1e-8)


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

    def test_provenance_composes_through_nested_preselection(self, wquery):
        """Both levels keep the rows a full stable sort keeps. The tied space
        repeats four dyadic rows (exact scores) so the 10th and 3rd scores
        fall inside groups of equal rows, where the smallest indices win."""
        rng = np.random.default_rng(9)
        distinct = EmbeddingSet(data=unit_rows(rng, 50, 2), normalized=True)
        dyadic = np.array([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.0, 1.0]])
        tied = EmbeddingSet(data=dyadic[rng.integers(0, 4, size=50)])
        for space in (distinct, tied):
            first = preselect_candidates(space, wquery, 10)
            second = preselect_candidates(first, wquery, 3)
            scores = space.data @ wquery
            ranked = np.argsort(-scores, kind="stable")
            np.testing.assert_array_equal(first.source_rows, ranked[:10])
            np.testing.assert_array_equal(second.source_rows, ranked[:3])
            assert nn_select(space, wquery, 10, KernelConfig()).order == tuple(ranked[:10])
        # the tied space really does tie across both cut points
        assert scores[ranked[9]] == scores[ranked[10]]
        assert scores[ranked[2]] == scores[ranked[3]]

    def test_errors(self, wspace, wquery):
        with pytest.raises(NotEnoughCandidates):
            preselect_candidates(wspace, wquery, 4)
        with pytest.raises(InvalidParameter):
            preselect_candidates(wspace, wquery, 0)


class TestSelectionResultInvariants:
    METHODS = ("sift", "sift-fast", "nn", "nn-f", "us")

    @staticmethod
    def _run(method, space, q, n, cfg):
        if method == "sift":
            return sift_select(space, q, n, cfg)
        if method == "sift-fast":
            return sift_fast_select(space, q, n, cfg)
        if method == "nn":
            return nn_select(space, q, n, cfg)
        if method == "nn-f":
            return nn_select(space, q, n, cfg, failure_mode=True)
        return uncertainty_sampling_select(space, q, n, cfg)

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

    def test_result_length_validation(self):
        with pytest.raises(ValueError):
            SelectionResult(order=(0,), objective_trace=(0.5,),
                            sigma_trace=(1.0,), method="sift", lambda_prime=1.0)

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
