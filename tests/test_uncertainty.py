"""Uncertainty calculus: ψ/Δ, the diminishing-gains probe, η², bounds, β widths,
information gain, and adaptive stopping."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthonormal_rows, unit_rows, unit_vector
from siftsel import (
    ConfidenceParams,
    DegenerateVariance,
    EmbeddingSet,
    InvalidParameter,
    KernelConfig,
    StoppingPolicy,
    adaptive_should_stop,
    apply_adaptive_stopping,
    beta_classification,
    beta_regression,
    convergence_bound_rhs,
    data_space_lambda_min,
    irreducible_uncertainty,
    irreducible_uncertainty_oracle,
    marginal_gain,
    marginal_info_gain,
    nn_select,
    predicted_performance_gain,
    realized_info_gain,
    selected_gram_lambda_hat,
    sift_select,
    submodularity_probe,
    uncertainty_reduction,
)


class TestUncertaintyReduction:
    def test_worked_examples(self, wspace, wquery, wcfg):
        a, b = wspace.data[0], wspace.data[1]
        assert uncertainty_reduction([], wquery, wcfg) == 0.0
        np.testing.assert_allclose(
            uncertainty_reduction([a, a], wquery, wcfg), 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(
            uncertainty_reduction([a, b], wquery, wcfg), 0.5, atol=1e-12)

    def test_equals_sum_of_greedy_gains(self):
        rng = np.random.default_rng(31)
        space = EmbeddingSet(data=unit_rows(rng, 20, 5), normalized=True)
        q = unit_vector(rng, 5)
        cfg = KernelConfig(lambda_prime=0.01)
        r = sift_select(space, q, 8, cfg)
        psi = uncertainty_reduction(space.data[list(r.order)], q, cfg)
        np.testing.assert_allclose(psi, sum(r.objective_trace), atol=1e-8)
        np.testing.assert_allclose(
            psi, r.sigma_trace[0] - r.sigma_trace[-1], atol=1e-8)


class TestMarginalGain:
    def test_worked_examples(self, wspace, wquery, wcfg):
        a, b = wspace.data[0], wspace.data[1]
        np.testing.assert_allclose(
            marginal_gain(a, [], wquery, wcfg), 0.5, atol=1e-12)
        np.testing.assert_allclose(
            marginal_gain(a, [a], wquery, wcfg), 1.0 / 6.0, atol=1e-12)
        np.testing.assert_allclose(
            marginal_gain(b, [a], wquery, wcfg), 0.0, atol=1e-12)

    def test_agrees_with_selector_objective(self):
        rng = np.random.default_rng(45)
        space = EmbeddingSet(data=unit_rows(rng, 15, 4), normalized=True)
        q = unit_vector(rng, 4)
        cfg = KernelConfig(lambda_prime=0.1)
        r = sift_select(space, q, 6, cfg)
        for i, row in enumerate(r.order):
            gain = marginal_gain(
                space.data[row], space.data[list(r.order[:i])], q, cfg)
            np.testing.assert_allclose(r.objective_trace[i], gain, atol=1e-9)


class TestSubmodularityProbe:
    def test_orthonormal_rows_pass(self):
        """Orthogonal candidates never interact, so gains provably diminish."""
        rng = np.random.default_rng(5)
        space = EmbeddingSet(data=orthonormal_rows(rng, 8))
        q = unit_vector(rng, 8)
        report = submodularity_probe(space, q, KernelConfig(lambda_prime=0.5),
                                     trials=300, seed=1)
        assert report.passed
        assert report.violations == 0
        assert report.worst_slack >= -1e-9
        assert report.trials == 300

    def test_suppressor_instance_fails(self, wspace, wquery, wcfg):
        """On the worked instance the diagonal row c *suppresses* b: alone, b
        is orthogonal to q and worthless, but after c it picks up a query
        correlation. Gains grow instead of diminishing, and the probe says so."""
        report = submodularity_probe(wspace, wquery, wcfg, trials=200, seed=0)
        assert not report.passed
        assert report.violations > 0
        assert report.worst_slack <= -1e-3

    def test_suppressor_witness_value(self, wspace, wquery, wcfg):
        """The specific violation: Δ(b|{c}) − Δ(b|∅) = 1/28 > 0."""
        b, c = wspace.data[1], wspace.data[2]
        gain_alone = marginal_gain(b, [], wquery, wcfg)
        gain_after_c = marginal_gain(b, [c], wquery, wcfg)
        np.testing.assert_allclose(gain_alone, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            gain_after_c - gain_alone, 1.0 / 28.0, atol=1e-12)

    def test_deterministic_for_fixed_seed(self, wspace, wquery, wcfg):
        r1 = submodularity_probe(wspace, wquery, wcfg, trials=50, seed=7)
        r2 = submodularity_probe(wspace, wquery, wcfg, trials=50, seed=7)
        assert r1 == r2

    def test_rejects_bad_trials(self, wspace, wquery, wcfg):
        with pytest.raises(InvalidParameter):
            submodularity_probe(wspace, wquery, wcfg, trials=0)


class TestIrreducibleUncertainty:
    def test_query_in_span_has_zero_floor(self, wspace, wquery):
        assert irreducible_uncertainty(wspace, wquery) <= 1e-12

    def test_off_span_component_is_the_floor(self):
        space = EmbeddingSet(data=np.array([[1.0, 0.0]]), normalized=True)
        q = np.array([2.0, 1.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(
            irreducible_uncertainty(space, q), 0.2, atol=1e-12)

    def test_selection_variance_never_beats_the_floor(self):
        rng = np.random.default_rng(50)
        space = EmbeddingSet(data=unit_rows(rng, 6, 8), normalized=True)
        q = unit_vector(rng, 8)
        eta_sq = irreducible_uncertainty(space, q)
        assert eta_sq > 0.0  # 6 rows cannot span R^8 for generic draws
        r = sift_select(space, q, 30, KernelConfig(lambda_prime=1e-6))
        assert r.sigma_trace[-1] >= eta_sq - 1e-9

    def test_empty_space_rejected(self):
        with pytest.raises(InvalidParameter):
            irreducible_uncertainty(EmbeddingSet(data=np.empty((0, 2))), [1.0, 0.0])

    def test_full_rank_rows_certify_a_zero_floor(self):
        rng = np.random.default_rng(51)
        space = EmbeddingSet(data=unit_rows(rng, 50, 8), normalized=True)
        assert irreducible_uncertainty(space, unit_vector(rng, 8)) == 0.0

    def test_rows_in_a_subspace_take_the_svd_path(self):
        """K=50 ≥ d=8 rows confined to a 3-dim subspace fail the Gram
        certificate; the SVD finds the floor ‖q‖² − ‖Bq‖² for the
        subspace's orthonormal basis B."""
        rng = np.random.default_rng(52)
        basis = np.linalg.qr(rng.normal(size=(8, 3)))[0].T
        space = EmbeddingSet(data=rng.normal(size=(50, 3)) @ basis)
        q = unit_vector(rng, 8)
        expected = 1.0 - float(np.sum((basis @ q) ** 2))
        assert expected > 0.1
        np.testing.assert_allclose(
            irreducible_uncertainty(space, q), expected, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("rows", ["full rank", "rank 3 of K >= d", "K < d", "zeros"])
    def test_the_kept_row_space_answers_like_a_fresh_set(self, rows):
        """The row space is worked out on a set's first query and kept.
        Every later query gets the bytes a fresh set gives it, within
        1e-12 of the SVD-only oracle."""
        rng = np.random.default_rng(53)
        X = {
            "full rank": rng.normal(size=(40, 8)),
            "rank 3 of K >= d": rng.normal(size=(40, 3)) @ rng.normal(size=(3, 8)),
            "K < d": rng.normal(size=(5, 8)),
            "zeros": np.zeros((10, 8)),
        }[rows]
        space = EmbeddingSet(data=X)
        assert space._span is None
        for _ in range(6):
            q = rng.normal(size=8)
            eta = irreducible_uncertainty(space, q)
            assert space._span is not None
            assert eta.hex() == irreducible_uncertainty(EmbeddingSet(data=X), q).hex()
            assert eta == pytest.approx(irreducible_uncertainty_oracle(space, q),
                                        rel=0, abs=1e-12)

    def test_a_pickled_set_leaves_the_row_space_behind(self):
        rng = np.random.default_rng(54)
        space = EmbeddingSet(data=rng.normal(size=(3, 5)))
        q = rng.normal(size=5)
        eta = irreducible_uncertainty(space, q)
        back = pickle.loads(pickle.dumps(space))
        assert space._span is not None and back._span is None
        assert irreducible_uncertainty(back, q) == eta


class TestDataSpaceLambdaMin:
    def test_orthonormal_basis_gives_one(self):
        rng = np.random.default_rng(8)
        space = EmbeddingSet(data=orthonormal_rows(rng, 5))
        np.testing.assert_allclose(data_space_lambda_min(space), 1.0, atol=1e-12)

    def test_duplicates_are_dropped_from_the_basis(self):
        space = EmbeddingSet(
            data=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(data_space_lambda_min(space), 1.0, atol=1e-12)

    def test_scaled_axes(self):
        space = EmbeddingSet(data=np.array([[3.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(data_space_lambda_min(space), 4.0, atol=1e-12)

    def test_positive_on_rank_deficient_data(self):
        rng = np.random.default_rng(11)
        basis = unit_rows(rng, 3, 10)
        coeffs = rng.standard_normal((40, 3))
        space = EmbeddingSet(data=coeffs @ basis)
        assert data_space_lambda_min(space) > 0.0


class TestSelectedGramLambdaHat:
    def test_empty_selection_is_zero(self):
        assert selected_gram_lambda_hat([]) == 0.0

    def test_two_copies_of_a_unit_row(self):
        e1 = np.array([1.0, 0.0])
        np.testing.assert_allclose(
            selected_gram_lambda_hat([e1, e1]), 2.0, atol=1e-12)

    def test_accepts_embedding_set(self, wspace):
        direct = selected_gram_lambda_hat(list(wspace.data))
        wrapped = selected_gram_lambda_hat(wspace)
        np.testing.assert_allclose(wrapped, direct, atol=1e-12)


class TestConvergenceBound:
    def test_worked_value(self):
        # d(1 + 2dλ′/λ_min)·log(1+λ̂/λ′)/√n with everything small integers:
        # 2·(1+4)·ln(5)/2 = 5·ln 5
        np.testing.assert_allclose(
            convergence_bound_rhs(4, 2, 1.0, 1.0, 4.0), 5.0 * math.log(5.0),
            atol=1e-12)

    def test_zero_selected_energy_gives_zero(self):
        assert convergence_bound_rhs(3, 4, 0.5, 1.0, 0.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            convergence_bound_rhs(0, 2, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameter):
            convergence_bound_rhs(1, 2, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameter):
            convergence_bound_rhs(1, 2, 1.0, 1.0, -0.5)

    def test_bounds_actual_gap_on_random_instances(self):
        """σ_n² − η² stays below the evaluated right-hand side at every step."""
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            K = int(rng.integers(8, 40))
            d = int(rng.integers(2, 10))
            space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
            q = unit_vector(rng, d)
            lam = float(rng.choice([1e-2, 1e-1, 1.0]))
            cfg = KernelConfig(lambda_prime=lam)
            n = int(rng.integers(1, min(K, 12) + 1))
            r = sift_select(space, q, n, cfg)
            eta_sq = irreducible_uncertainty(space, q)
            lam_min = data_space_lambda_min(space)
            for step in range(1, n + 1):
                lam_hat = selected_gram_lambda_hat(
                    space.data[list(r.order[:step])])
                rhs = convergence_bound_rhs(step, d, lam, lam_min, lam_hat)
                assert r.sigma_trace[step] - eta_sq <= rhs + 1e-9


class TestBetaClassification:
    def test_matches_independent_recomputation(self):
        p = ConfidenceParams(vocab_size=2, norm_bound=1.0, lipschitz=0.25,
                             dim=2, reg_lambda=1.0)
        n, delta = 1, 0.1
        V, B, L, d, lam = 2, 1.0, 0.25, 2, 1.0
        expected = 2.0 * math.sqrt(V * (1.0 + 2.0 * B)) * (
            B + (L * V**1.5 * d / lam)
            * math.log((2.0 / delta) * math.sqrt(1.0 + n / (d * lam))))
        np.testing.assert_allclose(
            beta_classification(n, delta, p), expected, atol=1e-12)

    def test_monotone_in_n_and_delta(self):
        p = ConfidenceParams(vocab_size=4, norm_bound=2.0, lipschitz=1.0,
                             dim=3, reg_lambda=0.5)
        widths = [beta_classification(n, 0.05, p) for n in (1, 10, 100, 1000)]
        assert widths == sorted(widths)
        assert beta_classification(10, 0.01, p) > beta_classification(10, 0.2, p)

    def test_delta_validation(self):
        p = ConfidenceParams(vocab_size=2, norm_bound=1.0, lipschitz=1.0,
                             dim=2, reg_lambda=1.0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidParameter):
                beta_classification(5, bad, p)

    def test_params_validation(self):
        with pytest.raises(InvalidParameter):
            ConfidenceParams(vocab_size=1, norm_bound=1.0, lipschitz=1.0,
                             dim=2, reg_lambda=1.0)
        with pytest.raises(InvalidParameter):
            ConfidenceParams(vocab_size=2, norm_bound=0.0, lipschitz=1.0,
                             dim=2, reg_lambda=1.0)


class TestBetaRegression:
    def test_worked_value(self):
        # B + ρ√(2(γ+1+log(1/δ))) at B=ρ=γ=1, δ=e⁻¹: 1 + √6
        np.testing.assert_allclose(
            beta_regression(5, math.exp(-1.0), 1.0, 1.0, 1.0),
            1.0 + math.sqrt(6.0), atol=1e-12)

    def test_realized_gain_feeds_the_width(self, wspace, wcfg):
        a = wspace.data[0]
        gamma = realized_info_gain([a], wcfg.lambda_prime)
        np.testing.assert_allclose(gamma, 0.5 * math.log(2.0), atol=1e-12)
        width = beta_regression(1, 0.05, 1.0, 1.0, gamma)
        assert width > 1.0

    def test_monotone_in_gamma(self):
        assert beta_regression(3, 0.1, 1.0, 1.0, 2.0) > beta_regression(
            3, 0.1, 1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            beta_regression(1, 0.5, 1.0, 1.0, -0.1)
        with pytest.raises(InvalidParameter):
            beta_regression(1, 0.5, 1.0, 0.0, 1.0)


class TestRealizedInfoGain:
    def test_empty_selection(self):
        assert realized_info_gain([], 1.0) == 0.0

    def test_accepts_embedding_set(self, wspace):
        direct = realized_info_gain(list(wspace.data), 0.5)
        wrapped = realized_info_gain(wspace, 0.5)
        np.testing.assert_allclose(wrapped, direct, atol=1e-12)

    def test_monotone_in_selection_size(self):
        rng = np.random.default_rng(14)
        rows = unit_rows(rng, 6, 4)
        gains = [realized_info_gain(rows[:m], 0.1) for m in range(7)]
        assert all(b >= a for a, b in zip(gains, gains[1:]))


class TestMarginalInfoGain:
    def test_first_pick_on_worked_instance(self, wspace, wquery, wcfg):
        ig = marginal_info_gain(wspace.data[0], [], wquery, wcfg)
        np.testing.assert_allclose(ig.gain, 0.5 * math.log(2.0), atol=1e-12)
        np.testing.assert_allclose(ig.relevance, ig.gain, atol=1e-12)
        np.testing.assert_allclose(ig.redundancy, 0.0, atol=1e-12)

    def test_redundant_candidate_has_zero_gain(self, wspace, wquery, wcfg):
        """b is orthogonal to q, so after {a} it contributes nothing: its
        standalone relevance is entirely redundancy."""
        a, b = wspace.data[0], wspace.data[1]
        ig = marginal_info_gain(b, [a], wquery, wcfg)
        np.testing.assert_allclose(ig.gain, 0.0, atol=1e-12)
        np.testing.assert_allclose(ig.redundancy, ig.relevance, atol=1e-12)

    def test_argmax_matches_variance_gain_argmax(self):
        """Maximizing information gain and maximizing the variance decrement
        select the same candidate at every step."""
        for seed in range(8):
            rng = np.random.default_rng(700 + seed)
            X = unit_rows(rng, 15, 4)
            q = unit_vector(rng, 4)
            cfg = KernelConfig(lambda_prime=0.05)
            space = EmbeddingSet(data=X, normalized=True)
            r = sift_select(space, q, 4, cfg)
            for i in range(4):
                prefix = X[list(r.order[:i])]
                gains = [marginal_gain(X[j], prefix, q, cfg) for j in range(15)]
                igains = [marginal_info_gain(X[j], prefix, q, cfg).gain
                          for j in range(15)]
                assert int(np.argmax(gains)) == int(np.argmax(igains))

    def test_degenerate_variance_raises(self, wquery):
        """With a vanishing regularizer one observation of q itself drives the
        conditional variance to exactly zero; the log-gain is undefined."""
        cfg = KernelConfig(lambda_prime=1e-18)
        with pytest.raises(DegenerateVariance):
            marginal_info_gain(np.array([0.0, 1.0]), [wquery], wquery, cfg)


class TestAdaptiveStopping:
    def test_worked_examples(self):
        policy = StoppingPolicy(alpha=0.1, n_max=100)
        assert not adaptive_should_stop(1.0, 5, policy)       # 1.0 ≤ 1/(0.1·5)
        assert adaptive_should_stop(0.5, 40, policy)          # 0.5 > 1/(0.1·40)
        assert not adaptive_should_stop(1.0, 10, policy)      # exactly 1/(αn): strict
        assert adaptive_should_stop(0.0, 100, policy)         # n_max clause

    def test_policy_validation(self):
        with pytest.raises(InvalidParameter):
            StoppingPolicy(alpha=0.0, n_max=10)
        with pytest.raises(InvalidParameter):
            StoppingPolicy(alpha=1.0, n_max=0)
        with pytest.raises(InvalidParameter):
            adaptive_should_stop(0.5, 0, StoppingPolicy(alpha=1.0, n_max=10))

    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.floats(0.01, 10.0),
        sigmas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    def test_never_stops_before_one_over_alpha(self, alpha, sigmas):
        """For normalized queries σ_n ≤ 1, so 1/(αn) > 1 shields every
        n < 1/α: the rule cannot fire before 1/α picks (n_max aside)."""
        policy = StoppingPolicy(alpha=alpha, n_max=10_000)
        for n, s in enumerate(sigmas, start=1):
            if adaptive_should_stop(s, n, policy):
                assert n >= 1.0 / alpha - 1e-9
                break

    def test_truncation_keeps_the_stopping_pick(self):
        """On a data space that cannot explain the query, σ plateaus near
        0.45 and an α=2 policy stops at n=2 — keeping the second pick."""
        rows = np.repeat(np.eye(2), 4, axis=0)
        space = EmbeddingSet(data=rows, normalized=True)
        q = np.array([2.0, 1.0]) / np.sqrt(5.0)
        cfg = KernelConfig(lambda_prime=0.01)
        full = nn_select(space, q, 4, cfg)
        truncated = apply_adaptive_stopping(full, StoppingPolicy(alpha=2.0, n_max=50))
        assert truncated.order == full.order[:2]
        assert len(truncated.sigma_trace) == 3
        assert len(truncated.objective_trace) == 2
        assert truncated.method == full.method

    def test_no_stop_returns_result_unchanged(self, wspace, wquery, wcfg):
        r = sift_select(wspace, wquery, 2, wcfg)
        kept = apply_adaptive_stopping(r, StoppingPolicy(alpha=0.01, n_max=50))
        assert kept == r

    def test_n_max_truncates(self, wspace, wquery, wcfg):
        r = sift_select(wspace, wquery, 2, wcfg)
        cut = apply_adaptive_stopping(r, StoppingPolicy(alpha=0.01, n_max=1))
        assert cut.order == r.order[:1]


class TestPredictedPerformanceGain:
    def test_unit_sigma(self):
        assert predicted_performance_gain(1.0) == (1.0, None)

    def test_half_sigma_doubles(self):
        gain, denorm = predicted_performance_gain(0.5)
        assert gain == 2.0 and denorm is None

    def test_denormalized_estimate(self):
        gain, denorm = predicted_performance_gain(0.5, baseline_metric=1.2)
        np.testing.assert_allclose(denorm, 0.6, atol=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidParameter):
            predicted_performance_gain(0.0)
