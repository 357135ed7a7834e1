"""Kernel algebra: posterior variance, normalization, TV distance, and the
input boundary."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import W_DATA, unit_rows, unit_vector
from siftsel import (
    DimensionMismatch,
    EmbeddingSet,
    InputError,
    KernelConfig,
    NotAProbabilityVector,
    NumericalFailure,
    StoppingPolicy,
    ZeroNormRow,
    as_query,
    normalize_rows,
    posterior_variance,
    posterior_variance_feature_space,
    spd_solve,
    tv_distance,
)


class TestEmbeddingSet:
    def test_data_is_immutable_float64(self, wspace):
        assert wspace.data.dtype == np.float64
        assert not wspace.data.flags.writeable
        with pytest.raises(ValueError):
            wspace.data[0, 0] = 2.0

    def test_ids_length_must_match(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingSet(data=np.eye(3), ids=("a", "b"))

    def test_id_of_defaults_to_decimal_index(self, wspace):
        assert wspace.id_of(2) == "2"
        tagged = EmbeddingSet(data=np.eye(2), ids=("x", "y"))
        assert tagged.id_of(1) == "y"

    def test_normalized_flag_is_validated(self):
        with pytest.raises(ValueError):
            EmbeddingSet(data=np.array([[3.0, 4.0]]), normalized=True)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmbeddingSet(data=np.array([[1.0, np.nan]]))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingSet(data=np.ones(4))


class TestInputBoundary:
    def test_caller_array_stays_writeable(self):
        a = np.eye(2)
        e = EmbeddingSet(data=a)
        assert a.flags.writeable
        assert not e.data.flags.writeable

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_rejects_zero_columns(self, shape):
        with pytest.raises(DimensionMismatch):
            EmbeddingSet(data=np.empty(shape))

    @pytest.mark.parametrize("build", [
        lambda: KernelConfig(lambda_prime=np.nan),
        lambda: StoppingPolicy(alpha=np.nan, n_max=5),
        lambda: as_query([1.0, np.nan]),
        lambda: EmbeddingSet(data=np.array([[1.0, 2.0], [3.0, np.nan]])),
    ], ids=["KernelConfig", "StoppingPolicy", "as_query", "EmbeddingSet"])
    def test_nan_is_an_input_error_and_a_value_error(self, build):
        with pytest.raises(InputError) as exc:
            build()
        assert isinstance(exc.value, ValueError)


class TestNormalizeRows:
    def test_three_four_five(self):
        """Row (3,4) normalizes to (0.6, 0.8)."""
        e = normalize_rows(EmbeddingSet(data=np.array([[3.0, 4.0], [1.0, 0.0]])))
        np.testing.assert_allclose(e.data, [[0.6, 0.8], [1.0, 0.0]], atol=1e-15)
        assert e.normalized

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        e = EmbeddingSet(data=rng.normal(size=(20, 5)))
        once = normalize_rows(e)
        twice = normalize_rows(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)

    def test_zero_row_is_an_error_with_row_index(self):
        with pytest.raises(ZeroNormRow) as exc:
            normalize_rows(EmbeddingSet(data=np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert exc.value.row == 1

    def test_ids_preserved(self):
        e = EmbeddingSet(data=np.array([[3.0, 4.0]]), ids=("doc",))
        assert normalize_rows(e).ids == ("doc",)


class TestPosteriorVariance:
    """σ²_X(q) = k(q,q) − k_X(q)ᵀ(K_X+λ′I)⁻¹k_X(q) on the worked instance."""

    def test_empty_selection_is_query_norm(self, wquery, wcfg):
        assert posterior_variance(np.empty((0, 2)), wquery, wcfg) == 1.0

    def test_single_aligned_row(self, wquery, wcfg):
        # 1 − 1/(1+1)
        v = posterior_variance([W_DATA[0]], wquery, wcfg)
        np.testing.assert_allclose(v, 0.5, atol=1e-12)

    def test_duplicated_row(self, wquery, wcfg):
        # explicit 2x2 inverse of ones(2)+I gives 1 − 2/3
        v = posterior_variance([W_DATA[0], W_DATA[0]], wquery, wcfg)
        np.testing.assert_allclose(v, 1.0 / 3.0, atol=1e-12)

    def test_orthogonal_row_contributes_nothing(self, wquery, wcfg):
        v = posterior_variance([W_DATA[0], W_DATA[1]], wquery, wcfg)
        np.testing.assert_allclose(v, 0.5, atol=1e-12)

    def test_dimension_mismatch(self, wcfg):
        with pytest.raises(DimensionMismatch):
            posterior_variance([W_DATA[0]], np.ones(3), wcfg)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_monotone_in_the_selection(self, seed):
        """Conditioning on more rows never increases the variance."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 12))
        X = unit_rows(rng, m, d)
        q = unit_vector(rng, d)
        cfg = KernelConfig(lambda_prime=float(rng.choice([1e-4, 1e-2, 1.0])))
        prev = posterior_variance(np.empty((0, d)), q, cfg)
        for i in range(1, m + 1):
            cur = posterior_variance(X[:i], q, cfg)
            assert cur <= prev + 1e-9
            prev = cur


class TestFeatureSpaceIdentity:
    """λ′·qᵀ(Σ_X+λ′I_d)⁻¹q equals the kernel-space posterior variance."""

    def test_worked_single_row(self, wquery, wcfg):
        # (Σ+I) = diag(2,1); 1·qᵀdiag(1/2,1)q = 0.5
        v = posterior_variance_feature_space([W_DATA[0]], wquery, wcfg)
        np.testing.assert_allclose(v, 0.5, atol=1e-12)

    def test_empty_selection(self, wquery, wcfg):
        v = posterior_variance_feature_space(np.empty((0, 2)), wquery, wcfg)
        np.testing.assert_allclose(v, 1.0, atol=1e-15)

    def test_matches_kernel_space_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(0, 16))
            X = unit_rows(rng, m, d) if m else np.empty((0, d))
            q = unit_vector(rng, d)
            cfg = KernelConfig(lambda_prime=float(rng.choice([1e-4, 1e-2, 1.0])))
            np.testing.assert_allclose(
                posterior_variance_feature_space(X, q, cfg),
                posterior_variance(X, q, cfg),
                atol=1e-8,
            )


class TestSpdSolve:
    def test_plain_solve_is_exact_on_identity(self):
        rhs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(spd_solve(np.eye(3), rhs), rhs, atol=1e-15)

    def test_jitter_escalation_rescues_singular_gram(self):
        # rank-one Gram of duplicated rows; plain Cholesky fails
        mat = np.ones((3, 3))
        rhs = np.ones(3)
        x = spd_solve(mat, rhs, jitter=1e-10)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose((mat + 1e-10 * np.eye(3)) @ x, rhs, atol=1e-5)

    def test_indefinite_matrix_fails_after_escalation(self):
        with pytest.raises(NumericalFailure):
            spd_solve(-np.eye(2), np.ones(2))


class TestAsQuery:
    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            as_query([1.0, 2.0, 3.0], dim=2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_query([np.inf, 0.0])

    def test_returns_float64_vector(self):
        v = as_query([1, 2])
        assert v.dtype == np.float64 and v.shape == (2,)


class TestTvDistance:
    def test_disjoint_support(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_half_sum_of_absolute_differences(self):
        np.testing.assert_allclose(
            tv_distance([0.5, 0.5], [0.75, 0.25]), 0.25, atol=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance([1.0], [0.5, 0.5])

    def test_not_a_probability_vector(self):
        with pytest.raises(NotAProbabilityVector):
            tv_distance([0.5, 0.2], [0.5, 0.5])
        with pytest.raises(NotAProbabilityVector):
            tv_distance([-0.5, 1.5], [0.5, 0.5])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), V=st.integers(2, 64))
    def test_root_v_over_two_bound(self, seed, V):
        """tv(s,t) ≤ (√V/2)·‖s−t‖₂ for probability vectors of length V."""
        rng = np.random.default_rng(seed)
        s = rng.gamma(1.0, size=V)
        t = rng.gamma(1.0, size=V)
        s /= s.sum()
        t /= t.sum()
        tv = tv_distance(s, t)
        assert 0.0 <= tv <= 1.0
        assert tv <= math.sqrt(V) / 2.0 * np.linalg.norm(s - t) + 1e-12
