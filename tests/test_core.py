"""Kernel algebra: posterior variance, normalization, TV distance, and the
input boundary."""

import math
import pickle
import warnings

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
    realized_info_gain,
    tv_distance,
)
from siftsel.core import _block_rows
from siftsel.selectors import _clamp_variance


class TestEmbeddingSet:
    def test_data_is_immutable_float64(self, wspace):
        assert wspace.data.dtype == np.float64
        assert not wspace.data.flags.writeable
        with pytest.raises(ValueError):
            wspace.data[0, 0] = 2.0

    def test_fields_cannot_be_assigned(self, wspace):
        with pytest.raises(AttributeError):
            wspace.ids = ("a", "b", "c")
        with pytest.raises(AttributeError):
            wspace.data = np.eye(3)

    def test_pickles_with_its_stored_rows(self):
        rows = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)
        e = normalize_rows(EmbeddingSet._certified(rows, ids=tuple("abcd")))
        back = pickle.loads(pickle.dumps(e))
        assert back._rows.dtype == np.float32 and back.ids == e.ids and back.normalized
        assert back.data.tobytes() == e.data.tobytes()

    def test_ids_length_must_match(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingSet(data=np.eye(3), ids=("a", "b"))

    def test_id_of_defaults_to_decimal_index(self, wspace):
        assert wspace.id_of(2) == "2"
        tagged = EmbeddingSet(data=np.eye(2), ids=("x", "y"))
        assert tagged.id_of(1) == "y"

    def test_id_of_a_subset_defaults_to_its_source_row(self):
        sub = EmbeddingSet(data=np.eye(2), source_rows=(7, 3))
        assert [sub.id_of(r) for r in range(2)] == ["7", "3"]

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

    @pytest.mark.parametrize("normalized", [False, True])
    def test_later_writes_to_caller_array_do_not_reach_the_set(self, normalized):
        a = np.eye(2)
        e = EmbeddingSet(data=a, normalized=normalized)
        a[0, 0] = np.nan
        a[1] *= 3.0
        np.testing.assert_array_equal(e.data, np.eye(2))
        assert e.normalized is normalized

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

    @pytest.mark.parametrize("rows, dim", [(1, 3), (_block_rows(128) - 1, 128),
                                           (2 * _block_rows(37) + 5, 37)])
    def test_rows_divide_by_numpy_norms_byte_for_byte(self, rows, dim):
        """Blocks of rows end in a partial block here; each row's sum of
        squares is reduced alone, as np.linalg.norm(axis=1) reduces it."""
        rng = np.random.default_rng(rows)
        data = rng.normal(size=(rows, dim)) * rng.uniform(1e-3, 1e3, size=(rows, 1))
        expected = data / np.linalg.norm(data, axis=1)[:, None]
        assert normalize_rows(EmbeddingSet(data=data)).data.tobytes() == expected.tobytes()

    def test_zero_row_is_an_error_with_row_index(self):
        with pytest.raises(ZeroNormRow) as exc:
            normalize_rows(EmbeddingSet(data=np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert exc.value.row == 1

    def test_ids_preserved(self):
        e = EmbeddingSet(data=np.array([[3.0, 4.0]]), ids=("doc",))
        assert normalize_rows(e).ids == ("doc",)

    @pytest.mark.parametrize("big", [1e200, 1.7e308, -np.finfo(np.float64).max])
    def test_rows_whose_sum_of_squares_overflows_become_unit(self, big):
        """The float64 norm of such a row is inf; dividing by it would
        zero the row."""
        data = np.array([[big, big, 0.0], [1.0, 0.0, 0.0], [big, 1.0, -big / 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = normalize_rows(EmbeddingSet(data=data))
        assert e.normalized
        np.testing.assert_allclose(np.linalg.norm(e.data, axis=1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(e.data[0], np.sign(big) * np.array([1, 1, 0]) / math.sqrt(2),
                                   rtol=1e-15)
        np.testing.assert_array_equal(e.data[1], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(e.data[2], np.sign(big) * np.array([1, 0, -0.5]) / 1.25 ** 0.5,
                                   rtol=1e-15, atol=1e-15)


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

    def test_round_off_band_grows_with_the_variances_never_below_1e_9(self):
        assert _clamp_variance(-1e-6, "v", scale=1e4) == 0.0
        assert _clamp_variance(-1e-9, "v", scale=0.5) == 0.0
        for scale in (1.0, 0.5, 1e2):
            with pytest.raises(NumericalFailure):
                _clamp_variance(-1e-6, "v", scale=scale)

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


class TestRidgeFactor:
    """posterior_variance and realized_info_gain read one QR factor of the
    ridge-augmented rows [[Xᵀ, q], [√λ′·I, 0]]: no Gram matrix, so rows
    whose norms dwarf their differences keep them."""

    LAM = 0.01
    # the two rows' closed forms: σ² of q = v after both, and
    # ½·log det(I + K_X/λ′) with K_X's eigenvalues 2e16 and 2
    SIGMA_SQ = LAM / (2 + LAM)
    GAIN = 0.5 * (math.log1p(2e18) + math.log(201.0))

    @staticmethod
    def _two_rows(rot=None):
        """Rows 1e8·u ± v and q = v, for orthonormal u, v; rotated by `rot`."""
        u, v = np.eye(16)[:2]
        X = np.array([1e8 * u + v, 1e8 * u - v])
        return (X, v) if rot is None else (X @ rot.T, rot @ v)

    def test_two_rows_whose_norms_dwarf_their_difference(self):
        """Their Gram's v part is below an ulp of 1e16, so a solve with the
        rounded Gram needed a diagonal bump of 2.2 against λ′ = 0.01. The
        residual of q = v after both rows is λ′/(2 + λ′) in closed form."""
        X, q = self._two_rows()
        assert posterior_variance(X, q, KernelConfig(self.LAM)) == pytest.approx(
            self.SIGMA_SQ, rel=1e-12)

    def test_info_gain_of_two_rows_whose_norms_dwarf_their_difference(self):
        """½[ln(1 + 2e18) + ln 201]: a log-determinant of the rounded Gram
        took the singular matrix for an input error."""
        X, _ = self._two_rows()
        assert realized_info_gain(X, self.LAM) == pytest.approx(self.GAIN, rel=0, abs=1e-12)

    def test_rotated_rows_agree_within_their_rounding(self):
        """Rotated, the rows are no longer exact in float64: their rounding,
        about 1e-8 of the v part, is what the answers may move by."""
        rng = np.random.default_rng(0)
        for i in range(20):
            X, q = self._two_rows(np.linalg.qr(rng.normal(size=(16, 16)))[0])
            assert posterior_variance(X, q, KernelConfig(self.LAM)) == pytest.approx(
                self.SIGMA_SQ, rel=1e-7), i
            assert realized_info_gain(X, self.LAM) == pytest.approx(self.GAIN, rel=0, abs=1e-7), i

    def test_ten_copies_of_a_row_scaled_by_1e6(self):
        """Ten copies of one Gaussian row ×1e6 at λ′ = 0.01 have a Gram that
        is singular once rounded. All 50 seeds land within 1e-9·q·q of the
        closed form q·q − m(x·q)²/(m‖x‖² + λ′)."""
        cfg, m = KernelConfig(), 10
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x, q = rng.normal(size=16) * 1e6, rng.normal(size=16)
            closed = q @ q - m * (x @ q) ** 2 / (m * (x @ x) + cfg.lambda_prime)
            got = posterior_variance(np.tile(x, (m, 1)), q, cfg)
            assert got == pytest.approx(closed, rel=0, abs=1e-9 * (q @ q)), seed

    def test_scaled_rows_match_the_feature_space_oracle(self):
        """50 Gaussian rows of dim 16 (more rows than dimensions), ×1e6 to
        ×1e10: σ² falls to about 1e-24 at ×1e10, and a solve with the Gram
        lost it to the Gram's own round-off or raised. The QR residual stays
        within 1e-12 of the dense feature-space solve, relatively."""
        cfg = KernelConfig(self.LAM)
        for scale in (1e6, 1e7, 1e8, 1e9, 1e10):
            for seed in range(40):
                rng = np.random.default_rng(seed)
                X, q = rng.normal(size=(50, 16)) * scale, rng.normal(size=16)
                want = posterior_variance_feature_space(X, q, cfg)
                assert posterior_variance(X, q, cfg) == pytest.approx(want, rel=1e-12), (
                    scale, seed)


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
