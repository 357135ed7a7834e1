"""Brute-force oracles: the slow, obviously-correct implementations the
optimized selectors are checked against."""

import ast
import importlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siftsel.reference
from conftest import unit_rows, unit_vector
from siftsel import (
    EmbeddingSet,
    InstanceTooLarge,
    InvalidParameter,
    KernelConfig,
    compare_runs,
    data_space_lambda_min,
    exhaustive_optimum,
    greedy_direct_oracle,
    irreducible_uncertainty,
    irreducible_uncertainty_oracle,
    lambda_min_oracle,
    nn_insufficiency_instance,
    nn_select,
    normalize_rows,
    realized_info_gain,
    sift_select,
    uncertainty_reduction,
    uncertainty_sampling_select,
)


ORACLE_CASES = ("random", "duplicate-heavy", "rank-deficient", "wide")


def _oracle_case(kind, seed):
    """One cross-check instance: (space, query, config, selection size)."""
    rng = np.random.default_rng(600 + seed)
    if kind == "random":
        K = int(rng.integers(5, 30))
        d = int(rng.integers(2, 9))
        space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
        q = unit_vector(rng, d)
        cfg = KernelConfig(lambda_prime=float(rng.choice([1e-3, 1e-2, 1.0])))
        return space, q, cfg, int(rng.integers(1, min(K, 10) + 1))
    rng = np.random.default_rng([ORACLE_CASES.index(kind), seed])
    if kind == "duplicate-heavy":
        d = int(rng.integers(2, 9))
        base = unit_rows(rng, int(rng.integers(3, 10)), d)
        X = base[rng.integers(0, len(base), size=int(rng.integers(10, 40)))]
    elif kind == "rank-deficient":
        d = int(rng.integers(4, 10))
        basis = np.linalg.qr(rng.normal(size=(d, int(rng.integers(2, d)))))[0].T
        X = rng.normal(size=(int(rng.integers(10, 30)), basis.shape[0])) @ basis
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    else:  # wide: K < d, with duplicates so the K×K Gram is singular too
        d = int(rng.integers(10, 40))
        base = unit_rows(rng, int(rng.integers(2, 8)), d)
        X = base[rng.integers(0, len(base), size=int(rng.integers(3, 10)))]
    lam = [1e-12, 1e-9, 1e-2][seed % 3]
    n = int(rng.integers(1, 17))
    if lam < 1e-6:
        n = min(n, int(np.linalg.matrix_rank(X)))
    return (EmbeddingSet(data=X, normalized=True), unit_vector(rng, d),
            KernelConfig(lambda_prime=lam), n)


class TestGreedyDirectOracle:
    def test_worked_instance(self, wspace, wquery, wcfg):
        r = greedy_direct_oracle(wspace, wquery, 2, wcfg)
        assert r.order == (0, 0)
        np.testing.assert_allclose(r.sigma_trace, [1.0, 0.5, 1 / 3], atol=1e-12)
        assert r.method == "oracle"

    def test_single_candidate(self, wcfg):
        space = EmbeddingSet(data=np.array([[1.0, 0.0]]), normalized=True)
        r = greedy_direct_oracle(space, np.array([1.0, 0.0]), 3, wcfg)
        assert r.order == (0, 0, 0)

    def test_matches_optimized_selector_on_random_instances(self):
        """Generic rows, then the inputs that stress the greedy kernel:
        exact duplicates, rows confined to a subspace, fewer rows than
        dimensions (the factored path), each with λ′ down to 1e-12.

        Orders must agree except where exact-duplicate rows tie: the oracle
        scores copies bit-identically and keeps the smallest index, while the
        kernel may see a last-bit difference, so the picked vectors are
        compared. With λ′ ≪ 1 the selection stops at the rank of the rows:
        past it every gain is O(λ′) and round-off decides the argmax in the
        oracle and the kernel alike."""
        for kind in ORACLE_CASES:
            for seed in range(15):
                space, q, cfg, n = _oracle_case(kind, seed)
                oracle = greedy_direct_oracle(space, q, n, cfg)
                fast = sift_select(space, q, n, cfg)
                report = compare_runs(oracle, fast)
                assert report.max_deviation <= 1e-8, (kind, seed)
                np.testing.assert_allclose(fast.pivot_trace, oracle.pivot_trace, rtol=0,
                                           atol=1e-8, err_msg=f"{kind} seed {seed}")
                np.testing.assert_array_equal(
                    space.data[list(fast.order)], space.data[list(oracle.order)],
                    err_msg=f"{kind} seed {seed}")

    def test_pivots_of_the_worked_instance(self, wspace, wquery, wcfg):
        """a, then a again: k(a,a) + λ′ = 2, then 1 − 1/2 + 1."""
        r = greedy_direct_oracle(wspace, wquery, 2, wcfg)
        np.testing.assert_allclose(r.pivot_trace, [2.0, 1.5], rtol=0, atol=1e-12)

    def test_size_limits(self, wcfg):
        big = EmbeddingSet(data=np.ones((257, 2)) / np.sqrt(2), normalized=True)
        with pytest.raises(InstanceTooLarge):
            greedy_direct_oracle(big, np.array([1.0, 0.0]), 1, wcfg)
        small = EmbeddingSet(data=np.eye(2), normalized=True)
        with pytest.raises(InstanceTooLarge):
            greedy_direct_oracle(small, np.array([1.0, 0.0]), 65, wcfg)


class TestInfoGainFromThePivots:
    @pytest.mark.parametrize("shape", [(300, 32), (40, 64), (2000, 128)])
    def test_pivot_record_matches_the_qr_oracle(self, shape):
        """γ_n = ½ Σ_{i≤n} ln(pivot_i/λ′) is ½ log det(I + K_n/λ′) of the
        first n picks by the chain rule of the log-determinant. On unit rows
        at λ′ = 0.01 it is within 1e-12 relatively of realized_info_gain's QR
        at every prefix of 50 picks (40 for nn on 40 rows), for sift, us and
        nn, on 20 seeds; the worst measured was 3.8e-15."""
        cfg = KernelConfig(lambda_prime=0.01)
        for seed in range(20):
            rng = np.random.default_rng([seed, *shape])
            space = EmbeddingSet(data=unit_rows(rng, *shape), normalized=True)
            q = unit_vector(rng, shape[1])
            for select in (sift_select, uncertainty_sampling_select, nn_select):
                r = select(space, q, min(50, shape[0]) if select is nn_select else 50, cfg)
                gains = np.cumsum(0.5 * np.log(np.array(r.pivot_trace) / cfg.lambda_prime))
                oracle = [realized_info_gain(space.data[list(r.order[:n])], cfg.lambda_prime)
                          for n in range(1, len(r.order) + 1)]
                np.testing.assert_allclose(gains, oracle, rtol=1e-12, atol=0,
                                           err_msg=f"{select.__name__} seed {seed}")


class TestExhaustiveOptimum:
    def test_worked_instance_pairs(self, wspace, wquery, wcfg):
        best, psi = exhaustive_optimum(wspace, wquery, 2, wcfg)
        assert best == (0, 0)
        np.testing.assert_allclose(psi, 2.0 / 3.0, atol=1e-12)

    def test_empty_subset(self, wspace, wquery, wcfg):
        assert exhaustive_optimum(wspace, wquery, 0, wcfg) == ((), 0.0)

    def test_psi_agrees_with_uncertainty_reduction(self, wcfg):
        rng = np.random.default_rng(61)
        space = EmbeddingSet(data=unit_rows(rng, 6, 3), normalized=True)
        q = unit_vector(rng, 3)
        best, psi = exhaustive_optimum(space, q, 3, wcfg)
        np.testing.assert_allclose(
            psi, uncertainty_reduction(space.data[list(best)], q, wcfg),
            atol=1e-12)

    def test_optimum_dominates_greedy(self, wcfg):
        """ψ(exhaustive optimum) ≥ ψ(greedy prefix) of the same size, always."""
        for seed in range(10):
            rng = np.random.default_rng(62 + seed)
            space = EmbeddingSet(data=unit_rows(rng, 6, 3), normalized=True)
            q = unit_vector(rng, 3)
            _, psi_opt = exhaustive_optimum(space, q, 3, wcfg)
            greedy = greedy_direct_oracle(space, q, 3, wcfg)
            assert psi_opt >= sum(greedy.objective_trace) - 1e-12

    def test_size_limits(self, wquery, wcfg):
        big = EmbeddingSet(data=np.ones((8, 2)) / np.sqrt(2), normalized=True)
        with pytest.raises(InstanceTooLarge):
            exhaustive_optimum(big, wquery, 1, wcfg)
        small = EmbeddingSet(data=np.eye(2), normalized=True)
        with pytest.raises(InstanceTooLarge):
            exhaustive_optimum(small, wquery, 4, wcfg)

    def test_spanning_selection_reaches_the_floor(self):
        """With a tiny regularizer and an orthonormal basis available, the
        optimal 3-subset of 3 basis vectors explains everything but η²."""
        rng = np.random.default_rng(63)
        basis = np.eye(3)
        space = EmbeddingSet(data=basis, normalized=True)
        q = unit_vector(rng, 3)
        cfg = KernelConfig(lambda_prime=1e-8)
        _, psi = exhaustive_optimum(space, q, 3, cfg)
        np.testing.assert_allclose(psi, 1.0, atol=1e-6)


# The smallest singular value of rows built from their SVD, the others lying
# in [0.5, 1]: 1e-12 falls below the 1e-10 relative rank cutoff, 1e-9 and
# 1e-7 above it but far below the full-rank certificate
SMALLEST_SINGULAR = {"rank-d-1": 0.0, "near-1e-12": 1e-12, "near-1e-9": 1e-9,
                     "near-1e-7": 1e-7}
ETA_FAMILIES = ("full-rank", "duplicate-heavy", *SMALLEST_SINGULAR, "one-row-1e6", "square")


def _eta_case(family, seed):
    """K ≥ d rows of one family and a query that need not lie in their span."""
    rng = np.random.default_rng([ETA_FAMILIES.index(family), seed])
    d = int(rng.integers(2, 17))
    K = d if family == "square" else int(rng.integers(d, 4 * d + 1))
    if family == "duplicate-heavy":
        base = rng.normal(size=(int(rng.integers(1, d + 2)), d))
        X = base[rng.integers(0, len(base), size=K)]
    elif family in SMALLEST_SINGULAR:
        u = np.linalg.qr(rng.normal(size=(K, d)))[0]
        v = np.linalg.qr(rng.normal(size=(d, d)))[0]
        s = rng.uniform(0.5, 1.0, size=d)
        s[-1] = SMALLEST_SINGULAR[family]
        X = (u * s) @ v.T
    else:
        X = rng.normal(size=(K, d))
        if family == "one-row-1e6":  # tr(XᵀX) dwarfs every eigenvalue but one
            X[int(rng.integers(0, K))] *= 1e6
    return EmbeddingSet(data=X), rng.normal(size=d)


class TestIrreducibleUncertaintyOracle:
    def test_off_span_component(self):
        space = EmbeddingSet(data=np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert irreducible_uncertainty_oracle(space, [3.0, 4.0]) == pytest.approx(16.0)
        zero = EmbeddingSet(data=np.zeros((3, 2)))
        assert irreducible_uncertainty_oracle(zero, [3.0, 4.0]) == pytest.approx(25.0)
        with pytest.raises(InvalidParameter):
            irreducible_uncertainty_oracle(EmbeddingSet(data=np.empty((0, 2))), [1.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(ETA_FAMILIES), seed=st.integers(0, 2**31 - 1))
    def test_matches_the_shipped_floor(self, family, seed):
        """The Cholesky certificate returns 0 only where the SVD finds the
        rows spanning ℝ^d; everywhere else both run the same SVD."""
        space, q = _eta_case(family, seed)
        assert irreducible_uncertainty(space, q) == pytest.approx(
            irreducible_uncertainty_oracle(space, q), rel=0, abs=1e-12)


def _lambda_min_case(family, seed):
    """Rows for the λ_min cross-check. off-span: rank-k rows in ℝ^d with one
    row moved off their span by 10^-9.5 to 10^-8 of the largest norm, so
    the basis is k + 1 rows with σ_min² near 1e-18 of the largest norm².
    duplicate-heavy: up to d distinct rows, each repeated, the whole set
    ×1e-6, ×1 or ×1e6. scaled-rows: Gaussian rows, each ×1e-6, ×1 or ×1e6.
    unit-rows: more Gaussian rows than dimensions, normalized as `stats`
    does by default, so every row ties for the first pivot up to the last
    bits of its norm. unit-duplicates: duplicate-heavy rows, normalized."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 17))
    if family == "off-span":
        d = max(d, 4)
        k = int(rng.integers(1, d))
        X = rng.normal(size=(int(rng.integers(k + 2, 60)), k)) @ rng.normal(size=(k, d))
        span = np.linalg.qr(X.T)[0][:, :k]
        u = rng.normal(size=d)
        u -= span @ (span.T @ u)
        row = int(rng.integers(0, len(X)))
        X[row] += 10.0 ** -rng.uniform(8, 9.5) * np.linalg.norm(X, axis=1).max() \
            * u / np.linalg.norm(u)
    elif family == "duplicate-heavy":
        base = rng.normal(size=(int(rng.integers(1, d + 1)), d))
        X = base[rng.integers(0, len(base), size=int(rng.integers(len(base), 60)))]
        X = X * 10.0 ** rng.choice([-6.0, 0.0, 6.0])
    elif family == "scaled-rows":
        K = int(rng.integers(2, 60))
        X = rng.normal(size=(K, d)) * 10.0 ** rng.choice([-6.0, 0.0, 6.0], size=(K, 1))
    elif family == "unit-rows":
        X = rng.normal(size=(int(rng.integers(d + 1, 61)), d))
    else:  # unit-duplicates
        base = rng.normal(size=(int(rng.integers(1, d + 1)), d))
        X = base[rng.integers(0, len(base), size=int(rng.integers(len(base) + 1, 61)))]
    if family.startswith("unit"):
        return normalize_rows(EmbeddingSet(data=X))
    return EmbeddingSet(data=X)


class TestLambdaMinOracle:
    def test_worked_values(self):
        assert lambda_min_oracle(EmbeddingSet(data=np.diag([3.0, 2.0]))) == pytest.approx(4.0)
        dup = EmbeddingSet(data=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert lambda_min_oracle(dup) == pytest.approx(1.0)
        # the second row's residual, 1e-12, is below 1e-10 of the largest norm
        tiny = EmbeddingSet(data=np.array([[1.0, 0.0], [1.0, 1e-12]]))
        assert lambda_min_oracle(tiny) == pytest.approx(1.0)
        for empty in (np.empty((0, 2)), np.zeros((3, 2))):
            with pytest.raises(InvalidParameter):
                lambda_min_oracle(EmbeddingSet(data=empty))

    @pytest.mark.parametrize("family", ["off-span", "duplicate-heavy", "scaled-rows",
                                        "unit-rows", "unit-duplicates"])
    def test_matches_the_shipped_lambda_min(self, family):
        """data_space_lambda_min is strictly positive and within 1e-5 of the
        oracle. On off-span rows the eigenvalues of the basis rows' Gram were
        round-off, at or below zero on about half of these seeds. On unit
        rows the two take their first pivot from norms summed in different
        orders, so they agree only through the shared tie margin."""
        for seed in range(200):
            space = _lambda_min_case(family, seed)
            lam = data_space_lambda_min(space)
            assert lam > 0.0
            assert lam == pytest.approx(lambda_min_oracle(space), rel=1e-5), seed


class TestInsufficiencyInstance:
    def test_structure(self):
        space, q = nn_insufficiency_instance(2, 4)
        assert space.rows == 8 and space.dim == 2
        np.testing.assert_array_equal(space.data[:4], np.tile([1.0, 0.0], (4, 1)))
        np.testing.assert_array_equal(space.data[4:], np.tile([0.0, 1.0], (4, 1)))
        np.testing.assert_allclose(q, np.array([2.0, 1.0]) / np.sqrt(5.0),
                                   atol=1e-15)

    def test_higher_dim_query_normalization(self):
        space, q = nn_insufficiency_instance(5, 2)
        assert space.rows == 10
        np.testing.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)
        np.testing.assert_allclose(q[0], 2.0 / np.sqrt(8.0), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            nn_insufficiency_instance(1, 4)
        with pytest.raises(ValueError):
            nn_insufficiency_instance(2, 0)


class TestCompareRuns:
    def test_identical_runs_report_zero(self, wspace, wquery, wcfg):
        a = greedy_direct_oracle(wspace, wquery, 2, wcfg)
        b = sift_select(wspace, wquery, 2, wcfg)
        report = compare_runs(a, b)
        assert report.order_matches
        assert report.max_deviation <= 1e-12
        assert len(report.sigma_deviations) == 3
        assert len(report.objective_deviations) == 2

    def test_differing_orders_are_flagged(self, wspace, wquery, wcfg):
        a = greedy_direct_oracle(wspace, wquery, 2, wcfg)
        from siftsel import nn_select
        b = nn_select(wspace, wquery, 2, wcfg)
        report = compare_runs(a, b)
        assert not report.order_matches
        assert report.max_deviation > 0.0


def test_oracles_share_no_numerical_code_with_the_production_paths():
    """reference.py takes only classes and constants from the modules it
    checks: a function imported from them would let one fault pass on both
    sides of a comparison. The one exception is realized_info_gain, the
    oracle for the greedy kernel's pivot record: it reads posterior_variance's
    QR factor, which the kernel does not use, and only it may call the two
    functions that build that factor."""
    shared = {("core", "_as_row_matrix"), ("core", "_ridge_r")}
    tree = ast.parse(inspect.getsource(siftsel.reference))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module in ("core", "selectors", "uncertainty")
                for alias in node.names]
    assert imported
    for module, name in imported:
        obj = getattr(importlib.import_module(f"siftsel.{module}"), name)
        assert ((module, name) in shared or isinstance(obj, type)
                or not callable(obj)), f"{module}.{name}"
    gain = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "realized_info_gain")
    names = {name for _, name in shared}
    uses = {node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in names}
    assert uses and uses <= set(ast.walk(gain))
