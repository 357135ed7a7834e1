"""Acceptance criteria for the selection library.

Thirteen numbered criteria, one test per live criterion so the verbose run
shows one pass/fail line each:

 1. exact greedy selector ≡ brute-force oracle (100 seeded instances, ≤1e-8)
 2. retired: compared the kernel with itself
 3. nearest-neighbor insufficiency instance: retrieval stalls at σ² = 0.2,
    variance minimization reaches σ₄² ≤ 0.01, closed form λ′/(m+λ′) per axis
 4. relevance–diversity threshold: the second pick flips exactly at the
    predicted boundary c* = (2+λ′)/(2+2λ′) for λ′ ∈ {0.5, 1, 2}
 5. regularizer limits: λ′=1e6 degenerates to repeated nearest neighbor;
    λ′=1e-8 on an orthonormal frame picks distinct rows until span coverage
 6. kernel-space and feature-space posterior variance agree ≤ 1e-8
 7. per-step convergence bound σ_n² − η² ≤ rhs, zero violations beyond 1e-9
 8. greedy reaches ≥ (1−1/e)·optimum on probe-passing small instances
 9. information-gain argmax ≡ variance-gain argmax at every greedy step
10. adaptive stopping rule examples and the "no stop before n = 1/α" sanity
11. TV distance obeys the √V/2·‖·‖₂ bound; β widths match independent
    scalar recomputation on a 5×5 grid and are monotone in n and δ
12. file formats round-trip at 32-bit precision; corrupt fixtures raise
    BadMagic / TruncatedPayload / RaggedRow
13. performance report (soft): sift_select at K=100k and the preselected
    pipeline vs plain retrieval at K=10k — measured and printed, not gated
"""

import math
import struct
import time

import numpy as np
import pytest

from conftest import orthonormal_rows, unit_rows, unit_vector
from siftsel import (
    BadMagic,
    ConfidenceParams,
    EmbeddingSet,
    KernelConfig,
    RaggedRow,
    StoppingPolicy,
    TruncatedPayload,
    adaptive_should_stop,
    beta_classification,
    beta_regression,
    convergence_bound_rhs,
    data_space_lambda_min,
    exhaustive_optimum,
    greedy_direct_oracle,
    irreducible_uncertainty,
    marginal_gain,
    marginal_info_gain,
    nn_insufficiency_instance,
    nn_select,
    posterior_variance,
    posterior_variance_feature_space,
    preselect_candidates,
    read_embeddings,
    selected_gram_lambda_hat,
    sift_select,
    submodularity_probe,
    tv_distance,
    uncertainty_sampling_select,
    write_embeddings,
)

LAMBDA_GRID = (1e-4, 0.01, 1.0)


def test_criterion_01_exact_selector_matches_bruteforce_oracle():
    t0 = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(2, 17))
        K = int(rng.integers(4, 65))
        n = int(rng.integers(1, 17))
        cfg = KernelConfig(lambda_prime=LAMBDA_GRID[i % 3])
        space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
        q = unit_vector(rng, d)
        oracle = greedy_direct_oracle(space, q, n, cfg)
        got = sift_select(space, q, n, cfg)
        assert got.order == oracle.order, f"instance {i}: order diverged"
        np.testing.assert_allclose(
            got.sigma_trace, oracle.sigma_trace, atol=1e-8,
            err_msg=f"instance {i}")
        np.testing.assert_allclose(
            got.objective_trace, oracle.objective_trace, atol=1e-8,
            err_msg=f"instance {i}")
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_retrieval_insufficiency_instance():
    cfg = KernelConfig(lambda_prime=0.01)
    space, q = nn_insufficiency_instance(2, 4)

    def closed_form(m1, m2):
        # per-axis contribution q_i² · λ′/(m_i+λ′) with q = (2,1)/√5
        return 0.8 * 0.01 / (m1 + 0.01) + 0.2 * 0.01 / (m2 + 0.01)

    # failure-mode retrieval re-reads the nearest row forever: the second
    # axis stays unexplained and σ² is pinned at ≥ q₂² = 0.2
    fail = nn_select(space, q, 8, cfg, failure_mode=True)
    assert all(s >= 0.2 - 1e-6 for s in fail.sigma_trace[1:])
    for n in range(1, 9):
        np.testing.assert_allclose(
            fail.sigma_trace[n], closed_form(n, 0), atol=1e-9)

    # distinct-mode retrieval drains the first-axis copies first — the four
    # available here, and through n=8 on a companion with eight copies
    dist = nn_select(space, q, 4, cfg)
    assert dist.order == (0, 1, 2, 3)
    for n in range(1, 5):
        np.testing.assert_allclose(
            dist.sigma_trace[n], closed_form(n, 0), atol=1e-9)
        assert dist.sigma_trace[n] >= 0.2 - 1e-6
    space8, q8 = nn_insufficiency_instance(2, 8)
    dist8 = nn_select(space8, q8, 8, cfg)
    assert all(s >= 0.2 - 1e-6 for s in dist8.sigma_trace[1:])
    for n in range(1, 9):
        np.testing.assert_allclose(
            dist8.sigma_trace[n], closed_form(n, 0), atol=1e-9)

    # variance minimization crosses to the second axis and breaks the floor
    greedy = sift_select(space, q, 4, cfg)
    assert greedy.sigma_trace[4] <= 0.01
    m = [0, 0]
    for step, row in enumerate(greedy.order):
        m[0 if row < 4 else 1] += 1
        np.testing.assert_allclose(
            greedy.sigma_trace[step + 1], closed_form(m[0], m[1]), atol=1e-9)
    assert m[1] >= 1  # the second axis was actually visited


def test_criterion_04_relevance_diversity_threshold():
    space = EmbeddingSet(data=np.eye(2), normalized=True)
    for lam in (0.5, 1.0, 2.0):
        cfg = KernelConfig(lambda_prime=lam)
        c_star = (2.0 + lam) / (2.0 + 2.0 * lam)
        sweep = list(np.linspace(0.55, 0.98, 25)) + [
            c_star - 1e-3, c_star + 1e-3, c_star - 2e-6, c_star + 2e-6,
        ]
        for c in sweep:
            if abs(c - c_star) <= 1e-6:
                continue  # excluded margin band around the boundary
            q = np.array([math.sqrt(c), math.sqrt(1.0 - c)])
            r = sift_select(space, q, 2, cfg)
            assert r.order[0] == 0
            expected_second = 0 if c > c_star else 1
            assert r.order[1] == expected_second, (
                f"λ′={lam}, c={c:.8f}, c*={c_star:.8f}: "
                f"picked {r.order[1]}, expected {expected_second}")


def test_criterion_05_regularizer_limits():
    # λ′ → ∞: conditioning decrements vanish, scores decay to k(q,x)²/λ′,
    # so the selector repeats the single best-aligned row — identical to
    # failure-mode retrieval (alignment kept non-negative so the squared
    # and signed rankings agree)
    cfg_inf = KernelConfig(lambda_prime=1e6)
    for i in range(20):
        rng = np.random.default_rng(40000 + i)
        K = int(rng.integers(8, 41))
        d = int(rng.integers(2, 10))
        space = EmbeddingSet(data=unit_rows(rng, K, d, nonneg=True),
                             normalized=True)
        q = unit_vector(rng, d, nonneg=True)
        n = int(rng.integers(2, 8))
        assert (sift_select(space, q, n, cfg_inf).order
                == nn_select(space, q, n, cfg_inf, failure_mode=True).order)

    # λ′ → 0 on an orthonormal frame: every pick explains one new direction,
    # so picks stay distinct until the span is covered and σ² ≈ λ′
    cfg_tiny = KernelConfig(lambda_prime=1e-8)
    for j, d in enumerate((4, 6, 9)):
        rng = np.random.default_rng(41000 + j)
        space = EmbeddingSet(data=orthonormal_rows(rng, d))
        q = unit_vector(rng, d)
        r = sift_select(space, q, d, cfg_tiny)
        assert len(set(r.order)) == d
        assert r.sigma_trace[-1] <= 1e-6


def test_criterion_06_kernel_and_feature_space_variances_agree():
    for i in range(100):
        rng = np.random.default_rng(50000 + i)
        d = int(rng.integers(2, 17))
        K = int(rng.integers(1, 33))
        X = rng.standard_normal((K, d))
        if i % 4 == 0:  # include exact duplicates
            X = np.vstack([X, X[: max(1, K // 2)]])
        q = rng.standard_normal(d)
        cfg = KernelConfig(lambda_prime=LAMBDA_GRID[i % 3])
        a = posterior_variance(X, q, cfg)
        b = posterior_variance_feature_space(X, q, cfg)
        assert abs(a - b) <= 1e-8, f"instance {i}: |{a} - {b}| > 1e-8"


def test_criterion_07_convergence_bound_holds_at_every_step():
    violations = []
    for i in range(40):
        rng = np.random.default_rng(60000 + i)
        d = int(rng.integers(2, 17))
        K = int(rng.integers(6, 65))
        space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
        q = unit_vector(rng, d)
        lam = LAMBDA_GRID[i % 3]
        cfg = KernelConfig(lambda_prime=lam)
        n = int(rng.integers(1, 33))
        r = sift_select(space, q, n, cfg)
        eta_sq = irreducible_uncertainty(space, q)
        lam_min = data_space_lambda_min(space)
        for step in range(1, n + 1):
            lam_hat = selected_gram_lambda_hat(space.data[list(r.order[:step])])
            rhs = convergence_bound_rhs(step, d, lam, lam_min, lam_hat)
            gap = r.sigma_trace[step] - eta_sq
            if gap > rhs + 1e-9:
                violations.append((i, step, gap, rhs))
    assert violations == []


def test_criterion_08_near_optimality_on_probe_passing_instances():
    """Non-negative low-dimensional clouds: suppressor-free often enough to
    yield 30 probe-passing instances, unlike signed draws which almost never
    pass in d ≤ 4."""
    shortfall = 1.0 - 1.0 / math.e
    checked = 0
    attempt = 0
    while checked < 30:
        rng = np.random.default_rng(70000 + attempt)
        attempt += 1
        assert attempt < 600, "could not find 30 probe-passing small instances"
        K = int(rng.integers(3, 8))
        d = int(rng.integers(2, 5))
        subset = int(rng.integers(1, 4))
        cfg = KernelConfig(lambda_prime=float(rng.choice([0.01, 0.1, 1.0])))
        space = EmbeddingSet(data=unit_rows(rng, K, d, nonneg=True),
                             normalized=True)
        q = unit_vector(rng, d, nonneg=True)
        if not submodularity_probe(space, q, cfg, trials=128,
                                   seed=1000 + attempt).passed:
            continue
        checked += 1
        greedy = greedy_direct_oracle(space, q, subset, cfg)
        _, psi_opt = exhaustive_optimum(space, q, subset, cfg)
        psi_greedy = sum(greedy.objective_trace)
        assert psi_greedy >= shortfall * psi_opt - 1e-9, (
            f"attempt {attempt}: greedy ψ={psi_greedy} < "
            f"(1-1/e)·ψ*={shortfall * psi_opt}")
    assert checked == 30


def test_criterion_09_information_gain_picks_the_same_candidate():
    for i in range(25):
        rng = np.random.default_rng(80000 + i)
        K = int(rng.integers(6, 25))
        d = int(rng.integers(2, 9))
        space = EmbeddingSet(data=unit_rows(rng, K, d), normalized=True)
        q = unit_vector(rng, d)
        cfg = KernelConfig(lambda_prime=float(rng.choice([0.01, 0.1, 1.0])))
        n = int(rng.integers(1, 7))
        r = sift_select(space, q, n, cfg)
        for step in range(n):
            prefix = space.data[list(r.order[:step])]
            gains = [marginal_gain(space.data[j], prefix, q, cfg)
                     for j in range(K)]
            igains = [marginal_info_gain(space.data[j], prefix, q, cfg).gain
                      for j in range(K)]
            winner = int(np.argmax(gains))
            assert winner == int(np.argmax(igains)), f"instance {i}, step {step}"
            assert winner == r.order[step], f"instance {i}, step {step}"


def test_criterion_10_adaptive_stopping_examples_and_sanity():
    policy = StoppingPolicy(alpha=0.1, n_max=1000)
    assert adaptive_should_stop(1.0, 5, policy) is False   # threshold 2.0
    assert adaptive_should_stop(0.5, 40, policy) is True   # threshold 0.25
    assert adaptive_should_stop(1.0, 10, policy) is False  # σ == 1/(αn): strict

    # with unit-norm data σ ≤ 1, the rule cannot fire before n = 1/α
    rng = np.random.default_rng(90000)
    for _ in range(500):
        alpha = float(rng.uniform(0.01, 5.0))
        p = StoppingPolicy(alpha=alpha, n_max=10**6)
        for n in range(1, min(int(1.0 / alpha), 200) + 1):
            if n < 1.0 / alpha:
                sigma = float(rng.uniform(0.0, 1.0))
                assert adaptive_should_stop(sigma, n, p) is False, (alpha, n)


def test_criterion_11_tv_bound_and_confidence_width_formulas():
    rng = np.random.default_rng(91000)
    for _ in range(1000):
        V = int(rng.integers(2, 50))
        s = rng.dirichlet(np.ones(V))
        t = rng.dirichlet(np.ones(V))
        bound = 0.5 * math.sqrt(V) * float(np.linalg.norm(s - t))
        assert tv_distance(s, t) <= bound + 1e-12

    V, B, L, d, lam, rho = 3, 1.5, 0.7, 4, 0.8, 1.3
    params = ConfidenceParams(vocab_size=V, norm_bound=B, lipschitz=L,
                              dim=d, reg_lambda=lam, noise_rho=rho)
    ns = (1, 3, 10, 100, 1000)
    deltas = (0.01, 0.05, 0.1, 0.3, 0.9)
    for n in ns:
        gamma = 0.25 * n  # any non-decreasing information-gain schedule
        for delta in deltas:
            cls_expected = 2.0 * math.sqrt(V * (1.0 + 2.0 * B)) * (
                B + (L * V**1.5 * d / lam)
                * math.log((2.0 / delta) * math.sqrt(1.0 + n / (d * lam))))
            assert abs(beta_classification(n, delta, params) - cls_expected) <= 1e-9
            reg_expected = B + rho * math.sqrt(
                2.0 * (gamma + 1.0 + math.log(1.0 / delta)))
            assert abs(beta_regression(n, delta, B, rho, gamma) - reg_expected) <= 1e-9

    for delta in deltas:  # non-decreasing in n
        cls = [beta_classification(n, delta, params) for n in ns]
        assert all(b >= a for a, b in zip(cls, cls[1:]))
        reg = [beta_regression(n, delta, B, rho, 0.25 * n) for n in ns]
        assert all(b >= a for a, b in zip(reg, reg[1:]))
    for n in ns:  # non-increasing in δ
        cls = [beta_classification(n, delta, params) for delta in deltas]
        assert all(b <= a for a, b in zip(cls, cls[1:]))
        reg = [beta_regression(n, delta, B, rho, 0.25 * n) for delta in deltas]
        assert all(b <= a for a, b in zip(reg, reg[1:]))


def test_criterion_12_round_trips_and_corrupt_fixtures(tmp_path):
    rng = np.random.default_rng(92000)
    data = rng.standard_normal((9, 6))
    stored = data.astype("<f4").astype(np.float64)
    e = EmbeddingSet(data=data, ids=tuple(f"row{i}" for i in range(9)))

    pb = tmp_path / "emb.bin"
    write_embeddings(e, pb, format="binary")
    np.testing.assert_array_equal(read_embeddings(pb).data, stored)

    pc = tmp_path / "emb.csv"
    write_embeddings(e, pc, format="csv")
    back = read_embeddings(pc, format="csv")
    np.testing.assert_array_equal(back.data, stored)
    assert back.ids == e.ids

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRONGMAG" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(BadMagic):
        read_embeddings(bad)

    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(b"SIFTEMB1" + struct.pack("<III", 1, 4, 4) + b"\x00" * 10)
    with pytest.raises(TruncatedPayload):
        read_embeddings(trunc)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.5,0.5,0.5\n0.5,0.5\n")
    with pytest.raises(RaggedRow):
        read_embeddings(ragged, format="csv")


def test_criterion_13_performance_report(capsys):
    """Soft criterion: measure and report, no hard time gate."""
    cfg = KernelConfig(lambda_prime=0.01)
    rng = np.random.default_rng(93000)

    big = rng.standard_normal((100_000, 128))
    big /= np.linalg.norm(big, axis=1, keepdims=True)
    space = EmbeddingSet(data=big, normalized=True)
    q = unit_vector(rng, 128)
    t0 = time.perf_counter()
    full = sift_select(space, q, 50, cfg)
    full_time = time.perf_counter() - t0
    assert len(full.order) == 50

    mid = EmbeddingSet(data=big[:10_000], normalized=True)
    pipeline_time = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        pool = preselect_candidates(mid, q, 200)
        pipeline = sift_select(pool, q, 50, cfg)
        pipeline_time = min(pipeline_time, time.perf_counter() - t0)
    assert len(pipeline.order) == 50

    nn_time = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        nn_select(mid, q, 50, cfg)
        nn_time = min(nn_time, time.perf_counter() - t0)

    ratio = pipeline_time / nn_time
    with capsys.disabled():
        print(
            f"\n[perf report] sift_select, N=50 of K=100000, d=128: "
            f"{full_time:.2f} s (target ≤ 5 s, informational)\n"
            f"[perf report] preselect-200 pipeline vs retrieval, K=10000: "
            f"{pipeline_time * 1e3:.1f} ms vs {nn_time * 1e3:.1f} ms "
            f"(ratio {ratio:.2f}, target ≤ 1.5, informational)"
        )
