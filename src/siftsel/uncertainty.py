"""The uncertainty calculus around selection.

Quantities that interpret or bound what a selection achieved: the total
uncertainty reduction ψ and per-candidate marginal gain Δ, an empirical
probe for diminishing marginal gains (the property behind greedy's (1−1/e)
guarantee), the irreducible uncertainty floor η², an evaluable
convergence-bound right-hand side, confidence-width multipliers β_n for
classification and regression surrogates, and the information-gain view
of the selection objective with its relevance/redundancy split. The
compute-proportional adaptive stopping rule lives in selectors, inside the
greedy kernel that it stops and that picks λ_min's basis rows.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EmbeddingSet,
    KernelConfig,
    _as_row_matrix,
    as_query,
    posterior_variance,
)
from .errors import DegenerateVariance, InvalidParameter, check_param
from .selectors import _greedy_kernel

# Relative singular-value cutoff separating true orthogonal components from
# round-off when computing spans.
_RANK_CUTOFF = 1e-10

# data_space_lambda_min pivots on the smallest index among the rows whose
# residual² is within this many d·ε of the largest, relatively. One row's
# squared norm summed in two orders can differ by about d·ε, and
# unit-normalized rows all tie for the first pivot up to those last bits,
# so without the margin the BLAS's summation order chose the basis.
_PIVOT_TIE = 4

# Margin, in units of the Gram's round-off, above which η² skips the SVD.
_SPAN_CERTIFICATE = 10.0

_PROBE_TOL = 1e-9
_MAX_PROBE_CHAIN = 6

# The most trials one submodularity probe may run, about 20 s at 0.2 ms a
# trial; an unbounded count runs for as long as it is told to.
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class ConfidenceParams:
    """Constants feeding the confidence-width formulas.

    These are properties of the downstream predictor class, not of the
    embeddings, so they are caller-supplied: vocab_size V and lipschitz L
    describe the classification head's output space and curvature bound,
    norm_bound B the weight-norm ball, reg_lambda λ the training
    regularizer, noise_rho ρ the sub-Gaussian observation noise (regression
    only).
    """

    vocab_size: int
    norm_bound: float
    lipschitz: float
    dim: int
    reg_lambda: float
    noise_rho: float = 1.0

    def __post_init__(self):
        check_param("vocab_size", self.vocab_size, ge=2, integer=True)
        check_param("dim", self.dim, ge=1, integer=True)
        for name in ("norm_bound", "lipschitz", "reg_lambda", "noise_rho"):
            check_param(name, getattr(self, name), gt=0)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the diminishing-marginal-gains probe."""

    passed: bool
    worst_slack: float
    trials: int
    violations: int


@dataclass(frozen=True)
class InfoGain:
    """Information-gain view of one candidate: gain = relevance − redundancy."""

    gain: float
    relevance: float
    redundancy: float


def uncertainty_reduction(X, q, cfg: KernelConfig) -> float:
    """ψ(X) = σ²_∅(q) − σ²_X(q): how much conditioning on X shrank the
    query's variance."""
    qv = as_query(q)
    psi = posterior_variance([], qv, cfg) - posterior_variance(X, qv, cfg)
    return max(psi, 0.0)


def marginal_gain(x, X, q, cfg: KernelConfig) -> float:
    """Δ(x|X) = ψ(X ∪ {x}) − ψ(X): one candidate's extra variance reduction.

    Equals the greedy selector's per-candidate score
    k²(q,x)/(k(x,x)+λ′) under the conditional kernel after X.
    """
    qv = as_query(q)
    X = _as_row_matrix(X, qv.shape[0])
    before = posterior_variance(X, qv, cfg)
    after = posterior_variance(np.vstack([X, as_query(x, qv.shape[0])]), qv, cfg)
    return before - after


def submodularity_probe(
    candidates: EmbeddingSet,
    q,
    cfg: KernelConfig,
    trials: int = 64,
    seed: int = 0,
) -> ProbeReport:
    """Empirical check that marginal gains diminish over nested selections.

    Samples random nested multisets X′ ⊆ X of candidate rows and a random
    extra row x, and verifies Δ(x|X′) ≥ Δ(x|X) − 1e-9. Reports the minimum
    slack observed. Diminishing gains are an assumption about the data, not
    a theorem — hence a probe, not a proof; greedy selection's (1−1/e)
    near-optimality is only guaranteed on inputs that pass.
    """
    _check_probe(trials, seed)
    qv = as_query(q, candidates.dim)
    K = candidates.rows
    if K == 0:
        raise InvalidParameter("candidates must be non-empty")
    rng = np.random.default_rng(seed)
    worst = math.inf
    violations = 0
    for _ in range(trials):
        m_big = int(rng.integers(1, _MAX_PROBE_CHAIN + 1))
        big = rng.integers(0, K, size=m_big)
        m_small = int(rng.integers(0, m_big + 1))
        small = rng.permutation(big)[:m_small]
        x = candidates.data[int(rng.integers(0, K))]
        gain_small = marginal_gain(x, candidates.data[small], qv, cfg)
        gain_big = marginal_gain(x, candidates.data[big], qv, cfg)
        slack = gain_small - gain_big
        worst = min(worst, slack)
        if slack < -_PROBE_TOL:
            violations += 1
    return ProbeReport(
        passed=violations == 0,
        worst_slack=worst,
        trials=trials,
        violations=violations,
    )


def _check_probe(trials: int, seed: int) -> None:
    check_param("trials", trials, ge=1, le=MAX_TRIALS, integer=True)
    check_param("seed", seed, ge=0, integer=True)


def _check_delta(delta: float) -> None:
    check_param("delta", delta, gt=0, lt=1)


def irreducible_uncertainty(space: EmbeddingSet, q) -> float:
    """η²(q): squared norm of the query's component orthogonal to the span
    of the data rows — the variance floor no amount of selection can beat.

    Rank is determined by a singular-value cutoff of 1e-10 relative to the
    largest singular value. With at least as many rows as dimensions, one
    Cholesky factorization of XᵀX − τI, τ = 10·K·d·ε·tr(XᵀX), first
    certifies full rank: when it succeeds the floor is 0 and the K×d SVD is
    skipped; when it fails the SVD decides. That row-space work depends on
    the set alone, so it is done on the set's first query and kept with the
    set; each query then costs one product with the rank×d basis (none at
    all when the rows span ℝ^d).
    """
    qv = as_query(q, space.dim)
    if space.rows == 0:
        raise InvalidParameter("space must be non-empty")
    if space._span is None:  # kept in a 1-tuple: None inside means the rows span ℝ^d
        object.__setattr__(space, "_span", (_row_space(space.data),))
    basis = space._span[0]
    if basis is None:
        return 0.0
    coeffs = basis @ qv
    return max(float(qv @ qv) - float(coeffs @ coeffs), 0.0)


def _row_space(data: np.ndarray) -> np.ndarray | None:
    """None when the rows of data certifiably span ℝ^d, else the rank×d
    right singular vectors above the rank cutoff (an orthonormal basis of
    their span, 0×d for zero rows)."""
    K, d = data.shape
    if K >= d:
        gram = data.T @ data
        # tr(XᵀX) bounds λ_max from above. Forming XᵀX moves its
        # eigenvalues by at most about K·d·ε·tr, and Cholesky's backward
        # error is O(d·ε·tr), so a factorization of XᵀX − τI that succeeds
        # leaves λ_min > 9·K·d·ε·λ_max: σ_min/σ_max exceeds √(9·K·d·ε) ≥
        # 4.4e-8, far above the 1e-10 rank cutoff, so the rows span ℝ^d and
        # nothing of q lies outside their span. Rank-deficient or nearly
        # deficient rows fail it and take the SVD, the only correct path
        # for them.
        tau = _SPAN_CERTIFICATE * K * d * np.finfo(np.float64).eps * np.trace(gram)
        gram.flat[::d + 1] -= tau
        try:
            np.linalg.cholesky(gram)
            return None
        except np.linalg.LinAlgError:
            pass
    s, vt = np.linalg.svd(data, full_matrices=False)[1:]
    rank = int(np.sum(s > _RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    return vt[:rank]


def data_space_lambda_min(space: EmbeddingSet) -> float:
    """Smallest eigenvalue of ΦΦᵀ for a basis Φ extracted from the data rows.

    The basis rows are the greedy kernel's picks at λ′ = 0, column-pivoted
    Gram–Schmidt with its recompute rule: each step takes the largest
    residual², the smallest index within _PIVOT_TIE·d·ε of it relatively,
    until none exceeds (1e-10·max‖x‖)² or min(K, d) rows are picked. The
    result, strictly positive, is σ_min² from one SVD of the basis rows:
    their Gram squares the condition number, and its eigenvalues went to
    zero or below. Cost: rank kernel steps and an O(d·rank²) SVD.
    """
    if space.rows == 0:
        raise InvalidParameter("space must be non-empty")
    X = space.data
    K, d = X.shape
    sq = np.einsum("ij,ij->i", X, X)
    tol = _RANK_CUTOFF ** 2 * float(sq.max())
    near = 1.0 - _PIVOT_TIE * d * float(np.finfo(np.float64).eps)
    piv: list[int] = []

    def pick(step, kq, diag):  # nothing reads the last row's update, so stop there
        top = diag.max()
        if not top > tol:
            return None
        piv.append(int(np.argmax(diag >= top * near)))
        return (piv[-1], float(top)) if len(piv) < min(K, d) else None

    _greedy_kernel(X, np.zeros(d), min(K, d), 0.0, pick, sq, None, "lambda_min", None)
    if not piv:
        raise InvalidParameter("data space has rank zero")
    return float(np.linalg.svd(X[piv], compute_uv=False)[-1] ** 2)


def selected_gram_lambda_hat(selected) -> float:
    """Largest eigenvalue of the Gram matrix of the selected rows (0 if empty).

    `selected` may be an EmbeddingSet or any sequence of row vectors. More
    rows than dimensions, as repeats allow, read XᵀX, whose largest is equal.
    """
    X = _as_row_matrix(selected)
    if X.shape[0] == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X)
    return max(float(eigs[-1]), 0.0)


def convergence_bound_rhs(
    n: int, d: int, lambda_prime: float, lambda_min: float, lambda_hat_n: float
) -> float:
    """Evaluable right-hand side of the variance convergence guarantee:

        d · (1 + 2dλ′/λ_min) · log(1 + λ̂_n/λ′) / √n

    where λ_min comes from a basis of the data space
    (data_space_lambda_min) and λ̂_n from the selected Gram
    (selected_gram_lambda_hat). The guarantee bounds σ_n² − η² from above.
    """
    check_param("n", n, ge=1, integer=True)
    check_param("d", d, ge=1, integer=True)
    check_param("lambda_prime", lambda_prime, gt=0)
    check_param("lambda_min", lambda_min, gt=0)
    check_param("lambda_hat_n", lambda_hat_n, ge=0)
    return (
        d * (1.0 + 2.0 * d * lambda_prime / lambda_min)
        * math.log1p(lambda_hat_n / lambda_prime)
        / math.sqrt(n)
    )


def beta_classification(n: int, delta: float, p: ConfidenceParams) -> float:
    """Confidence-width multiplier for the classification surrogate:

        2·√(V(1+2B)) · [ B + (L·V^{3/2}·d/λ) · log((2/δ)·√(1+n/(dλ))) ]

    Grows logarithmically in n and shrinks as δ grows.
    """
    _check_delta(delta)
    check_param("n", n, ge=1, integer=True)
    V, B, L, d, lam = (
        p.vocab_size, p.norm_bound, p.lipschitz, p.dim, p.reg_lambda,
    )
    inner = (2.0 / delta) * math.sqrt(1.0 + n / (d * lam))
    return 2.0 * math.sqrt(V * (1.0 + 2.0 * B)) * (
        B + (L * V**1.5 * d / lam) * math.log(inner)
    )


def beta_regression(n: int, delta: float, B: float, rho: float, gamma_n: float) -> float:
    """Confidence-width multiplier for the regression surrogate:

        B + ρ·√(2·(γ_n + 1 + log(1/δ)))

    γ_n is the information gain of the observations; pass a selection's
    realized value, read from its pivot_trace, for an evaluable width.
    """
    _check_delta(delta)
    check_param("n", n, ge=1, integer=True)
    check_param("gamma_n", gamma_n, ge=0)
    check_param("rho", rho, gt=0)
    check_param("B", B, ge=0)
    return B + rho * math.sqrt(2.0 * (gamma_n + 1.0 + math.log(1.0 / delta)))


def marginal_info_gain(x, X, q, cfg: KernelConfig) -> InfoGain:
    """Information-gain view of adding candidate x after selection X.

    gain = ½(log σ²_X(q) − log σ²_{X∪{x}}(q)), the mutual information
    between the query's value and a noisy observation at x given X (noise
    variance λ′). relevance is the same quantity at X = ∅; redundancy is
    relevance − gain, the part of x's relevance already covered by X.
    Maximizing gain picks the same candidate as maximizing the variance
    decrement (log is monotone), so this is a reinterpretation of the
    selector's objective, not a different one.
    """
    qv = as_query(q)
    X = _as_row_matrix(X, qv.shape[0])
    xv = as_query(x, qv.shape[0])[None, :]
    s_empty = posterior_variance([], qv, cfg)
    s_before = posterior_variance(X, qv, cfg)
    s_after = posterior_variance(np.vstack([X, xv]), qv, cfg)
    s_x = posterior_variance(xv, qv, cfg)
    if s_before <= 1e-15:
        raise DegenerateVariance(f"conditional variance before x is {s_before!r}")
    if min(s_after, s_x, s_empty) <= 0.0:
        raise DegenerateVariance("conditional variance vanished; gain is unbounded")
    gain = 0.5 * (math.log(s_before) - math.log(s_after))
    relevance = 0.5 * (math.log(s_empty) - math.log(s_x))
    return InfoGain(gain=gain, relevance=relevance, redundancy=relevance - gain)


def predicted_performance_gain(
    sigma_n: float, baseline_metric: float | None = None
) -> tuple[float, float | None]:
    """Predicted relative payoff of having selected down to σ_n: 1/σ_n
    (σ_0 = 1 for unit-normalized queries).

    When a baseline metric value is supplied, also returns the denormalized
    uncertainty σ_n · baseline — an absolute-scale error estimate.
    """
    check_param("sigma_n", sigma_n, gt=0)
    if baseline_metric is None:
        return 1.0 / sigma_n, None
    return 1.0 / sigma_n, sigma_n * check_param("baseline_metric", baseline_metric)
