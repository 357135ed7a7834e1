"""The uncertainty calculus around selection.

Quantities that interpret or bound what a selection achieved: the total
uncertainty reduction ψ and per-candidate marginal gain Δ, an empirical
probe for diminishing marginal gains (the property behind greedy's (1−1/e)
guarantee), the irreducible uncertainty floor η², an evaluable
convergence-bound right-hand side, confidence-width multipliers β_n for
classification and regression surrogates, the information-gain view of the
selection objective with its relevance/redundancy split, and the
compute-proportional adaptive stopping rule.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .core import EmbeddingSet, KernelConfig, _as_row_matrix, as_query, posterior_variance
from .errors import DegenerateVariance, InvalidParameter, check_param
from .selectors import SelectionResult

# Relative singular-value cutoff separating true orthogonal components from
# round-off when computing spans.
_RANK_CUTOFF = 1e-10

# Margin, in units of the Gram's round-off, above which η² skips the SVD.
_SPAN_CERTIFICATE = 10.0

_PROBE_TOL = 1e-9
_MAX_PROBE_CHAIN = 6


@dataclass(frozen=True)
class ConfidenceParams:
    """Constants feeding the confidence-width formulas.

    These are properties of the downstream predictor class, not of the
    embeddings, so they are caller-supplied: vocab_size V and lipschitz L /
    kappa κ describe the classification head's output space and curvature
    bounds, norm_bound B the weight-norm ball, reg_lambda λ the training
    regularizer, noise_rho ρ the sub-Gaussian observation noise (regression
    only).
    """

    vocab_size: int
    norm_bound: float
    lipschitz: float
    dim: int
    reg_lambda: float
    noise_rho: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        check_param("vocab_size", self.vocab_size, ge=2, integer=True)
        check_param("dim", self.dim, ge=1, integer=True)
        for name in ("norm_bound", "lipschitz", "reg_lambda", "noise_rho", "kappa"):
            check_param(name, getattr(self, name), gt=0)


@dataclass(frozen=True)
class StoppingPolicy:
    """Adaptive stopping: stop once σ_n exceeds 1/(αn), or at n_max."""

    alpha: float
    n_max: int

    def __post_init__(self):
        check_param("alpha", self.alpha, gt=0)
        check_param("n_max", self.n_max, ge=1, integer=True)


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
    check_param("trials", trials, ge=1, integer=True)
    qv = as_query(q, candidates.dim)
    rng = np.random.default_rng(seed)
    K = candidates.rows
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


def irreducible_uncertainty(space: EmbeddingSet, q) -> float:
    """η²(q): squared norm of the query's component orthogonal to the span
    of the data rows — the variance floor no amount of selection can beat.

    Rank is determined by a singular-value cutoff of 1e-10 relative to the
    largest singular value. With at least as many rows as dimensions, a
    d×d Gram eigenvalue check first certifies full rank, in which case the
    floor is 0 and the K×d SVD is skipped.
    """
    qv = as_query(q, space.dim)
    if space.rows == 0:
        raise InvalidParameter("space must be non-empty")
    K, d = space.data.shape
    if K >= d:
        e = np.linalg.eigvalsh(space.data.T @ space.data)
        # Forming XᵀX and its eigenvalues moves each one by at most about
        # K·d·ε·e[-1]; ten times that is a margin above the round-off. Past
        # it XᵀX is certainly positive definite: σ_min/σ_max exceeds
        # √(10·K·d·ε) ≥ 4.7e-8, far above the 1e-10 rank cutoff, so the rows
        # span ℝ^d and nothing of q lies outside their span. Rank-deficient
        # or nearly deficient rows fall through to the SVD, the only
        # correct path for them.
        if e[0] > _SPAN_CERTIFICATE * K * d * np.finfo(np.float64).eps * e[-1]:
            return 0.0
    s, vt = np.linalg.svd(space.data, full_matrices=False)[1:]
    rank = int(np.sum(s > _RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    if rank == 0:
        return float(qv @ qv)
    coeffs = vt[:rank] @ qv
    return max(float(qv @ qv) - float(coeffs @ coeffs), 0.0)


def data_space_lambda_min(space: EmbeddingSet) -> float:
    """Smallest eigenvalue of ΦΦᵀ for a basis Φ extracted from the data rows.

    The basis is chosen by pivoted QR on the row space (rank cutoff 1e-10
    relative), so the returned value is strictly positive.
    """
    if space.rows == 0:
        raise InvalidParameter("space must be non-empty")
    _, r_mat, piv = scipy.linalg.qr(space.data.T, pivoting=True, mode="economic")
    diag = np.abs(np.diag(r_mat))
    if diag.size == 0 or diag[0] <= 0:
        raise InvalidParameter("data space has rank zero")
    rank = int(np.sum(diag > _RANK_CUTOFF * diag[0]))
    basis = space.data[piv[:rank]]
    eigs = np.linalg.eigvalsh(basis @ basis.T)
    return float(eigs[0])


def selected_gram_lambda_hat(selected) -> float:
    """Largest eigenvalue of the Gram matrix of the selected rows (0 if empty).

    `selected` may be an EmbeddingSet or any sequence of row vectors.
    """
    X = _as_row_matrix(selected)
    if X.shape[0] == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(X @ X.T)
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
    check_param("delta", delta, gt=0, lt=1)
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

    γ_n is the information gain of the observations; pass the realized
    value from realized_info_gain for an evaluable width.
    """
    check_param("delta", delta, gt=0, lt=1)
    check_param("n", n, ge=1, integer=True)
    check_param("gamma_n", gamma_n, ge=0)
    check_param("rho", rho, gt=0)
    check_param("B", B, ge=0)
    return B + rho * math.sqrt(2.0 * (gamma_n + 1.0 + math.log(1.0 / delta)))


def realized_info_gain(selected, lambda_prime: float) -> float:
    """½·log det(I + K_X/λ′) for the actually selected rows.

    This is the computable stand-in for the max-over-all-sets information
    gain appearing in the regression width: a lower bound, and the quantity
    a practitioner can actually evaluate. `selected` may be an EmbeddingSet
    or any sequence of row vectors.
    """
    check_param("lambda_prime", lambda_prime, gt=0)
    X = _as_row_matrix(selected)
    if X.shape[0] == 0:
        return 0.0
    gram = X @ X.T
    m = gram.shape[0]
    sign, logdet = np.linalg.slogdet(np.eye(m) + gram / lambda_prime)
    if sign <= 0:
        raise InvalidParameter("selected Gram produced a non-positive determinant")
    return 0.5 * float(logdet)


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


def adaptive_should_stop(sigma_n: float, n: int, policy: StoppingPolicy) -> bool:
    """Stop once σ_n (the square root of the variance — not σ²) exceeds
    1/(αn), strictly, or once n reaches n_max.

    Large σ means the data space cannot explain the query well, so further
    selection is predicted to pay little; the 1/(αn) schedule spends
    selection effort proportionally to the predicted payoff.
    """
    check_param("sigma_n", sigma_n, ge=0)
    check_param("n", n, ge=1, integer=True)
    return sigma_n > 1.0 / (policy.alpha * n) or n >= policy.n_max


def apply_adaptive_stopping(result: SelectionResult, policy: StoppingPolicy) -> SelectionResult:
    """Truncate a selection at the adaptive stopping point.

    Greedy selections are prefix-stable (step n never depends on how many
    more steps follow), so truncating a full run is exactly equivalent to
    stopping live. The rule is evaluated at each n with
    σ_n = sqrt(sigma_trace[n]); the first stopping n becomes the final
    length, keeping the n-th pick.
    """
    for n in range(1, len(result.order) + 1):
        if adaptive_should_stop(math.sqrt(result.sigma_trace[n]), n, policy):
            return replace(
                result,
                order=result.order[:n],
                objective_trace=result.objective_trace[:n],
                sigma_trace=result.sigma_trace[: n + 1],
            )
    return result


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
