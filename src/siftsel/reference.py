"""Brute-force reference oracles used by the test suite.

These deliberately share no numerical code with the production paths: each
step rebuilds the Gram matrix from raw dot products and solves the dense
regularized system from scratch with plain numpy. Slow and obviously
correct is the point — the acceptance suite checks the optimized selectors
against these outputs. One exception: realized_info_gain, the oracle for
the greedy kernel's pivot record, reads posterior_variance's QR factor
(core._ridge_r), which the kernel does not use. apply_adaptive_stopping,
the oracle for the kernel's stopping, keeps its own copy of the rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import EmbeddingSet, KernelConfig, _as_row_matrix, _ridge_r
from .errors import InstanceTooLarge, InvalidParameter, check_param
from .selectors import SelectionResult, StoppingPolicy
from .uncertainty import _PIVOT_TIE, _RANK_CUTOFF

# Enumeration limits for the exhaustive optimum.
_MAX_EXHAUSTIVE_CANDIDATES = 7
_MAX_EXHAUSTIVE_SIZE = 3


@dataclass(frozen=True)
class OracleReport:
    """Per-step comparison between an oracle run and an optimized run."""

    order_matches: bool
    sigma_deviations: tuple[float, ...]
    objective_deviations: tuple[float, ...]
    max_deviation: float


def _direct_sigma_sq(rows: np.ndarray, picked: list[int], q: np.ndarray, lam: float) -> float:
    """sigma²_X(q) by a fresh dense solve; no caching, no factorization reuse."""
    kqq = float(np.dot(q, q))
    if not picked:
        return kqq
    X = rows[picked]
    gram = np.array([[float(np.dot(xi, xj)) for xj in X] for xi in X])
    kxq = np.array([float(np.dot(xi, q)) for xi in X])
    sol = np.linalg.solve(gram + lam * np.eye(len(picked)), kxq)
    return kqq - float(np.dot(kxq, sol))


def posterior_variance_feature_space(selected, q, cfg: KernelConfig) -> float:
    """posterior_variance in its feature-space form, λ′·qᵀ(XᵀX + λ′I_d)⁻¹q,
    by one dense solve. `selected` is an EmbeddingSet, an (m, d) array or a
    sequence of row vectors; no input checks."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if isinstance(selected, EmbeddingSet):
        X = selected.data
    else:
        X = np.asarray(selected, dtype=np.float64).reshape(-1, q.shape[0])
    lam = cfg.lambda_prime
    return lam * float(q @ np.linalg.solve(X.T @ X + lam * np.eye(q.shape[0]), q))


def realized_info_gain(selected, lambda_prime: float) -> float:
    """½·log det(I + K_X/λ′) for the actually selected rows.

    This is the computable stand-in for the max-over-all-sets information
    gain appearing in the regression width: a lower bound, and the quantity
    a practitioner can actually evaluate. `selected` may be an EmbeddingSet
    or any sequence of row vectors.

    With R the QR factor of the ridge-augmented rows (core._ridge_r), the
    gain is Σ ln|R_ii| − (r/2)·ln λ′ over its leading r = min(m, d)
    diagonals: that block has RᵀR = K_X + λ′I_m, or XᵀX + λ′I_d when
    m > d, whose determinant over λ′ᵈ is the same. No Gram is formed.
    """
    check_param("lambda_prime", lambda_prime, gt=0)
    X = _as_row_matrix(selected)
    if X.shape[0] == 0:
        return 0.0
    r = np.abs(np.diagonal(_ridge_r(X, np.zeros(X.shape[1]), lambda_prime))[:-1])
    return float(np.log(r).sum()) - 0.5 * r.size * math.log(lambda_prime)


def greedy_direct_oracle(
    candidates: EmbeddingSet, q, n_select: int, cfg: KernelConfig
) -> SelectionResult:
    """Greedy variance minimization with a fresh dense solve per candidate per step.

    At every step, evaluates sigma²_{X ∪ {x}}(q) for every candidate x by
    rebuilding the full system, and picks the minimizer (ties by smallest
    row index). Each step's pivot is the pick's own sigma² given the earlier
    picks, by another fresh solve, plus λ′. Limited to small instances by
    design.
    """
    if candidates.rows > 256 or n_select > 64:
        raise InstanceTooLarge(
            f"oracle limits: 256 candidates / 64 selections, got {candidates.rows}/{n_select}"
        )
    rows = candidates.data
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    lam = cfg.lambda_prime
    picked: list[int] = []
    sigma_trace = [_direct_sigma_sq(rows, picked, q, lam)]
    objective_trace: list[float] = []
    pivot_trace: list[float] = []
    for _ in range(n_select):
        best_idx = -1
        best_sigma = np.inf
        for x in range(candidates.rows):
            s = _direct_sigma_sq(rows, picked + [x], q, lam)
            if s < best_sigma:  # strict improvement only, so first index wins ties
                best_sigma = s
                best_idx = x
        pivot_trace.append(_direct_sigma_sq(rows, picked, rows[best_idx], lam) + lam)
        picked.append(best_idx)
        objective_trace.append(sigma_trace[-1] - best_sigma)
        sigma_trace.append(best_sigma)
    return SelectionResult(
        order=tuple(picked),
        objective_trace=tuple(objective_trace),
        sigma_trace=tuple(sigma_trace),
        pivot_trace=tuple(pivot_trace),
        method="oracle",
        lambda_prime=lam,
    )


def exhaustive_optimum(
    candidates: EmbeddingSet, q, subset_size: int, cfg: KernelConfig
) -> tuple[tuple[int, ...], float]:
    """The uncertainty-reduction-maximal multiset of the given size.

    Enumerates every multiset of candidate indices (combinations with
    repetition) and returns the one maximizing ψ(X) = sigma²_∅ − sigma²_X,
    ties resolved by lexicographic index order.
    """
    if candidates.rows > _MAX_EXHAUSTIVE_CANDIDATES or subset_size > _MAX_EXHAUSTIVE_SIZE:
        raise InstanceTooLarge(
            f"exhaustive limits: {_MAX_EXHAUSTIVE_CANDIDATES} candidates / "
            f"size {_MAX_EXHAUSTIVE_SIZE}, got {candidates.rows}/{subset_size}"
        )
    rows = candidates.data
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    lam = cfg.lambda_prime
    sigma0 = _direct_sigma_sq(rows, [], q, lam)
    best: tuple[int, ...] = ()
    best_psi = -np.inf
    for combo in itertools.combinations_with_replacement(range(candidates.rows), subset_size):
        psi = sigma0 - _direct_sigma_sq(rows, list(combo), q, lam)
        if psi > best_psi:  # lexicographically first multiset wins ties
            best_psi = psi
            best = combo
    return best, float(best_psi)


def nn_insufficiency_instance(d: int, copies: int) -> tuple[EmbeddingSet, np.ndarray]:
    """The basis-vector construction on which nearest-neighbor retrieval stalls.

    The data space holds each basis vector e_1..e_d repeated `copies` times
    (e_1 block first); the query is (2, 1, ..., 1) normalized, so e_1 is
    strictly closest and plain retrieval keeps choosing it while the query's
    other components stay unexplained. Variance-minimizing selection spreads
    across the axes instead and drives the query variance toward zero.
    """
    check_param("d", d, ge=2, integer=True)
    check_param("copies", copies, ge=1, integer=True)
    data = np.repeat(np.eye(d), copies, axis=0)
    q = np.ones(d)
    q[0] = 2.0
    q /= np.linalg.norm(q)
    return EmbeddingSet(data=data, normalized=True), q


def irreducible_uncertainty_oracle(space: EmbeddingSet, q) -> float:
    """η²(q) by the thin SVD alone: ‖q‖² minus the squared norm of q's
    projection on the right singular vectors above the relative rank cutoff
    1e-10. No full-rank shortcut."""
    if space.rows == 0:
        raise InvalidParameter("space must be non-empty")
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    s, vt = np.linalg.svd(space.data, full_matrices=False)[1:]
    rank = int(np.sum(s > _RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    coeffs = vt[:rank] @ q
    return max(float(q @ q) - float(coeffs @ coeffs), 0.0)


def lambda_min_oracle(space: EmbeddingSet) -> float:
    """data_space_lambda_min by modified Gram–Schmidt with exact residuals:
    every step orthogonalizes all remaining rows against the new direction
    and takes the largest residual² from the residual rows themselves, until
    none exceeds (1e-10·max‖x‖)². Ties go to the smallest index within the
    shipped code's margin, _PIVOT_TIE·d·ε relative to the largest. Returns
    σ_min² of the basis rows, from an SVD of those rows."""
    if space.rows == 0:
        raise InvalidParameter("space must be non-empty")
    rows = space.data
    resid = rows.copy()
    tol = (_RANK_CUTOFF * max(np.linalg.norm(x) for x in rows)) ** 2
    near = 1.0 - _PIVOT_TIE * rows.shape[1] * float(np.finfo(np.float64).eps)
    piv: list[int] = []
    while len(piv) < min(rows.shape):
        norms_sq = np.array([float(np.dot(r, r)) for r in resid])
        norms_sq[piv] = -np.inf
        if not norms_sq.max() > tol:
            break
        p = int(np.flatnonzero(norms_sq >= norms_sq.max() * near)[0])
        piv.append(p)
        direction = resid[p] / np.sqrt(norms_sq[p])
        for i in range(len(resid)):
            resid[i] -= float(np.dot(resid[i], direction)) * direction
    if not piv:
        raise InvalidParameter("data space has rank zero")
    return float(np.linalg.svd(rows[piv], compute_uv=False)[-1] ** 2)


def apply_adaptive_stopping(result: SelectionResult, policy: StoppingPolicy) -> SelectionResult:
    """Truncate a finished selection at the adaptive stopping point: the
    first n with sqrt(sigma_trace[n]) > 1/(αn), or n = n_max, keeping the
    n-th pick. A selector given alpha stops there itself, and its result
    must equal this truncation of its full run."""
    for n in range(1, len(result.order) + 1):
        if math.sqrt(result.sigma_trace[n]) > 1.0 / (policy.alpha * n) or n >= policy.n_max:
            return replace(
                result,
                order=result.order[:n],
                objective_trace=result.objective_trace[:n],
                sigma_trace=result.sigma_trace[: n + 1],
                pivot_trace=result.pivot_trace[:n],
            )
    return result


def compare_runs(oracle: SelectionResult, other: SelectionResult) -> OracleReport:
    """Per-step deviations between an oracle run and an optimized run."""
    n = min(len(oracle.sigma_trace), len(other.sigma_trace))
    sig_dev = tuple(
        abs(oracle.sigma_trace[i] - other.sigma_trace[i]) for i in range(n)
    )
    m = min(len(oracle.objective_trace), len(other.objective_trace))
    obj_dev = tuple(
        abs(oracle.objective_trace[i] - other.objective_trace[i]) for i in range(m)
    )
    return OracleReport(
        order_matches=tuple(oracle.order) == tuple(other.order),
        sigma_deviations=sig_dev,
        objective_deviations=obj_dev,
        max_deviation=max(sig_dev + obj_dev, default=0.0),
    )
