"""Brute-force reference oracles used by the test suite.

These deliberately share no numerical code with the production paths: each
step rebuilds the Gram matrix from raw dot products and solves the dense
regularized system from scratch with plain numpy. Slow and obviously
correct is the point — the acceptance suite checks the optimized selectors
against these outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingSet, KernelConfig
from .errors import InstanceTooLarge, check_param
from .selectors import SelectionResult

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


def greedy_direct_oracle(
    candidates: EmbeddingSet, q, n_select: int, cfg: KernelConfig
) -> SelectionResult:
    """Greedy variance minimization with a fresh dense solve per candidate per step.

    At every step, evaluates sigma²_{X ∪ {x}}(q) for every candidate x by
    rebuilding the full system, and picks the minimizer (ties by smallest
    row index). Limited to small instances by design.
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
    for _ in range(n_select):
        best_idx = -1
        best_sigma = np.inf
        for x in range(candidates.rows):
            s = _direct_sigma_sq(rows, picked + [x], q, lam)
            if s < best_sigma:  # strict improvement only, so first index wins ties
                best_sigma = s
                best_idx = x
        picked.append(best_idx)
        objective_trace.append(sigma_trace[-1] - best_sigma)
        sigma_trace.append(best_sigma)
    return SelectionResult(
        order=tuple(picked),
        objective_trace=tuple(objective_trace),
        sigma_trace=tuple(sigma_trace),
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
