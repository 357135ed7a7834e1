"""Selection strategies over a candidate embedding set.

Four strategies share one result shape:

- sift_select: exact greedy minimization of the query's conditional
  variance; each step picks argmax k²(q,x)/(k(x,x)+λ′) under the current
  conditional kernel and then conditions on the pick. sift_fast_select is
  the same selector under its older public name.
- nn_select: plain top-scoring retrieval (and its degenerate failure mode
  that returns the single closest row repeatedly).
- uncertainty_sampling_select: picks whichever candidate's own conditional
  variance is largest, ignoring the query.
- preselect_candidates: top-k inner-product prefilter applied before any of
  the above.

All three selectors run one greedy conditioning kernel and differ only in
the rule that names the next row, so their sigma traces are computed the
same way. Repeated selection of the same row is always permitted for the
variance based strategies — observing a row twice is informative under
noise — while nearest-neighbor distinct mode excludes prior picks. Ties are
broken by the smallest row index everywhere, which keeps every strategy
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpstrf

from .core import (
    NEGATIVE_VARIANCE_TOL,
    EmbeddingSet,
    KernelConfig,
    _clamp_variance,
    as_query,
)
from .errors import NotEnoughCandidates, NumericalFailure, check_param

# The greedy kernel folds its rank-one updates into A this many at a time,
# with one matrix product: at r = 200 an r×r elementwise update on every
# step cost more than all the rest of the step.
_FOLD_EVERY = 64


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selection with its per-step diagnostics.

    order holds selected row indices (repeats allowed). objective_trace
    holds the argmax objective at each step — the variance decrement for the
    variance minimizers, the inner-product score for nearest neighbor, the
    conditional variance of the pick for uncertainty sampling. sigma_trace
    holds the query's conditional variance sigma²_0..sigma²_N and has one
    more entry than order.
    """

    order: tuple[int, ...]
    objective_trace: tuple[float, ...]
    sigma_trace: tuple[float, ...]
    method: str
    lambda_prime: float

    def __post_init__(self):
        if len(self.sigma_trace) != len(self.order) + 1:
            raise ValueError("sigma_trace must have exactly len(order)+1 entries")
        if len(self.objective_trace) != len(self.order):
            raise ValueError("objective_trace must have exactly len(order) entries")


def _validate_inputs(candidates: EmbeddingSet, q, n_select: int) -> np.ndarray:
    if candidates.rows == 0:
        raise NotEnoughCandidates("candidate set is empty")
    check_param("n_select", n_select, ge=1, integer=True)
    return as_query(q, candidates.dim)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k of a stable argsort of −scores, without sorting them all.

    Every index tied with the k-th score is kept before the stable sort, so
    ties go to the smallest index as in the full sort. "not greater" rather
    than "at most" keeps NaN scores (from overflowing products), which both
    sorts place last.
    """
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    head = np.flatnonzero(~(neg > kth))
    return head[np.argsort(neg[head], kind="stable")[:k]]


def _candidate_factor(X: np.ndarray) -> np.ndarray:
    """A K×r matrix Z with ZZᵀ = XXᵀ and r ≤ min(K, d).

    With at least as many rows as dimensions the rows serve as they are.
    Otherwise a pivoted Cholesky of the K×K Gram keeps r ≤ K, so the greedy
    state stays K×K when d is large (a small pool of wide embeddings).
    Columns past LAPACK's numerical rank (tolerance K·ε·max‖x‖²) are
    dropped; that moves inner products by no more than forming the Gram does.
    The Gram comes from SciPy's BLAS, like the factorization: NumPy links its
    own OpenBLAS, whose threads still spin after a NumPy product and made the
    factorization 15× slower on two cores (200×1024 rows).
    """
    K, d = X.shape
    if K >= d:
        return X
    c, piv, rank, _ = dpstrf(dsyrk(1.0, X.T, trans=1), overwrite_a=1)
    Z = np.empty((K, rank))
    Z[piv - 1] = np.triu(c[:rank]).T
    return Z


def _greedy_kernel(
    X: np.ndarray, qv: np.ndarray, n_select: int, lam: float, pick
) -> tuple[list[int], list[float], list[float]]:
    """The exact greedy conditioning loop behind every selector.

    The conditional kernel among candidates is z_iᵀ A z_j, for the rows z_i
    of a factor Z of XXᵀ (see _candidate_factor) and an r×r matrix A that
    starts at I. k(q,·) and k(·,·) are tracked as K-vectors from the raw rows
    and query, so q is never expressed in Z's coordinates. Observing row p
    with noise λ′ maps every entry to
    k′(x,y) = k(x,y) − k(x,p)·k(p,y)/(k(p,p)+λ′); with w = A z_p/√(k(p,p)+λ′)
    the column k(·,p)/√(k(p,p)+λ′) is Z w and A becomes A − wwᵀ. A step costs
    one GEMV against Z plus O(r²), and the state is O(K + r²) whatever the
    number of picks — the incremental-conditioning trick of Chen, Zhang &
    Zhou 2018 ("Fast Greedy MAP Inference for DPPs", arXiv 1709.05135) in
    feature space. The last few w are kept as rows of W until they are
    folded into A, so the current matrix is A − WᵀW.

    pick(step, kq, diag) returns the next row of X and the objective value
    recorded for it, given the current conditional k(q,·) and k(·,·).
    Returns the order, objective trace and sigma trace.
    """
    Z = _candidate_factor(X)
    A = np.eye(Z.shape[1])
    W = np.empty((_FOLD_EVERY, Z.shape[1]))
    m = 0
    kq = X @ qv
    diag = np.einsum("ij,ij->i", X, X)
    sigma = _clamp_variance(float(qv @ qv), "sigma trace")
    sigma_trace = [sigma]
    order: list[int] = []
    objective_trace: list[float] = []
    for step in range(n_select):
        best, objective = pick(step, kq, diag)
        den = float(diag[best]) + lam
        root = math.sqrt(den)
        kq_best = float(kq[best])
        z = Z[best]
        w = A @ z - W[:m].T @ (W[:m] @ z)
        w /= root
        col = Z @ w
        kq -= col * (kq_best / root)
        diag -= col * col
        bad = float(diag.min())
        if bad < -NEGATIVE_VARIANCE_TOL:
            raise NumericalFailure(
                f"conditional diagonal went negative beyond round-off: {bad!r}"
            )
        np.maximum(diag, 0.0, out=diag)
        W[m] = w
        m += 1
        if m == _FOLD_EVERY:
            A -= W.T @ W
            m = 0
        sigma = _clamp_variance(sigma - kq_best * kq_best / den, "sigma trace")
        order.append(best)
        objective_trace.append(objective)
        sigma_trace.append(sigma)
    return order, objective_trace, sigma_trace


def sift_select(
    candidates: EmbeddingSet,
    q,
    n_select: int,
    cfg: KernelConfig,
) -> SelectionResult:
    """Exact greedy variance minimization for the query.

    At each step every candidate x is scored by the marginal variance
    reduction k²(q,x)/(k(x,x)+λ′) under the current conditional kernel; the
    argmax (smallest index on ties) is selected and the kernel is
    conditioned on it. sigma_trace obeys
    sigma_trace[i+1] = sigma_trace[i] − objective_trace[i]. A step costs one
    pass over the candidates (a K×min(K, d) matrix-vector product) plus
    O(min(K, d)²).
    """
    qv = _validate_inputs(candidates, q, n_select)
    lam = cfg.lambda_prime

    def pick(step, kq, diag):
        scores = kq * kq / (diag + lam)
        best = int(np.argmax(scores))
        return best, float(scores[best])

    order, objective_trace, sigma_trace = _greedy_kernel(
        candidates.data, qv, n_select, lam, pick)
    return SelectionResult(
        order=tuple(order),
        objective_trace=tuple(objective_trace),
        sigma_trace=tuple(sigma_trace),
        method="sift",
        lambda_prime=lam,
    )


def sift_fast_select(
    candidates: EmbeddingSet,
    q,
    n_select: int,
    cfg: KernelConfig,
) -> SelectionResult:
    """sift_select under the name of the retired lazy-greedy path.

    The heap of stale bounds it replaced was slower than the exact kernel,
    and not the greedy argmax where gains do not diminish. This returns
    sift_select's picks and traces, labelled "sift-fast".
    """
    return replace(sift_select(candidates, q, n_select, cfg), method="sift-fast")


def uncertainty_sampling_select(
    candidates: EmbeddingSet,
    q,
    n_select: int,
    cfg: KernelConfig,
) -> SelectionResult:
    """Greedy selection of the candidate with the largest own conditional
    variance.

    The argmax ignores the query entirely (that is the point of the
    baseline), but sigma_trace still tracks the query's conditional variance
    for comparison with the query-aware strategies.
    """
    qv = _validate_inputs(candidates, q, n_select)

    def pick(step, kq, diag):
        best = int(np.argmax(diag))
        return best, float(diag[best])

    order, objective_trace, sigma_trace = _greedy_kernel(
        candidates.data, qv, n_select, cfg.lambda_prime, pick)
    return SelectionResult(
        order=tuple(order),
        objective_trace=tuple(objective_trace),
        sigma_trace=tuple(sigma_trace),
        method="us",
        lambda_prime=cfg.lambda_prime,
    )


def nn_select(
    candidates: EmbeddingSet,
    q,
    n_select: int,
    cfg: KernelConfig,
    failure_mode: bool = False,
) -> SelectionResult:
    """Nearest-neighbor retrieval by inner-product score.

    Distinct mode returns the n_select distinct rows with the largest
    qᵀφ(x) in descending order (ties by smallest index); failure mode
    returns the single top row n_select times, modeling retrieval over
    heavily duplicated data. objective_trace carries the scores; sigma_trace
    still reports the query's conditional variance after each inclusion so
    the baselines are comparable on the same axis.
    """
    qv = _validate_inputs(candidates, q, n_select)
    scores = candidates.data @ qv
    if failure_mode:
        top = int(np.argmax(scores))
        order = [top] * n_select
    else:
        if n_select > candidates.rows:
            raise NotEnoughCandidates(
                f"{n_select} distinct rows requested, only {candidates.rows} exist"
            )
        order = [int(i) for i in _top_k(scores, n_select)]

    # σ² depends on the picked rows alone, so only they are conditioned on
    rows = list(dict.fromkeys(order))
    slot = {row: i for i, row in enumerate(rows)}

    def pick(step, kq, diag):
        return slot[order[step]], float(scores[order[step]])

    _, objective_trace, sigma_trace = _greedy_kernel(
        candidates.data[rows], qv, n_select, cfg.lambda_prime, pick)
    return SelectionResult(
        order=tuple(order),
        objective_trace=tuple(objective_trace),
        sigma_trace=tuple(sigma_trace),
        method="nn-f" if failure_mode else "nn",
        lambda_prime=cfg.lambda_prime,
    )


def preselect_candidates(space: EmbeddingSet, q, k_pre: int) -> EmbeddingSet:
    """Top-k_pre rows by inner product with the query, as a new EmbeddingSet.

    Ids are carried over and source_rows records each kept row's index in
    the original space (composed through any prior preselection), so
    downstream reports can name original rows. Deterministic under ties
    (smallest index first).
    """
    qv = as_query(q, space.dim)
    check_param("k_pre", k_pre, ge=1, integer=True)
    if k_pre > space.rows:
        raise NotEnoughCandidates(
            f"preselection of {k_pre} rows from a space of {space.rows}"
        )
    keep = _top_k(space.data @ qv, k_pre)
    prior = space.source_rows or tuple(range(space.rows))
    return EmbeddingSet(
        data=space.data[keep],
        ids=None if space.ids is None else tuple(space.ids[i] for i in keep),
        normalized=space.normalized,
        source_rows=tuple(prior[i] for i in keep),
    )
