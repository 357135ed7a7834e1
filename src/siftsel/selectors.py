"""Selection strategies over a candidate embedding set.

Four strategies share one result shape:

- sift_select: exact greedy minimization of the query's conditional
  variance; each step picks argmax k²(q,x)/(k(x,x)+λ′) under the current
  conditional kernel and then conditions on the pick.
- nn_select: plain top-scoring retrieval (and its degenerate failure mode
  that returns the single closest row repeatedly).
- uncertainty_sampling_select: picks whichever candidate's own conditional
  variance is largest, ignoring the query.
- preselect_candidates: top-k inner-product prefilter applied before any of
  the above.

All three selectors run one greedy conditioning kernel and differ only in
the rule that names the next row, so their sigma traces are computed the
same way; given alpha, the kernel stops at the paper's adaptive rule
(adaptive_should_stop), so it computes only the picks it keeps. Repeated
selection of the same row is always permitted for the variance based
strategies — observing a row twice is informative under noise — while
nearest-neighbor distinct mode excludes prior picks. Ties are
broken by the smallest row index everywhere, which keeps every strategy
deterministic. The variance based strategies run the kernel on a set's
distinct rows and name each pick by the first index of its row, so a tie
between equal rows goes to the smallest index by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NEGATIVE_VARIANCE_TOL, EmbeddingSet, KernelConfig, as_query
from .errors import NotEnoughCandidates, NumericalFailure, check_param

# The most rows one selection may pick. A step costs a pass over the
# candidates whatever the number of picks, so an unbounded count runs for
# as long as it is told to: 100,000 picks from a 200-row pool take seconds.
MAX_N_SELECT = 100_000

# Float64 unit roundoff and smallest subnormal, for the scan's error bound.
_U64 = 2.0 ** -53
_TINY64 = 2.0 ** -1074

# Rows per block when the rows kept by a scan are rebuilt in float64.
_RESCORE_BLOCK = 4096

# Below this many multiply-adds (K·r) a GEMV costs no more than the few
# small products that build a column from kept ones. On one core of a
# 2-vCPU VM, at 200×128 both took about 4 µs; at 500×128 the GEMV took
# 11 µs and three kept columns 4 µs.
_RING_MIN_WORK = 2 ** 16

# A repeat pick's column is built from the kept columns only while its
# denominator k(p,p)+λ′ is at least this fraction of the largest starting
# diagonal: the built column is a difference of up to min(N, r) terms that
# large. At 2⁻¹³ and below, σ² at λ′ = 1e-4 erred against posterior_variance
# by more than with the GEMV alone; at 2⁻¹² it did not, at any λ′ from 1e-12
# to 1. Unit rows at λ′ ≥ 2.5e-4 never reach it.
_RING_DEN_FLOOR = 2.0 ** -12

# LAPACK dgeqp3's recompute rule (Drmač & Bujanović 2008, "On the failure
# of rank-revealing QR factorization software"): a downdated diagonal below
# this fraction of its last exact value has lost its digits to cancellation.
# Acting on such values threw the diagonals to −1.5e10 on 300×16 Gaussian
# rows ×1e8 at λ′ = 0.01. The benchmark's diagonals stay above 2.5e-4.
_DOWNDATE_FLOOR = 2.0 ** -26

# A pick below this fraction of its starting diagonal takes w, k(p,p) and
# k(q,p) from the projection too: a downdated k(p,p) errs by about u·k0/k
# and scales w, and A keeps that error. At _DOWNDATE_FLOOR alone, A was
# 2.6e-6 off and a pivot 1.6% after 36 picks of near-duplicate unit rows at
# λ′ = 1e-12; at 2⁻¹⁶ every pivot stayed within 1e-10.
_PICK_FLOOR = 2.0 ** -16


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selection with its per-step diagnostics.

    order holds selected row indices (repeats allowed). objective_trace
    holds the argmax objective at each step — the variance decrement for the
    variance minimizers, the inner-product score for nearest neighbor, the
    conditional variance of the pick for uncertainty sampling. sigma_trace
    holds the query's conditional variance sigma²_0..sigma²_N and has one
    more entry than order. pivot_trace holds each pick's own k(p,p)+λ′
    given the picks before it, so the first n picks' gain
    ½ log det(I + K_n/λ′) is γ_n = ½ Σ_{i≤n} ln(pivot_trace[i−1]/λ′).
    """

    order: tuple[int, ...]
    objective_trace: tuple[float, ...]
    sigma_trace: tuple[float, ...]
    pivot_trace: tuple[float, ...]
    method: str
    lambda_prime: float

    def __post_init__(self):
        if len(self.sigma_trace) != len(self.order) + 1:
            raise ValueError("sigma_trace must have exactly len(order)+1 entries")
        for name in ("objective_trace", "pivot_trace"):
            if len(getattr(self, name)) != len(self.order):
                raise ValueError(f"{name} must have exactly len(order) entries")


@dataclass(frozen=True)
class StoppingPolicy:
    """Adaptive stopping: stop once σ_n exceeds 1/(αn), or at n_max."""

    alpha: float
    n_max: int

    def __post_init__(self):
        check_param("alpha", self.alpha, gt=0)
        check_param("n_max", self.n_max, ge=1, integer=True)


def adaptive_should_stop(sigma_n: float, n: int, policy: StoppingPolicy) -> bool:
    """Stop once σ_n (the square root of the variance — not σ²) exceeds
    1/(αn), strictly, or once n reaches n_max.

    Large σ means the data space cannot explain the query well, so further
    selection is predicted to pay little; the 1/(αn) schedule spends
    selection effort proportionally to the predicted payoff.
    """
    check_param("sigma_n", sigma_n, ge=0)
    check_param("n", n, ge=1, integer=True)
    return _should_stop(sigma_n, n, policy)


def _should_stop(sigma_n: float, n: int, policy: StoppingPolicy) -> bool:
    # the rule, unchecked for the kernel: the checks took 7 µs a step on a 2-vCPU VM
    return sigma_n > 1.0 / (policy.alpha * n) or n >= policy.n_max


def _validate_inputs(candidates: EmbeddingSet, q, n_select: int,
                     alpha: float | None) -> tuple[np.ndarray, StoppingPolicy | None]:
    """The query as a vector and the stopping rule capped at n_select, None
    without alpha. n_select is checked first, so its error names it."""
    if candidates.rows == 0:
        raise NotEnoughCandidates("candidate set is empty")
    check_param("n_select", n_select, ge=1, le=MAX_N_SELECT, integer=True)
    qv = as_query(q, candidates.dim)
    return qv, None if alpha is None else StoppingPolicy(alpha=alpha, n_max=n_select)


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


def _gamma(n: int, u: float) -> float:
    """Higham's γ_n = n·u/(1 − n·u), infinite once n·u ≥ 1."""
    return n * u / (1 - n * u) if n * u < 1 else math.inf


def _norm(v: np.ndarray) -> float:
    """‖v‖ in float64, scaled by max|v| so that no square underflows or
    overflows; within a factor 1 + γ_{n+3} of the exact norm."""
    m = float(np.abs(v).max()) if v.size else 0.0
    if m == 0.0 or not math.isfinite(m):
        return m
    w = v / m
    return m * math.sqrt(float(w @ w))


def _rescore(rows: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """The float64 score of each row, by one fixed routine whose result for
    a row does not depend on the other rows. A BLAS GEMV does not have that
    property: over a subset of rows, OpenBLAS's is not byte-equal to the
    matching entries of the full product."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.reduce(rows * qv, axis=1)


def _ranked(space: EmbeddingSet, qv: np.ndarray,
            k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first k rows of a stable argsort of −_rescore(space.data, qv),
    their scores and their float64 rows (the bytes of space.data[rows]),
    from one scan of the stored rows.

    1. Scan: ŝ = x·q̃ for every stored row x, in the storage dtype (an
       SGEMV for float32 rows), with q̃ the query rounded to that dtype,
       multiplied in place by the row's reciprocal divisor rounded to that
       dtype (_scan_bound) when the set stores unnormalized rows with
       their norms.
    2. Filter (_survivors), still in the storage dtype: every row's ŝ lies
       within one number E of its exact rescored score r, so a row with r
       at least the k-th largest r has ŝ ≥ the k-th largest ŝ − 2E; only
       rows below that are dropped, and rows with a non-finite ŝ are kept.
       Only the kept rows are widened to float64.
    3. Rebuild the kept rows in float64, a block at a time.
    4. Rescore them with _rescore and take _top_k, which keeps ties in
       index order, as the full stable sort does. When the kept rows fit
       one block, the top k's rows are taken from the rebuilt block rather
       than rebuilt again.

    The bound, from Higham (Accuracy and Stability of Numerical
    Algorithms, §3.1): a length-d dot product in unit roundoff u errs by at
    most γ_d·|x|ᵀ|y| in any summation order, and each product that
    underflows adds at most the dtype's smallest subnormal, tiny. With
    ‖x‖ ≥ |x|ᵀ|y|/‖y‖ and g = γ_{d+2} in float64,
        |t − x·q| ≤ ‖x‖(γ_d‖q̃‖ + ‖q − q̃‖) + 2d·tiny     (scan, rounded query)
        |ŝ − t/div| ≤ p·‖x‖‖q̃‖(1 + γ_d)/div + tiny      (product, p ≈ 2u + u²)
        |r − x·q/div| ≤ g·‖x‖‖q‖/div + 4d·tiny₆₄(1 + ‖q‖) (rebuild and rescore)
    with p from _scan_bound, 0 without divisors, and the two comparisons
    each round by at most u₆₄|ŝ|. While q̃ is finite each |q_j − q̃_j| is
    at most u|q_j| + tiny/2, so ‖q − q̃‖ ≤ u‖q‖ + √d·tiny/2 and ‖q̃‖ is at
    most ‖q‖ plus that; for float64 rows q̃ = q and the same bound holds
    with u = 2⁻⁵³. A q̃ with an infinity makes every ŝ non-finite. E sums
    these with ‖x‖/div replaced by reach, an upper bound for every row,
    and every factor grows by (1 + 2g)² to cover the float64 evaluation of
    the norms and of E itself. A rescored score that could overflow
    float64 keeps every row.
    """
    rows, d = space._rows, space.dim
    reach, inv_div, rdiv, p, u, tiny, g, gd, grow = _scan_bound(space)
    with np.errstate(over="ignore", invalid="ignore"):
        s = rows @ qv.astype(rows.dtype)
        if rdiv is not None:
            s *= rdiv
        qn = _norm(qv)
        dq = 0.0 if rows.dtype == np.float64 else u * qn + math.sqrt(d) * tiny / 2
        qsn = qn + dq
        E = reach * grow * (gd * qsn + dq + g * qn + (p + 2 * _U64) * (1 + gd) * qsn)
        E += grow * ((2 * d * inv_div * (1 + p) + 1) * tiny + 4 * d * _TINY64 * (1 + qn))
        if not reach * qn * grow < sys.float_info.max / 4:
            keep = np.arange(space.rows)
        else:
            keep = _survivors(s, E, k)
    scores = np.empty(keep.size)
    for start in range(0, keep.size, _RESCORE_BLOCK):
        idx = keep[start:start + _RESCORE_BLOCK]
        X = space._take(idx)
        scores[start:start + idx.size] = _rescore(X, qv)
    top = _top_k(scores, k)
    picked = X[top] if keep.size <= _RESCORE_BLOCK else space._take(keep[top])
    return keep[top], scores[top], picked


def _scan_bound(space: EmbeddingSet) -> tuple:
    """(reach, inv_div, rdiv, p, u, tiny, g, gd, grow), the constants of
    _ranked's bound for a non-empty set, made once and kept in its _reach
    slot. reach·(1 + 2g) bounds every stored row's exact norm over its
    divisor (1 without divisors), and inv_div every reciprocal divisor.
    rdiv is 1/div rounded to the storage dtype, read-only; fl(t·rdiv_i) in
    that dtype is within p·|t|/div_i + tiny/2 of t/div_i for any t that
    does not overflow (None and 0 without divisors). u and tiny are the
    storage dtype's unit roundoff and smallest subnormal, g is γ_{d+2} in
    float64, gd is γ_d in u, and grow is (1 + 2g)²."""
    if space._reach is None:
        d, div = space.dim, space._div
        fin = np.finfo(space._rows.dtype)
        u, tiny = float(fin.eps) / 2, float(fin.smallest_subnormal)
        # a computed float64 norm n_i has (n_i + a)(1 + 2g) ≥ the exact norm
        a = math.sqrt(d) * 2.0 ** -537  # √(d × the smallest float64 subnormal)
        if div is None:
            reach, inv_div, rdiv, p = float(space._row_norms().max()) + a, 1.0, None, 0.0
        else:
            inv_div = (1 + 2.0 ** -52) / float(div.min())
            rdiv = np.reciprocal(div).astype(space._rows.dtype, copy=False)
            rdiv.flags.writeable = False
            # rdiv_i is within rho/div_i of 1/div_i: rounded twice, in
            # float64 and then the storage dtype, and by at most half a
            # subnormal where it is one; the product rounds once more
            rho = u + 2.0 ** -52 + float(div.max()) * tiny / 2
            reach, p = 1 + a * inv_div, rho + u * (1 + rho)
        g = _gamma(d + 2, _U64)
        object.__setattr__(space, "_reach", (reach, inv_div, rdiv, p, u, tiny, g,
                                             _gamma(d, u), (1 + 2 * g) ** 2))
    return space._reach


def _survivors(s: np.ndarray, E: float, k: int) -> np.ndarray:
    """The indices i, ascending, with s_i not below kth − 2E for the k-th
    largest s (_cut), for scores s in their storage dtype and a bound E in
    float64, and those of every non-finite s_i, which are set to −inf.

    When the sum of s is finite (so is every s_i), the k-th largest L of
    every 8th score from 16k scores up (below that, of every score) is at
    most kth, so the rows with s_i ≥ L − 2E hold the top k and every
    survivor, and kth and the test are taken over those rows alone: one
    partition of K/8 scores and one of the few near the top, where the
    K-score partition took most of the filter."""
    if not math.isfinite(np.add.reduce(s)):
        bad = ~np.isfinite(s)
        s[bad] = -np.inf
        return np.flatnonzero((s >= _cut(s, k, E)) | bad)
    near = np.flatnonzero(s >= _cut(s[::8] if s.size >= 16 * k else s, k, E))
    top = s[near]
    return near[top >= _cut(top, k, E)]


def _cut(s: np.ndarray, k: int, E: float):
    """kth − 2E for the k-th largest of s, in float64 rounded up to s's
    dtype, which s_i is at least exactly when it is at least kth − 2E in
    float64. Both roundings are monotone, so the cut rises with kth."""
    lo = float(np.partition(s, s.size - k)[s.size - k]) - 2 * E
    cut = s.dtype.type(lo)
    if float(cut) < lo:
        cut = np.nextafter(cut, s.dtype.type(np.inf))
    return cut


def _candidate_factor(X: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A K×r matrix Z and an r×r matrix A₀ with Z A₀ Zᵀ = XXᵀ, r = min(K, d),
    either None standing for I.

    With at least as many rows as dimensions the rows serve as they are.
    Otherwise Z is the K×K identity and A₀ the Gram XXᵀ, so the greedy
    state stays K×K when d is large (a small pool of wide embeddings) and
    the kernel conditions the Gram itself. Nothing is factored, so rows that
    depend on the others need no rank decision. Each entry of the Gram errs
    by about d·u·‖x_i‖‖x_j‖, relative to its own rows, and so do the
    kernel's updates, so a row 1e9 times shorter than the longest keeps
    what it adds. Cost O(dK²), one symmetric rank-K product.
    """
    K, d = X.shape
    if K >= d:
        return X, None
    return None, X @ X.T


def _times_z(M: np.ndarray, Z: np.ndarray | None, p: int) -> np.ndarray:
    """M z_p for row p of Z, with Z None standing for I: M's column p,
    read rather than multiplied, and copied so that a product fed it sees
    a contiguous vector, as it does M z_p, and rounds the same."""
    return M @ Z[p] if Z is not None else M[:, p].copy()


def _project(Z: np.ndarray | None, p: int, A: np.ndarray | None,
             W: np.ndarray) -> np.ndarray:
    """(A − WᵀW) z_p for row p of Z and the greedy kernel's current matrix,
    with A None standing for I (before the first fold; Z is then the rows)
    and W holding the w's not yet folded into A, possibly none. Each case
    skips a product whose result it already has: I z is z, A I and W I
    are columns (_times_z), and an empty W takes nothing off."""
    v = Z[p] if A is None else _times_z(A, Z, p)
    return v - W.T @ _times_z(W, Z, p) if len(W) else v


def _clamp_variance(value: float, context: str, scale: float = 1.0) -> float:
    """Clamp round-off negatives to 0; raise on negatives beyond tolerance,
    NEGATIVE_VARIANCE_TOL times `scale` (the size of the variances the
    value was computed from) when that exceeds 1."""
    if value < -NEGATIVE_VARIANCE_TOL * max(scale, 1.0):
        raise NumericalFailure(f"{context} is negative beyond round-off: {value!r}")
    return max(value, 0.0)


def _extend_basis(Q: np.ndarray, x: np.ndarray, lam: float) -> np.ndarray:
    """Q, padded with a zero row (none at λ′ = 0), and one more column:
    [x; 0; √λ′] orthogonalized against Q's columns and normalized. A pass
    that takes more than half the norm is repeated (Kahan's "twice is
    enough"; rows ×1e38 needed three). Built from an empty d×0 Q, it is an
    orthonormal basis of [[Pᵀ], [√λ′·I_m]] for the picked rows P, off which
    the residuals r̃ of [x; 0] have r̃_xᵀr̃_y = k(x,y) given the picks."""
    n, c = Q.shape
    out = np.zeros((n + (lam > 0), c + 1))
    out[:n, :c] = Q
    Q, v = out[:, :c], out[:, c]
    v[:x.size], v[n:] = x, math.sqrt(lam)
    last, norm = math.inf, math.sqrt(v @ v)
    while norm < last / 2:
        v -= Q @ (Q.T @ v)
        last, norm = norm, math.sqrt(v @ v)
    v /= norm
    return out


def _greedy_kernel(
    X: np.ndarray, qv: np.ndarray, n_select: int, lam: float, pick, diag0: np.ndarray,
    names: np.ndarray | None, method: str, stop: StoppingPolicy | None
) -> SelectionResult:
    """The exact greedy conditioning loop behind every selector, and behind
    data_space_lambda_min's pivots at λ′ = 0.

    The conditional kernel among candidates is z_iᵀ A z_j, for the rows z_i
    of a K×r matrix Z and an r×r matrix A that starts at A₀, with
    Z A₀ Zᵀ = XXᵀ (see _candidate_factor). k(q,·) and k(·,·) are tracked as
    K-vectors from the raw rows and query. Observing row p with noise λ′
    maps every entry to k′(x,y) = k(x,y) − k(x,p)·k(p,y)/(k(p,p)+λ′); with
    w = A z_p/√(k(p,p)+λ′) the column k(·,p)/√(k(p,p)+λ′) is Z w and A
    becomes A − wwᵀ: the incremental conditioning of Chen, Zhang & Zhou
    2018 ("Fast Greedy MAP Inference for DPPs", arXiv 1709.05135) in
    feature space, O(K + r²) state whatever the number of picks. The kernel
    keeps one window of min(N, r) steps, N = n_select: slot m holds the m-th
    step's w as row m of W, its root √(k(p,p)+λ′) and, when a GEMV is at
    least _RING_MIN_WORK multiply-adds, its column Z w. The current matrix
    is A − WᵀW; when the window fills and steps remain, W is folded into A.

    A step costs O(r²) for w plus the column: one GEMV against Z, K·r work,
    or w itself when Z is I (_times_z). A repeat of row p whose last pick
    holds slot a, now at slot m, builds it from the kept columns instead,
        Z A_m z_p = root_a·col_a − Σ_{j=a}^{m−1} col_j (w_j·z_p),
    (m − a)·K work, unless its denominator is below _RING_DEN_FLOOR. With
    N ≤ r the window never folds: one GEMV per distinct row.

    Round-off follows dgeqp3's rule. After each update, every row whose
    k(x,x) is below _DOWNDATE_FLOOR times its last exact value (diag0 at
    the start), or below zero, is recomputed by projecting [x; 0] twice
    off an orthonormal basis of the ridge-augmented picks (_extend_basis):
    with r̃ its residual, k(x,x) = ‖r̃_x‖² and k(q,x) = r̃_qᵀr̃_x. A pick
    below _PICK_FLOOR of diag0 takes k(p,p), k(q,p), σ² = ‖r̃_q‖² and its w
    and column, from X r̃_p, off the same basis; they fill its window slot.
    So every pivot is the pick's own k(p,p)+λ′, no diagonal is negative,
    and σ² below zero by more than NEGATIVE_VARIANCE_TOL·max(σ²₀, 1) raises
    NumericalFailure.

    pick(step, kq, diag) returns the next row of X and the objective value
    recorded for it, given the current k(q,·) and k(·,·), or None to stop.
    diag0 is einsum("ij,ij->i", X, X); the kernel works on a copy. Each pick
    is named by names[row], its index in the caller's set, or by the row
    when names is None. With a stopping policy the loop ends after the
    first pick n at which adaptive_should_stop(σ_n, n) holds; all else is
    sized from n_select, so a stopped run is the bytes of the full run's
    first n steps.
    """
    Z, A = _candidate_factor(X)  # None is I, for A until the first fold
    K, d = X.shape
    r = K if Z is None else Z.shape[1]
    size = min(n_select, r)
    W, roots = np.empty((size, r)), np.empty(size)
    cols = np.empty((size if Z is not None and K * r >= _RING_MIN_WORK else 0, K))
    m = 0
    col, tmp = np.empty(K), np.empty(K)
    slot: dict[int, int] = {}  # row -> the window slot of its last pick
    kq = X @ qv
    diag = diag0.copy()
    floor = _DOWNDATE_FLOOR * diag0  # of each row's diagonal when last exact
    # argmin's fast path tests a step against the largest floor in one pass
    fallen, top_floor = np.empty(K, dtype=bool), float(floor.max())
    build_floor = _RING_DEN_FLOOR * float(diag.max())
    sigma = sigma0 = float(qv @ qv)
    sigma_trace = [sigma]
    order: list[int] = []
    objective_trace: list[float] = []
    pivot_trace: list[float] = []
    P, Q, counted = np.empty((0, d)), np.empty((d, 0)), 0  # the basis spans P's rows

    def residuals(rows) -> np.ndarray:
        """r̃ for X[rows] and then q, off the picks so far."""
        nonlocal P, Q, counted
        P, counted = np.vstack([P, X[order[counted:]]]), len(order)
        if len(P) > 2 * d:  # its R factor has the same PᵀP in d rows
            P, Q = np.linalg.qr(P, mode="r"), np.empty((d, 0))
        for x in P[Q.shape[1]:]:
            Q = _extend_basis(Q, x, lam)
        R = np.zeros((len(rows) + 1, len(Q)))
        R[:-1, :d], R[-1, :d] = X[rows], qv
        for _ in range(2):
            R -= (R @ Q) @ Q.T
        return R

    for step in range(n_select):
        if stop is not None and step and _should_stop(math.sqrt(sigma), step, stop):
            break
        if (chosen := pick(step, kq, diag)) is None:
            break
        best, objective = chosen
        kq_best, diag_best = kq.item(best), diag.item(best)
        exact = diag_best < _PICK_FLOOR * diag0.item(best)
        if exact:
            res = residuals([best])
            kq_best, diag_best = float(res[1] @ res[0]), float(res[0] @ res[0])
            sigma = float(res[1] @ res[1])
        den = diag_best + lam
        order.append(best)
        objective_trace.append(objective)
        pivot_trace.append(den)
        root = math.sqrt(den)
        a = slot.get(best)
        if len(cols):
            col = cols[m]
        if exact:
            w = res[0, :d] / root  # A z_p/root when Z is X; otherwise its column
            if Z is not X:
                w = X @ w
        else:
            w = _project(Z, best, A, W[:m]) / root
        if not exact and a is not None and len(cols) and den >= build_floor:
            coef = W[a:m] @ Z[best]
            coef[0] -= roots[a]
            coef /= -root
            np.dot(coef, cols[a:m], out=col)
        elif Z is None:
            col[:] = w
        else:
            np.dot(Z, w, out=col)
        np.multiply(col, kq_best / root, out=tmp)
        kq -= tmp
        np.multiply(col, col, out=tmp)
        diag -= tmp
        if diag[diag.argmin()] < top_floor and np.less(diag, floor, out=fallen).any():
            rows = np.flatnonzero(fallen)
            res = residuals(rows)
            diag[rows] = np.einsum("ij,ij->i", res[:-1], res[:-1])
            kq[rows] = res[:-1] @ res[-1]
            floor[rows] = _DOWNDATE_FLOOR * diag[rows]
            top_floor = float(floor.max())
        W[m], roots[m], slot[best] = w, root, m
        m += 1
        if m == size and step + 1 < n_select:
            A = (np.eye(r) if A is None else A) - W.T @ W
            m = 0
            slot.clear()
        sigma -= kq_best * kq_best / den
        if sigma < 0.0:
            sigma = _clamp_variance(sigma, "sigma trace", sigma0)
        sigma_trace.append(sigma)
    return SelectionResult(tuple(order if names is None else names[order].tolist()),
                           tuple(objective_trace), tuple(sigma_trace), tuple(pivot_trace),
                           method, lam)


def _first_rows(X: np.ndarray) -> np.ndarray | None:
    """The index of the first of each group of equal rows of X, ascending,
    or None when no two rows are equal. -0.0 and 0.0 are equal.

    Each row's fingerprint is its _rescore against one fixed vector, a
    block of _RESCORE_BLOCK rows at a time. _rescore gives a row the same
    value wherever it sits, so equal rows have equal fingerprints; only
    rows whose fingerprint repeats or is not finite are compared by value.
    """
    K, d = X.shape
    v = np.cos(np.arange(1, d + 1))
    f = np.empty(K)
    for start in range(0, K, _RESCORE_BLOCK):
        f[start:start + _RESCORE_BLOCK] = _rescore(X[start:start + _RESCORE_BLOCK], v)
    by = np.argsort(f, kind="stable")
    f = f[by]
    tie = f[1:] == f[:-1]
    suspect = ~np.isfinite(f)
    suspect[1:] |= tie
    suspect[:-1] |= tie
    if not suspect.any():
        return None
    sub = np.sort(by[suspect])
    _, first = np.unique(X[sub], axis=0, return_index=True)
    if first.size == sub.size:
        return None
    keep = np.ones(K, dtype=bool)
    keep[sub] = False
    keep[sub[first]] = True
    return np.flatnonzero(keep)


def _select_distinct(candidates: EmbeddingSet, q, n_select: int, cfg: KernelConfig,
                     alpha: float | None, method: str, score) -> SelectionResult:
    """The greedy kernel over the set's distinct rows, each step picking the
    first largest of score(kq, diag, buf), with buf two scratch K-vectors,
    and each pick named by the first index of its row in the set.

    The kernel's start state depends on the rows alone, so it is computed
    on a set's first selection and kept in its _sq slot, read-only: the
    distinct rows, their squared norms einsum("ij,ij->i", rows, rows), and
    the index in data of each (_first_rows), None when that is every row
    and the rows are data itself. A pool that preselect_candidates has
    found distinct arrives with that whole state."""
    qv, stop = _validate_inputs(candidates, q, n_select, alpha)
    if candidates._sq is None:
        X, keep = candidates.data, _first_rows(candidates.data)
        if keep is not None:
            X = X[keep]
            X.flags.writeable = False
        sq = np.einsum("ij,ij->i", X, X)
        sq.flags.writeable = False
        object.__setattr__(candidates, "_sq", (X, sq, keep))
    X, sq, keep = candidates._sq
    buf = tuple(np.empty((2, X.shape[0])))  # two views, made once

    def pick(step, kq, diag):
        scores = score(kq, diag, buf)
        best = int(scores.argmax())
        return best, scores.item(best)

    return _greedy_kernel(X, qv, n_select, cfg.lambda_prime, pick, sq, keep, method, stop)


def sift_select(candidates: EmbeddingSet, q, n_select: int, cfg: KernelConfig, *,
                alpha: float | None = None) -> SelectionResult:
    """Exact greedy variance minimization for the query.

    At each step every candidate x is scored by the marginal variance
    reduction k²(q,x)/(k(x,x)+λ′) under the current conditional kernel; the
    argmax (smallest index on ties, equal rows included) is selected and the
    kernel is conditioned on it. sigma_trace obeys
    sigma_trace[i+1] = sigma_trace[i] − objective_trace[i]. With K distinct
    rows, a step costs a few elementwise passes over them plus
    O(min(K, d)²), and one K×min(K, d) matrix-vector product, whose column
    a row picked again within the kernel's window of min(N, K, d) steps
    builds from kept ones instead (see _greedy_kernel). With alpha, the
    selection stops at the adaptive rule (StoppingPolicy(alpha, n_select)).
    """
    lam = cfg.lambda_prime

    def score(kq, diag, buf):
        np.multiply(kq, kq, out=buf[0])
        np.add(diag, lam, out=buf[1])
        return np.divide(buf[0], buf[1], out=buf[0])

    return _select_distinct(candidates, q, n_select, cfg, alpha, "sift", score)


def uncertainty_sampling_select(candidates: EmbeddingSet, q, n_select: int,
                                cfg: KernelConfig, *,
                                alpha: float | None = None) -> SelectionResult:
    """Greedy selection of the candidate with the largest own conditional
    variance.

    The argmax ignores the query entirely (that is the point of the
    baseline), but sigma_trace still tracks the query's conditional variance
    for comparison with the query-aware strategies, and the adaptive rule
    given alpha stops on it.
    """
    return _select_distinct(candidates, q, n_select, cfg, alpha, "us",
                            lambda kq, diag, buf: diag)


def nn_select(candidates: EmbeddingSet, q, n_select: int, cfg: KernelConfig,
              failure_mode: bool = False, *, alpha: float | None = None) -> SelectionResult:
    """Nearest-neighbor retrieval by inner-product score.

    Distinct mode returns the n_select distinct rows with the largest
    qᵀφ(x) in descending order (ties by smallest index); failure mode
    returns the single top row n_select times, modeling retrieval over
    heavily duplicated data. objective_trace carries the scores; sigma_trace
    still reports the query's conditional variance after each inclusion so
    the baselines are comparable on the same axis. σ² depends on the picked
    rows alone, so the kernel conditions on the k ranked rows, in rank order,
    and stops there at the adaptive rule given alpha.
    """
    qv, stop = _validate_inputs(candidates, q, n_select, alpha)
    k = 1 if failure_mode else n_select
    if k > candidates.rows:
        raise NotEnoughCandidates(
            f"{n_select} distinct rows requested, only {candidates.rows} exist"
        )
    top, scores, X = _ranked(candidates, qv, k)
    return _greedy_kernel(X, qv, n_select, cfg.lambda_prime,
                          lambda step, kq, diag: (step % k, scores.item(step % k)),
                          np.einsum("ij,ij->i", X, X), top, "nn-f" if failure_mode else "nn",
                          stop)


def preselect_candidates(space: EmbeddingSet, q, k_pre: int) -> EmbeddingSet:
    """Top-k_pre rows by inner product with the query, as a new EmbeddingSet.

    Ids are carried over and source_rows records each kept row's index in
    the original space (composed through any prior preselection), so
    downstream reports can name original rows. Deterministic under ties
    (smallest index first). Past the one pass that scores the rows, the
    work is on the k_pre kept rows alone.
    Equal rows rescore equal and _ranked returns them adjacent, so kept
    scores that strictly fall mean distinct rows: the pool's _sq is then
    its whole start state, and the selectors skip _first_rows on it.
    """
    qv = as_query(q, space.dim)
    check_param("k_pre", k_pre, ge=1, integer=True)
    if k_pre > space.rows:
        raise NotEnoughCandidates(
            f"preselection of {k_pre} rows from a space of {space.rows}"
        )
    top, scores, rows = _ranked(space, qv, k_pre)
    keep = top.tolist()
    prior = space.source_rows
    pool = EmbeddingSet._certified(
        rows,
        ids=None if space.ids is None else tuple(space.ids[i] for i in keep),
        normalized=space.normalized,
        source_rows=tuple(keep) if prior is None else tuple(prior[i] for i in keep),
    )
    if (scores[1:] < scores[:-1]).all():
        sq = np.einsum("ij,ij->i", pool.data, pool.data)
        sq.flags.writeable = False
        object.__setattr__(pool, "_sq", (pool.data, sq, None))
    return pool
