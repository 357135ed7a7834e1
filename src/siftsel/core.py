"""Kernel algebra over embedding rows.

Everything downstream reduces to the inner-product kernel k(x, y) = xᵀy and
the regularized conditional (posterior) variance of a query vector given a
multiset of observed rows:

    sigma²_X(q) = k(q,q) − k_X(q)ᵀ (K_X + λ′ I)⁻¹ k_X(q)

where K_X is the Gram matrix of the observed rows and λ′ > 0 plays the role
of observation noise. This module provides that quantity in both its kernel
form and its equivalent feature-space form, row normalization, and total
variation distance. All arithmetic is 64-bit regardless of on-disk storage.
EmbeddingSet is the one place embedding rows are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteValue,
    NotAProbabilityVector,
    NumericalFailure,
    ZeroNormRow,
    check_param,
)

# Negative variances within this band are round-off and clamped to zero;
# anything more negative is treated as a logic error (NumericalFailure).
NEGATIVE_VARIANCE_TOL = 1e-9

_ZERO_NORM_CUTOFF = 1e-12


def _check_finite(data: np.ndarray) -> None:
    """Raise NonFiniteValue at the first NaN or infinity of a 2-D array;
    the position is looked up only after one pass has found one."""
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise NonFiniteValue(int(r), int(c))


@dataclass(frozen=True)
class EmbeddingSet:
    """An immutable id-tagged matrix of row embeddings.

    data is (n, d) float64, one embedding per row. ids, when present, has
    exactly n entries. source_rows records the original row index of each
    row when the set is a subset of a larger space (None means identity).
    The set keeps a read-only view of data; the caller's array stays as is.
    """

    data: np.ndarray
    ids: tuple[str, ...] | None = None
    normalized: bool = False
    source_rows: tuple[int, ...] | None = None

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64)).view()
        if data.ndim != 2 or data.shape[1] == 0:
            raise DimensionMismatch(
                f"embedding data must be 2-D with at least one column, got shape {data.shape}"
            )
        _check_finite(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        if self.ids is not None:
            ids = tuple(str(i) for i in self.ids)
            if len(ids) != data.shape[0]:
                raise DimensionMismatch(
                    f"{len(ids)} ids for {data.shape[0]} rows"
                )
            object.__setattr__(self, "ids", ids)
        if self.source_rows is not None:
            src = tuple(int(i) for i in self.source_rows)
            if len(src) != data.shape[0]:
                raise DimensionMismatch(
                    f"{len(src)} source rows for {data.shape[0]} rows"
                )
            object.__setattr__(self, "source_rows", src)
        if self.normalized and data.shape[0] > 0:
            norms = np.linalg.norm(data, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise InvalidParameter("normalized flag set but some row norm deviates from 1")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def id_of(self, row: int) -> str:
        """The string id of a row, defaulting to its decimal index."""
        if self.ids is not None:
            return self.ids[row]
        return str(row)


@dataclass(frozen=True)
class KernelConfig:
    """The regularizer shared by all kernel computations: lambda_prime is the
    observation-noise regularizer λ′ > 0 added to Gram diagonals."""

    lambda_prime: float = 0.01

    def __post_init__(self):
        check_param("lambda_prime", self.lambda_prime, gt=0)


def as_query(q, dim: int | None = None) -> np.ndarray:
    """Validate and convert a query embedding to a 1-D float64 vector."""
    vec = np.asarray(q, dtype=np.float64).reshape(-1)
    _check_finite(vec[None, :])
    if dim is not None and vec.shape[0] != dim:
        raise DimensionMismatch(f"query has dimension {vec.shape[0]}, expected {dim}")
    return vec


def _as_row_matrix(selected, dim: int | None = None) -> np.ndarray:
    """Stack an EmbeddingSet, an (m, d) array or a (possibly empty) sequence
    of row vectors into an (m, d) float64 matrix.

    Rows that do not come from an EmbeddingSet get its finiteness check.
    With dim given the rows must have that dimension, and an empty
    sequence becomes (0, dim); without it, (0, 0).
    """
    if isinstance(selected, EmbeddingSet):
        mat = selected.data
    else:
        if isinstance(selected, np.ndarray) and selected.ndim == 2:
            mat = np.asarray(selected, dtype=np.float64)
        else:
            rows = [np.asarray(r, dtype=np.float64).reshape(-1) for r in selected]
            if not rows:
                return np.empty((0, dim or 0), dtype=np.float64)
            mat = np.vstack(rows)
        _check_finite(mat)
    if dim is not None and mat.shape[1] != dim:
        raise DimensionMismatch(
            f"selected rows have dimension {mat.shape[1]}, query has {dim}"
        )
    return mat


def spd_solve(mat: np.ndarray, rhs: np.ndarray, jitter: float = 1e-10) -> np.ndarray:
    """Solve the symmetric positive-definite system mat @ x = rhs.

    Plain Cholesky first; on failure the diagonal is bumped by `jitter`,
    then 1e-8, then 1e-6 before giving up with NumericalFailure. The
    escalation rescues Grams made singular by duplicated rows when the
    caller's regularizer is tiny, while the unperturbed first attempt
    keeps well-posed solves bias-free.
    """
    mat = np.asarray(mat, dtype=np.float64)
    ladder = [0.0]
    for j in (jitter, 1e-8, 1e-6):
        if j > ladder[-1]:
            ladder.append(j)
    eye = np.eye(mat.shape[0])
    for j in ladder:
        try:
            c, low = scipy.linalg.cho_factor(mat + j * eye, lower=True, check_finite=False)
            return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
    raise NumericalFailure(
        f"SPD solve failed after jitter escalation to 1e-6 (size {mat.shape[0]})"
    )


def _clamp_variance(value: float, context: str) -> float:
    """Clamp round-off negatives to 0; raise on negatives beyond tolerance."""
    if value < -NEGATIVE_VARIANCE_TOL:
        raise NumericalFailure(f"{context} is negative beyond round-off: {value!r}")
    return max(value, 0.0)


def normalize_rows(e: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm, preserving ids.

    Raises ZeroNormRow for any row with norm below 1e-12 — a silent drop
    would hide upstream embedding bugs.
    """
    norms = np.linalg.norm(e.data, axis=1)
    bad = np.flatnonzero(norms < _ZERO_NORM_CUTOFF)
    if bad.size:
        raise ZeroNormRow(int(bad[0]))
    return replace(e, data=e.data / norms[:, None], normalized=True)


def posterior_variance(selected, q, cfg: KernelConfig) -> float:
    """Conditional variance of the query after observing the selected rows.

    sigma²_X(q) = k(q,q) − k_X(q)ᵀ (K_X + λ′ I_m)⁻¹ k_X(q), with the
    empty selection returning k(q,q). Repeats in `selected` are meaningful:
    observing the same row twice reduces variance further, like repeated
    noisy measurements.
    """
    q = as_query(q)
    X = _as_row_matrix(selected, q.shape[0])
    kqq = float(q @ q)
    if X.shape[0] == 0:
        return _clamp_variance(kqq, "posterior variance")
    gram = X @ X.T
    gram[np.diag_indices_from(gram)] += cfg.lambda_prime
    kxq = X @ q
    sol = spd_solve(gram, kxq)
    return _clamp_variance(kqq - float(kxq @ sol), "posterior variance")


def posterior_variance_feature_space(selected, q, cfg: KernelConfig) -> float:
    """The same conditional variance computed in feature space.

    sigma²_X(q) = λ′ · qᵀ (Σ_X + λ′ I_d)⁻¹ q with Σ_X = Φ_XᵀΦ_X. Agrees
    with posterior_variance to ~1e-8 on well-conditioned inputs; useful when
    the selection is much larger than the embedding dimension.
    """
    q = as_query(q)
    X = _as_row_matrix(selected, q.shape[0])
    sigma = X.T @ X
    sigma[np.diag_indices_from(sigma)] += cfg.lambda_prime
    sol = spd_solve(sigma, q)
    return _clamp_variance(cfg.lambda_prime * float(q @ sol), "posterior variance")


def tv_distance(s, t) -> float:
    """Total variation distance ½ Σ|s_i − t_i| between probability vectors."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if s.shape != t.shape:
        raise DimensionMismatch(f"probability vectors of length {s.shape[0]} vs {t.shape[0]}")
    for name, v in (("first", s), ("second", t)):
        if np.any(v < 0) or abs(float(v.sum()) - 1.0) > 1e-6:
            raise NotAProbabilityVector(f"{name} argument is not a probability vector")
    return 0.5 * float(np.abs(s - t).sum())
