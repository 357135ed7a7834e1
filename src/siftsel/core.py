"""Kernel algebra over embedding rows.

Everything downstream reduces to the inner-product kernel k(x, y) = xᵀy and
the regularized conditional (posterior) variance of a query vector given a
multiset of observed rows:

    sigma²_X(q) = k(q,q) − k_X(q)ᵀ (K_X + λ′ I)⁻¹ k_X(q)

where K_X is the Gram matrix of the observed rows and λ′ > 0 plays the role
of observation noise. This module provides that quantity, from one QR factor
of the ridge-augmented rows rather than a solve with K_X, row normalization,
and total variation distance. reference.posterior_variance_feature_space is
its independent oracle, λ′·qᵀ(XᵀX + λ′I_d)⁻¹q.

An EmbeddingSet stores its rows in the dtype they arrived in (float32 when
read from a file) and their float64 norms, taken by the file reader as it
checks the rows or by normalize_rows, which divides by them; its float64
matrix is built on first use. Every value that ranks, picks or is written
is computed in 64-bit: float32 arithmetic serves only the scan in selectors
and the filter after it, which discard rows that selectors' error bound
proves outside a top k before the rows they keep are widened. EmbeddingSet
checks every row it is given. Arrays the package makes itself, by reading a
file, normalizing or preselecting, are checked as they are made and enter a
set through EmbeddingSet._certified without a second pass.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteValue,
    NotAProbabilityVector,
    ZeroNormRow,
    check_param,
)

# Negative variances within this band are round-off and clamped to zero;
# anything more negative is treated as a logic error (NumericalFailure,
# raised by the greedy kernel in selectors).
# A caller whose variances are larger than 1 scales the band by their size.
NEGATIVE_VARIANCE_TOL = 1e-9

_ZERO_NORM_CUTOFF = 1e-12

# Values per block when rows are read and their norms summed, and the size
# of the one float64 buffer they are squared in (4 MB: 4096 rows at d = 128).
# glibc raises its dynamic mmap threshold only to the largest block freed,
# and a scan's float32 scores pass 512 KB beyond 131,072 rows: after a
# smaller buffer they would come from fresh pages on every query. A figure
# of 20 against 26 ms for 2^16-value blocks on 100k×128 norms did not
# reproduce.
_BLOCK_VALUES = 2 ** 19

def _check_finite(data: np.ndarray, first_row: int = 0) -> None:
    """Raise NonFiniteValue at the first NaN or infinity of a 2-D array,
    counting its rows from `first_row`; the position is looked up only
    after one pass has found one."""
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise NonFiniteValue(first_row + int(r), int(c))


def _block_rows(dim: int) -> int:
    """Rows per block of _BLOCK_VALUES values at dimension `dim`, at least one."""
    return max(1, _BLOCK_VALUES // max(dim, 1))


def _norms_into(block: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """Write the float64 Euclidean norm of each row of `block` to `out`,
    squaring the rows in `buf`, a float64 array of at least as many rows.
    Each row is reduced alone by np.linalg.norm(axis=1)'s own sum of
    squares, so the norms are its bytes. Call under
    np.errstate(over="ignore", invalid="ignore"): a sum of squares that
    overflows gives an infinite norm, and a NaN a NaN one."""
    b = buf[:block.shape[0]]
    np.copyto(b, block)
    np.multiply(b, b, out=b)
    np.add.reduce(b, axis=1, out=out)
    np.sqrt(out, out=out)


def _check_finite_by_norms(rows: np.ndarray, norms: np.ndarray, first_row: int = 0) -> None:
    """Raise NonFiniteValue at the first NaN or infinity of float32 `rows`,
    given their float64 norms. A float32 square is below 2^256, so a row's
    float64 sum of squares, and the sum of the norms, is finite exactly
    when every value is; only then is the position looked up."""
    if not math.isfinite(np.add.reduce(norms)):
        _check_finite(rows, first_row)


def _check_columns(data: np.ndarray) -> None:
    if data.ndim != 2 or data.shape[1] == 0:
        raise DimensionMismatch(
            f"embedding data must be 2-D with at least one column, got shape {data.shape}"
        )


class EmbeddingSet:
    """An immutable id-tagged matrix of row embeddings.

    data is the read-only (n, d) float64 matrix, one embedding per row. ids,
    when present, has exactly n entries. source_rows records the original
    row index of each row when the set is a subset of a larger space (None
    means identity).

    The rows are stored in the dtype they arrived in: float32 as read from
    a file, float64 from this constructor, which copies the caller's array
    so later writes to it do not reach the set. A set read from a file
    also keeps the float64 norms of its stored rows, which the reader
    computed as its finiteness check, so normalize_rows does not pass over
    the rows again; a set made by normalize_rows keeps the norms it divides
    by. data is built from the stored rows the first time it is used, as
    rows.astype(float64) / norms[:, None], and kept; preselect_candidates
    and nn_select scan the stored rows and never build it. The row space
    that irreducible_uncertainty finds is kept in _span the same way, and
    so are two things selectors computes: its scan bound's constants, in
    _reach, and the greedy kernel's start state, in _sq: the distinct rows
    of data, their squared norms and their indices (preselect_candidates
    fills all of it for a pool it finds distinct). A pickled set
    carries its rows and divisors, none of the values computed from them,
    the read-time norms included.
    """

    __slots__ = ("ids", "normalized", "source_rows", "_rows", "_div", "_norms", "_data",
                 "_reach", "_span", "_sq")

    def __init__(self, data, ids=None, normalized: bool = False, source_rows=None):
        rows = np.array(data, dtype=np.float64, order="C")
        _check_columns(rows)
        _check_finite(rows)
        if ids is not None:
            ids = tuple(str(i) for i in ids)
            if len(ids) != rows.shape[0]:
                raise DimensionMismatch(f"{len(ids)} ids for {rows.shape[0]} rows")
        if source_rows is not None:
            source_rows = tuple(int(i) for i in source_rows)
            if len(source_rows) != rows.shape[0]:
                raise DimensionMismatch(
                    f"{len(source_rows)} source rows for {rows.shape[0]} rows"
                )
        if normalized and rows.shape[0] > 0:
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise InvalidParameter("normalized flag set but some row norm deviates from 1")
        self._fill(rows, ids, normalized, source_rows, None, None)

    def _fill(self, rows, ids, normalized, source_rows, div, norms) -> None:
        rows.flags.writeable = False
        for name, value in (("ids", ids), ("normalized", normalized),
                            ("source_rows", source_rows), ("_rows", rows), ("_div", div),
                            ("_norms", div if norms is None else norms), ("_data", None),
                            ("_reach", None), ("_span", None), ("_sq", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _certified(cls, rows: np.ndarray, ids=None, normalized: bool = False,
                   source_rows=None, div: np.ndarray | None = None,
                   norms: np.ndarray | None = None) -> EmbeddingSet:
        """A set over an (n, d) C-contiguous float32 or float64 array that
        the package has just made and checked: finite, unit rows when
        `normalized` (rows / div when div is given, div being the rows'
        float64 norms, each at least 1e-12), and n-entry tuples of str ids
        and int source rows when given. `norms`, when given, are the rows'
        float64 norms as _sum_sq_norms computes them, kept for
        _row_norms(). The set takes the arrays over and freezes the rows,
        without a copy or a second check; only a dimension of 0 is
        refused."""
        _check_columns(rows)
        e = object.__new__(cls)
        e._fill(rows, ids, normalized, source_rows, div, norms)
        return e

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"EmbeddingSet(rows={self.rows}, dim={self.dim}, stored={self._rows.dtype}, "
                f"normalized={self.normalized})")

    def __reduce__(self):
        return (EmbeddingSet._certified,
                (self._rows, self.ids, self.normalized, self.source_rows, self._div))

    @property
    def data(self) -> np.ndarray:
        """The read-only (n, d) float64 matrix, built on first use by
        _widen."""
        if self._data is None:
            data = self._widen(self._rows, self._div)
            data.flags.writeable = False
            object.__setattr__(self, "_data", data)
        return self._data

    @staticmethod
    def _widen(rows: np.ndarray, div: np.ndarray | None) -> np.ndarray:
        """Stored rows as float64, each divided by its entry of div when
        given: rows itself when they are float64 and div is None, else a
        new array that each value is widened, and divided, straight into,
        with no temporary. The bytes of rows.astype(float64) / div[:, None]."""
        if div is None:
            return rows.astype(np.float64, copy=False)
        return np.divide(rows, div[:, None], dtype=np.float64)

    def _take(self, idx) -> np.ndarray:
        """data[idx] for an index array, without building data."""
        if self._data is not None:
            return self._data[idx]
        return self._widen(self._rows[idx], None if self._div is None else self._div[idx])

    def _row_norms(self) -> np.ndarray:
        """The float64 norms of the stored rows (before any division), as
        _sum_sq_norms computes them: given by the file reader or
        normalize_rows, else computed once and kept."""
        if self._norms is None:
            object.__setattr__(self, "_norms", _sum_sq_norms(self._rows))
        return self._norms

    @property
    def rows(self) -> int:
        return self._rows.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def id_of(self, row: int) -> str:
        """The string id of a row, defaulting to its decimal index in the
        original space (source_rows[row] for a subset), as write_selection
        names it."""
        if self.ids is not None:
            return self.ids[row]
        return str(row if self.source_rows is None else self.source_rows[row])


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


def _sum_sq_norms(rows: np.ndarray) -> np.ndarray:
    """The float64 Euclidean norm of each row, the bytes of
    np.linalg.norm(rows.astype(float64), axis=1), through _norms_into a
    block of _block_rows(d) rows at a time in one reused float64 buffer:
    no squared copy of the matrix, and no temporary per block. A sum of
    squares that overflows float64 gives an infinite norm. The file readers
    compute the same norms as they read, so a set read from a file never
    calls this."""
    n, d = rows.shape
    norms = np.empty(n)
    step = _block_rows(d)
    buf = np.empty((min(step, n), d))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, step):
            _norms_into(rows[start:start + step], norms[start:start + step], buf)
    return norms


def normalize_rows(e: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm, preserving ids.

    Raises ZeroNormRow for any row with norm below 1e-12 — a silent drop
    would hide upstream embedding bugs. The result keeps e's stored rows
    and the norms it divides them by; its data, rows / norms, is built
    only when something uses it. A row whose sum of squares overflows
    float64 (only float64 rows can) is divided by its largest magnitude
    first, and such a set is built divided at once.
    """
    if e._div is None:
        rows, norms = e._rows, e._row_norms()
    else:  # already divided once: divide its data again, as a float64 set
        rows = e.data
        norms = _sum_sq_norms(rows)
    bad = np.flatnonzero(norms < _ZERO_NORM_CUTOFF)
    if bad.size:
        raise ZeroNormRow(int(bad[0]))
    huge = np.flatnonzero(np.isinf(norms))
    if not huge.size:
        return EmbeddingSet._certified(rows, ids=e.ids, normalized=True,
                                       source_rows=e.source_rows, div=norms)
    out = rows / norms[:, None]
    # a finite row whose sum of squares overflowed divided by an infinite
    # norm to zeros: divide it by its largest magnitude first
    for row in huge:
        scaled = rows[row] / np.abs(rows[row]).max()
        out[row] = scaled / np.linalg.norm(scaled)
    return EmbeddingSet._certified(out, ids=e.ids, normalized=True, source_rows=e.source_rows)


def _ridge_r(X: np.ndarray, q: np.ndarray, lam: float) -> np.ndarray:
    """R of the Householder QR of the ridge-augmented rows [[Xᵀ, q],
    [√λ′·I_m, 0]]. With more rows than dimensions, X is first replaced by
    its own d×d R factor, which has the same XᵀX; so R is (r+1)×(r+1),
    r = min(m, d). Its leading r×r block R_r has R_rᵀR_r = XXᵀ + λ′I_r,
    and R[r, r]² is the residual of min_w ‖q − Xᵀw‖² + λ′‖w‖². No Gram
    matrix is formed, so rows whose norms dwarf their differences keep
    them."""
    m, d = X.shape
    if m > d:
        X = np.linalg.qr(X, mode="r")
        m = d
    A = np.zeros((d + m, m + 1))
    A[:d, :m] = X.T
    A[:d, m] = q
    np.fill_diagonal(A[d:, :m], math.sqrt(lam))
    return np.linalg.qr(A, mode="r")


def posterior_variance(selected, q, cfg: KernelConfig) -> float:
    """Conditional variance of the query after observing the selected rows.

    sigma²_X(q) = k(q,q) − k_X(q)ᵀ (K_X + λ′ I_m)⁻¹ k_X(q), with the
    empty selection returning k(q,q). Repeats in `selected` are meaningful:
    observing the same row twice reduces variance further, like repeated
    noisy measurements.

    The value is the residual min_w ‖q − Xᵀw‖² + λ′‖w‖², read off one
    QR factor of the ridge-augmented rows (_ridge_r) as R[m, m]²: exact
    up to the rounding of the rows themselves, never negative, and with
    no failure branch.
    """
    q = as_query(q)
    X = _as_row_matrix(selected, q.shape[0])
    if X.shape[0] == 0:
        return float(q @ q)
    return float(_ridge_r(X, q, cfg.lambda_prime)[-1, -1] ** 2)


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
