"""Exception hierarchy shared across the package.

Every error carries enough context (row/column indices, byte counts, file
paths) for the CLI to print an actionable diagnostic and map the failure to
an exit code: input problems exit 2, numerical breakdowns exit 3. Every
scalar parameter in the package is checked by check_param.
"""

from __future__ import annotations

import math
import numbers
import operator


class SiftselError(Exception):
    """Base class for all package errors."""


class InputError(SiftselError, ValueError):
    """Bad user input: shapes, values, files, parameters. CLI exit code 2.
    A ValueError too, so callers catching the built-in error catch these."""


class DimensionMismatch(InputError):
    """Vectors/matrices that must share a dimension do not."""


class ZeroNormRow(InputError):
    """A row with Euclidean norm below 1e-12 where a unit direction is needed."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has (near-)zero norm and cannot be normalized")


class NotEnoughCandidates(InputError):
    """More distinct rows requested than the candidate set contains."""


class NotAProbabilityVector(InputError):
    """Vector has negative entries or does not sum to 1 within tolerance."""


class InvalidParameter(InputError):
    """A scalar parameter outside its documented domain."""


class InstanceTooLarge(InputError):
    """Brute-force oracle invoked beyond its enumeration limits."""


class DegenerateVariance(InputError):
    """Posterior variance too close to zero for a log-based quantity."""


class NumericalFailure(SiftselError):
    """A variance went negative beyond round-off tolerance, or a value
    cannot be written as JSON. CLI exit code 3."""


class EmbeddingIOError(InputError):
    """Base class for embedding/selection file format errors."""


class BadMagic(EmbeddingIOError):
    """File does not start with the expected magic tag (or wrong version)."""


class TruncatedPayload(EmbeddingIOError):
    """Binary payload shorter than the header promises."""

    def __init__(self, expected: int, actual: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"payload truncated: expected {expected} bytes, found {actual}")


class NonFiniteValue(EmbeddingIOError):
    """NaN or Inf in embedding data (a file, an array or a query)."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, column {col}")


class RaggedRow(EmbeddingIOError):
    """CSV row whose value count differs from the established dimension."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has a different number of values than the first row")


_BOUNDS = ((">", operator.gt), (">=", operator.ge), ("<", operator.lt), ("<=", operator.le))


def check_param(name: str, value, *, gt=None, ge=None, lt=None, le=None,
                integer: bool = False):
    """Return `value` if it is a finite real number (an integer when
    `integer`) that is > gt, >= ge, < lt and <= le for each bound given;
    otherwise raise InvalidParameter naming the parameter and the value."""
    bounds = [(sym, op, b) for (sym, op), b in zip(_BOUNDS, (gt, ge, lt, le)) if b is not None]
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and (integer or math.isfinite(value))
            and all(op(value, b) for _, op, b in bounds)):
        return value
    what = "an integer" if integer else "a finite number"
    domain = " and ".join(f"{sym} {b}" for sym, _, b in bounds)
    raise InvalidParameter(f"{name} must be {what} {domain}".rstrip() + f", got {value!r}")
