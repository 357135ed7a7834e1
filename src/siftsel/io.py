"""Embedding file ingestion and selection-result serialization.

Two embedding formats, both storing 32-bit values that are widened to
64-bit on load:

- binary: 8-byte magic "SIFTEMB1", then three little-endian u32 fields
  (version=1, row count n, dimension d), then n·d IEEE-754 float32
  little-endian values in row-major order. Byte-identical across platforms.
- csv: one row per line, comma separated, '.' decimal point, '#' comment
  lines skipped; an optional header whose first field is exactly "id" makes
  the first column a string identifier per row.

Row ids can also come from a sidecar text file (one id per line). Ids
default to the row index rendered as a decimal string.

Selection results serialize to JSON Lines: one object per selected row
(rank, row, id, objective, sigma_sq) followed by a summary object (method,
lambda_prime, n, sigma0_sq, sigma_final_sq).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import EmbeddingSet
from .errors import (
    BadMagic,
    EmbeddingIOError,
    RaggedRow,
    TruncatedPayload,
)
from .selectors import SelectionResult

MAGIC = b"SIFTEMB1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIII")  # magic, version, count, dim


@dataclass(frozen=True)
class EmbeddingFileHeader:
    """Parsed binary header."""

    magic: bytes
    version: int
    count: int
    dim: int


def _read_sidecar_ids(ids_path, n: int) -> tuple[str, ...]:
    lines = Path(ids_path).read_text(encoding="utf-8").splitlines()
    if len(lines) != n:
        raise EmbeddingIOError(
            f"id sidecar {ids_path} has {len(lines)} lines for {n} rows"
        )
    return tuple(lines)


def read_header(path) -> EmbeddingFileHeader:
    """Parse and validate the binary header without reading the payload."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < 8 or raw[:8] != MAGIC:
        raise BadMagic(f"{path} does not start with the {MAGIC!r} tag")
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(_HEADER.size, len(raw))
    magic, version, count, dim = _HEADER.unpack(raw)
    if version != FORMAT_VERSION:
        raise BadMagic(f"{path} has unsupported format version {version}")
    return EmbeddingFileHeader(magic=magic, version=version, count=count, dim=dim)


def _read_binary(path) -> np.ndarray:
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        payload = fh.read()
    expected = header.count * header.dim * 4
    if len(payload) < expected:
        raise TruncatedPayload(expected, len(payload))
    if len(payload) > expected:
        raise EmbeddingIOError(
            f"{path} carries {len(payload) - expected} trailing bytes beyond the payload"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(header.count, header.dim)
    return data.astype(np.float64)


def _read_csv(path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    rows: list[list[float]] = []
    ids: list[str] = []
    has_ids = False
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        content_row = 0
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if content_row == 0 and fields and fields[0] == "id":
                has_ids = True
                content_row += 1
                continue
            row_index = len(rows)
            if has_ids:
                ids.append(fields[0])
                fields = fields[1:]
            if dim is None:
                dim = len(fields)
            elif len(fields) != dim:
                raise RaggedRow(row_index)
            values = []
            for col, f in enumerate(fields):
                try:
                    values.append(float(f))
                except ValueError:
                    raise EmbeddingIOError(
                        f"{path}: unparseable value {f!r} at row {row_index}, column {col}"
                    ) from None
            rows.append(values)
            content_row += 1
    if not rows:
        raise EmbeddingIOError(f"{path} contains no data rows")
    # store at 32-bit precision like the binary format, then widen
    data = np.asarray(rows, dtype=np.float64).astype("<f4").astype(np.float64)
    return data, tuple(ids) if has_ids else None


def read_embeddings(path, format: str = "binary", ids_path=None) -> EmbeddingSet:
    """Load an embedding file into an EmbeddingSet (64-bit internally).

    Ids come from the CSV id column or the sidecar when provided, otherwise
    default to decimal row indices. The values are checked where every
    EmbeddingSet is: non-finite ones raise NonFiniteValue, and a dimension
    of 0 raises DimensionMismatch.
    """
    if format == "binary":
        data = _read_binary(path)
        csv_ids = None
    elif format == "csv":
        data, csv_ids = _read_csv(path)
    else:
        raise EmbeddingIOError(f"unknown format {format!r} (expected 'binary' or 'csv')")
    if ids_path is not None:
        ids = _read_sidecar_ids(ids_path, data.shape[0])
    elif csv_ids is not None:
        ids = csv_ids
    else:
        ids = tuple(str(i) for i in range(data.shape[0]))
    return EmbeddingSet(data=data, ids=ids)


def write_embeddings(e: EmbeddingSet, path, format: str = "binary", ids_path=None) -> None:
    """Write an EmbeddingSet at 32-bit precision; optionally an id sidecar."""
    data32 = np.ascontiguousarray(e.data, dtype="<f4")
    if format == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, e.rows, e.dim))
            fh.write(data32.tobytes(order="C"))
    elif format == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            if e.ids is not None:
                for i in e.ids:
                    if "," in i or "\n" in i:
                        raise EmbeddingIOError(f"id {i!r} cannot be stored in csv")
                fh.write("id," + ",".join(f"v{j}" for j in range(e.dim)) + "\n")
            for r in range(e.rows):
                vals = ",".join(str(v) for v in data32[r])
                if e.ids is not None:
                    fh.write(f"{e.ids[r]},{vals}\n")
                else:
                    fh.write(vals + "\n")
    else:
        raise EmbeddingIOError(f"unknown format {format!r} (expected 'binary' or 'csv')")
    if ids_path is not None and e.ids is not None:
        Path(ids_path).write_text("\n".join(e.ids) + "\n", encoding="utf-8")


def write_selection(result: SelectionResult, ids, out, source_rows=None) -> None:
    """Serialize a selection as JSON Lines.

    One object per selected row with fields rank (1-based), row (0-based
    original index), id, objective, sigma_sq (the query variance after
    including the row), then one summary object. `ids` indexes the candidate
    set the selection ran on; source_rows maps candidate rows back to
    original rows when the candidates were a preselected subset.
    """
    own = None
    if hasattr(out, "write"):
        fh = out
    else:
        own = open(out, "w", encoding="utf-8")
        fh = own
    try:
        for i, row in enumerate(result.order):
            orig = int(source_rows[row]) if source_rows is not None else int(row)
            rid = str(ids[row]) if ids is not None else str(orig)
            fh.write(json.dumps({
                "rank": i + 1,
                "row": orig,
                "id": rid,
                "objective": float(result.objective_trace[i]),
                "sigma_sq": float(result.sigma_trace[i + 1]),
            }) + "\n")
        fh.write(json.dumps({
            "method": result.method,
            "lambda_prime": float(result.lambda_prime),
            "n": len(result.order),
            "sigma0_sq": float(result.sigma_trace[0]),
            "sigma_final_sq": float(result.sigma_trace[-1]),
        }) + "\n")
    finally:
        if own is not None:
            own.close()


def read_selection(path) -> tuple[list[dict], dict]:
    """Parse a JSONL selection file back into (row records, summary)."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise EmbeddingIOError(f"{path} is empty")
    summary = lines[-1]
    if "method" not in summary:
        raise EmbeddingIOError(f"{path} is missing the summary line")
    records = lines[:-1]
    return records, summary
