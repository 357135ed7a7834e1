"""Embedding file ingestion and selection-result serialization.

Two embedding formats, both storing 32-bit values. A set read from either
keeps those float32 rows as they are; its read-only float64 data is built
from them the first time it is used, and every score that ranks, picks or
is written is computed in 64-bit:

- binary: 8-byte magic "SIFTEMB1", then three little-endian u32 fields
  (version=1, row count n, dimension d), then n·d IEEE-754 float32
  little-endian values in row-major order. Byte-identical across platforms.
- csv: one row per line, comma separated; blank lines and lines starting
  with '#' are skipped; an optional header whose first field is exactly
  "id" makes the first column a string identifier per row. Values are
  parsed by NumPy's loadtxt: decimal or exponent notation with a '.'
  decimal point ("-1", "2.5", ".5", "1e-3"), or nan/inf, with whitespace
  around a field ignored. Python's float() also took underscores ("1_0")
  and non-ASCII digits; these are rejected as unparseable. Every row must
  hold as many values as the first (RaggedRow), and a bad value raises
  EmbeddingIOError naming the path, row, column and value; rows count data
  rows only. One loadtxt call over the file's lines parses every file,
  blank and comment lines dropped and the ids taken in the same pass;
  only when that call fails are the lines walked, to locate the error.

Row ids can also come from a sidecar text file, one id per line, which
takes precedence over a CSV id column; only LF, CRLF and CR end its lines.
A set's ids are None unless the file (a CSV id column) or a sidecar names
them; EmbeddingSet.id_of and write_selection then name row r by its
decimal index str(r) in the file, through source_rows when the set is a
preselected subset.

CSV files and id sidecars must be UTF-8; a byte that is not raises
EmbeddingIOError naming the path and the byte's offset (CLI exit 2).

Selection results serialize to JSON Lines: one object per selected row
(rank, row, id, objective, sigma_sq) followed by a summary object (method,
lambda_prime, n, sigma0_sq, sigma_final_sq).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import (
    EmbeddingSet,
    _block_rows,
    _check_finite_by_norms,
    _norms_into,
    _sum_sq_norms,
)
from .errors import (
    BadMagic,
    EmbeddingIOError,
    NumericalFailure,
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


def _utf8_text(path, raw: bytes) -> str:
    """The text of a UTF-8 file's bytes, its CRLF and lone CR line ends
    read as LF, as open() reads them. A byte that is not UTF-8 raises
    EmbeddingIOError naming the path and the byte's offset."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EmbeddingIOError(
            f"{path} is not UTF-8: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None
    # searching for "\r\n" costs more than reading the file, so only text
    # that holds a CR pays for it
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_sidecar_ids(ids_path, n: int) -> tuple[str, ...]:
    """One id per line. Lines end at LF alone, after CR normalization, so
    an id may hold any other character; a final line end closes the last
    id rather than starting an empty one."""
    lines = _utf8_text(ids_path, Path(ids_path).read_bytes()).split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) != n:
        raise EmbeddingIOError(
            f"id sidecar {ids_path} has {len(lines)} lines for {n} rows"
        )
    return tuple(lines)


def _parse_header(path, raw: bytes) -> EmbeddingFileHeader:
    if len(raw) < 8 or raw[:8] != MAGIC:
        raise BadMagic(f"{path} does not start with the {MAGIC!r} tag")
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(_HEADER.size, len(raw))
    magic, version, count, dim = _HEADER.unpack(raw)
    if version != FORMAT_VERSION:
        raise BadMagic(f"{path} has unsupported format version {version}")
    return EmbeddingFileHeader(magic=magic, version=version, count=count, dim=dim)


def read_header(path) -> EmbeddingFileHeader:
    """Parse and validate the binary header without reading the payload."""
    with open(path, "rb") as fh:
        return _parse_header(path, fh.read(_HEADER.size))


# Below 2^21 values a second thread costs more than it saves. Loading
# 8192×128 took 4.1 ms on one thread and 5.4 ms on two (2 vCPU), 16384×128
# (2^21 values) 6.1 and 5.7 ms, and 20000×128 5.5 and 3.8 ms.
_THREADED_MIN_VALUES = 2 ** 21
_MAX_READ_THREADS = 4


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _read_threads(values: int, blocks: int) -> int:
    """How many threads read a payload of `values` values in `blocks`
    blocks: min(_MAX_READ_THREADS, usable CPUs, blocks), and one below
    _THREADED_MIN_VALUES values or where os.preadv, which reads at an
    offset without moving a shared file position, does not exist."""
    if values < _THREADED_MIN_VALUES or not hasattr(os, "preadv"):
        return 1
    return max(1, min(_MAX_READ_THREADS, _usable_cpus(), blocks))


def _read_binary(path) -> tuple[np.ndarray, np.ndarray | None]:
    """The float32 payload and its rows' float64 norms (None at dimension
    0, which the set refuses). The payload's size is checked against the
    header before anything is allocated. The payload is read in blocks of
    _block_rows(d) rows (2^19 values) straight into the array that is
    returned. While a block is in cache, its rows' norms are computed into
    a reused 4 MB float64 buffer, and they are its finiteness check: only
    a block whose norms do not sum to a finite number is searched for the
    first NaN or infinity.

    From 2^21 values up, the blocks are read and checked on W =
    min(4, usable CPUs, blocks) threads (_read_threads), with no option to
    choose W. Each thread claims the next block, reads it with os.preadv
    at its offset through the one descriptor whose size was checked, and
    computes its norms in its own buffer. Once a block fails, no thread
    claims another, and the failure of the first failing block is raised,
    so the error is the one reading the blocks in order would raise.
    Without os.preadv (Windows) one thread reads with seek and readinto."""
    with open(path, "rb") as fh:
        header = _parse_header(path, fh.read(_HEADER.size))
        count, dim = header.count, header.dim
        expected = count * dim * 4
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe's size is unknown before it is read
            raise EmbeddingIOError(f"{path} is not a regular file")
        actual = st.st_size - _HEADER.size
        if actual < expected:
            raise TruncatedPayload(expected, actual)
        if actual > expected:
            raise EmbeddingIOError(
                f"{path} carries {actual - expected} trailing bytes beyond the payload"
            )
        data = np.empty((count, dim), dtype="<f4")
        if dim == 0:  # no payload to read; the set refuses dimension 0
            return data, None
        norms = np.empty(count)
        step = _block_rows(dim)
        n_blocks = -(-count // step)
        bufs = [np.empty((min(step, count), dim))
                for _ in range(_read_threads(count * dim, n_blocks))]
        payload = data.reshape(-1).view(np.uint8)
        fd, preadv = fh.fileno(), getattr(os, "preadv", None)
        claims = iter(range(n_blocks))  # next() on it is atomic under the GIL
        failures: list[tuple[int, Exception]] = []

        def fill(view, pos: int) -> None:
            """Read payload bytes pos onwards into `view`, looping on short reads."""
            got = 0
            while got < len(view):
                if preadv:
                    n = preadv(fd, [view[got:]], _HEADER.size + pos + got)
                else:
                    fh.seek(_HEADER.size + pos + got)
                    n = fh.readinto(view[got:])
                if not n:  # the file shrank after fstat
                    raise TruncatedPayload(expected, pos + got)
                got += n

        def read_blocks(buf) -> None:
            # errstate is per thread; widening a signalling NaN raises the
            # invalid flag, and the NaN is refused by the check
            with np.errstate(over="ignore", invalid="ignore"):
                while not failures:
                    i = next(claims, None)
                    if i is None:
                        return
                    start = i * step
                    block, out = data[start:start + step], norms[start:start + step]
                    pos = start * dim * 4
                    try:
                        fill(payload[pos:pos + block.nbytes], pos)
                        _norms_into(block, out, buf)
                        _check_finite_by_norms(block, out, first_row=start)
                    except Exception as exc:  # raised by the caller, below
                        failures.append((i, exc))

        workers = []
        try:
            for buf in bufs[1:]:
                t = threading.Thread(target=read_blocks, args=(buf,))
                t.start()
                workers.append(t)
            read_blocks(bufs[0])
        finally:
            for t in workers:
                t.join()
        if failures:
            # a block before the first failing one was claimed before it,
            # and was read and checked in full
            raise min(failures, key=lambda f: f[0])[1]
    return data, norms


# The one CSV value grammar: np.loadtxt's, for the whole file and for the
# lookup of a bad row alike.
_LOADTXT = dict(delimiter=",", dtype=np.float64, ndmin=2, comments=None)


def _parses(text: str) -> bool:
    """Whether np.loadtxt reads `text` as one row of numbers. An empty text
    is not a number: loadtxt would skip it as a blank line."""
    if not text.strip():
        return False
    try:
        np.loadtxt([text], **_LOADTXT)
    except ValueError:
        return False
    return True


def _raise_first_bad_row(path, lines: list[str], has_ids: bool) -> None:
    """Raise the error of the first malformed data row, looked up only after
    the vectorized parse has failed: RaggedRow when its value count differs
    from the first row's, else EmbeddingIOError for its first value that
    np.loadtxt cannot parse. Returns only when every row holds the same
    number of parseable values, which for a failed parse means none."""
    dim = None
    for row, line in enumerate(lines):
        fields = line.split(",")[1:] if has_ids else line.split(",")
        if dim is None:
            dim = len(fields)
        elif len(fields) != dim:
            raise RaggedRow(row)
        if fields and not _parses(",".join(fields)):
            col = next(c for c, f in enumerate(fields) if not _parses(f))
            raise EmbeddingIOError(
                f"{path}: unparseable value {fields[col].strip()!r} at row {row}, column {col}"
            )


def _as_f32(data: np.ndarray) -> np.ndarray:
    # stored at 32-bit precision like the binary format; a value beyond
    # float32's range becomes inf, which is refused like nan and inf
    with np.errstate(over="ignore"):
        return data.astype("<f4")


def _read_csv(path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """The float32 rows of a CSV file, not yet checked for finiteness, and
    its id column, if any.

    Every file is parsed by one np.loadtxt over the lines of a text
    wrapper of its bytes, which reads CRLF and a lone CR as line ends
    (loadtxt over the bytes themselves ends lines at LF alone); blank and
    comment lines are dropped on the way. The header is the first line
    left when its first field is "id"; a converter on column 0 then keeps
    each row's id and hands the parse a 0.0 in its place. Bytes that are
    not ASCII are checked as UTF-8 first, which raises at the byte's
    offset. encoding="utf-8" hands the converter str rather than bytes on
    NumPy before 2.0.

    Only when that parse fails (loadtxt raised ValueError, no data line
    follows the header, or no row holds a value after its id) are the
    stripped rows listed, to raise "contains no data rows" or the first
    bad row's error. Where every row holds an id and no values, the rows
    come back with dimension 0, which EmbeddingSet refuses."""
    raw = Path(path).read_bytes()
    if not raw.isascii():
        _utf8_text(path, raw)
    # a line is skipped when it is whitespace or its first other character
    # is '#'; filtering on str.isspace first keeps most of that test in C
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    lines = (line for line in itertools.filterfalse(str.isspace, text)
             if line.lstrip()[0] != "#")
    head = next(lines, "")
    has_ids = head.partition(",")[0].strip() == "id"
    first = next(lines, "") if has_ids else head
    ids: list[str] = []

    def take_id(field: str) -> float:
        ids.append(field.strip())
        return 0.0

    if first:  # loadtxt would warn that it found no data
        try:
            data = np.loadtxt(itertools.chain((first,), lines), encoding="utf-8",
                              converters={0: take_id} if has_ids else None, **_LOADTXT)
        except ValueError:
            pass
        else:
            if not has_ids:
                return _as_f32(data), None
            if data.shape[1] > 1:
                return _as_f32(data[:, 1:]), tuple(ids)
    rows = [s for s in (line.strip() for line in _utf8_text(path, raw).split("\n"))
            if s and not s.startswith("#")][has_ids:]  # the rows after any header
    if not rows:
        raise EmbeddingIOError(f"{path} contains no data rows")
    _raise_first_bad_row(path, rows, has_ids)
    return (_as_f32(np.empty((len(rows), 0))),
            tuple(row.partition(",")[0].strip() for row in rows) if has_ids else None)


def read_embeddings(path, format: str = "binary", ids_path=None) -> EmbeddingSet:
    """Load an embedding file into an EmbeddingSet that stores its float32
    rows; the set's float64 data is built from them when first used.

    Ids come from the CSV id column or the sidecar when provided; otherwise
    the set's ids are None, and id_of and write_selection name row r by
    str(r). One np.loadtxt over its lines parses every CSV, and only a
    failed parse is walked line by line, to locate the error (see the
    module docstring). A non-finite value raises NonFiniteValue at its row
    and column, and a dimension of 0 raises DimensionMismatch. The values
    are checked
    here, as they are read, by one pass that computes each row's float64
    norm: a float32 row's norm is finite exactly when its values are. The
    set keeps those norms, so normalize_rows divides by them without a
    second pass over the rows.

    A binary payload of 2^21 values or more is read and checked on
    min(4, usable CPUs, blocks) threads, and a smaller one on the calling
    thread alone; no parameter or environment variable changes that.
    Where os.preadv does not exist (Windows) every payload is read on the
    calling thread. The rows, the norms and the error raised are the same
    on any number of threads.
    """
    if format == "binary":
        (data, norms), ids = _read_binary(path), None
    elif format == "csv":
        # checked once the text is freed, so its buffer does not add to the
        # parse's peak memory
        data, ids = _read_csv(path)
        norms = _sum_sq_norms(data)
        _check_finite_by_norms(data, norms)
    else:
        raise EmbeddingIOError(f"unknown format {format!r} (expected 'binary' or 'csv')")
    if ids_path is not None:
        ids = _read_sidecar_ids(ids_path, data.shape[0])
    return EmbeddingSet._certified(data, ids=ids, norms=norms)


def _csv_id_fault(i: str) -> str | None:
    """Why the CSV reader would not give id `i` back, or None: a ',' or
    line end splits its row, surrounding whitespace is stripped, and a
    leading '#' makes its row a comment."""
    if "," in i or "\n" in i or "\r" in i:
        return "holds a comma or a line end"
    if i != i.strip():
        return "has whitespace around it"
    if i.startswith("#"):
        return "starts with '#'"
    return None


def write_embeddings(e: EmbeddingSet, path, format: str = "binary", ids_path=None) -> None:
    """Write an EmbeddingSet at 32-bit precision; optionally an id sidecar.

    Ids that a file could not give back raise EmbeddingIOError before any
    file is opened: in csv, one with a ',', a CR or LF, whitespace around
    it, or a leading '#'; in a sidecar, one with a CR or LF."""
    if format not in ("binary", "csv"):
        raise EmbeddingIOError(f"unknown format {format!r} (expected 'binary' or 'csv')")
    if e.ids is not None:
        for i in e.ids:
            fault = _csv_id_fault(i) if format == "csv" else None
            if fault:
                raise EmbeddingIOError(f"id {i!r} cannot be stored in csv: it {fault}")
            if ids_path is not None and ("\n" in i or "\r" in i):
                raise EmbeddingIOError(
                    f"id {i!r} cannot be stored in a sidecar: it holds a line end")
    data32 = np.ascontiguousarray(e.data, dtype="<f4")
    if format == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, e.rows, e.dim))
            fh.write(data32.tobytes(order="C"))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            if e.ids is not None:
                fh.write("id," + ",".join(f"v{j}" for j in range(e.dim)) + "\n")
            for r in range(e.rows):
                vals = ",".join(str(v) for v in data32[r])
                if e.ids is not None:
                    fh.write(f"{e.ids[r]},{vals}\n")
                else:
                    fh.write(vals + "\n")
    if ids_path is not None and e.ids is not None:
        Path(ids_path).write_text("\n".join(e.ids) + "\n", encoding="utf-8")


# strict_json's encoder without options, made once: json.dumps with
# allow_nan=False builds a new one on every call, which cost a quarter of
# writing a 50-row selection
_STRICT_ENCODER = json.JSONEncoder(allow_nan=False)


def strict_json(obj, **kwargs) -> str:
    """json.dumps without NaN or infinities, which are not JSON: a
    non-finite value raises NumericalFailure instead."""
    encoder = json.JSONEncoder(allow_nan=False, **kwargs) if kwargs else _STRICT_ENCODER
    try:
        return encoder.encode(obj)
    except ValueError as exc:
        raise NumericalFailure(f"cannot write a non-finite value as JSON ({exc})") from None


def write_selection(result: SelectionResult, ids, out, source_rows=None) -> None:
    """Serialize a selection as JSON Lines.

    One object per selected row with fields rank (1-based), row (0-based
    original index), id, objective, sigma_sq (the query variance after
    including the row), then one summary object. `ids` indexes the candidate
    set the selection ran on; source_rows maps candidate rows back to
    original rows when the candidates were a preselected subset. A
    non-finite value raises NumericalFailure before anything is written.
    Row lines are formatted directly in strict_json's bytes (%d, float
    repr, encode_basestring_ascii); the summary goes through strict_json.
    """
    n = len(result.order)
    values = [float(v) for v in (*result.objective_trace, *result.sigma_trace)]
    if not all(map(math.isfinite, values)):
        strict_json(values)  # raises NumericalFailure
    lines = []
    for i, row in enumerate(result.order):
        orig = int(source_rows[row]) if source_rows is not None else int(row)
        name = str(ids[row]) if ids is not None else str(orig)
        lines.append('{"rank": %d, "row": %d, "id": %s, "objective": %r, "sigma_sq": %r}\n'
                     % (i + 1, orig, encode_basestring_ascii(name), values[i], values[n + 1 + i]))
    lines.append(strict_json({
        "method": result.method,
        "lambda_prime": float(result.lambda_prime),
        "n": n,
        "sigma0_sq": values[n],
        "sigma_final_sq": values[-1],
    }) + "\n")
    text = "".join(lines)
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def read_selection(path) -> tuple[list[dict], dict]:
    """Parse a JSONL selection file back into (row records, summary).
    A line that is not a JSON object, or that holds NaN or an infinity,
    which write_selection never writes, raises EmbeddingIOError naming the
    path and the line; so does a file that is not UTF-8, naming the byte."""
    lines: list[dict] = []
    for n, line in enumerate(_utf8_text(path, Path(path).read_bytes()).split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise EmbeddingIOError(f"{path} line {n}: {getattr(exc, 'msg', exc)}") from None
        if not isinstance(obj, dict):
            raise EmbeddingIOError(f"{path} line {n}: not a JSON object")
        lines.append(obj)
    if not lines:
        raise EmbeddingIOError(f"{path} is empty")
    summary = lines[-1]
    if "method" not in summary:
        raise EmbeddingIOError(f"{path} is missing the summary line")
    return lines[:-1], summary
