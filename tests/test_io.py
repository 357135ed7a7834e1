"""Embedding file formats and selection serialization."""

import io
import json
import os
import pickle
import re
import string
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import siftsel.io
from conftest import W_DATA
from siftsel import (
    BadMagic,
    DimensionMismatch,
    EmbeddingIOError,
    EmbeddingSet,
    InputError,
    KernelConfig,
    NonFiniteValue,
    NumericalFailure,
    RaggedRow,
    SelectionResult,
    TruncatedPayload,
    nn_select,
    normalize_rows,
    preselect_candidates,
    read_embeddings,
    read_header,
    read_selection,
    sift_select,
    write_embeddings,
    write_selection,
)
from siftsel.io import strict_json

MAGIC = b"SIFTEMB1"


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """The binary reader joins every thread it starts, on error paths too."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def make_binary(path, count, dim, payload: bytes, version=1, magic=MAGIC):
    path.write_bytes(magic + struct.pack("<III", version, count, dim) + payload)


def write_rows(path, raw32: np.ndarray, fmt: str) -> None:
    """Write float32 rows as a binary payload or as CSV lines whose values
    parse back to the same float32 values."""
    if fmt == "binary":
        make_binary(path, *raw32.shape, raw32.astype("<f4").tobytes())
    else:
        path.write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in raw32.astype(np.float64).tolist()))


class TestBinaryFormat:
    def test_round_trip_preserves_float32_values(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((7, 5))
        e = EmbeddingSet(data=data)
        p = tmp_path / "emb.bin"
        write_embeddings(e, p)
        back = read_embeddings(p)
        # storage is 32-bit: the round trip equals the float32 cast exactly
        np.testing.assert_array_equal(back.data, data.astype("<f4").astype(np.float64))
        assert back.ids is None
        assert [back.id_of(r) for r in range(back.rows)] == [str(r) for r in range(7)]
        assert back.data.dtype == np.float64

    def test_golden_header_bytes(self, tmp_path):
        """The on-disk header is byte-pinned: magic, then little-endian u32
        version/count/dim. This must never drift across platforms."""
        e = EmbeddingSet(data=np.asarray(W_DATA))
        p = tmp_path / "emb.bin"
        write_embeddings(e, p)
        raw = p.read_bytes()
        assert raw[:20] == MAGIC + bytes.fromhex(
            "01000000" "03000000" "02000000")
        assert len(raw) == 20 + 3 * 2 * 4

    def test_read_header(self, tmp_path):
        p = tmp_path / "emb.bin"
        make_binary(p, 2, 3, b"\x00" * 24)
        h = read_header(p)
        assert (h.magic, h.version, h.count, h.dim) == (MAGIC, 1, 2, 3)

    def test_sidecar_ids(self, tmp_path):
        e = EmbeddingSet(data=np.eye(2), ids=("alpha", "beta"))
        p, sidecar = tmp_path / "emb.bin", tmp_path / "emb.ids"
        write_embeddings(e, p, ids_path=sidecar)
        assert sidecar.read_text() == "alpha\nbeta\n"
        back = read_embeddings(p, ids_path=sidecar)
        assert back.ids == ("alpha", "beta")

    def test_sidecar_length_mismatch(self, tmp_path):
        p, sidecar = tmp_path / "emb.bin", tmp_path / "emb.ids"
        make_binary(p, 2, 2, struct.pack("<8f", *range(8))[:16])
        sidecar.write_text("only-one\n")
        with pytest.raises(EmbeddingIOError):
            read_embeddings(p, ids_path=sidecar)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "emb.bin"
        make_binary(p, 1, 1, b"\x00" * 4, magic=b"NOTMINE1")
        with pytest.raises(BadMagic, match=f"^{re.escape(str(p))} does not start with "
                                           r"the b'SIFTEMB1' tag$"):
            read_embeddings(p)

    def test_file_shorter_than_magic(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(b"SIF")
        with pytest.raises(BadMagic):
            read_header(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "emb.bin"
        make_binary(p, 1, 1, b"\x00" * 4, version=2)
        with pytest.raises(BadMagic):
            read_embeddings(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(MAGIC + b"\x01\x00\x00\x00")  # 12 of 20 header bytes
        with pytest.raises(TruncatedPayload) as exc:
            read_header(p)
        assert exc.value.expected == 20
        assert exc.value.actual == 12

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "emb.bin"
        make_binary(p, 3, 2, b"\x00" * 20)  # header promises 24 bytes
        with pytest.raises(TruncatedPayload) as exc:
            read_embeddings(p)
        assert exc.value.expected == 24
        assert exc.value.actual == 20

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "emb.bin"
        make_binary(p, 1, 2, b"\x00" * 8 + b"JUNK")
        with pytest.raises(EmbeddingIOError) as exc:
            read_embeddings(p)
        assert not isinstance(exc.value, (BadMagic, TruncatedPayload))

    def test_non_finite_value_located(self, tmp_path):
        p = tmp_path / "emb.bin"
        payload = np.array([[1.0, 2.0], [3.0, np.inf]], dtype="<f4").tobytes()
        make_binary(p, 2, 2, payload)
        with pytest.raises(NonFiniteValue) as exc:
            read_embeddings(p)
        assert (exc.value.row, exc.value.col) == (1, 1)


# Values per block in the reader tests that span several blocks: small, so
# their files stay small. test_reader_norms_at_the_production_block_size
# and test_core's norm tests cover the block size the package uses.
_TEST_BLOCK_VALUES = 2 ** 12


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(siftsel.core, "_BLOCK_VALUES", _TEST_BLOCK_VALUES)


def _test_block_rows(dim: int) -> int:
    return max(1, _TEST_BLOCK_VALUES // dim)


_N_DIM = 3
# rows per block the reader reads and checks at the dimension of these tests
_B = _test_block_rows(_N_DIM)
_N_ROWS = 2 * _B + 3
# (row, col) of a non-finite value in a _N_ROWS×_N_DIM payload: the first
# and last rows of each block, the last value of all, and seeded random places
_BAD_PLACES = [(0, 0), (_B - 1, 2), (_B, 0), (_B, 1), (2 * _B, 2), (_N_ROWS - 1, 0),
               (_N_ROWS - 1, _N_DIM - 1)] + [
    (int(r), int(c)) for r, c in zip(np.random.default_rng(7).integers(0, _N_ROWS, 6),
                                     np.random.default_rng(8).integers(0, _N_DIM, 6))]


def _random_rows(rows: int, dim: int, seed: int) -> np.ndarray:
    """Every finite float32 bit pattern is fair, subnormals and -0.0 too."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**32, size=(rows, dim), dtype=np.uint32).view("<f4")
    raw[~np.isfinite(raw)] = -0.0
    return raw


@pytest.mark.usefixtures("small_blocks")
class TestBlockReader:
    """The binary payload is read, checked and widened _B rows at a time;
    the result and the errors are those of reading it whole."""

    @pytest.mark.parametrize("rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3])
    def test_equals_whole_payload_widened(self, tmp_path, rows):
        payload = _random_rows(rows, _N_DIM, seed=rows).tobytes()
        p = tmp_path / "emb.bin"
        make_binary(p, rows, _N_DIM, payload)
        back = read_embeddings(p)
        want = np.frombuffer(payload, "<f4").astype(np.float64).reshape(rows, _N_DIM)
        assert back.data.shape == (rows, _N_DIM)
        assert back.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row, col", _BAD_PLACES)
    def test_first_non_finite_value_is_located(self, tmp_path, bad, row, col):
        rng = np.random.default_rng(row * _N_DIM + col)
        data = rng.standard_normal((_N_ROWS, _N_DIM)).astype("<f4")
        data[row, col] = bad
        # a later one, in the same block or after it, is not the one named
        after = row * _N_DIM + col + 1 + int(rng.integers(0, _N_DIM * _B))
        if after < data.size:
            data.reshape(-1)[after] = np.nan
        p = tmp_path / "emb.bin"
        make_binary(p, _N_ROWS, _N_DIM, data.tobytes())
        with pytest.raises(NonFiniteValue) as exc:
            read_embeddings(p)
        assert (exc.value.row, exc.value.col) == (row, col)
        assert str(exc.value) == f"non-finite value at row {row}, column {col}"

    @pytest.mark.parametrize("row, col, bad", [
        (r, c, (np.nan, np.inf, -np.inf)[i % 3]) for i, (r, c) in enumerate(_BAD_PLACES[:7])])
    def test_first_non_finite_csv_value_is_located(self, tmp_path, row, col, bad):
        """The CSV reader takes the same norms as its finiteness check, over
        blocks of the same size, and names the same place."""
        data = np.random.default_rng(row * _N_DIM + col).standard_normal((_N_ROWS, _N_DIM))
        data[row, col] = bad
        p = tmp_path / "emb.csv"
        write_rows(p, data.astype("<f4"), "csv")
        with pytest.raises(NonFiniteValue) as exc:
            read_embeddings(p, format="csv")
        assert (exc.value.row, exc.value.col) == (row, col)
        assert str(exc.value) == f"non-finite value at row {row}, column {col}"

    def test_signalling_nan_is_located_without_a_warning(self, tmp_path):
        """Widening a signalling NaN to float64 raises NumPy's invalid flag;
        the reader still names its place and warns of nothing."""
        bits = np.ones((_N_ROWS, _N_DIM), "<f4").view("<u4")
        bits[_B, 1] = 0x7F800001
        p = tmp_path / "emb.bin"
        make_binary(p, _N_ROWS, _N_DIM, bits.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                read_embeddings(p)
        assert (exc.value.row, exc.value.col) == (_B, 1)

    @pytest.mark.parametrize("count, dim, payload, error, message", [
        (2, 2, b"\x00" * 12, TruncatedPayload, "payload truncated: expected 16 bytes, found 12"),
        (1, 2, b"\x00" * 11, EmbeddingIOError, "{p} carries 3 trailing bytes beyond the payload"),
        (3, 0, b"", DimensionMismatch,
         "embedding data must be 2-D with at least one column, got shape (3, 0)"),
        (2**31, 0, b"", DimensionMismatch,
         "embedding data must be 2-D with at least one column, got shape (2147483648, 0)"),
        (2**31, 4, b"\x00" * 16, TruncatedPayload,
         f"payload truncated: expected {2**31 * 16} bytes, found 16"),
        (2**32 - 1, 2**32 - 1, b"", TruncatedPayload,
         f"payload truncated: expected {(2**32 - 1) ** 2 * 4} bytes, found 0"),
    ], ids=["truncated", "trailing", "dim-0", "dim-0-huge-count", "huge-count", "huge-both"])
    def test_bad_payloads_fail_before_allocating(self, tmp_path, count, dim, payload,
                                                 error, message):
        p = tmp_path / "emb.bin"
        make_binary(p, count, dim, payload)
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as exc:
                read_embeddings(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(exc.value) is error
        assert str(exc.value) == message.format(p=p)
        assert peak < 1 << 20

    @pytest.mark.parametrize("preadv", [True, False], ids=["preadv", "seek-readinto"])
    def test_file_that_shrinks_while_read_is_truncated(self, tmp_path, monkeypatch, preadv):
        """The size is taken from fstat before the payload is read; a file
        that is then shorter than the header promises is still refused."""
        if not preadv:
            monkeypatch.delattr(os, "preadv", raising=False)
        p = tmp_path / "emb.bin"
        blk = siftsel.core._block_rows(2)  # the shrink shows in the second block
        make_binary(p, blk + 2, 2, b"\x00" * (blk + 1) * 8)
        real = siftsel.io.os.fstat
        monkeypatch.setattr(siftsel.io.os, "fstat", lambda fd: SimpleNamespace(
            st_mode=real(fd).st_mode, st_size=real(fd).st_size + 8))
        with pytest.raises(TruncatedPayload) as exc:
            read_embeddings(p)
        assert (exc.value.expected, exc.value.actual) == ((blk + 2) * 8, (blk + 1) * 8)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_refused_by_name(self):
        """A pipe has no size to check the header against before reading."""
        r, w = os.pipe()
        os.write(w, MAGIC + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        os.close(w)
        try:
            with pytest.raises(EmbeddingIOError, match="is not a regular file$"):
                read_embeddings(f"/dev/fd/{r}")
        finally:
            os.close(r)


def _norm_cases():
    for dim in (1, 3, 128, 1024):
        b = _test_block_rows(dim)
        for rows in (0, 1, b - 1, b, b + 1, 2 * b + 3):
            for fmt in ("binary", "csv"):
                if rows or fmt == "binary":  # a CSV file holds at least one row
                    yield pytest.param(fmt, dim, rows, id=f"{fmt}-d{dim}-n{rows}")


def test_reader_norms_at_the_production_block_size(tmp_path):
    b = siftsel.core._block_rows(128)
    raw = np.random.default_rng(5).normal(size=(2 * b + 3, 128)).astype("<f4")
    p = tmp_path / "e.bin"
    write_rows(p, raw, "binary")
    e = read_embeddings(p)
    assert e._norms.tobytes() == np.linalg.norm(raw.astype(np.float64), axis=1).tobytes()


@pytest.mark.usefixtures("small_blocks")
class TestReadTimeNorms:
    """Both readers compute each row's float64 norm as they read, as their
    finiteness check, and the set keeps them for normalize_rows."""

    @pytest.mark.parametrize("fmt, dim, rows", list(_norm_cases()))
    def test_norms_are_numpys_byte_for_byte(self, tmp_path, fmt, dim, rows):
        raw = _random_rows(rows, dim, seed=rows * 7 + dim)
        p = tmp_path / f"e.{fmt}"
        write_rows(p, raw, fmt)
        e = read_embeddings(p, format=fmt)
        want = np.linalg.norm(raw.astype(np.float64), axis=1)
        assert e._norms is not None  # kept by the reader, not computed on demand
        assert e._norms.dtype == np.float64
        assert e._norms.tobytes() == want.tobytes()
        assert e._row_norms() is e._norms

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_normalize_rows_divides_by_the_read_norms(self, tmp_path, monkeypatch, fmt):
        rng = np.random.default_rng(31)
        dim = 16
        raw = rng.normal(size=(2 * siftsel.core._block_rows(dim) + 3, dim)).astype("<f4")
        p = tmp_path / f"e.{fmt}"
        write_rows(p, raw, fmt)
        e = read_embeddings(p, format=fmt)
        real, calls = siftsel.core._sum_sq_norms, []
        monkeypatch.setattr(siftsel.core, "_sum_sq_norms",
                            lambda rows: calls.append(rows.shape) or real(rows))
        n = normalize_rows(e)
        assert calls == []
        assert n._div is e._norms
        assert pickle.loads(pickle.dumps(e))._norms is None  # values computed from the rows stay
        x = raw.astype(np.float64)
        assert n.data.tobytes() == (x / np.linalg.norm(x, axis=1)[:, None]).tobytes()
        # a set the caller builds has no read norms: they are computed once
        normalize_rows(EmbeddingSet(data=raw))
        assert calls == [raw.shape]

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("dim", [1, 3, 128, 1024])
    def test_rows_of_float32_max_are_finite(self, tmp_path, fmt, dim):
        """Squares of float32 values are far inside float64's range, so
        rows of ±float32 max have finite norms: no warning, no false
        NonFiniteValue, and unit rows once normalized."""
        big = np.finfo(np.float32).max
        rng = np.random.default_rng(dim)
        rows = siftsel.core._block_rows(dim) + 1
        raw = np.where(rng.random((rows, dim)) < 0.5, -big, big).astype("<f4")
        p = tmp_path / f"e.{fmt}"
        write_rows(p, raw, fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = read_embeddings(p, format=fmt)
            data = normalize_rows(e).data
        want = np.linalg.norm(raw.astype(np.float64), axis=1)
        assert np.isfinite(e._norms).all() and e._norms.tobytes() == want.tobytes()
        np.testing.assert_allclose(np.linalg.norm(data, axis=1), 1.0, rtol=1e-14)


@pytest.fixture
def read_threads(monkeypatch, small_blocks):
    """force(w) makes the binary reader use min(w, blocks) threads on any
    payload: w as the cap and as the CPU count, and no size floor."""
    def force(w: int) -> None:
        monkeypatch.setattr(siftsel.io, "_MAX_READ_THREADS", w)
        monkeypatch.setattr(siftsel.io, "_usable_cpus", lambda: w)
        monkeypatch.setattr(siftsel.io, "_THREADED_MIN_VALUES", 0)
    return force


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started during the test, in the order they started."""
    started, real = [], threading.Thread.start

    def start(self):
        started.append(self)
        real(self)
    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _assert_read_back(e, raw) -> None:
    x = raw.astype(np.float64)
    assert e.data.tobytes() == x.tobytes()
    assert e._norms.tobytes() == np.linalg.norm(x, axis=1).tobytes()


def _thread_cases():
    for dim in (1, 3, 128):
        b = _test_block_rows(dim)
        for rows in (0, 1, b - 1, b, b + 1, 2 * b + 3, 7 * b + 1):
            yield pytest.param(dim, rows, id=f"d{dim}-n{rows}")


class TestThreadedReader:
    """From 2^21 values the binary reader reads and checks its blocks on
    up to four threads that claim them in turn. The rows, the norms and the
    error are those of reading the blocks in order."""

    @pytest.mark.parametrize("w", [1, 2, 3])
    @pytest.mark.parametrize("dim, rows", list(_thread_cases()))
    def test_rows_and_norms_are_the_sequential_readers(self, tmp_path, read_threads,
                                                       thread_starts, w, dim, rows):
        read_threads(w)
        raw = _random_rows(rows, dim, seed=rows * 7 + dim)
        p = tmp_path / "e.bin"
        write_rows(p, raw, "binary")
        _assert_read_back(read_embeddings(p), raw)
        blocks = -(-rows // _test_block_rows(dim))
        assert len(thread_starts) == max(1, min(w, blocks)) - 1

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("first, later", [("nan", "nan"), ("nan", "truncated"),
                                              ("truncated", "nan")])
    def test_the_first_failing_block_is_named_when_a_later_one_fails_first(
            self, tmp_path, monkeypatch, read_threads, w, first, later):
        """Blocks 2 and 5 fail. Block 2 waits until block 5 has failed,
        and its error is still the one raised: a NonFiniteValue at its own
        (row, col), or a TruncatedPayload at its offset."""
        read_threads(w)
        dim, b = _N_DIM, _B
        data = np.random.default_rng(3).standard_normal((7 * b + 1, dim)).astype("<f4")
        for block, kind in ((2, first), (5, later)):
            if kind == "nan":
                data[block * b + 1, 1] = np.nan
        p = tmp_path / "e.bin"
        write_rows(p, data, "binary")
        failed, order, read = threading.Event(), [], []

        def block_of(offset: int) -> int:
            return (offset - siftsel.io._HEADER.size) // (b * dim * 4)

        def block_2_waits(block: int) -> None:
            if block == 2:
                assert failed.wait(10), "block 5 did not fail while block 2 waited"
                time.sleep(0.05)  # until block 5's failure is recorded
                order.append(2)

        def block_5_failed(block: int) -> None:
            if block == 5:
                order.append(5)
                failed.set()

        real_check, real_preadv = siftsel.io._check_finite_by_norms, os.preadv

        def check(rows, norms, first_row=0):
            block = first_row // b
            if first == "nan":
                block_2_waits(block)
            try:
                real_check(rows, norms, first_row)
            except NonFiniteValue:
                block_5_failed(block)
                raise

        def preadv(fd, buffers, offset):
            block = block_of(offset)
            read.append(block)
            if (block, first) == (2, "truncated"):
                block_2_waits(block)
                return 0
            if (block, later) == (5, "truncated"):
                block_5_failed(block)
                return 0
            return real_preadv(fd, buffers, offset)
        monkeypatch.setattr(siftsel.io, "_check_finite_by_norms", check)
        monkeypatch.setattr(siftsel.io.os, "preadv", preadv)

        if first == "nan":
            with pytest.raises(NonFiniteValue) as exc:
                read_embeddings(p)
            assert (exc.value.row, exc.value.col) == (2 * b + 1, 1)
        else:
            with pytest.raises(TruncatedPayload) as exc:
                read_embeddings(p)
            assert (exc.value.expected, exc.value.actual) == (data.nbytes, 2 * b * dim * 4)
        assert order == [5, 2]
        if w == 2:  # one thread waits in block 2, the other stops at block 5
            assert max(read) == 5

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_short_reads_are_continued(self, tmp_path, monkeypatch, read_threads, w):
        """os.preadv may return fewer bytes than asked; the reader asks again."""
        read_threads(w)
        raw = _random_rows(7 * _B + 1, _N_DIM, seed=w)
        p = tmp_path / "e.bin"
        write_rows(p, raw, "binary")
        real, calls = os.preadv, []

        def preadv(fd, buffers, offset):
            calls.append(offset)
            return real(fd, [buffers[0][:1000]], offset)
        monkeypatch.setattr(siftsel.io.os, "preadv", preadv)
        _assert_read_back(read_embeddings(p), raw)
        block_bytes = [min(_B, len(raw) - s) * _N_DIM * 4 for s in range(0, len(raw), _B)]
        assert len(calls) == sum(-(-n // 1000) for n in block_bytes)

    def test_without_preadv_one_thread_seeks_and_reads(self, tmp_path, monkeypatch,
                                                       read_threads, thread_starts):
        read_threads(3)
        monkeypatch.delattr(os, "preadv", raising=False)
        raw = _random_rows(7 * _B + 1, _N_DIM, seed=9)
        p = tmp_path / "e.bin"
        write_rows(p, raw, "binary")
        _assert_read_back(read_embeddings(p), raw)
        assert thread_starts == []

    def test_every_thread_reads_a_signalling_nan_without_a_warning(
            self, tmp_path, monkeypatch, read_threads):
        """NumPy's error state is per thread: each worker sets its own, so
        widening a signalling NaN warns in none of them. Each thread waits
        in its block until the other is in one too, so that neither fails
        and stops the other before it has claimed a block."""
        read_threads(2)
        bits = np.ones((7 * _B + 1, _N_DIM), "<f4").view("<u4")
        bits[::_B, 1] = 0x7F800001  # one in every block
        p = tmp_path / "e.bin"
        make_binary(p, *bits.shape, bits.tobytes())
        real, both_in, readers = siftsel.io._norms_into, threading.Barrier(2, timeout=10), set()

        def norms_into(block, out, buf):
            readers.add(threading.get_ident())
            both_in.wait()  # each thread fails in its first block, so waits once
            real(block, out, buf)
        monkeypatch.setattr(siftsel.io, "_norms_into", norms_into)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                read_embeddings(p)
        assert (exc.value.row, exc.value.col) == (0, 1)
        assert len(readers) == 2

    def test_claims_under_fast_switching_read_each_block_once(self, tmp_path, monkeypatch,
                                                               read_threads):
        """More threads than cores, switching every microsecond: every
        block is read and checked exactly once."""
        read_threads(8)
        rows = 64 * _B + 5
        raw = _random_rows(rows, _N_DIM, seed=4)
        p = tmp_path / "e.bin"
        write_rows(p, raw, "binary")
        real, checked = siftsel.io._check_finite_by_norms, []
        monkeypatch.setattr(siftsel.io, "_check_finite_by_norms",
                            lambda r, n, first_row=0: checked.append(first_row) or real(r, n, first_row))
        # the threads read through the one descriptor whose size was checked
        opened = []
        monkeypatch.setattr(siftsel.io, "open", lambda *a, **k: opened.append(a) or open(*a, **k),
                            raising=False)
        monkeypatch.setattr(siftsel.io.os, "open", lambda *a, **k: opened.append(a) or None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            e = read_embeddings(p)
        finally:
            sys.setswitchinterval(interval)
        assert opened == [(p, "rb")]
        assert sorted(checked) == list(range(0, rows, _B))
        _assert_read_back(e, raw)

    @pytest.mark.parametrize("rows, dim", [(1, 128), (2**14 - 1, 128), (2**14, 128)],
                             ids=["query", "below-floor", "at-floor"])
    def test_threads_start_from_two_to_the_21_values(self, tmp_path, thread_starts, rows, dim):
        """A query-sized file, and any below 2^21 values, starts no thread."""
        raw = np.random.default_rng(rows).normal(size=(rows, dim)).astype("<f4")
        p = tmp_path / "e.bin"
        write_rows(p, raw, "binary")
        _assert_read_back(read_embeddings(p), raw)
        blocks = -(-rows // siftsel.core._block_rows(dim))
        want = (min(4, siftsel.io._usable_cpus(), blocks) - 1 if rows * dim >= 2**21
                and hasattr(os, "preadv") else 0)
        assert len(thread_starts) == want

    def test_thread_count_rule(self, monkeypatch):
        floor, rule = 2**21, siftsel.io._read_threads
        monkeypatch.setattr(siftsel.io, "_usable_cpus", lambda: 8)
        assert (rule(floor - 1, 100), rule(floor, 100), rule(floor, 3)) == (1, 4, 3)
        monkeypatch.setattr(siftsel.io, "_usable_cpus", lambda: 2)
        assert rule(floor, 100) == 2
        monkeypatch.delattr(os, "preadv", raising=False)
        assert rule(floor, 100) == 1

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert siftsel.io._usable_cpus() == 6


class TestCsvFormat:
    def test_round_trip_with_ids(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 3))
        e = EmbeddingSet(data=data, ids=("w", "x", "y", "z"))
        p = tmp_path / "emb.csv"
        write_embeddings(e, p, format="csv")
        text = p.read_text()
        assert text.splitlines()[0] == "id,v0,v1,v2"
        back = read_embeddings(p, format="csv")
        assert back.ids == ("w", "x", "y", "z")
        np.testing.assert_array_equal(back.data, data.astype("<f4").astype(np.float64))

    def test_round_trip_without_ids(self, tmp_path):
        e = EmbeddingSet(data=np.asarray(W_DATA))
        p = tmp_path / "emb.csv"
        write_embeddings(e, p, format="csv")
        back = read_embeddings(p, format="csv")
        assert back.ids is None
        assert [back.id_of(r) for r in range(back.rows)] == ["0", "1", "2"]
        np.testing.assert_array_equal(
            back.data, np.asarray(W_DATA).astype("<f4").astype(np.float64))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("# produced by hand\n\n1,0\n\n# middle comment\n0,1\n")
        back = read_embeddings(p, format="csv")
        np.testing.assert_array_equal(back.data, np.eye(2))

    def test_header_requires_exact_id_field(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("1,0\n0,1\n")  # no header: first field is a number
        back = read_embeddings(p, format="csv")
        assert back.rows == 2 and back.ids is None
        assert [back.id_of(r) for r in range(back.rows)] == ["0", "1"]

    def test_ragged_row_reports_index(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("1,0\n0,1,5\n")
        with pytest.raises(RaggedRow) as exc:
            read_embeddings(p, format="csv")
        assert exc.value.row == 1

    def test_unparseable_value(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("1,oops\n")
        with pytest.raises(EmbeddingIOError):
            read_embeddings(p, format="csv")

    def test_nan_value_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("1,nan\n")
        with pytest.raises(NonFiniteValue) as exc:
            read_embeddings(p, format="csv")
        assert (exc.value.row, exc.value.col) == (0, 1)

    @pytest.mark.parametrize("text, error, row, col", [
        # an id with no values is ragged, not a missing row
        ("id,v0,v1\na,1,2\nb\nc,3,4\n", RaggedRow, 1, None),
        ("# c\n1,2\n\n# c\n3,4,5\n", RaggedRow, 1, None),
        ("1,2,3\n1,,2\n", EmbeddingIOError, 1, 1),
        ("1,2\n3,4,\n", RaggedRow, 1, None),
        ("1,2,\n", EmbeddingIOError, 0, 2),
        ("1,2#c\n", EmbeddingIOError, 0, 1),
        ("id,v0,v1\n# c\na,1,2\n\nb,3,nan\n", NonFiniteValue, 1, 1),
        # beyond float32's range: stored as inf, refused without a warning
        ("1,2\n3,1e39\n", NonFiniteValue, 1, 1),
    ], ids=["id-only", "ragged-after-comments", "empty-field", "trailing-comma",
            "trailing-comma-single-row", "inline-hash", "nan", "float32-overflow"])
    def test_malformed_rows_are_located(self, tmp_path, text, error, row, col):
        p = tmp_path / "emb.csv"
        p.write_text(text)
        with pytest.raises(EmbeddingIOError) as exc:
            read_embeddings(p, format="csv")
        assert type(exc.value) is error
        if error is EmbeddingIOError:
            assert str(p) in str(exc.value)
            assert f"at row {row}, column {col}" in str(exc.value)
        else:
            assert exc.value.row == row
            if col is not None:
                assert exc.value.col == col

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"])
    def test_python_only_number_spellings_rejected(self, tmp_path, value):
        """Values follow NumPy's loadtxt grammar: the underscores and
        non-ASCII digits that Python's float() takes are unparseable."""
        p = tmp_path / "emb.csv"
        p.write_text(f"1,2\n3,{value}\n", encoding="utf-8")
        with pytest.raises(EmbeddingIOError, match="at row 1, column 1"):
            read_embeddings(p, format="csv")

    def test_non_utf8_byte_is_located(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_bytes(b"1,2\n3,4\xff\n")
        with pytest.raises(EmbeddingIOError, match="byte 0xff at offset 7") as exc:
            read_embeddings(p, format="csv")
        assert str(p) in str(exc.value)

    def test_carriage_returns_end_lines(self, tmp_path):
        """CRLF and a lone CR end a line, in the CSV and in a sidecar."""
        p = tmp_path / "emb.csv"
        p.write_bytes(b"id,v0\r\na,1\rb,2\r\n")
        back = read_embeddings(p, format="csv")
        assert back.ids == ("a", "b")
        np.testing.assert_array_equal(back.data, [[1.0], [2.0]])
        ids = tmp_path / "ids.txt"
        ids.write_bytes(b"x\ry\r\n")
        assert read_embeddings(p, format="csv", ids_path=ids).ids == ("x", "y")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("# nothing here\n")
        with pytest.raises(EmbeddingIOError):
            read_embeddings(p, format="csv")

    def test_id_with_comma_cannot_be_written(self, tmp_path):
        e = EmbeddingSet(data=np.eye(2), ids=("a,b", "c"))
        with pytest.raises(EmbeddingIOError):
            write_embeddings(e, tmp_path / "emb.csv", format="csv")

    def test_unknown_format_rejected(self, tmp_path):
        e = EmbeddingSet(data=np.eye(2))
        with pytest.raises(EmbeddingIOError):
            write_embeddings(e, tmp_path / "emb.x", format="parquet")
        write_embeddings(e, tmp_path / "emb.bin")
        with pytest.raises(EmbeddingIOError):
            read_embeddings(tmp_path / "emb.bin", format="parquet")


_CSV_ID = st.text(alphabet=string.ascii_letters + string.digits + "_-.", max_size=6)
_CSV_PAD = st.sampled_from(["", " ", "  ", "\t"])
_CSV_FILLER = st.lists(st.sampled_from(["", "   ", "# note", "  # note, 1,2"]), max_size=2)


@st.composite
def csv_texts(draw):
    """(text, data, ids): the rows of `data` in CSV with `ids` (or none),
    spaces around fields, comment and blank lines between rows, and LF or
    CRLF line endings."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    data = np.array(draw(st.lists(
        st.lists(st.floats(-1e38, 1e38), min_size=d, max_size=d),
        min_size=n, max_size=n)))
    ids = tuple(draw(st.lists(_CSV_ID, min_size=n, max_size=n))) if draw(st.booleans()) else None

    def line(fields):
        return ",".join(draw(_CSV_PAD) + f + draw(_CSV_PAD) for f in fields)

    lines = draw(_CSV_FILLER)
    if ids is not None:
        lines.append(line(["id", *(f"v{j}" for j in range(d))]))
    for r in range(n):
        lines += draw(_CSV_FILLER)
        values = [repr(float(v)) for v in data[r]]
        lines.append(line([ids[r], *values] if ids is not None else values))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + ending, data, ids


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
def test_csv_round_trip_property(tmp_path, case):
    text, data, ids = case
    p = tmp_path / "emb.csv"
    p.write_bytes(text.encode("utf-8"))
    back = read_embeddings(p, format="csv")
    np.testing.assert_array_equal(back.data, data.astype("<f4").astype(np.float64))
    assert back.ids == ids
    if ids is None:
        assert [back.id_of(r) for r in range(back.rows)] == [str(r) for r in range(len(data))]



class TestCsvIdsThatCannotComeBack:
    @pytest.mark.parametrize("bad", ["#a", " a", "a ", "\ta", "a\u3000", "a\rb", "a\nb", "a,b"])
    def test_refused_before_the_file_is_opened(self, tmp_path, bad):
        """An id the reader would skip as a comment, strip, or split at a
        line end is refused like one with a comma, and the file that was
        there is left as it was."""
        p = tmp_path / "emb.csv"
        p.write_text("kept\n")
        e = EmbeddingSet(data=np.eye(2), ids=(bad, "c"))
        with pytest.raises(EmbeddingIOError, match="cannot be stored in csv"):
            write_embeddings(e, p, format="csv")
        assert p.read_text() == "kept\n"

    @pytest.mark.parametrize("good", ["a#b", "", "a b", "id", "é名"])
    def test_ids_the_reader_gives_back_are_written(self, tmp_path, good):
        p = tmp_path / "emb.csv"
        e = EmbeddingSet(data=np.eye(2), ids=(good, "c"))
        write_embeddings(e, p, format="csv")
        assert read_embeddings(p, format="csv").ids == (good, "c")


# Characters str.splitlines() breaks at besides CR and LF
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestSidecarLines:
    @pytest.mark.parametrize("text, ids", [
        ("", ()), ("a", ("a",)), ("a\n", ("a",)), ("\n", ("",)),
        ("a\n\n", ("a", "")), ("a\r\nb\rc", ("a", "b", "c")),
        ("a\x0cb\n \n", ("a\x0cb", " ")),
    ])
    def test_lines_end_at_lf_alone(self, tmp_path, text, ids):
        """A sidecar splits on LF after CR normalization; a final line end
        closes the last id. Form feeds, NEL and the Unicode separators
        are part of an id."""
        sidecar = tmp_path / "ids.txt"
        sidecar.write_bytes(text.encode("utf-8"))
        assert siftsel.io._read_sidecar_ids(sidecar, len(ids)) == ids

    @pytest.mark.parametrize("bad", ["a\nb", "a\rb", "\n"])
    def test_line_ends_refused_before_anything_is_written(self, tmp_path, bad):
        p, sidecar = tmp_path / "emb.bin", tmp_path / "emb.ids"
        p.write_bytes(b"kept")
        sidecar.write_text("kept\n")
        e = EmbeddingSet(data=np.eye(2), ids=(bad, "c"))
        with pytest.raises(EmbeddingIOError, match="cannot be stored in a sidecar"):
            write_embeddings(e, p, ids_path=sidecar)
        assert p.read_bytes() == b"kept" and sidecar.read_text() == "kept\n"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(st.text(alphabet=st.sampled_from("ab \t,#" + _SPLITLINES_ONLY),
                                max_size=4), min_size=1, max_size=5))
    def test_round_trip(self, tmp_path, ids):
        p, sidecar = tmp_path / "emb.bin", tmp_path / "emb.ids"
        e = EmbeddingSet(data=np.ones((len(ids), 2)), ids=ids)
        write_embeddings(e, p, ids_path=sidecar)
        assert read_embeddings(p, ids_path=sidecar).ids == tuple(ids)


def _walk_csv(path, raw: bytes) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """A line walk over a CSV file's bytes, the oracle for _read_csv: the
    float32 rows and the id column, if any. Lines are stripped, blank and
    '#' lines dropped, and each id split off in Python; the values of every
    row go to one np.loadtxt, and only when that fails are the rows walked
    again for the first bad one."""
    lines = [s for s in (line.strip() for line in siftsel.io._utf8_text(path, raw).split("\n"))
             if s and not s.startswith("#")]
    has_ids = bool(lines) and lines[0].partition(",")[0].strip() == "id"
    if has_ids:
        del lines[0]
    if not lines:
        raise EmbeddingIOError(f"{path} contains no data rows")
    if has_ids:
        parts = [line.partition(",") for line in lines]
        ids = tuple(head.strip() for head, _, _ in parts)
        values = [tail for _, _, tail in parts]
    else:
        ids, values = None, lines
    try:
        if not all(values):
            raise ValueError("a line holds an id and no values")  # loadtxt would skip it
        data = np.loadtxt(values, **siftsel.io._LOADTXT)
    except ValueError:
        siftsel.io._raise_first_bad_row(path, lines, has_ids)
        data = np.empty((len(lines), 0))  # ids alone: EmbeddingSet refuses dimension 0
    return siftsel.io._as_f32(data), ids


def _walk(path):
    return _walk_csv(path, path.read_bytes())


def _outcome(read, path):
    """What reading `path` gives: the rows' dtype, shape and bytes and the
    ids, or the error's type, message, row and column."""
    try:
        rows, ids = read(path)
    except EmbeddingIOError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return rows.dtype.str, rows.shape, rows.tobytes(), ids


_DIFF_VALUES = ["1", "-2.5", ".5", "1e3", "+4E+02", "1e39", "nan", "-inf", " 3 ", "\t4",
                "\xa05", "6\u3000", "7\x0c", "\x1c8"]
_DIFF_BAD = ["", "x", "1_0", "2#c", "1 2", "\ufeff1", "\u0661"]
_DIFF_IDS = ["a", "b7", "", " c ", "é", "名", "id", "x y", "#x"]
_DIFF_OTHER = ["", " ", "\t", "\u3000", "\x0c", "\x1c", "# note", "  # note, 1,2", "a", "id,v0"]


@st.composite
def any_csv_texts(draw):
    """CSV texts that the reader should take and ones it should refuse,
    all in one space: an id header or none, rows of d values with an id or
    none, bad values and ragged rows now and then, blank, whitespace,
    comment and id-only lines, LF, CRLF and lone CR endings, a BOM, and
    files with no rows."""
    d = draw(st.integers(1, 3))
    with_ids = draw(st.booleans())
    lines = []
    if with_ids:
        lines.append(draw(st.sampled_from(["id,v0", " id , x", "id"])))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["other", "ragged", "bad"]))
        if kind == "other":
            lines.append(draw(st.sampled_from(_DIFF_OTHER)))
            continue
        n = d + draw(st.sampled_from([-1, 1])) if kind == "ragged" else d
        values = draw(st.lists(st.sampled_from(_DIFF_VALUES), min_size=n, max_size=n))
        if kind == "bad" and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_DIFF_BAD))
        if with_ids:
            values.insert(0, draw(st.sampled_from(_DIFF_IDS)))
        lines.append(",".join(values))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text


class TestCsvPaths:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=any_csv_texts())
    def test_reader_and_walk_agree(self, tmp_path, text):
        """_read_csv, which parses every file in one loadtxt call, gives
        the line walk's rows and ids byte for byte, or its error type,
        message, row and column, and warns of nothing. A row whose id
        starts with '#' is a comment to the reader and the walk alike."""
        p = tmp_path / "emb.csv"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(siftsel.io._read_csv, p) == _outcome(_walk, p)

    @pytest.mark.parametrize("text, parse", [
        ("1,2\n3,4\n", "parsed"), ("id,v0,v1\na,1,2\r\nb,3,4", "parsed"),
        ("1\r\n2\r\n", "parsed"), ("id,v0\né,1\n 名 ,2\n", "parsed"),
        (" id ,v0\na,1\n", "parsed"),
        ("1,2\n \n3,4\n \t", "parsed"),  # lines of whitespace
        ("\n\u3000\nid,v0\r\n\x0c\ra,1\n", "parsed"),
        ("# c\n1,2\n", "parsed"), ("1,2\n3,4#\n", "failed"),  # a '#' anywhere
        ("id,v0\n#a,1\n", None),  # a comment row leaves no data line, and no parse
        ("1,2\n\n\n3,4\n", "parsed"), ("1,2\n \t\n3,4\n \r\n", "parsed"),
        ("1,2\n3\n5,6\n", "failed"),  # ragged
        ("id,v0,v1\na,1,2\nb,3,x\n", "failed"),  # a bad value
    ])
    def test_one_whole_file_parse_and_a_walk_only_when_it_fails(
            self, tmp_path, monkeypatch, text, parse):
        """Every file with a data line makes exactly one whole-file
        np.loadtxt call, whatever its comments and errors, and the rows
        are walked for the first bad one (_raise_first_bad_row) only when
        that call has failed."""
        p = tmp_path / "emb.csv"
        p.write_bytes(text.encode("utf-8"))
        expected = _outcome(_walk, p)
        loadtxt, locate = np.loadtxt, siftsel.io._raise_first_bad_row
        parses, walks = [], []

        def spy(*args, **kwargs):
            if walks:  # the walk's parses of single rows and values
                return loadtxt(*args, **kwargs)
            try:
                data = loadtxt(*args, **kwargs)
            except ValueError:
                parses.append("failed")
                raise
            parses.append("parsed")
            return data

        def counted(*args):
            walks.append(list(parses))
            return locate(*args)

        monkeypatch.setattr(siftsel.io.np, "loadtxt", spy)
        monkeypatch.setattr(siftsel.io, "_raise_first_bad_row", counted)
        assert _outcome(siftsel.io._read_csv, p) == expected
        assert parses == ([parse] if parse else [])
        assert walks == ([["failed"]] if parse == "failed" else [])

    def test_one_pass_ids_are_str(self, tmp_path, monkeypatch):
        """Before NumPy 2.0 loadtxt's default encoding hands converters
        bytes; the one pass names utf-8, so ids come back as str."""
        p = tmp_path / "emb.csv"
        p.write_bytes("id,v0\na,1\n名,2\n".encode("utf-8"))
        encodings = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            encodings.append(kwargs.get("encoding"))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(siftsel.io.np, "loadtxt", spy)
        rows, ids = siftsel.io._read_csv(p)
        assert encodings == ["utf-8"]
        assert ids == ("a", "名") and all(type(i) is str for i in ids)

    @pytest.mark.parametrize("text", [
        "", "\n\n", "\r\n", "  \n\t\n", "\u3000\n", "id,v0\n", "id,v0\n\n \r\n", "id",
    ])
    def test_empty_or_blank_file_raises_without_a_warning(self, tmp_path, text):
        """loadtxt warns that its input "contained no data"; such files
        never reach it, and raise the walk's error."""
        p = tmp_path / "emb.csv"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingIOError, match="contains no data rows"):
                read_embeddings(p, format="csv")

class TestSelectionSerialization:
    def test_worked_instance_records(self, wspace, wquery, wcfg, tmp_path):
        r = sift_select(wspace, wquery, 2, wcfg)
        p = tmp_path / "sel.jsonl"
        write_selection(r, wspace.ids, p)
        lines = [json.loads(s) for s in p.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0] == {
            "rank": 1, "row": 0, "id": "0", "objective": 0.5, "sigma_sq": 0.5,
        }
        assert lines[1]["rank"] == 2 and lines[1]["row"] == 0
        summary = lines[2]
        assert summary["method"] == "sift"
        assert summary["lambda_prime"] == 1.0
        assert summary["n"] == 2
        assert summary["sigma0_sq"] == 1.0
        np.testing.assert_allclose(summary["sigma_final_sq"], 1.0 / 3.0, atol=1e-12)

    def test_read_selection_round_trip(self, wspace, wquery, wcfg, tmp_path):
        r = sift_select(wspace, wquery, 2, wcfg)
        p = tmp_path / "sel.jsonl"
        write_selection(r, wspace.ids, p)
        records, summary = read_selection(p)
        assert [rec["rank"] for rec in records] == [1, 2]
        assert summary["method"] == "sift"

    def test_source_rows_map_back_to_originals(self, wspace, wquery, wcfg):
        sub = preselect_candidates(wspace, wquery, 2)  # keeps rows 0 and 2
        r = sift_select(sub, wquery, 2, wcfg)
        buf = io.StringIO()
        write_selection(r, sub.ids, buf, source_rows=sub.source_rows)
        recs = [json.loads(s) for s in buf.getvalue().splitlines()][:-1]
        assert all(rec["row"] in (0, 2) for rec in recs)

    def test_writes_to_file_like_object(self, wspace, wquery, wcfg):
        r = sift_select(wspace, wquery, 1, wcfg)
        buf = io.StringIO()
        write_selection(r, wspace.ids, buf)
        assert len(buf.getvalue().splitlines()) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["objective", "sigma", "sigma0", "sigma_final"])
    def test_non_finite_value_is_a_numerical_failure(self, tmp_path, bad, where):
        """NaN or ±inf anywhere in a row or the summary raises before
        anything is written, and no file is created for a path."""
        objective, sigma = [0.5, 0.25, 0.125], [1.0, 0.5, 0.25, 0.125]
        if where == "objective":
            objective[1] = bad
        else:
            sigma[{"sigma": 2, "sigma0": 0, "sigma_final": -1}[where]] = bad
        r = SelectionResult(order=(0, 1, 0), objective_trace=tuple(objective),
                            sigma_trace=tuple(sigma), pivot_trace=(1.01,) * 3,
                            method="sift", lambda_prime=0.01)
        buf = io.StringIO()
        with pytest.raises(NumericalFailure):
            write_selection(r, None, buf)
        assert buf.getvalue() == ""
        with pytest.raises(NumericalFailure):
            write_selection(r, None, tmp_path / "sel.jsonl")
        assert not (tmp_path / "sel.jsonl").exists()

    @settings(max_examples=150, deadline=None)
    @given(ids=st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
                        min_size=1, max_size=6),
           values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([-0.0, 5e-324, -1e-310, 1e308, -1e308])),
                           min_size=13, max_size=13),
           with_ids=st.booleans(), with_source=st.booleans(), data=st.data())
    def test_row_lines_are_the_bytes_of_strict_json(self, ids, values, with_ids, with_source,
                                                    data):
        """Ids with quotes, backslashes, control and non-ASCII characters,
        or ids by row number through source_rows, and any finite floats,
        -0.0, subnormals and ±1e308 among them, come out as per-record
        strict_json, which write_selection's row lines bypass."""
        ids = ids + ['"q"', "back\\slash", "ü€😀", "\n\x00\x1f\x7f"]
        source = tuple(data.draw(st.integers(0, 10**12)) for _ in ids) if with_source else None
        n = len(values) // 2
        order = tuple(data.draw(st.integers(0, len(ids) - 1)) for _ in range(n))
        r = SelectionResult(order=order, objective_trace=tuple(values[:n]),
                            sigma_trace=tuple(values[n:2 * n + 1]),
                            pivot_trace=tuple(values[:n]), method="sift",
                            lambda_prime=values[-1])
        buf = io.StringIO()
        write_selection(r, ids if with_ids else None, buf, source_rows=source)
        rows = [row if source is None else source[row] for row in order]
        records = [{"rank": i + 1, "row": orig, "id": ids[row] if with_ids else str(orig),
                    "objective": r.objective_trace[i], "sigma_sq": r.sigma_trace[i + 1]}
                   for i, (row, orig) in enumerate(zip(order, rows))]
        records.append({"method": "sift", "lambda_prime": r.lambda_prime, "n": n,
                        "sigma0_sq": r.sigma_trace[0], "sigma_final_sq": r.sigma_trace[-1]})
        assert buf.getvalue() == "".join(strict_json(rec) + "\n" for rec in records)

    def test_read_selection_requires_summary(self, tmp_path):
        p = tmp_path / "sel.jsonl"
        p.write_text('{"rank": 1, "row": 0}\n')
        with pytest.raises(EmbeddingIOError):
            read_selection(p)
        p.write_text("")
        with pytest.raises(EmbeddingIOError):
            read_selection(p)

    @pytest.mark.parametrize("line, where", [
        (b'{"rank": 1, "row": ', "line 3"),
        (b'[1, 2]', "line 3"),
        (b'"sift"', "line 3"),
        (b'{"rank": 1, "sigma_sq": NaN}', "line 3"),
        (b'{"rank": 1, "sigma_sq": Infinity}', "line 3"),
        (b'{"rank": 1, "sigma_sq": -Infinity}', "line 3"),
        (b'{"id": "\xff"}', "is not UTF-8: byte 0xff at offset 31"),
    ])
    def test_read_selection_names_what_it_cannot_read(self, tmp_path, line, where):
        """Malformed JSON, a value that is not an object, the NaN and
        infinities that write_selection refuses to write, and bytes that
        are not UTF-8 all end in EmbeddingIOError naming the path and the
        line, or the byte."""
        p = tmp_path / "sel.jsonl"
        p.write_bytes(b'{"rank": 1, "row": 0}\n\n' + line + b'\n{"method": "sift"}\n')
        with pytest.raises(EmbeddingIOError, match=re.escape(f"sel.jsonl {where}")):
            read_selection(p)


class TestFormatsRoundTripThroughEachOther:
    def test_binary_and_csv_agree(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5, 4))
        e = EmbeddingSet(data=data, ids=tuple("abcde"))
        pb, pc = tmp_path / "e.bin", tmp_path / "e.csv"
        write_embeddings(e, pb, format="binary")
        write_embeddings(e, pc, format="csv")
        from_bin = read_embeddings(pb)
        from_csv = read_embeddings(pc, format="csv")
        np.testing.assert_array_equal(from_bin.data, from_csv.data)
        assert from_csv.ids == e.ids


class TestStoredRows:
    """A set read from a file stores its float32 rows, and a normalized one
    the float64 norms it divides them by. Its float64 data is built the
    first time it is used and is the matrix a reader that widens on load
    and then divides by NumPy's row norms would make."""

    @staticmethod
    def widened(raw32: np.ndarray, normalize: bool) -> np.ndarray:
        x = raw32.astype(np.float64)
        return x / np.linalg.norm(x, axis=1)[:, None] if normalize else x

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_data_is_the_widened_rows_byte_for_byte(self, tmp_path, fmt, normalize):
        rng = np.random.default_rng(11)
        rows = 2 * siftsel.core._block_rows(9) + 7
        raw = (rng.normal(size=(rows, 9)) * rng.uniform(1e-3, 1e3, size=(rows, 1))).astype("<f4")
        p = tmp_path / f"e.{fmt}"
        write_embeddings(EmbeddingSet(data=raw), p, format=fmt)
        e = read_embeddings(p, format=fmt)
        if normalize:
            e = normalize_rows(e)
        assert e._rows.dtype == np.float32 and e._data is None
        assert e.data.dtype == np.float64
        assert e.data.tobytes() == self.widened(raw, normalize).tobytes()
        assert e.data is e.data  # built once

    def test_data_is_read_only(self, tmp_path):
        p = tmp_path / "e.bin"
        write_embeddings(EmbeddingSet(data=W_DATA), p)
        for e in (read_embeddings(p), normalize_rows(read_embeddings(p))):
            assert not e.data.flags.writeable
            with pytest.raises(ValueError):
                e.data[0, 0] = 2.0

    @pytest.mark.parametrize("normalize", [False, True])
    def test_scans_never_build_the_float64_matrix(self, tmp_path, normalize):
        """preselect_candidates and nn_select scan the stored float32 rows:
        on 50k rows they allocate less than the rows themselves take."""
        K, d = 50_000, 32
        rng = np.random.default_rng(12)
        p = tmp_path / "e.bin"
        make_binary(p, K, d, rng.normal(size=(K, d)).astype("<f4").tobytes())
        e = read_embeddings(p)
        if normalize:
            e = normalize_rows(e)
        q = rng.normal(size=d)
        tracemalloc.start()
        try:
            pool = preselect_candidates(e, q, 200)
            nn_select(e, q, 20, KernelConfig())
            nn_select(e, q, 5, KernelConfig(), failure_mode=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e._data is None
        assert peak < K * d * 4
        assert pool.rows == 200
