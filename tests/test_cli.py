"""Command line interface: subcommand contracts, exit codes, determinism."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import W_DATA
from siftsel import (
    EmbeddingSet,
    KernelConfig,
    NumericalFailure,
    SelectionResult,
    beta_regression,
    normalize_rows,
    read_embeddings,
    realized_info_gain,
    sift_select,
    write_embeddings,
)
import siftsel.cli
from siftsel.cli import main


@pytest.fixture
def wfiles(tmp_path):
    emb = tmp_path / "emb.bin"
    qry = tmp_path / "qry.bin"
    write_embeddings(EmbeddingSet(data=np.asarray(W_DATA)), emb)
    write_embeddings(EmbeddingSet(data=np.array([[1.0, 0.0]])), qry)
    return str(emb), str(qry)


@pytest.fixture
def duplicated_axes_files(tmp_path):
    """Four copies of each basis vector; query (2,1)/√5 — a data space that
    explains only part of the query."""
    emb = tmp_path / "dup.bin"
    qry = tmp_path / "dupq.bin"
    write_embeddings(EmbeddingSet(data=np.repeat(np.eye(2), 4, axis=0)), emb)
    write_embeddings(
        EmbeddingSet(data=np.array([[2.0, 1.0]]) / np.sqrt(5.0)), qry)
    return str(emb), str(qry)


def run_select_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return [json.loads(line) for line in out.splitlines()]


class TestSelect:
    def test_worked_instance_json_lines(self, wfiles, capsys):
        emb, qry = wfiles
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--method", "sift", "--n", "2", "--lambda", "1",
        ])
        assert len(lines) == 3
        assert lines[0] == {
            "rank": 1, "row": 0, "id": "0", "objective": 0.5, "sigma_sq": 0.5,
        }
        assert lines[1]["row"] == 0 and lines[1]["rank"] == 2
        summary = lines[2]
        assert summary["method"] == "sift"
        assert summary["lambda_prime"] == 1.0
        assert summary["n"] == 2
        assert summary["sigma0_sq"] == 1.0
        assert summary["sigma_final_sq"] == pytest.approx(1 / 3, abs=1e-9)

    def test_stderr_progress_summary(self, wfiles, capsys):
        emb, qry = wfiles
        main(["select", emb, qry, "--n", "2", "--lambda", "1"])
        err = capsys.readouterr().err
        assert "sift: selected 2/3 rows" in err
        assert "floor" in err and "ms" in err

    def test_lambda_prime_alias(self, wfiles, capsys):
        emb, qry = wfiles
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--n", "1", "--lambda-prime", "1",
        ])
        assert lines[-1]["lambda_prime"] == 1.0

    def test_nn_failure_mode(self, wfiles, capsys):
        emb, qry = wfiles
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--method", "nn-f", "--n", "3", "--lambda", "1",
        ])
        assert [rec["row"] for rec in lines[:-1]] == [0, 0, 0]
        assert lines[-1]["method"] == "nn-f"

    def test_adaptive_stopping_truncates(self, duplicated_axes_files, capsys):
        emb, qry = duplicated_axes_files
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--method", "nn", "--n", "4", "--alpha", "2.0",
        ])
        assert lines[-1]["n"] == 2

    def test_small_alpha_never_truncates_here(self, duplicated_axes_files, capsys):
        emb, qry = duplicated_axes_files
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--method", "nn", "--n", "4", "--alpha", "0.1",
        ])
        assert lines[-1]["n"] == 4

    def test_output_file(self, wfiles, tmp_path, capsys):
        emb, qry = wfiles
        out = tmp_path / "sel.jsonl"
        code = main(["select", emb, qry, "--n", "1", "--lambda", "1",
                     "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert len(out.read_text().splitlines()) == 2

    def test_preselect_maps_rows_to_originals(self, wfiles, capsys):
        emb, qry = wfiles
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--method", "nn", "--n", "2", "--lambda", "1",
            "--preselect-k", "2",
        ])
        assert [rec["row"] for rec in lines[:-1]] == [0, 2]

    @pytest.mark.parametrize("preselect", [[], ["--preselect-k", "12"]],
                             ids=["whole-file", "preselected"])
    def test_binary_without_sidecar_names_rows_by_index(self, tmp_path, capsys, preselect):
        rng = np.random.default_rng(3)
        emb, qry = tmp_path / "emb.bin", tmp_path / "qry.bin"
        write_embeddings(EmbeddingSet(data=rng.standard_normal((40, 4))), emb)
        write_embeddings(EmbeddingSet(data=rng.standard_normal((1, 4))), qry)
        lines = run_select_lines(capsys, [
            "select", str(emb), str(qry), "--n", "6", *preselect,
        ])
        records = lines[:-1]
        assert len(records) == 6 and max(rec["row"] for rec in records) >= 12
        assert [rec["id"] for rec in records] == [str(rec["row"]) for rec in records]

    def test_sidecar_ids_appear_in_output(self, wfiles, tmp_path, capsys):
        emb, qry = wfiles
        sidecar = tmp_path / "names.txt"
        sidecar.write_text("axis\northo\ndiag\n")
        lines = run_select_lines(capsys, [
            "select", emb, qry, "--method", "nn", "--n", "2", "--lambda", "1",
            "--ids", str(sidecar),
        ])
        assert [rec["id"] for rec in lines[:-1]] == ["axis", "diag"]

    def test_csv_format(self, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        qry = tmp_path / "qry.csv"
        write_embeddings(
            EmbeddingSet(data=np.asarray(W_DATA), ids=("a", "b", "c")),
            emb, format="csv")
        write_embeddings(EmbeddingSet(data=np.array([[1.0, 0.0]])), qry,
                         format="csv")
        lines = run_select_lines(capsys, [
            "select", str(emb), str(qry), "--format", "csv",
            "--method", "nn", "--n", "1", "--lambda", "1",
        ])
        assert lines[0]["id"] == "a"

    def test_binary_and_csv_inputs_select_alike(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((60, 6))
        data[30:] = data[:30] + 0.01 * rng.standard_normal((30, 6))
        query = data[:4] + 0.2 * rng.standard_normal((4, 6))
        outputs = {}
        for fmt in ("binary", "csv"):
            emb, qry = tmp_path / f"emb.{fmt}", tmp_path / f"qry.{fmt}"
            write_embeddings(EmbeddingSet(data=data), emb, format=fmt)
            write_embeddings(EmbeddingSet(data=query), qry, format=fmt)
            outputs[fmt] = [run_select_lines(capsys, [
                "select", str(emb), str(qry), "--format", fmt, "--query-row", str(i),
                "--n", "12", "--preselect-k", "40"]) for i in range(4)]
        assert outputs["csv"] == outputs["binary"]

    def test_layer_functions_are_looked_up_at_call_time(self, wfiles, tmp_path,
                                                        monkeypatch):
        """The benchmark traces a CLI run by rebinding these module globals
        of siftsel.cli; each must still be called through its name."""
        emb, qry = wfiles
        names = ("read_embeddings", "normalize_rows", "preselect_candidates",
                 "sift_select", "irreducible_uncertainty", "write_selection")
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(siftsel.cli, name,
                                counting(name, getattr(siftsel.cli, name)))
        out = tmp_path / "sel.jsonl"
        assert main(["select", emb, qry, "--preselect-k", "2",
                     "--output", str(out)]) == 0
        # read_embeddings reads the collection and then the query file
        assert calls == dict.fromkeys(names, 1) | {"read_embeddings": 2}
        assert len(out.read_text().splitlines()) == 51  # 50 picks, 1 summary

    def test_byte_identical_across_runs(self, wfiles, capsys):
        emb, qry = wfiles
        argv = ["select", emb, qry, "--n", "2", "--lambda", "0.01"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestExitCodes:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        qry = tmp_path / "q.bin"
        write_embeddings(EmbeddingSet(data=np.array([[1.0, 0.0]])), qry)
        code = main(["select", str(tmp_path / "nope.bin"), str(qry)])
        assert code == 2
        assert "siftsel:" in capsys.readouterr().err

    def test_bad_magic_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"GARBAGE!" + b"\x00" * 16)
        qry = tmp_path / "q.bin"
        write_embeddings(EmbeddingSet(data=np.array([[1.0, 0.0]])), qry)
        assert main(["select", str(bad), str(qry)]) == 2

    def test_query_row_out_of_range_exits_2(self, wfiles, capsys):
        emb, qry = wfiles
        assert main(["select", emb, qry, "--query-row", "5"]) == 2
        assert "query-row" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, wfiles, capsys, monkeypatch):
        emb, qry = wfiles

        def boom(*args, **kwargs):
            raise NumericalFailure("solve failed")

        monkeypatch.setattr("siftsel.cli._run_method", boom)
        assert main(["select", emb, qry, "--n", "1"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_output_exits_3(self, wfiles, capsys, monkeypatch):
        emb, qry = wfiles

        def nan_result(method, pool, q, n_select, cfg, alpha):
            return SelectionResult(order=(0,), objective_trace=(0.5,),
                                   sigma_trace=(1.0, float("nan")), pivot_trace=(1.01,),
                                   method=method, lambda_prime=cfg.lambda_prime)

        monkeypatch.setattr("siftsel.cli._run_method", nan_result)
        assert main(["select", emb, qry, "--n", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("siftsel: numerical failure")
        assert len(captured.err.splitlines()) == 1

        monkeypatch.setattr("siftsel.cli.irreducible_uncertainty", lambda *a: float("inf"))
        assert main(["stats", emb, qry]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        *(["select", "{emb}", "{qry}", *extra] for extra in (
            ["--lambda", "0"], ["--lambda", "nan"], ["--lambda", "inf"],
            ["--lambda", "-1"], ["--alpha", "nan"], ["--preselect-k", "-5"],
            ["--n", "0", "--alpha", "1"], ["--n", "100000000000000"],
        )),
        ["stats", "{emb}", "{qry}", "--beta-n", "3", "--noise-rho", "nan"],
        ["stats", "{emb}", "{qry}", "--beta-n", "3", "--norm-bound", "inf"],
        ["stats", "{emb}", "{qry}", "--seed", "-1"],
        ["stats", "{emb}", "{qry}", "--trials", "0"],
        ["stats", "{emb}", "{qry}", "--lambda", "0"],
        ["stats", "{emb}", "{qry}", "--delta", "1"],
        ["stats", "{emb}", "{qry}", "--beta-n", "3", "--delta", "0"],
        ["stats", "{emb}", "{qry}", "--vocab-size", "1"],
        ["stats", "{emb}", "{qry}", "--norm-bound", "0"],
        ["stats", "{emb}", "{qry}", "--lipschitz", "0"],
        ["stats", "{emb}", "{qry}", "--reg-lambda", "-1"],
        ["stats", "{emb}", "{qry}", "--noise-rho", "nan"],
        ["stats", "{emb}", "{qry}", "--beta-n", "0", "3"],
        ["stats", "{emb}", "{qry}", "--beta-n", "0", "5"],
        ["stats", "{emb}", "{qry}", "--beta-n", "-3"],
        ["stats", "{emb}", "{qry}", "--beta-n", "100001"],
        ["stats", "{emb}", "{qry}", "--trials", "100000000000000000000"],
        ["select", "{zero_dim}", "{zero_dim}", "--no-normalize"],
        ["stats", "{empty}", "{qry}"],
        ["stats", "{empty}", "{qry}", "--no-normalize"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_input_exits_2_with_one_line(self, wfiles, tmp_path, capsys, monkeypatch, argv):
        emb, qry = wfiles
        bad_beta = argv[4] if argv[3:4] == ["--beta-n"] and argv[4] in ("0", "-3", "100001") \
            else None
        read = []
        monkeypatch.setattr("siftsel.cli.read_embeddings",
                            lambda *a, **k: read.append(a[0]) or read_embeddings(*a, **k))
        zero_dim = tmp_path / "zero_dim.bin"  # header only: 3 rows of dimension 0
        zero_dim.write_bytes(struct.pack("<8sIII", b"SIFTEMB1", 1, 3, 0))
        empty = tmp_path / "empty.bin"  # header only: 0 rows of the query's dimension 2
        empty.write_bytes(struct.pack("<8sIII", b"SIFTEMB1", 1, 0, 2))
        code = main([a.format(emb=emb, qry=qry, zero_dim=zero_dim, empty=empty) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("siftsel: ")
        if (argv[0] == "stats" and "{empty}" not in argv) or "--lambda" in argv:
            assert read == []  # every option is refused before any file is read
        if argv[3:] == ["--n", "0", "--alpha", "1"]:  # the size is checked before the policy
            assert lines[0] == "siftsel: n_select must be an integer >= 1 and <= 100000, got 0"
        if "--trials" in argv:  # a count that would run for ages is refused, not run
            assert lines[0].startswith("siftsel: trials must be an integer >= 1 and <= 100000")
        if bad_beta is not None:
            assert lines[0] == ("siftsel: --beta-n must be an integer >= 1 and <= 100000, "
                                f"got {bad_beta}")
        if "{empty}" in argv:  # the probe refuses a set of no rows, as select does
            assert lines[0] == "siftsel: candidates must be non-empty"

    @pytest.mark.parametrize("preselect", ["200", "0"])
    def test_more_nn_picks_than_the_pool_names_both_options(self, tmp_path, capsys, preselect):
        """nn picks distinct rows, so --n 250 cannot be met from the 200-row
        pool of the default --preselect-k, nor from 200 rows without one."""
        emb, qry = tmp_path / "e.bin", tmp_path / "q.bin"
        rows = 200 if preselect == "0" else 300
        write_embeddings(EmbeddingSet(data=np.random.default_rng(0).normal(size=(rows, 4))), emb)
        write_embeddings(EmbeddingSet(data=np.ones((1, 4))), qry)
        code = main(["select", str(emb), str(qry), "--method", "nn", "--n", "250",
                     "--preselect-k", preselect])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"siftsel: --n 250 distinct rows requested, but the pool has "
                                f"200 (--preselect-k {preselect})\n")

    @pytest.mark.parametrize("kind", ["csv", "ids-sidecar"])
    def test_non_utf8_input_exits_2(self, wfiles, tmp_path, capsys, kind):
        """A Latin-1 byte in a CSV collection or an --ids sidecar is an
        input error naming the file and the byte's offset."""
        qry = tmp_path / "q.csv"
        qry.write_text("1\n", encoding="utf-8")
        if kind == "csv":
            bad = tmp_path / "e.csv"
            bad.write_bytes(b"id,v0\na\xe9,1\n")
            argv, offset = ["select", str(bad), str(qry), "--format", "csv"], 7
        else:
            emb, qry = wfiles
            bad = tmp_path / "ids.txt"
            bad.write_bytes(b"a\nb\xe9\nc\n")
            argv, offset = ["select", emb, qry, "--ids", str(bad)], 3
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("siftsel: ")
        assert str(bad) in lines[0] and f"offset {offset}" in lines[0]

    def test_beta_n_without_values_is_an_argparse_error(self, wfiles, capsys):
        """An empty --beta-n printed no confidence table and exited 0."""
        emb, qry = wfiles
        with pytest.raises(SystemExit) as exc:
            main(["stats", emb, qry, "--beta-n"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_unknown_method_is_an_argparse_error(self, wfiles):
        emb, qry = wfiles
        with pytest.raises(SystemExit) as exc:
            main(["select", emb, qry, "--method", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["select", "{emb}", "{qry}", "--seed", "1"],
        ["select", "{emb}", "{qry}", "--method", "sift-fast"],
        ["bench", "{emb}", "{qry}"],
    ], ids=lambda argv: " ".join(argv))
    def test_removed_names_are_argparse_errors(self, wfiles, argv):
        """--seed belongs to stats alone; sift-fast and bench are gone."""
        emb, qry = wfiles
        with pytest.raises(SystemExit) as exc:
            main([a.format(emb=emb, qry=qry) for a in argv])
        assert exc.value.code == 2


class TestStats:
    def test_basic_diagnostics(self, wfiles, capsys):
        emb, qry = wfiles
        code = main(["stats", emb, qry, "--lambda", "1", "--trials", "50"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == 3 and out["dim"] == 2
        assert out["lambda_prime"] == 1.0
        assert out["sigma0_sq"] == pytest.approx(1.0, abs=1e-9)
        assert out["eta_sq"] == pytest.approx(0.0, abs=1e-9)
        probe = out["submodularity_probe"]
        assert set(probe) == {"passed", "worst_slack", "trials", "violations"}
        assert probe["trials"] == 50

    def test_confidence_table(self, wfiles, capsys):
        emb, qry = wfiles
        code = main(["stats", emb, qry, "--lambda", "1",
                     "--beta-n", "1", "2", "4"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        table = out["confidence"]
        assert [row["n"] for row in table] == [1, 2, 4]
        betas = [row["beta_classification"] for row in table]
        assert betas == sorted(betas)
        sigmas = [row["sigma_sq"] for row in table]
        assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))
        for row in table:
            assert row["beta_regression"] > 0
            assert row["convergence_bound"] >= 0

    def test_sizes_above_the_row_count_select_that_many(self, wfiles, capsys):
        """sift may pick a row again, so 4 and 9 picks from 3 rows are
        selections of their own: σ² falls strictly, and it, γ_n and
        β_regression were those of n = 3 on every row above it. info_gain
        is the γ_n each row's β_regression takes, ½ log det(I + K_n/λ′) of
        the first n picks."""
        emb, qry = wfiles
        assert main(["stats", emb, qry, "--beta-n", "9", "3", "4"]) == 0
        table = json.loads(capsys.readouterr().out)["confidence"]
        assert [row["n"] for row in table] == [3, 4, 9]
        space = normalize_rows(read_embeddings(emb))
        q, lam = np.array([1.0, 0.0]), 0.01
        full = sift_select(space, q, 9, KernelConfig(lambda_prime=lam))
        sigmas = [row["sigma_sq"] for row in table]
        assert sigmas == [full.sigma_trace[n] for n in (3, 4, 9)]
        assert sigmas[0] > sigmas[1] > sigmas[2]
        for row in table:
            gain = realized_info_gain(space.data[list(full.order[:row["n"]])], lam)
            assert row["info_gain"] == pytest.approx(gain, rel=1e-12)
            assert row["beta_regression"] == beta_regression(
                row["n"], 0.05, 1.0, 1.0, row["info_gain"])

    def test_seeded_probe_is_reproducible(self, wfiles, capsys):
        emb, qry = wfiles
        argv = ["stats", emb, qry, "--trials", "16", "--seed", "3"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["submodularity_probe"]["trials"] == 16

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beta_n_on_rows_just_off_a_subspace(self, tmp_path, capsys, seed):
        """Rank-4 rows in ℝ^16, one moved off their span by 1e-9 of the
        largest norm, stored in float32: λ_min is about 1e-16 of the largest
        norm². The eigenvalues of the basis rows' Gram put it at or below
        zero, and stats exited 2 on a bad lambda_min."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 16))
        span = np.linalg.qr(X.T)[0][:, :4]
        u = rng.normal(size=16)
        u -= span @ (span.T @ u)
        X[0] += 1e-9 * np.linalg.norm(X, axis=1).max() * u / np.linalg.norm(u)
        emb, qry = tmp_path / "e.bin", tmp_path / "q.bin"
        write_embeddings(EmbeddingSet(data=X), emb)
        write_embeddings(EmbeddingSet(data=X[1:2]), qry)
        assert main(["stats", str(emb), str(qry), "--beta-n", "5", "--no-normalize"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["confidence"]
        assert 0 < row["convergence_bound"] < np.inf

    def test_no_normalize_keeps_raw_scale(self, tmp_path, capsys):
        emb = tmp_path / "e.bin"
        qry = tmp_path / "q.bin"
        write_embeddings(EmbeddingSet(data=np.eye(2)), emb)
        write_embeddings(EmbeddingSet(data=np.array([[2.0, 0.0]])), qry)
        main(["stats", str(emb), str(qry), "--no-normalize"])
        out = json.loads(capsys.readouterr().out)
        assert out["sigma0_sq"] == pytest.approx(4.0, abs=1e-9)


def _fresh_python(code: str) -> list[str]:
    """The words a fresh interpreter running `code` prints, with this
    package's sources on its path."""
    src = str(Path(siftsel.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """siftsel needs NumPy alone. With `import scipy` made to fail, every
    selector runs on a pool with at least as many rows as dimensions and
    on one with fewer, as do --alpha, stats with and without --beta-n, and
    the library's σ² and λ_min."""
    rng = np.random.default_rng(0)
    qry, out = tmp_path / "q.bin", tmp_path / "out.jsonl"
    write_embeddings(EmbeddingSet(data=rng.normal(size=(1, 64))), qry)
    pools = []
    for K in (300, 40):
        pools.append(tmp_path / f"e{K}.bin")
        write_embeddings(EmbeddingSet(data=rng.normal(size=(K, 64))), pools[-1])
    runs = [["select", str(emb), str(qry), "--n", "20", "--output", str(out), *extra]
            for emb in pools
            for extra in (*(["--method", m] for m in siftsel.cli.METHODS), ["--alpha", "1"])]
    runs += [["stats", str(emb), str(qry), *extra]
             for emb in pools for extra in ([], ["--beta-n", "5", "50"])]
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import siftsel.cli\n"
        "from siftsel import (EmbeddingSet, KernelConfig, data_space_lambda_min,\n"
        "                     posterior_variance, posterior_variance_feature_space)\n"
        "codes = []\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(siftsel.cli.main(argv))\n"
        "rng = np.random.default_rng(1)\n"
        "for K in (300, 40):\n"
        "    X, q = rng.normal(size=(K, 64)), rng.normal(size=64)\n"
        "    values = [posterior_variance(X, q, KernelConfig()),\n"
        "              posterior_variance_feature_space(X, q, KernelConfig()),\n"
        "              data_space_lambda_min(EmbeddingSet(data=X))]\n"
        "    codes.append(int(all(v > 0 for v in values)))\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    codes.append('blocked')\n"
        "print(*codes)\n"
    )
    assert _fresh_python(code) == ["0"] * len(runs) + ["1", "1", "blocked"]


LAYER_NAMES = ("read_embeddings", "normalize_rows", "preselect_candidates", "sift_select",
               "irreducible_uncertainty", "write_selection")


def test_select_calls_each_layer_through_a_module_binding(wfiles, capsys, monkeypatch):
    """perfbench's traced CLI runs time each layer by rebinding these names
    in siftsel.cli, so each must be a module-level binding of the package's
    function that `select` calls through, not one bound inside a function
    or imported under another name."""
    called = []
    for name in LAYER_NAMES:
        fn = vars(siftsel.cli)[name]
        assert fn is getattr(siftsel, name), name
        monkeypatch.setattr(siftsel.cli, name,
                            lambda *a, _fn=fn, _name=name, **k: called.append(_name) or _fn(*a, **k))
    emb, qry = wfiles
    run_select_lines(capsys, ["select", emb, qry, "--preselect-k", "2", "--n", "2"])
    assert set(called) == set(LAYER_NAMES)
