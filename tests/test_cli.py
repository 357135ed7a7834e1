"""Command line interface: subcommand contracts, exit codes, determinism."""

import json
import re
import struct

import numpy as np
import pytest

from conftest import W_DATA
from siftsel import EmbeddingSet, NumericalFailure, write_embeddings
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

    @pytest.mark.parametrize("argv", [
        *(["select", "{emb}", "{qry}", *extra] for extra in (
            ["--lambda", "0"], ["--lambda", "nan"], ["--lambda", "inf"],
            ["--lambda", "-1"], ["--alpha", "nan"], ["--preselect-k", "-5"],
            ["--n-max", "0", "--alpha", "1"],
        )),
        ["stats", "{emb}", "{qry}", "--beta-n", "3", "--noise-rho", "nan"],
        ["stats", "{emb}", "{qry}", "--beta-n", "3", "--norm-bound", "inf"],
        ["select", "{zero_dim}", "{zero_dim}", "--no-normalize"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_input_exits_2_with_one_line(self, wfiles, tmp_path, capsys, argv):
        emb, qry = wfiles
        zero_dim = tmp_path / "zero_dim.bin"  # header only: 3 rows of dimension 0
        zero_dim.write_bytes(struct.pack("<8sIII", b"SIFTEMB1", 1, 3, 0))
        code = main([a.format(emb=emb, qry=qry, zero_dim=zero_dim) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("siftsel: ")

    def test_unknown_method_is_an_argparse_error(self, wfiles):
        emb, qry = wfiles
        with pytest.raises(SystemExit) as exc:
            main(["select", emb, qry, "--method", "bogus"])
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

    def test_no_normalize_keeps_raw_scale(self, tmp_path, capsys):
        emb = tmp_path / "e.bin"
        qry = tmp_path / "q.bin"
        write_embeddings(EmbeddingSet(data=np.eye(2)), emb)
        write_embeddings(EmbeddingSet(data=np.array([[2.0, 0.0]])), qry)
        main(["stats", str(emb), str(qry), "--no-normalize"])
        out = json.loads(capsys.readouterr().out)
        assert out["sigma0_sq"] == pytest.approx(4.0, abs=1e-9)


class TestBench:
    def test_reports_ratio_and_stability(self, wfiles, capsys):
        emb, qry = wfiles
        code = main(["bench", emb, qry, "--methods", "sift", "nn",
                     "--n", "2", "--lambda", "1", "--repeat", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^sift/nn time ratio: \d+\.\d{2}$", out, re.MULTILINE)
        assert "selection stable across repetitions: yes" in out
        assert re.search(r"^sift\s+\d+\.\d{2} ms", out, re.MULTILINE)

    def test_default_methods_include_fast_path(self, wfiles, capsys):
        emb, qry = wfiles
        code = main(["bench", emb, qry, "--n", "2", "--lambda", "1",
                     "--repeat", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sift-fast/nn time ratio:" in out

    def test_bad_repeat_exits_2(self, wfiles):
        emb, qry = wfiles
        assert main(["bench", emb, qry, "--n", "1", "--repeat", "0"]) == 2
