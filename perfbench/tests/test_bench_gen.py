"""The seeded generator: deterministic, and readable by siftsel as written."""

import numpy as np
import pytest

import gen
from siftsel import read_embeddings

TINY = {
    "tiny_bin": gen.Spec("binary", 300, 8, 4, 5, 20, 5),
    "tiny_csv": gen.Spec("csv", 300, 8, 4, 5, 20, 5),
}


@pytest.fixture(autouse=True)
def tiny_specs(monkeypatch):
    for name, spec in TINY.items():
        monkeypatch.setitem(gen.SPECS, name, spec)


def digests(workload, seed, out_dir):
    paths = gen.generate(workload, seed, out_dir)
    return {role: gen.file_digest(p) for role, p in paths.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_same_hashes(tmp_path, workload):
    first = digests(workload, 7, tmp_path / "a")
    assert first == digests(workload, 7, tmp_path / "b")
    assert first != digests(workload, 8, tmp_path / "c")


def test_about_a_third_of_rows_are_near_duplicates():
    x, _ = gen.make_arrays(TINY["tiny_bin"], 3)
    u = gen.unit_rows(x)
    cos = u @ u.T
    np.fill_diagonal(cos, -1.0)
    has_twin = (cos.max(axis=1) > 0.999).mean()
    assert 0.3 <= has_twin <= 0.65  # each duplicate and (at least) its source


def test_binary_file_reads_back_exactly(tmp_path):
    paths = gen.generate("tiny_bin", 1, tmp_path)
    x, q = gen.make_arrays(TINY["tiny_bin"], 1)
    np.testing.assert_array_equal(read_embeddings(paths["collection"]).data, x)
    np.testing.assert_array_equal(gen.read_binary_ref(paths["collection"]), x)
    np.testing.assert_array_equal(read_embeddings(paths["queries"]).data, q)


def test_csv_file_reads_back_exactly_with_ids(tmp_path):
    paths = gen.generate("tiny_csv", 1, tmp_path)
    x, _ = gen.make_arrays(TINY["tiny_csv"], 1)
    space = read_embeddings(paths["collection"], format="csv")
    np.testing.assert_array_equal(space.data, x)
    data, ids = gen.read_csv_ref(paths["collection"])
    np.testing.assert_array_equal(data, x)
    assert list(space.ids) == ids == gen.row_ids(300, 1)
    assert all(i != str(r) for r, i in enumerate(ids))
