"""Seeded input generator and the benchmark's own readers of the pinned formats.

The inputs are written with this module's own `struct` and text code, never
with `siftsel.io.write_embeddings`, so a change to the package under test
cannot change what it is fed. The same seed gives byte-identical files.

Collections are clustered, and about 30% of the rows are near-duplicates of
other rows: redundancy is what variance-based selection exists to avoid, so
it has to be present. Queries are seeded perturbations of collection rows.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"SIFTEMB1"
HEADER = struct.Struct("<8sIII")  # magic, version, count, dim
DUP_FRACTION = 0.30


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's inputs and of the selection it runs."""

    fmt: str  # "binary" or "csv"
    rows: int
    dim: int
    queries: int
    clusters: int
    preselect_k: int  # 0 selects over the whole collection
    n_select: int


SPECS = {
    "serve_pool": Spec("binary", 100_000, 128, 64, 256, 200, 50),
    "deep_select": Spec("binary", 20_000, 128, 16, 64, 0, 100),
    "cli_csv_cold": Spec("csv", 10_000, 64, 32, 64, 200, 50),
}

LAMBDA_PRIME = 0.01


def make_arrays(spec: Spec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(collection, queries) as float32 arrays, a pure function of the seed."""
    rng = np.random.default_rng(seed)
    k, d = spec.rows, spec.dim
    centers = rng.standard_normal((spec.clusters, d), dtype=np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, spec.clusters, size=k)
    x = rng.standard_normal((k, d), dtype=np.float32)
    x *= np.float32(0.6 / np.sqrt(d))
    x += centers[labels]
    perm = rng.permutation(k)
    n_dup = int(DUP_FRACTION * k)
    dups, originals = perm[:n_dup], perm[n_dup:]
    src = originals[rng.integers(0, originals.size, size=n_dup)]
    noise = rng.standard_normal((n_dup, d), dtype=np.float32)
    x[dups] = x[src] + noise * np.float32(0.01 / np.sqrt(d))
    # varied row norms, so normalization does real work
    x *= rng.uniform(0.5, 2.0, size=(k, 1)).astype(np.float32)
    base = x[rng.integers(0, k, size=spec.queries)]
    # noise relative to the row's norm, so every query is equally far from its row
    scale = np.linalg.norm(base, axis=1, keepdims=True) * np.float32(0.15 / np.sqrt(d))
    q = base + rng.standard_normal(base.shape, dtype=np.float32) * scale
    return np.ascontiguousarray(x, dtype="<f4"), np.ascontiguousarray(q, dtype="<f4")


def row_ids(rows: int, seed: int) -> list[str]:
    """CSV row ids: a seeded permutation, so an id never equals its row index."""
    perm = np.random.default_rng([seed, 1]).permutation(rows)
    return [f"doc-{int(p):06d}" for p in perm]


def write_binary(path: Path, data: np.ndarray) -> None:
    rows, dim = data.shape
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, 1, rows, dim))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def write_csv(path: Path, data: np.ndarray, ids: list[str] | None) -> None:
    # nine significant digits round-trip every float32 exactly
    lines = []
    if ids is not None:
        lines.append("id," + ",".join(f"v{j}" for j in range(data.shape[1])))
    for r, row in enumerate(data.tolist()):
        vals = ",".join("%.9g" % v for v in row)
        lines.append(f"{ids[r]},{vals}" if ids is not None else vals)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def file_digest(path: Path) -> dict:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return {"bytes": Path(path).stat().st_size, "sha256": h.hexdigest()}


def input_paths(workload: str, out_dir: Path) -> dict[str, Path]:
    """Where one workload's inputs live in out_dir, by role."""
    ext = "bin" if SPECS[workload].fmt == "binary" else "csv"
    return {role: out_dir / f"{role}.{ext}" for role in ("collection", "queries")}


def generate(workload: str, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write one workload's inputs into out_dir; return their paths by role."""
    spec = SPECS[workload]
    data, queries = make_arrays(spec, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = input_paths(workload, out_dir)
    if spec.fmt == "binary":
        write_binary(paths["collection"], data)
        write_binary(paths["queries"], queries)
    else:
        write_csv(paths["collection"], data, row_ids(spec.rows, seed))
        write_csv(paths["queries"], queries, None)
    return paths


def read_binary_ref(path: Path) -> np.ndarray:
    """Memory-mapped float32 payload of a pinned binary file (only touched
    pages are loaded)."""
    with open(path, "rb") as fh:
        magic, version, rows, dim = HEADER.unpack(fh.read(HEADER.size))
    if magic != MAGIC or version != 1:
        raise ValueError(f"{path} is not a version-1 {MAGIC!r} file")
    return np.memmap(path, dtype="<f4", mode="r", offset=HEADER.size, shape=(rows, dim))


def read_csv_ref(path: Path) -> tuple[np.ndarray, list[str] | None]:
    """Values (float32, as the pinned format stores them) and ids of a CSV."""
    ids: list[str] = []
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    has_ids = lines[0].startswith("id,")
    for line in lines[1:] if has_ids else lines:
        parts = line.split(",")
        if has_ids:
            ids.append(parts[0])
            parts = parts[1:]
        rows.append([float(p) for p in parts])
    return np.asarray(rows, dtype=np.float64).astype("<f4"), ids if has_ids else None


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Rows widened to float64 and scaled to unit norm."""
    a = np.asarray(a, dtype=np.float64)
    return a / np.sqrt(np.einsum("ij,ij->i", a, a))[:, None]
