"""One workload in its own process: set-up, a timed closed loop, checks.

Started by run.py with the BLAS thread count pinned and `src` on the path;
prints one JSON object (metrics, counts and details) as its last line.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Each operation runs between two runs of
the workload's reference task (calib.py), and its time is also given at
reference speed. With --trace 1 the loop alternates untraced and traced
operations, so that both see the same queries and the same machine state,
and their latency medians give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import siftsel
import siftsel.cli
from siftsel import (
    KernelConfig,
    greedy_direct_oracle,
    normalize_rows,
    preselect_candidates,
    read_embeddings,
    sift_select,
)

import gen
from calib import Reference
from checks import check_selection
from spans import Tracer, layer_median, per_unit

SETUP_REPEATS = 9
ORACLE_POOL = 200
ORACLE_PICKS = 10  # greedy is prefix-stable, so a prefix is a valid check
MAX_PROBLEMS_KEPT = 5
# Above p90 a run's tail is decided by the host, not the code: bursts of
# vCPU preemption, about half a second long, slowed 5-10% of serve_pool's
# operations by 2x, and its p97 moved by 50% between runs.
TAIL_CAP = 90

# Each workload's reference task: how often each part runs, and the task's
# nominal time in ms, which is its median on the 2-vCPU VM the seed numbers
# in README.md were measured on. The library workloads scan matrices larger
# than a core's cache share; cli_csv_cold parses text in pure Python. A
# small SVD was tried as a part too, but its time with two BLAS threads
# jumped by 2x between runs on a steady machine.
REFERENCE = {
    "serve_pool": ({"scan": 3}, 15.0),
    "deep_select": ({"scan": 10}, 50.0),
    "cli_csv_cold": ({"text": 6}, 48.0),
}

LAYER_METRICS = [  # (metric, span name, count key or "ms", unit)
    ("io.read.ms", "io.read", "ms", "ms"),
    ("io.read.bytes", "io.read", "bytes", "bytes"),
    ("io.write.ms", "io.write", "ms", "ms"),
    ("io.write.records", "io.write", "records", "count"),
    ("core.normalize.ms", "core.normalize", "ms", "ms"),
    ("core.normalize.rows", "core.normalize", "rows", "count"),
    ("selectors.preselect.ms", "selectors.preselect", "ms", "ms"),
    ("selectors.preselect.rows_scored", "selectors.preselect", "rows_scored", "count"),
    ("selectors.preselect.bytes_computed", "selectors.preselect", "bytes_computed", "bytes"),
    ("selectors.select.ms", "selectors.select", "ms", "ms"),
    ("selectors.select.picks", "selectors.select", "picks", "count"),
    ("uncertainty.eta.ms", "uncertainty.eta", "ms", "ms"),
    ("uncertainty.eta.rows", "uncertainty.eta", "rows", "count"),
]


def preselect_stage(space, q, k: int):
    """The CLI's preselect stage: the top-k rows, or the whole space when
    k is 0 or not below the row count."""
    return preselect_candidates(space, q, k) if 0 < k < space.rows else space


def _preselect_counts(pool, space, *_):
    scored = space.rows if pool is not space else 0
    return {"rows_scored": scored, "bytes_computed": scored * space.dim * space.data.itemsize}


# The layer functions as the CLI module names them, with the span that
# stands for each and the work it counts.
LAYERS = {
    "read_embeddings": ("io.read", lambda out, path, *a, **k: {"bytes": os.path.getsize(path)}),
    "normalize_rows": ("core.normalize", lambda out, e: {"rows": e.rows}),
    "preselect_candidates": ("selectors.preselect", _preselect_counts),
    "sift_select": ("selectors.select",
                    lambda out, *a, **k: {"picks": len(out.order), "distinct": len(set(out.order))}),
    "irreducible_uncertainty": ("uncertainty.eta", lambda out, space, q: {"rows": space.rows}),
    "write_selection": ("io.write", lambda out, result, *a, **k: {"records": len(result.order) + 1}),
}


def library_fns(tracer: Tracer | None) -> dict:
    """The layer functions a library operation calls, wrapped in spans when
    a tracer is given. The preselect span covers the whole stage, so it is
    recorded (scoring no rows) where the stage selects over everything."""
    fns = {name: getattr(siftsel, name) for name in LAYERS if name != "preselect_candidates"}
    fns["preselect_stage"] = preselect_stage
    if tracer is None:
        return fns
    spans = dict(LAYERS, preselect_stage=LAYERS["preselect_candidates"])
    return {name: tracer.wrap(spans[name][0], fn, spans[name][1]) for name, fn in fns.items()}


@contextlib.contextmanager
def cli_rebound(tracer: Tracer):
    """Rebind the layer functions in siftsel.cli to timing wrappers."""
    saved = {name: getattr(siftsel.cli, name) for name in LAYERS}
    for name, fn in saved.items():
        setattr(siftsel.cli, name, tracer.wrap(LAYERS[name][0], fn, LAYERS[name][1]))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(siftsel.cli, name, fn)


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most TAIL_CAP, with at least ten of
    n samples beyond it."""
    return max(0, min(TAIL_CAP, (100 * (n - 10)) // n))


def nearest_rank(sorted_vals: list[float], pct: int) -> float:
    return sorted_vals[max(0, -(-pct * len(sorted_vals) // 100) - 1)]


class Library:
    """serve_pool and deep_select: the collection is loaded once, then each
    operation runs the post-load sequence of `siftsel select` on one query.
    The root span of an operation stands for `_cmd_select`'s own code."""

    root = "op"

    def __init__(self, spec, paths, work: Path, tracer: Tracer):
        self.spec, self.paths, self.tracer = spec, paths, tracer
        self.cfg = KernelConfig(lambda_prime=gen.LAMBDA_PRIME)
        self.plain, self.traced = library_fns(None), library_fns(tracer)
        self.queries = read_embeddings(paths["queries"]).data
        self.space = None

    def setup(self, i: int, traced: bool) -> float:
        """Load and normalize the collection once; return the seconds taken."""
        fns = self.traced if traced else self.plain
        self.space = None  # free the previous copy, so peak memory is one load
        self.tracer.op = f"setup{i}"
        t0 = time.perf_counter()
        self.space = fns["normalize_rows"](fns["read_embeddings"](self.paths["collection"]))
        return time.perf_counter() - t0

    def op(self, n: int, qi: int, traced: bool):
        if not traced:
            return self._op(self.plain, qi)
        self.tracer.op = f"op{n}"
        with self.tracer.span(self.root):
            return self._op(self.traced, qi)

    def _op(self, fns, qi: int):
        raw = self.queries[qi]
        q = raw / np.linalg.norm(raw)
        pool = fns["preselect_stage"](self.space, q, self.spec.preselect_k)
        result = fns["sift_select"](pool, q, self.spec.n_select, self.cfg)
        eta = fns["irreducible_uncertainty"](pool, q)
        buf = io.StringIO()
        fns["write_selection"](result, pool.ids, buf, source_rows=pool.source_rows)
        return buf.getvalue(), eta

    def output(self, n: int, value) -> tuple[str, float | None]:
        return value

    def references(self):
        """The collection, ids and unit queries, read without siftsel."""
        return (gen.read_binary_ref(self.paths["collection"]), None,
                gen.unit_rows(gen.read_binary_ref(self.paths["queries"])))

    def oracle_inputs(self):
        q = self.queries[0]
        return self.space, q / np.linalg.norm(q)


class Cli:
    """cli_csv_cold: each operation is one in-process `siftsel select` call
    that reads the CSV collection and query file and writes JSON Lines."""

    root = "cli.main"

    def __init__(self, spec, paths, work: Path, tracer: Tracer):
        self.spec, self.paths, self.tracer = spec, paths, tracer
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def setup(self, i: int, traced: bool) -> float:
        """Nothing precedes the first call but importing the CLI, so that is
        the set-up; it is timed in a fresh interpreter, as this one has
        imported it already."""
        code = ("import time; t = time.perf_counter(); import siftsel.cli; "
                "print(time.perf_counter() - t)")
        return float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True, timeout=60).stdout)

    def op(self, n: int, qi: int, traced: bool):
        argv = ["select", str(self.paths["collection"]), str(self.paths["queries"]),
                "--format", "csv", "--query-row", str(qi),
                "--output", str(self.out_dir / f"op{n}.jsonl")]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                if not traced:
                    return siftsel.cli.main(argv)
                self.tracer.op = f"op{n}"
                with cli_rebound(self.tracer), self.tracer.span(self.root):
                    return siftsel.cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            return exc.code

    def output(self, n: int, rc) -> tuple[str, float | None]:
        if rc != 0:
            raise RuntimeError(f"siftsel select exited with {rc}")
        return (self.out_dir / f"op{n}.jsonl").read_text(encoding="utf-8"), None

    def references(self):
        data, ids = gen.read_csv_ref(self.paths["collection"])
        queries, _ = gen.read_csv_ref(self.paths["queries"])
        return data, ids, gen.unit_rows(queries)

    def oracle_inputs(self):
        space = normalize_rows(read_embeddings(self.paths["collection"], format="csv"))
        q = read_embeddings(self.paths["queries"], format="csv").data[0]
        return space, q / np.linalg.norm(q)


def timed_loop(wl, ref: Reference, n_queries: int, seconds: float, trace: bool):
    """Run operations until `seconds` have passed and every query has been
    answered twice, with a run of the reference task before the first and
    after each; return per-op records (wall seconds `s`, factor `scale` to
    reference speed)."""
    records = []
    deadline = time.perf_counter() + seconds
    runs = [ref.run()]
    n = 0
    while n < 2 * n_queries or time.perf_counter() < deadline:
        qi = n % n_queries
        # alternate, shifting by one each cycle so each query is seen both ways
        traced = trace and (n + n // n_queries) % 2 == 1
        t0 = time.perf_counter()
        try:
            value, error = wl.op(n, qi, traced), None
        except Exception:  # a failed operation is counted, and the loop goes on
            value, error = None, traceback.format_exc(limit=3)
        records.append({"n": n, "qi": qi, "traced": traced,
                        "s": time.perf_counter() - t0, "value": value, "error": error})
        runs.append(ref.run())
        n += 1
    for rec, scale in zip(records, ref.scales(runs)):
        rec["scale"] = scale
    return records


def check_records(wl, records, spec) -> tuple[list[str], dict[int, float]]:
    """Check every operation's output; return problems and σ²_N per query."""
    rows, ids, queries = wl.references()
    problems, sigma = [], {}
    for rec in records:
        found = [rec["error"]] if rec["error"] else []
        if not found:
            try:
                text, eta = wl.output(rec["n"], rec["value"])
            except (OSError, RuntimeError) as exc:
                found = [str(exc)]
            else:
                found, final = check_selection(text, rows, queries[rec["qi"]],
                                               spec.n_select, ids=ids, eta=eta)
                if not found:
                    sigma.setdefault(rec["qi"], final)
                    if rec["n"] == 0:
                        rec["rows"] = [json.loads(line)["row"] for line in text.splitlines()[:-1]]
        rec["failed"] = bool(found)
        problems.extend(f"op {rec['n']}: {p}" for p in found)
    return problems, sigma


def oracle_check(wl, first_rows, spec) -> dict:
    """Query 0's first picks against the brute-force greedy oracle, on the
    200-row pool the CLI would select from."""
    space, q = wl.oracle_inputs()
    cfg = KernelConfig(lambda_prime=gen.LAMBDA_PRIME)
    pool = preselect_candidates(space, q, ORACLE_POOL)
    want = [pool.source_rows[i] for i in greedy_direct_oracle(pool, q, ORACLE_PICKS, cfg).order]
    got = [pool.source_rows[i] for i in sift_select(pool, q, ORACLE_PICKS, cfg).order]
    report = {"picks": ORACLE_PICKS, "pool": ORACLE_POOL, "oracle": want, "sift_select": got}
    ok = got == want
    if spec.preselect_k == ORACLE_POOL:  # the operation selected from this same pool
        report["operation"] = (first_rows or [])[:ORACLE_PICKS]
        ok = ok and report["operation"] == want
    report["passed"] = ok
    return report


def blas_version() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(gen.SPECS), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    args = p.parse_args(argv)

    spec = gen.SPECS[args.workload]
    paths = gen.input_paths(args.workload, args.inputs)
    tracer = Tracer()
    wl = (Library if spec.fmt == "binary" else Cli)(spec, paths, args.inputs, tracer)
    trace = bool(args.trace)
    mix, nominal_ms = REFERENCE[args.workload]
    ref = Reference(mix, nominal_ms)
    ref.run()  # warm-up, untimed

    # Set-up stays in wall time: the reference task runs up to 6x slower
    # right after a set-up has freed and faulted in 100+ MB than elsewhere.
    setup_times = [wl.setup(i, trace) for i in range(SETUP_REPEATS)]
    wl.op(-1, 0, False)  # warm-up, untimed
    records = timed_loop(wl, ref, spec.queries, args.seconds, trace)
    problems, sigma = check_records(wl, records, spec)
    oracle = oracle_check(wl, records[0].get("rows"), spec)
    failed = sum(r["failed"] for r in records)

    untraced = [r for r in records if not r["traced"]]
    lat = sorted(r["s"] * r["scale"] * 1e3 for r in untraced)
    wall = sorted(r["s"] * 1e3 for r in untraced)
    pct = tail_percentile(len(lat))
    scales = [r["scale"] for r in records]
    detail = {
        "ops": len(records),
        "ops_failed_frac": failed / len(records),
        "latency_tail_percentile": pct,
        "latency_ops": len(lat),
        # the same metrics in wall time, and how fast the machine ran
        "wall": {
            "latency_p50_ms": statistics.median(wall),
            "latency_tail_ms": nearest_rank(wall, pct),
            "throughput_qps": (len(records) - failed) / sum(r["s"] for r in records),
        },
        "reference": {"mix": mix, "nominal_ms": nominal_ms,
                      "speed_p25_p50_p75": statistics.quantiles(scales, n=4)},
        "problems": problems[:MAX_PROBLEMS_KEPT],
        "oracle": oracle,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": blas_version()},
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_tail_ms": (nearest_rank(lat, pct), "ms"),
            "throughput_qps": ((len(records) - failed)
                               / sum(r["s"] * r["scale"] for r in records), "1/s"),
            # 0 only when no query was answered, and then the run is not correct
            "sigma_final_sq_mean": (statistics.fmean(sigma.values()) if sigma else 0.0,
                                    "sigma_sq"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = traced_metrics(wl, tracer, records, lat)
        detail["accounting"] = accounting(wl, tracer, records)
        tracer.dump(args.spans)
    out = {
        "correct": failed == 0 and oracle["passed"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    print(json.dumps(out))
    return 0


def traced_metrics(wl, tracer: Tracer, records, untraced_lat) -> dict:
    units = per_unit(tracer.spans)
    metrics = {name: (layer_median(units, span, key), unit)
               for name, span, key, unit in LAYER_METRICS}
    ratios = [u["selectors.select"]["counts"]["distinct"] / u["selectors.select"]["counts"]["picks"]
              for u in units.values() if "selectors.select" in u]
    metrics["selectors.select.distinct_ratio"] = (statistics.median(ratios), "ratio")
    metrics["cli.self_ms"] = (layer_median(units, wl.root), "ms")
    traced_lat = [r["s"] * r["scale"] * 1e3 for r in records if r["traced"]]
    overhead = statistics.median(traced_lat) / statistics.median(untraced_lat) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def accounting(wl, tracer: Tracer, records) -> dict:
    """How much of the traced operation latency the per-layer self times cover."""
    units = per_unit(tracer.spans)
    traced = [r for r in records if r["traced"]]
    covered = [sum(v["ms"] for v in units[f"op{r['n']}"].values()) for r in traced]
    ops = {k: u for k, u in units.items() if k.startswith("op")}
    layer_ms = {name: layer_median(ops, name) for name in sorted({n for u in ops.values() for n in u})}
    return {
        "traced_latency_p50_ms": statistics.median(r["s"] * 1e3 for r in traced),
        "span_self_sum_p50_ms": statistics.median(covered),
        "op_layer_self_p50_ms": layer_ms,
    }


if __name__ == "__main__":
    sys.exit(main())
