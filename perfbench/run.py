"""Benchmark entry point: generate one workload's inputs and run it.

    python3 perfbench/run.py --workload serve_pool --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are made from --seed,
the workload runs in its own process with the BLAS thread count pinned,
and the last line printed is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Everything else goes to
perfbench/.results/. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 2
TIMEOUT_S = 170  # a run must end within 180 s


def pinned_env() -> tuple[dict, dict]:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = str(max(1, min(BLAS_THREADS, nproc or 1)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return env, {"nproc": nproc, "OPENBLAS_NUM_THREADS": threads}


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import gen

    p = argparse.ArgumentParser(description="siftsel benchmark")
    p.add_argument("--workload", choices=sorted(gen.SPECS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "siftsel" / "__init__.py").is_file():
        print(f"perfbench: no siftsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / ".work" / f"{tag}-{os.getpid()}"
    results = BENCH / ".results"
    results.mkdir(exist_ok=True)
    try:
        paths = gen.generate(args.workload, args.seed, work)
        inputs = {role: {"file": path.name, **gen.file_digest(path)}
                  for role, path in paths.items()}
        env, pinned = pinned_env()
        cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inputs", str(work), "--spans", str(results / f"{tag}-spans.jsonl")]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": inputs, "env": pinned, **out.pop("detail")}
    (results / f"{tag}.json").write_text(json.dumps({**out, "detail": detail}, indent=1))

    print(f"{args.workload} seed={args.seed} ops={out['attempted']} "
          f"failed={out['failed']} oracle={'pass' if detail['oracle']['passed'] else 'FAIL'}")
    for name, m in out["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':36s} {detail['ops_failed_frac']:14.6g} 1")
    if not args.trace:
        print(f"  latency_tail_ms is p{detail['latency_tail_percentile']} "
              f"of {detail['latency_ops']} operations")
    speed = detail["reference"]["speed_p25_p50_p75"]
    print(f"  times are at reference speed; this machine ran at "
          f"{speed[1]:.3g}x of it (quartiles {speed[0]:.3g}x, {speed[2]:.3g}x). In wall time:")
    for name, value in detail["wall"].items():
        print(f"  {name + ' (wall)':36s} {value:14.6g}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
