"""Command line front end.

Three subcommands:

- select: pick rows for a query and emit the selection as JSON Lines.
- stats: print diagnostics for an embedding/query pair as a JSON object.
- bench: time the selection methods against each other.

Exit codes: 0 on success, 2 on input problems (unreadable or malformed
files, bad parameters), 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .core import EmbeddingSet, KernelConfig, as_query, normalize_rows
from .errors import InputError, NumericalFailure, SiftselError, check_param
from .io import read_embeddings, write_selection
from .selectors import (
    nn_select,
    preselect_candidates,
    sift_fast_select,
    sift_select,
    uncertainty_sampling_select,
)
from .uncertainty import (
    ConfidenceParams,
    StoppingPolicy,
    apply_adaptive_stopping,
    beta_classification,
    beta_regression,
    convergence_bound_rhs,
    data_space_lambda_min,
    irreducible_uncertainty,
    realized_info_gain,
    selected_gram_lambda_hat,
    submodularity_probe,
)

METHODS = ("sift", "sift-fast", "nn", "nn-f", "us")


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("embeddings", help="candidate embedding file")
    p.add_argument("query", help="query embedding file")
    p.add_argument("--format", choices=("binary", "csv"), default="binary",
                   help="embedding file format (default: binary)")
    p.add_argument("--query-row", type=int, default=0,
                   help="row of the query file to use (default: 0)")
    p.add_argument("--ids", default=None, metavar="PATH",
                   help="sidecar file with one id per candidate row")
    p.add_argument("--lambda", "--lambda-prime", dest="lambda_prime",
                   type=float, default=0.01,
                   help="regularization added to the kernel (default: 0.01)")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=True, help="unit-normalize rows and query")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized diagnostics (default: 0)")


def _add_select_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default="sift",
                   help="selection method (default: sift)")
    p.add_argument("--n", "--n-select", dest="n_select", type=int, default=50,
                   help="number of rows to select (default: 50)")
    p.add_argument("--preselect-k", "--preselect", dest="preselect_k",
                   type=int, default=200,
                   help="restrict to the top-k rows by query affinity before "
                        "selecting; 0 disables (default: 200)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siftsel",
        description="Select informative rows from an embedding file for a query.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="run a selection and emit JSON Lines")
    _add_io_args(sel)
    _add_select_args(sel)
    sel.add_argument("--alpha", type=float, default=None,
                     help="enable adaptive stopping with this alpha")
    sel.add_argument("--n-max", type=int, default=None,
                     help="hard cap for adaptive stopping (default: --n)")
    sel.add_argument("--output", default=None, metavar="PATH",
                     help="write JSON Lines here instead of stdout")

    st = sub.add_parser("stats", help="print diagnostics as JSON")
    _add_io_args(st)
    st.add_argument("--trials", type=int, default=64,
                    help="submodularity probe trials (default: 64)")
    st.add_argument("--beta-n", type=int, nargs="*", default=None, metavar="N",
                    help="selection sizes to tabulate confidence widths for")
    st.add_argument("--delta", type=float, default=0.05,
                    help="failure probability for confidence widths (default: 0.05)")
    st.add_argument("--vocab-size", type=int, default=2)
    st.add_argument("--norm-bound", type=float, default=1.0)
    st.add_argument("--lipschitz", type=float, default=1.0)
    st.add_argument("--reg-lambda", type=float, default=1.0)
    st.add_argument("--noise-rho", type=float, default=1.0)

    be = sub.add_parser("bench", help="time selection methods")
    _add_io_args(be)
    _add_select_args(be)
    be.add_argument("--methods", nargs="+", choices=METHODS, default=None,
                    help="methods to time (default: sift sift-fast nn)")
    be.add_argument("--repeat", type=int, default=3,
                    help="repetitions per method; best time is reported (default: 3)")

    return parser


def _load_pair(args) -> tuple[EmbeddingSet, np.ndarray]:
    space = read_embeddings(args.embeddings, format=args.format, ids_path=args.ids)
    queries = read_embeddings(args.query, format=args.format)
    if not 0 <= args.query_row < queries.rows:
        raise InputError(
            f"--query-row {args.query_row} out of range for {queries.rows} query rows"
        )
    q = as_query(queries.data[args.query_row], space.dim)
    if args.normalize:
        space = normalize_rows(space)
        qn = float(np.linalg.norm(q))
        if qn < 1e-12:
            raise InputError(f"query row {args.query_row} has zero norm")
        q = q / qn
    return space, q


def _pool(space: EmbeddingSet, q: np.ndarray, preselect_k: int) -> EmbeddingSet:
    if preselect_k == 0 or preselect_k >= space.rows:
        return space
    return preselect_candidates(space, q, preselect_k)


def _run_method(method: str, pool: EmbeddingSet, q, n_select: int, cfg: KernelConfig):
    if method == "sift":
        return sift_select(pool, q, n_select, cfg)
    if method == "sift-fast":
        return sift_fast_select(pool, q, n_select, cfg)
    if method == "nn":
        return nn_select(pool, q, n_select, cfg)
    if method == "nn-f":
        return nn_select(pool, q, n_select, cfg, failure_mode=True)
    if method == "us":
        return uncertainty_sampling_select(pool, q, n_select, cfg)
    raise InputError(f"unknown method {method!r}")


def _cmd_select(args) -> int:
    space, q = _load_pair(args)
    cfg = KernelConfig(lambda_prime=args.lambda_prime)
    policy = None if args.alpha is None else StoppingPolicy(
        alpha=args.alpha,
        n_max=args.n_select if args.n_max is None else args.n_max)
    t0 = time.perf_counter()
    pool = _pool(space, q, args.preselect_k)
    result = _run_method(args.method, pool, q, args.n_select, cfg)
    if policy is not None:
        result = apply_adaptive_stopping(result, policy)
    elapsed = time.perf_counter() - t0

    if args.output is None:
        write_selection(result, pool.ids, sys.stdout,
                        source_rows=pool.source_rows)
    else:
        write_selection(result, pool.ids, args.output,
                        source_rows=pool.source_rows)
    eta_sq = irreducible_uncertainty(pool, q)
    print(
        f"{args.method}: selected {len(result.order)}/{pool.rows} rows, "
        f"sigma_sq {result.sigma_trace[0]:.6g} -> {result.sigma_trace[-1]:.6g} "
        f"(floor {eta_sq:.6g}), {elapsed * 1e3:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args) -> int:
    space, q = _load_pair(args)
    cfg = KernelConfig(lambda_prime=args.lambda_prime)
    probe = submodularity_probe(space, q, cfg, trials=args.trials, seed=args.seed)
    out = {
        "rows": space.rows,
        "dim": space.dim,
        "lambda_prime": args.lambda_prime,
        "sigma0_sq": float(q @ q),
        "eta_sq": irreducible_uncertainty(space, q),
        "submodularity_probe": {
            "passed": probe.passed,
            "worst_slack": probe.worst_slack,
            "trials": probe.trials,
            "violations": probe.violations,
        },
    }
    if args.beta_n:
        params = ConfidenceParams(
            vocab_size=args.vocab_size, norm_bound=args.norm_bound,
            lipschitz=args.lipschitz, dim=space.dim,
            reg_lambda=args.reg_lambda, noise_rho=args.noise_rho,
        )
        lam_min = data_space_lambda_min(space)
        n_top = min(max(args.beta_n), space.rows)
        full = sift_select(space, q, n_top, cfg)
        table = []
        for n in sorted(set(args.beta_n)):
            n_eff = min(n, n_top)
            sel = EmbeddingSet(data=space.data[list(full.order[:n_eff])])
            gamma = realized_info_gain(sel, args.lambda_prime)
            table.append({
                "n": n,
                "beta_classification": beta_classification(n, args.delta, params),
                "beta_regression": beta_regression(
                    n, args.delta, args.norm_bound, args.noise_rho, gamma),
                "convergence_bound": convergence_bound_rhs(
                    n, space.dim, args.lambda_prime, lam_min,
                    selected_gram_lambda_hat(sel)),
                "sigma_sq": full.sigma_trace[n_eff],
            })
        out["confidence"] = table
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_bench(args) -> int:
    space, q = _load_pair(args)
    cfg = KernelConfig(lambda_prime=args.lambda_prime)
    check_param("--repeat", args.repeat, ge=1, integer=True)
    methods = args.methods or ["sift", "sift-fast", "nn"]
    times: dict[str, float] = {}
    stable = True
    for method in methods:
        best = float("inf")
        first_order = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            pool = _pool(space, q, args.preselect_k)
            result = _run_method(method, pool, q, args.n_select, cfg)
            best = min(best, time.perf_counter() - t0)
            order = tuple(
                pool.source_rows[r] if pool.source_rows is not None else r
                for r in result.order
            )
            if first_order is None:
                first_order = order
            elif order != first_order:
                stable = False
        times[method] = best
        print(f"{method:10s} {best * 1e3:10.2f} ms  "
              f"(n={args.n_select}, K={space.rows}, repeat={args.repeat})")
    if "nn" in times:
        for method in methods:
            if method in ("nn",):
                continue
            print(f"{method}/nn time ratio: {times[method] / times['nn']:.2f}")
    print(f"selection stable across repetitions: {'yes' if stable else 'no'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"select": _cmd_select, "stats": _cmd_stats, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except NumericalFailure as exc:
        print(f"siftsel: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SiftselError, OSError) as exc:
        print(f"siftsel: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
