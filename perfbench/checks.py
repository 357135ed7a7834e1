"""Checks on one operation's JSON Lines output; any problem fails the operation."""

from __future__ import annotations

import json
import math

import numpy as np
from siftsel import KernelConfig, posterior_variance

from gen import LAMBDA_PRIME, unit_rows

# The selector subtracts each step's decrement from σ² and clamps round-off
# negatives within 1e-9 to zero, so the trace identity holds to that band.
SIGMA_STEP_TOL = 1e-9
# Final σ² against a fresh dense solve on the selected rows.
RECOMPUTE_RTOL = 1e-6
RECOMPUTE_ATOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_strict(text: str) -> tuple[list[dict], dict]:
    """(row records, summary) of a selection; NaN and Infinity are rejected."""
    lines = [json.loads(line, parse_constant=_reject_constant)
             for line in text.splitlines() if line.strip()]
    if not lines or "method" not in lines[-1]:
        raise ValueError("missing summary line")
    return lines[:-1], lines[-1]


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def check_selection(text: str, rows, q: np.ndarray, n_select: int,
                    ids=None, eta: float | None = None) -> tuple[list[str], float | None]:
    """Check one selection output; return (problems, final σ²).

    rows is the benchmark's own copy of the collection (float32, unnormalized,
    indexable by a list of rows); q is the unit-norm query; ids maps rows to
    their expected ids, defaulting to the decimal row index; eta, when given,
    is the reported irreducible uncertainty, which no selection can beat.
    """
    try:
        records, summary = parse_strict(text)
    except ValueError as exc:
        return [f"output is not strict JSON Lines: {exc}"], None
    problems: list[str] = []
    try:
        if len(records) != n_select or summary["n"] != n_select:
            problems.append(f"{len(records)} records, summary n={summary['n']}, "
                            f"expected {n_select}")
        prev = _number(summary["sigma0_sq"])
        picked = []
        for i, rec in enumerate(records):
            if rec["rank"] != i + 1:
                problems.append(f"record {i} has rank {rec['rank']}")
            sigma, obj = _number(rec["sigma_sq"]), _number(rec["objective"])
            if sigma > prev:
                problems.append(f"sigma_sq rises at rank {i + 1}: {prev!r} -> {sigma!r}")
            if abs(sigma - (prev - obj)) > SIGMA_STEP_TOL:
                problems.append(f"sigma_sq at rank {i + 1} is {sigma!r}, "
                                f"expected {prev!r} - {obj!r}")
            prev = sigma
            row = rec["row"]
            if isinstance(row, bool) or not isinstance(row, int) or not 0 <= row < len(rows):
                problems.append(f"rank {i + 1} names row {row!r}")
                continue
            want = ids[row] if ids is not None else str(row)
            if rec["id"] != want:
                problems.append(f"row {row} emitted with id {rec['id']!r}, expected {want!r}")
            picked.append(row)
        final = _number(summary["sigma_final_sq"])
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed record: {exc!r}"], None
    if final != prev:
        problems.append(f"summary sigma_final_sq {final!r} != last sigma_sq {prev!r}")
    if picked:
        cfg = KernelConfig(lambda_prime=LAMBDA_PRIME)
        direct = posterior_variance(unit_rows(rows[picked]), q, cfg)
        if not math.isclose(final, direct, rel_tol=RECOMPUTE_RTOL, abs_tol=RECOMPUTE_ATOL):
            problems.append(f"sigma_final_sq {final!r} but the selected rows give {direct!r}")
    if eta is not None and not -SIGMA_STEP_TOL <= eta <= final + SIGMA_STEP_TOL:
        problems.append(f"eta_sq {eta!r} outside [0, sigma_final_sq={final!r}]")
    return problems, final
