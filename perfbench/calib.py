"""A fixed reference task, timed next to every operation, that gives each
timing at a reference machine speed.

On a shared host the speed of a vCPU changes by up to 2x within seconds, as
other tenants load the physical core it runs on, and a fixed pure-Python
loop shows the same change in process CPU time as in wall time. Medians of
whole runs then move with the host's load more than with the code. So each
operation is timed between two runs of a reference task that does the same
kind of work but calls nothing in siftsel: CSV-like text parsing, or a
memory-bound scan and sort. An operation's time at reference speed is its wall time times
the task's nominal time over the median of the task's runs around it. A
change to siftsel changes the operation and not the task, so it shows in
full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Text like the benchmark's CSV: 64 values a line, nine significant digits.
TEXT_LINES, TEXT_DIM = 300, 64
# A float64 matrix larger than a core's share of the last-level cache.
SCAN_ROWS, SCAN_DIM = 24_000, 128


class Reference:
    """The reference task of one workload: `mix` maps a part ("text" or
    "scan") to how many times it runs per task; `nominal_ms` is
    the task's time at reference speed."""

    def __init__(self, mix: dict[str, int], nominal_ms: float):
        self.mix, self.nominal_ms = mix, nominal_ms
        rng = np.random.default_rng(0)
        if "text" in mix:
            vals = rng.standard_normal((TEXT_LINES, TEXT_DIM)).astype(np.float32).tolist()
            self.text = "\n".join(",".join("%.9g" % v for v in row) for row in vals)
        if "scan" in mix:
            self.scan = rng.standard_normal((SCAN_ROWS, SCAN_DIM))
            self.probe = rng.standard_normal(SCAN_DIM)

    def _text(self) -> None:
        rows = [[float(f) for f in line.split(",")] for line in self.text.splitlines()]
        np.asarray(rows)

    def _scan(self) -> None:
        np.argsort(-(self.scan @ self.probe), kind="stable")

    def run(self) -> float:
        """Run the task once; return its wall time in ms."""
        t0 = time.perf_counter()
        for part, times in self.mix.items():
            fn = getattr(self, "_" + part)
            for _ in range(times):
                fn()
        return (time.perf_counter() - t0) * 1e3

    def scales(self, runs_ms: list[float]) -> list[float]:
        """Given the times of the task's runs, with one operation between
        each two, the factor that takes each operation's time to reference
        speed: the nominal time over the median of the two runs around the
        operation and the run on either side of those, so that one disturbed
        run does not decide it."""
        return [self.nominal_ms / statistics.median(runs_ms[max(0, i - 1):i + 3])
                for i in range(len(runs_ms) - 1)]
