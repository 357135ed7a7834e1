"""In-memory span tracer and the self-time arithmetic the per-layer metrics use.

A span has a name, a start and end (perf_counter seconds), the index of the
span that caused it and the id of the operation it belongs to. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(result, *args) gives the
        span's work counts and is evaluated after the span has closed."""
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(out, *args, **kwargs))
            return out
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover (seconds)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def per_unit(spans: list[Span]) -> dict[str, dict[str, dict]]:
    """For each operation id, each span name's summed self time (ms) and
    summed counts: {op: {name: {"ms": .., "counts": {..}}}}."""
    units: dict[str, dict[str, dict]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        entry = units.setdefault(s.op, {}).setdefault(s.name, {"ms": 0.0, "counts": {}})
        entry["ms"] += self_s * 1e3
        for key, val in s.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + val
    return units


def layer_median(units: dict, name: str, key: str = "ms") -> float:
    """Median over the units in which `name` has a span of its self time
    (key="ms") or of one of its counts; 0.0 when no unit has the span."""
    vals = [
        u[name]["ms"] if key == "ms" else u[name]["counts"].get(key, 0)
        for u in units.values() if name in u
    ]
    return float(statistics.median(vals)) if vals else 0.0
