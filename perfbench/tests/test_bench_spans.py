"""Self-time arithmetic and the tracer's span tree."""

import math

import pytest

from spans import Span, Tracer, layer_median, per_unit, self_times
import siftsel.cli
from workload import LAYERS, TAIL_CAP, cli_rebound, nearest_rank, tail_percentile


def tree():
    # op [0, 10]: read [1, 4] (with a nested parse [2, 3]), select [5, 9]
    return [
        Span("cli.main", "op1", None, 0.0, 10.0),
        Span("io.read", "op1", 0, 1.0, 4.0, {"bytes": 100}),
        Span("parse", "op1", 1, 2.0, 3.0),
        Span("selectors.select", "op1", 0, 5.0, 9.0, {"picks": 3}),
        Span("cli.main", "op2", None, 20.0, 26.0),
        Span("io.read", "op2", 4, 20.5, 21.0, {"bytes": 50}),
        Span("io.read", "op2", 4, 22.0, 24.0, {"bytes": 70}),
    ]


def test_self_time_subtracts_the_children():
    assert self_times(tree()) == pytest.approx([3.0, 2.0, 1.0, 4.0, 3.5, 0.5, 2.0])


def test_self_times_of_an_operation_sum_to_its_root():
    spans = tree()
    st = self_times(spans)
    assert sum(st[:4]) == pytest.approx(spans[0].end - spans[0].start)


def test_overlapping_children_are_counted_once():
    spans = [Span("root", "a", None, 0.0, 10.0),
             Span("x", "a", 0, 1.0, 5.0), Span("y", "a", 0, 3.0, 7.0),
             Span("z", "a", 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_per_unit_sums_per_operation_and_medians_skip_absent_layers():
    units = per_unit(tree())
    assert units["op2"]["io.read"]["ms"] == pytest.approx(2500.0)
    assert units["op2"]["io.read"]["counts"] == {"bytes": 120}
    assert layer_median(units, "io.read") == pytest.approx(2250.0)
    assert layer_median(units, "io.read", "bytes") == 110
    assert layer_median(units, "selectors.select") == pytest.approx(4000.0)
    assert layer_median(units, "uncertainty.eta") == 0.0


def test_tracer_records_parents_operation_ids_and_counts():
    tracer = Tracer()
    tracer.op = "op7"
    inner = tracer.wrap("inner", lambda n: list(range(n)), lambda out, n: {"items": len(out)})
    with tracer.span("outer"):
        assert inner(4) == [0, 1, 2, 3]
    outer, child = tracer.spans
    assert (outer.parent, child.parent) == (None, 0)
    assert outer.op == child.op == "op7"
    assert child.counts == {"items": 4}
    assert outer.start <= child.start <= child.end <= outer.end


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("boom", lambda: 1 / 0)()
    assert not math.isnan(tracer.spans[0].end)
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent is None


@pytest.mark.parametrize("n", [11, 16, 33, 100, 457])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n):
    vals = [float(i) for i in range(n)]
    pct = tail_percentile(n)
    assert sum(v > nearest_rank(vals, pct) for v in vals) >= 10
    assert (sum(v > nearest_rank(vals, pct + 1) for v in vals) < 10
            or pct == TAIL_CAP or pct + 1 > 100)


def test_tail_percentile_is_capped():
    assert tail_percentile(100) == 90
    assert tail_percentile(457) == TAIL_CAP == 90


def test_cli_layer_functions_are_restored_even_when_the_call_raises():
    before = {name: getattr(siftsel.cli, name) for name in LAYERS}
    with pytest.raises(RuntimeError):
        with cli_rebound(Tracer()):
            assert all(getattr(siftsel.cli, n) is not f for n, f in before.items())
            raise RuntimeError
    assert {name: getattr(siftsel.cli, name) for name in LAYERS} == before
