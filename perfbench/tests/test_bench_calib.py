"""The reference task and the conversion of timings to reference speed."""

import pytest

from calib import Reference
from workload import REFERENCE, timed_loop


class FakeReference:
    """A reference task whose runs take the given times, in turn."""

    nominal_ms = 10.0

    def __init__(self, times):
        self.times = iter(times)

    def run(self):
        return next(self.times)

    scales = Reference.scales


class FakeWorkload:
    def op(self, n, qi, traced):
        return n


def test_scale_is_the_nominal_time_over_the_median_of_the_runs_around():
    ref = Reference({}, 12.0)
    assert ref.scales([12.0, 12.0]) == pytest.approx([1.0])
    assert ref.scales([24.0, 24.0, 24.0]) == pytest.approx([0.5, 0.5])  # half speed
    # operation i sits between runs i and i+1; runs i-1 .. i+2 are its window
    assert ref.scales([6.0, 6.0, 12.0, 12.0, 24.0]) == pytest.approx(
        [2.0, 12 / 9, 1.0, 1.0])


def test_one_disturbed_run_does_not_decide_a_scale():
    ref = Reference({}, 10.0)
    assert ref.scales([10.0, 10.0, 90.0, 10.0, 10.0, 10.0]) == pytest.approx([1.0] * 5)


def test_every_workload_has_a_reference_task_that_runs():
    for mix, nominal_ms in REFERENCE.values():
        assert mix and nominal_ms > 0
        assert Reference(mix, nominal_ms).run() > 0


def test_each_operation_is_scaled_by_the_runs_around_it():
    wl = FakeWorkload()
    records = timed_loop(wl, FakeReference([10, 30, 10, 10, 20]), 2, 0.0, False)
    assert [r["n"] for r in records] == [0, 1, 2, 3]
    assert [r["qi"] for r in records] == [0, 1, 0, 1]
    assert [r["scale"] for r in records] == pytest.approx([1.0, 1.0, 10 / 15, 1.0])
    assert all(r["error"] is None and r["s"] >= 0 for r in records)
