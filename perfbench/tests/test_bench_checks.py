"""Output checks: every kind of bad output fails its operation."""

import io
import json

import pytest

import gen
from checks import check_selection
from siftsel import EmbeddingSet, KernelConfig, preselect_candidates, sift_select, write_selection
from workload import check_records

SPEC = gen.Spec("csv", 300, 8, 2, 5, 20, 5)


class StubWorkload:
    """Hands check_records fixed outputs in place of real operations."""

    def __init__(self, data, ids, queries):
        self.refs = (data, ids, queries)

    def references(self):
        return self.refs

    def output(self, n, value):
        return value, None


@pytest.fixture
def case():
    x, q = gen.make_arrays(SPEC, 2)
    ids = gen.row_ids(SPEC.rows, 2)
    space = EmbeddingSet(data=gen.unit_rows(x), ids=ids, normalized=True)
    qn = gen.unit_rows(q)[0]
    pool = preselect_candidates(space, qn, SPEC.preselect_k)
    result = sift_select(pool, qn, SPEC.n_select, KernelConfig(lambda_prime=gen.LAMBDA_PRIME))
    buf = io.StringIO()
    write_selection(result, pool.ids, buf, source_rows=pool.source_rows)
    return buf.getvalue(), x, ids, qn, result


def edit(text, index, **fields):
    lines = text.splitlines()
    lines[index] = json.dumps({**json.loads(lines[index]), **fields})
    return "\n".join(lines) + "\n"


def problems(text, x, ids, q, eta=None):
    return check_selection(text, x, q, SPEC.n_select, ids=ids, eta=eta)[0]


def test_clean_output_passes(case):
    text, x, ids, q, result = case
    found, final = check_selection(text, x, q, SPEC.n_select, ids=ids, eta=0.0)
    assert found == []
    assert final == result.sigma_trace[-1]


def test_tampered_sigma_fails(case):
    text, x, ids, q, _ = case
    rec = json.loads(text.splitlines()[2])
    assert problems(edit(text, 2, sigma_sq=rec["sigma_sq"] + 1e-4), x, ids, q)


def test_rising_sigma_fails(case):
    text, x, ids, q, _ = case
    rec = json.loads(text.splitlines()[1])
    tampered = edit(text, 1, objective=-1e-3, sigma_sq=rec["sigma_sq"] + rec["objective"] + 1e-3)
    assert any("rises" in p for p in problems(tampered, x, ids, q))


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_non_standard_constant_in_summary_fails(case, constant):
    text, x, ids, q, _ = case
    lines = text.splitlines()
    summary = json.loads(lines[-1])
    lines[-1] = lines[-1].replace(repr(summary["sigma_final_sq"]), constant)
    assert constant in lines[-1]
    assert problems("\n".join(lines), x, ids, q)


def test_wrong_id_fails(case):
    text, x, ids, q, _ = case
    rec = json.loads(text.splitlines()[0])
    assert problems(edit(text, 0, id=ids[(rec["row"] + 1) % len(ids)]), x, ids, q)


def test_final_sigma_not_matching_the_selected_rows_fails(case):
    text, x, ids, q, _ = case
    rec = json.loads(text.splitlines()[0])
    other = (rec["row"] + 1) % len(ids)
    found = problems(edit(text, 0, row=other, id=ids[other]), x, ids, q)
    assert any("selected rows give" in p for p in found)


def test_eta_above_final_sigma_fails(case):
    text, x, ids, q, result = case
    assert problems(text, x, ids, q, eta=result.sigma_trace[-1] + 1e-3)


def test_each_bad_output_counts_as_a_failed_operation(case):
    text, x, ids, q, _ = case
    rec = json.loads(text.splitlines()[0])
    outputs = [
        text,
        edit(text, 0, sigma_sq=rec["sigma_sq"] * 0.5),
        text.replace(f'"sigma_final_sq": {json.loads(text.splitlines()[-1])["sigma_final_sq"]!r}',
                     '"sigma_final_sq": Infinity'),
        edit(text, 0, id="not-an-id"),
    ]
    records = [{"n": n, "qi": 0, "value": out, "error": None} for n, out in enumerate(outputs)]
    records.append({"n": 4, "qi": 0, "value": None, "error": "Traceback: boom"})
    found, sigma = check_records(StubWorkload(x, ids, q[None, :]), records, SPEC)
    assert [r["failed"] for r in records] == [False, True, True, True, True]
    assert len(found) >= 4
    assert list(sigma) == [0]
