"""Optimizer ablation — which rewrite buys what (slides 77-82's theme that
multi-model optimization is index/view selection).

The same two-collection join query runs with each optimizer rule toggled:

* none (naive nested loops + late filters);
* constant folding only;
* + filter pushdown;
* + index selection (full optimizer).

Expected shape: pushdown cuts the cross product, index selection removes
the inner scans entirely; stats in the printed rows show scanned/filtered
counts per variant.
"""

import pytest

from repro.query.executor import ExecContext, Result, execute_stream
from repro.query.optimizer import optimize
from repro.query.parser import parse

QUERY = """
FOR c IN customers
  FOR o IN orders
    FILTER 100 * 10 < 2000
    FILTER c.city == 'Prague'
    FILTER o.customer_id == c.id
    RETURN o.total
"""


def _run(db, fold, pushdown, indexes):
    query = optimize(parse(QUERY), db, fold=fold, pushdown=pushdown, indexes=indexes)
    ctx = ExecContext(db=db, bind_vars={})
    rows = [row for batch in execute_stream(ctx, query) for row in batch]
    return Result(rows, ctx.stats)


@pytest.fixture(scope="module")
def expected(mm_db):
    return sorted(_run(mm_db, False, False, False).rows)


def test_naive(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, False, False, False)
    assert sorted(result.rows) == expected


def test_fold_only(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, True, False, False)
    assert sorted(result.rows) == expected


def test_fold_and_pushdown(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, True, True, False)
    assert sorted(result.rows) == expected
    naive = _run(mm_db, False, False, False)
    assert result.stats["filtered_out"] < naive.stats["filtered_out"]


def test_full_optimizer(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, True, True, True)
    assert sorted(result.rows) == expected
    assert result.stats["index_lookups"] > 0
    print(
        f"\n[optimizer] full: scanned={result.stats['scanned']}, "
        f"index_lookups={result.stats['index_lookups']}"
    )
