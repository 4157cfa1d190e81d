"""Optimizer ablation — which rewrite buys what (slides 77-82's theme that
multi-model optimization is index/view selection).

The same two-collection join query runs with rules of the registry
(:data:`repro.query.rules.REGISTRY`) switched off by name:

* none (naive nested loops + late filters);
* constant folding only;
* + filter pushdown;
* + index selection (full optimizer).

Expected shape: pushdown cuts the cross product, index selection removes
the inner scans entirely; stats in the printed rows show scanned/filtered
counts per variant.  A read by primary key (``c.id == @id``) is a probe of
the store's own key map with index selection on, and a scan without it.
"""

import pytest

from repro.query.executor import ExecContext, Result, execute_stream
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.rules import rule_names

QUERY = """
FOR c IN customers
  FOR o IN orders
    FILTER 100 * 10 < 2000
    FILTER c.city == 'Prague'
    FILTER o.customer_id == c.id
    RETURN o.total
"""

POINT_QUERY = "FOR c IN customers FILTER c.id == @id RETURN c.name"

#: The rules each configuration keeps on.
NAIVE = ()
FOLD = ("constant_folding",)
PUSHDOWN = FOLD + ("filter_pushdown",)
FULL = tuple(rule_names())


def _plan(db, enabled, text=QUERY):
    return optimize(parse(text), db, disabled=set(rule_names()) - set(enabled))


def _execute(db, query, bind_vars):
    ctx = ExecContext(db=db, bind_vars=bind_vars)
    rows = [row for batch in execute_stream(ctx, query) for row in batch]
    return Result(rows, ctx.stats)


def _run(db, enabled):
    return _execute(db, _plan(db, enabled), {})


@pytest.fixture(scope="module")
def expected(mm_db):
    return sorted(_run(mm_db, NAIVE).rows)


def test_naive(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, NAIVE)
    assert sorted(result.rows) == expected


def test_fold_only(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, FOLD)
    assert sorted(result.rows) == expected


def test_fold_and_pushdown(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, PUSHDOWN)
    assert sorted(result.rows) == expected
    naive = _run(mm_db, NAIVE)
    assert result.stats["filtered_out"] < naive.stats["filtered_out"]


def test_full_optimizer(benchmark, mm_db, expected):
    result = benchmark(_run, mm_db, FULL)
    assert sorted(result.rows) == expected
    assert result.stats["index_lookups"] > 0
    print(
        f"\n[optimizer] full: scanned={result.stats['scanned']}, "
        f"index_lookups={result.stats['index_lookups']}"
    )


@pytest.mark.parametrize("index_selection", [False, True], ids=["scan", "probe"])
def test_primary_key_read(benchmark, mm_db, index_selection):
    enabled = FULL if index_selection else tuple(
        name for name in FULL if name != "index_selection"
    )
    # Planned once: the case times the read, not the planning.
    plan = _plan(mm_db, enabled, POINT_QUERY)
    result = benchmark(_execute, mm_db, plan, {"id": 7})
    assert len(result.rows) == 1
    if index_selection:
        assert result.stats["scanned"] == 0
        assert result.stats["index_lookups"] == 1
        assert result.stats["indexes_used"] == ["primary:rel:customers:id"]
    else:
        assert result.stats["scanned"] > 1
    print(
        f"\n[optimizer] primary key, index_selection={index_selection}: "
        f"scanned={result.stats['scanned']}, "
        f"index_lookups={result.stats['index_lookups']}"
    )
