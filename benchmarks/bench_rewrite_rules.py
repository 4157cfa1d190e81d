"""Rewrite-rule ablation — what each new rule buys.

Three query shapes, each timed with the responsible rule on and off
(results are asserted row-identical, so the timings compare equivalent
work):

* **decorrelation** — a correlated existence subquery.  Naively the
  inner collection is rescanned per outer row, O(N·M); the semi-join
  rewrite builds one hash table, O(N+M).  The CI perf gate requires the
  rewrite to be ≥10x faster on this shape.
* **shared LET materialization** — an uncorrelated LET subquery read by
  a downstream filter.  Naively re-evaluated per frame; materialized it
  runs once per query.
* **traversal filter split** — a mixed-variable conjunction after a
  graph traversal.  predicate_split + pushdown evaluate the start-vertex
  half before expanding the traversal at all.
"""

import pytest

from repro.query.executor import ExecContext, Result, execute_stream
from repro.query.optimizer import optimize
from repro.query.parser import parse

DECORRELATED = """
FOR c IN customers
  FILTER LENGTH(FOR o IN orders
                  FILTER o.customer_id == c.id RETURN o) > 0
  RETURN c.id
"""

SHARED_LET = """
FOR c IN customers
  LET big_spenders = (FOR o IN orders
                        FILTER o.total >= 2000
                        RETURN o.customer_id)
  FILTER c.id IN big_spenders
  RETURN c.id
"""

TRAVERSAL_SPLIT = """
FOR c IN customers
  FOR friend IN 1..2 OUTBOUND c.id GRAPH social LABEL 'knows'
    FILTER friend.credit_limit >= 1000 AND c.credit_limit >= 9000
    RETURN {who: c.id, friend: friend._key}
"""


def _run(db, text, disabled=()):
    query = optimize(parse(text), db, disabled=disabled)
    ctx = ExecContext(db=db, bind_vars={})
    rows = [row for batch in execute_stream(ctx, query) for row in batch]
    return Result(rows, ctx.stats)


def _expected(db, text):
    return sorted(
        map(repr, _run(db, text, disabled=("decorrelate_subquery",
                                           "materialize_let",
                                           "predicate_split")).rows)
    )


# -- correlated existence subquery ------------------------------------------


def test_decorrelation_on(benchmark, mm_db_noindex):
    expected = _expected(mm_db_noindex, DECORRELATED)
    result = benchmark(_run, mm_db_noindex, DECORRELATED)
    benchmark.extra_info["rows"] = len(result.rows)
    assert sorted(map(repr, result.rows)) == expected
    assert result.stats["semi_join_builds"] == 1


def test_decorrelation_off(benchmark, mm_db_noindex):
    expected = _expected(mm_db_noindex, DECORRELATED)
    result = benchmark(
        _run, mm_db_noindex, DECORRELATED, ("decorrelate_subquery",)
    )
    benchmark.extra_info["rows"] = len(result.rows)
    assert sorted(map(repr, result.rows)) == expected


# -- shared LET materialization ---------------------------------------------


def test_shared_let_on(benchmark, mm_db_noindex):
    expected = _expected(mm_db_noindex, SHARED_LET)
    result = benchmark(_run, mm_db_noindex, SHARED_LET)
    benchmark.extra_info["rows"] = len(result.rows)
    assert sorted(map(repr, result.rows)) == expected
    assert result.stats["materialized_subqueries"] == 1


def test_shared_let_off(benchmark, mm_db_noindex):
    expected = _expected(mm_db_noindex, SHARED_LET)
    result = benchmark(
        _run, mm_db_noindex, SHARED_LET, ("materialize_let",)
    )
    benchmark.extra_info["rows"] = len(result.rows)
    assert sorted(map(repr, result.rows)) == expected


# -- traversal filter split --------------------------------------------------


def test_traversal_split_on(benchmark, mm_db_noindex):
    expected = _expected(mm_db_noindex, TRAVERSAL_SPLIT)
    result = benchmark(_run, mm_db_noindex, TRAVERSAL_SPLIT)
    benchmark.extra_info["rows"] = len(result.rows)
    assert sorted(map(repr, result.rows)) == expected


def test_traversal_split_off(benchmark, mm_db_noindex):
    expected = _expected(mm_db_noindex, TRAVERSAL_SPLIT)
    result = benchmark(
        _run,
        mm_db_noindex,
        TRAVERSAL_SPLIT,
        ("predicate_split", "filter_pushdown"),
    )
    benchmark.extra_info["rows"] = len(result.rows)
    assert sorted(map(repr, result.rows)) == expected


# -- full per-rule ablation (one timing per rule, full workload shape) -------


@pytest.mark.parametrize(
    "rule",
    [
        "constant_folding",
        "predicate_split",
        "filter_pushdown",
        "decorrelate_subquery",
        "materialize_let",
        "index_selection",
        "hash_join",
    ],
)
def test_ablate_one_rule(benchmark, mm_db, rule):
    result = benchmark(_run, mm_db, DECORRELATED, (rule,))
    benchmark.extra_info["rows"] = len(result.rows)
    assert result.rows
