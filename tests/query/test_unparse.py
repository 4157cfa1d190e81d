"""Round-trip tests for the AST → MMQL renderer.

The cluster coordinator ships *rendered* per-shard statements over the
wire, so ``parse(unparse(parse(text)))`` must be the identity on the
AST — a rendering bug here silently changes what every shard executes.
The exprs and ops are frozen/eq dataclasses, so structural equality is
the exact oracle.
"""

import pytest

from repro.query.parser import parse
from repro.query.unparse import unparse, unparse_expr
from repro.unibench.workloads import QUERIES_B

STATEMENTS = [
    # literals, escapes, collections
    "RETURN 1",
    "RETURN NULL",
    "RETURN [1, 2.5, true, false, NULL, 'x']",
    "RETURN {a: 1, b: {c: [1, 2]}}",
    "RETURN 'it\\'s a \\\\ backslash\\nand a newline'",
    # floats Python renders in exponent notation
    "RETURN 0.00001",
    "RETURN 0.00000015",
    "RETURN 10000000000000000.0",
    # arithmetic / comparison / logic precedence
    "RETURN 1 + 2 * 3 - 4 / 5 % 6",
    "RETURN (1 + 2) * 3",
    "FOR d IN kv FILTER d.a > 1 AND d.b <= 2 OR NOT d.c RETURN d",
    "FOR d IN kv FILTER d.v IN [1, 2, 3] RETURN d",
    "RETURN @x == NULL ? 'null' : 'set'",
    # pipelines
    "FOR d IN kv FILTER d.v > 1 SORT d.v DESC, d._key LIMIT 2, 5 RETURN d.v",
    "FOR d IN kv LET twice = d.v * 2 RETURN DISTINCT twice",
    "FOR a IN kv FOR b IN kv FILTER a.v == b.v RETURN [a._key, b._key]",
    # COLLECT forms
    "FOR o IN orders COLLECT city = o.city RETURN city",
    "FOR o IN orders COLLECT city = o.city WITH COUNT INTO n RETURN {city, n}",
    "FOR o IN orders COLLECT city = o.city INTO members "
    "RETURN {city, spend: SUM(members[*].o.total)}",
    "FOR o IN orders COLLECT AGGREGATE top = MAX(o.total), n = LENGTH(o) "
    "RETURN {top, n}",
    # subqueries and expansion
    "FOR c IN customers LET praise = (FOR f IN feedback "
    "FILTER f.product_no == c.id RETURN f._key) "
    "FILTER LENGTH(praise) > 0 RETURN c",
    "RETURN (FOR d IN kv SORT d.v RETURN d.v)[0]",
    # cross-model surfaces
    "FOR v IN 1..1 OUTBOUND '10' GRAPH social RETURN v",
    "FOR v, e IN 2..2 OUTBOUND '10' GRAPH social LABEL 'knows' RETURN [v, e]",
    "RETURN KV_GET('cart', @k)",
    "RETURN DOCUMENT('customers', 5)",
    "FOR t IN RDF_MATCH('vendors', NULL, 'industry', 'Sports') RETURN t",
    # DML
    "INSERT {_key: 'a', v: 1} INTO kv",
    "UPDATE 'a' WITH {v: 2} IN kv",
    "REMOVE 'a' IN kv",
    "REPLACE 'a' WITH {v: 3} IN kv",
    "UPSERT {_key: @k} INSERT {_key: @k, v: @v} UPDATE {v: @v} INTO kv",
    "FOR d IN kv FILTER d.v > 1 UPDATE d._key WITH {v: 0} IN kv",
] + [text for text, _ in QUERIES_B.values()]


@pytest.mark.parametrize("text", STATEMENTS)
def test_round_trip_is_identity_on_the_ast(text):
    query = parse(text)
    rendered = unparse(query)
    assert parse(rendered) == query


@pytest.mark.parametrize("text", STATEMENTS)
def test_rendered_text_is_a_fixpoint(text):
    rendered = unparse(parse(text))
    assert unparse(parse(rendered)) == rendered


def test_unparse_expr_round_trips_via_return():
    expr = parse("RETURN a.b[*].c != NULL ? -a.n : LENGTH(a.c)").operations[
        -1
    ].expr
    rendered = unparse_expr(expr)
    assert parse(f"RETURN {rendered}").operations[-1].expr == expr
