"""Statement shapes (``repro.query.shapes``): a statement planned through
its shape, literals lifted into hidden binds and the plan shared, answers
exactly as the statement planned from its literal text.

* **Literal vs shape** — every text of the corpus runs on a database that
  caches nothing (``plan_cache_size=0``: planned from the literal text)
  and on one that shares plans by shape: bag-equal rows, or the same error
  class, line and column.  Planned both ways, the rules fired are the same
  but for ``constant_folding`` on lifted operands, and the EXPLAIN text is
  the same once each hidden bind reads as its literal.
* **Traps** — the literals that have to stay in the shape.
* **Counts** — the adhoc round's six shapes, and the memo that spares a
  repeated text the lexer.
"""

import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro import Column, ColumnType, TableSchema
from repro.core.database import MultiModelDB
from repro.query import ast, shapes
from repro.query import parser as parser_module
from repro.query.optimizer import optimize
from repro.query.parser import parse, parse_tokens
from repro.query.plan import render_plan
from repro.query.shapes import lift
from repro.query.unparse import unparse_expr
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import QUERIES_B
from tests.query.nested_scopes import (
    COLLECT_QUERIES,
    LOOKUP_ERRORS,
    LOOKUP_QUERIES,
    LOOKUP_SCATTER,
    LOOKUP_WRITES,
    NESTED_QUERIES,
    PROBE_QUERY,
    WRITING_SUBQUERIES,
    load_lookup_collections,
    load_probe_collections,
    load_write_collections,
)
from tests.query.test_rules import STATEMENTS as RULE_STATEMENTS

_ROOT = Path(__file__).resolve().parents[2]


def _mmbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "mmbench_workloads", _ROOT / "benchmarks" / "mmbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _mmbench_workloads()


def _literal(value) -> str:
    return unparse_expr(ast.Literal(value))


def _inline(text: str, binds: dict) -> str:
    """*text* with each ``@name`` replaced by its value as a literal."""
    return re.sub(r"@(\w+)", lambda match: _literal(binds[match.group(1)]), text)


def _pair(load, **kwargs):
    """A database that plans every statement from its literal text, and
    one that shares plans by shape, loaded alike."""
    literal = MultiModelDB(plan_cache_size=0, **kwargs)
    shared = MultiModelDB(**kwargs)
    for db in (literal, shared):
        load(db)
    return literal, shared


def _outcome(db, text: str, binds=None):
    try:
        rows = db.query(text, binds or {}).rows
    except Exception as error:  # noqa: BLE001 - the class is the outcome
        return (
            "error", type(error).__name__,
            getattr(error, "line", None), getattr(error, "column", None),
        )
    return "rows", Counter(map(repr, rows))


def _hidden_as_literals(rendered: str, values: dict) -> str:
    return re.sub(
        r"@(\d+)\b", lambda match: _literal(values[match.group(1)]), rendered
    )


def _assert_plans_alike(db, text: str) -> None:
    """The plan of the shape is the plan of the literal text, but for the
    folds a lifted operand forgoes."""
    try:
        literal = optimize(parse(text), db)
    except Exception:  # noqa: BLE001 - errors are compared by _outcome
        return
    shape, tokens = lift(text)
    try:
        lifted = optimize(parse_tokens(tokens), db)
    except Exception:  # noqa: BLE001 - planned from the literal text then
        return
    unfolded = [name for name in literal.rules_fired if name != "constant_folding"]
    assert [
        name for name in lifted.rules_fired if name != "constant_folding"
    ] == unfolded, text
    if lifted.rules_fired != literal.rules_fired:
        assert shape.values, text
        return
    assert _hidden_as_literals(render_plan(lifted), shape.values) == render_plan(
        literal
    ), text


def _assert_alike(pair, text: str, binds=None) -> None:
    literal, shared = pair
    assert _outcome(shared, text, binds) == _outcome(literal, text, binds), text
    _assert_plans_alike(shared, text)


# ---------------------------------------------------------------------------
# Literal vs shape
# ---------------------------------------------------------------------------


def _load_unibench(db) -> None:
    load_into_multimodel(db, generate(scale_factor=1, seed=11))
    load_probe_collections(db)
    load_write_collections(db)
    load_lookup_collections(db)


@pytest.fixture(scope="module")
def unibench_pair():
    return _pair(_load_unibench)


@pytest.fixture(scope="module")
def mmbench_data():
    return generate(WORKLOADS.SCALE_FACTOR, WORKLOADS.DATA_SEED)


@pytest.fixture(scope="module")
def adhoc_texts(mmbench_data):
    (ops,) = WORKLOADS.adhoc_sequence(mmbench_data, 1)
    return [op.text for op in ops]


def test_the_adhoc_round_answers_alike(mmbench_data, adhoc_texts):
    pair = _pair(lambda db: load_into_multimodel(db, mmbench_data))
    assert len(set(adhoc_texts)) == 544
    for text in adhoc_texts:
        _assert_alike(pair, text)


#: Every nested_scopes fixture, as written (binds) and with its binds
#: inlined as literals.
_FIXTURES = {
    **{
        name: fixture
        for fixtures in (
            NESTED_QUERIES, COLLECT_QUERIES, WRITING_SUBQUERIES,
            LOOKUP_QUERIES, LOOKUP_WRITES, LOOKUP_SCATTER,
        )
        for name, fixture in fixtures.items()
    },
    **{name: (text, {}) for name, (text, _error) in LOOKUP_ERRORS.items()},
    "probe_keys": (PROBE_QUERY, {}),
    **{name: (text, binds) for name, (text, binds) in QUERIES_B.items()},
}


@pytest.mark.parametrize("name", sorted(_FIXTURES))
def test_fixtures_answer_alike(unibench_pair, name):
    text, binds = _FIXTURES[name]
    _assert_alike(unibench_pair, text, binds)
    _assert_alike(unibench_pair, _inline(text, binds))


@pytest.mark.parametrize("name", sorted(QUERIES_B))
def test_workload_b_with_literal_values_answers_alike(unibench_pair, name):
    text, binds = QUERIES_B[name]
    literal, shared = unibench_pair
    for value in {
        "Q1": [3000, 5000, 7500.5], "Q2": ["Prague", "Oslo"], "Q3": [None],
        "Q4": ["Book", "Toy"], "Q5": ["10", "3"],
    }[name]:
        values = {key: value for key in binds}
        _assert_alike(unibench_pair, _inline(text, values))


def test_the_parser_corpus_answers_alike(unibench_pair):
    golden = json.loads(
        (Path(__file__).with_name("parser_golden.json")).read_text()
    )
    for text in golden:
        _assert_alike(unibench_pair, text)


def test_the_rule_statements_answer_alike():
    def load(db):
        customers = db.create_collection("customers")
        orders = db.create_collection("orders")
        for i in range(20):
            customers.insert({"_key": f"c{i}", "id": i, "name": f"n{i}"})
        for i in range(0, 20, 2):
            orders.insert({"_key": f"o{i}", "cust": i, "total": i * 10})

    pair = _pair(load)
    for text in RULE_STATEMENTS:
        _assert_alike(pair, text)


def test_errors_stay_the_users():
    pair = _pair(lambda db: db.create_collection("docs"))
    for text in (
        "RETURN 1 1",                       # lifted: `@1 @2` fails too
        "FOR d IN docs FILTER d.x == 'a RETURN d",
        "FOR d IN docs LIMIT 'a' RETURN d",
        "RETURN {1: 2}",
        "FOR d IN docs\n  FILTER d.x == 1 +\nRETURN d",
    ):
        literal, shared = pair
        assert _outcome(shared, text) == _outcome(literal, text), text
        assert _outcome(shared, text)[0] == "error", text


# ---------------------------------------------------------------------------
# Traps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traps():
    def load(db):
        docs = db.create_collection("docs")
        docs.insert({"_key": "a", "count": 1, "COUNT": 2, "tags": ["x", "y"]})
        docs.insert({"_key": "b", "count": 3, "COUNT": 4, "tags": []})
        for name in ("cart", "other"):
            db.create_bucket(name).put("1", name)
        graph = db.create_graph("g")
        for key in ("1", "2", "3", "4"):
            graph.add_vertex(key, {})
        graph.add_edge("1", "2", "knows")
        graph.add_edge("2", "3", "knows")
        graph.add_edge("1", "4", "likes")
        db.create_table(TableSchema(
            "temps",
            [Column("id", ColumnType.INTEGER, nullable=False),
             Column("v", ColumnType.INTEGER)],
            primary_key="id",
        ))
        table = db.table("temps")
        for index in range(5000):
            table.insert({"id": index, "v": index - 5000})

    return _pair(load)


def _rows(db, text):
    return db.query(text).rows


def test_attribute_case_is_part_of_the_shape(traps):
    _literal_db, shared = traps
    assert _rows(shared, "FOR d IN docs SORT d._key RETURN d.count") == [1, 3]
    assert _rows(shared, "FOR d IN docs SORT d._key RETURN d.COUNT") == [2, 4]


def test_a_string_is_not_an_identifier(traps):
    _literal_db, shared = traps
    by_name = "LET cart = 'other' RETURN KV_GET(cart, '1')"
    by_string = "LET cart = 'other' RETURN KV_GET('cart', '1')"
    assert lift(by_name)[0].text != lift(by_string)[0].text
    assert _rows(shared, by_name) == ["other"]
    assert _rows(shared, by_string) == ["cart"]


@pytest.mark.parametrize("text, rows, kept", [
    ("LET a = 1 LET b = 2 RETURN {'a'}", [{"a": 1}], "{ 'a' }"),
    ("LET a = 1 LET b = 2 RETURN {'b'}", [{"b": 2}], "{ 'b' }"),
    ("LET a = 1 RETURN {'a': 5, 'b': 'x'}", [{"a": 5, "b": "x"}],
     "{ 'a' : $2 , 'b' : $3 }"),
    ("FOR i IN 1..10 LIMIT 2, 3 RETURN i", [3, 4, 5], "1 .. 10 LIMIT 2 , 3"),
    ("FOR i IN 1..10 LIMIT 1, 2 RETURN i", [2, 3], "1 .. 10 LIMIT 1 , 2"),
    ("FOR i IN 1..10 LIMIT 4 RETURN i", [1, 2, 3, 4], "LIMIT 4"),
    ("FOR v IN 2..2 OUTBOUND '1' GRAPH g RETURN v._key", ["3"],
     "2 .. 2 OUTBOUND $1"),
    ("FOR v IN 1..1 OUTBOUND '1' GRAPH g SORT v._key RETURN v._key",
     ["2", "4"], "1 .. 1 OUTBOUND $1"),
    ("FOR v IN 1..1 OUTBOUND '1' GRAPH g LABEL 'knows' RETURN v._key", ["2"],
     "LABEL 'knows'"),
    ("FOR v IN 1..1 OUTBOUND '1' GRAPH g LABEL 'likes' RETURN v._key", ["4"],
     "LABEL 'likes'"),
    ("FOR d IN docs FILTER LENGTH(d.tags) > 0 RETURN d._key", ["a"], ") > 0"),
    ("FOR d IN docs FILTER LENGTH(d.tags) > 1 RETURN d._key", ["a"], ") > 1"),
    ("FOR d IN docs FILTER LENGTH(d.tags) == 0 RETURN d._key", ["b"], ") == 0"),
    ("FOR d IN docs FILTER 0 < LENGTH(d.tags) RETURN d._key", ["a"],
     "0 < LENGTH"),
    ("FOR d IN docs FILTER d.count > 2 - 1 SORT d._key RETURN d._key", ["b"],
     "> 2 - 1"),
    ("FOR d IN docs FILTER d.count > -1 SORT d._key RETURN d._key", ["a", "b"],
     "> - 1"),
    ("LET k = '1' RETURN [DOCUMENT('docs', 'a').count, KV_GET('cart', k)]",
     [[1, "cart"]], "DOCUMENT ( 'docs' , $2 )"),
])
def test_structural_literals(traps, text, rows, kept):
    literal, shared = traps
    assert kept in lift(text)[0].text
    for _round in range(2):
        assert _rows(shared, text) == rows
        assert _rows(literal, text) == rows
    _assert_plans_alike(shared, text)


def test_existence_tests_still_decorrelate(traps):
    _literal_db, shared = traps
    subquery = "(FOR e IN docs FILTER e._key == d._key RETURN e)"
    for test in ("> 0", "== 0"):
        text = f"FOR d IN docs FILTER LENGTH({subquery}) {test} RETURN d._key"
        fired = optimize(parse_tokens(lift(text)[1]), shared).rules_fired
        assert "decorrelate_subquery" in fired, text


def test_a_negative_bound_keeps_its_zone_map(traps):
    literal, shared = traps
    text = "FOR t IN temps FILTER t.v > -5 RETURN t.id"
    assert "- 5" in lift(text)[0].text
    expected = literal.query(text)
    for _round in range(2):
        result = shared.query(text)
        assert result.rows == expected.rows == [4996, 4997, 4998, 4999]
        assert result.stats["segments_pruned"] == expected.stats["segments_pruned"]
        assert result.stats["segments_pruned"] >= 1


def test_hidden_binds_cannot_be_written():
    text = "FOR d IN docs FILTER d.x == 7 RETURN d"
    (name, _tag), = lift(text)[0].binds
    assert not re.match(r"[A-Za-z_]", name)
    db = MultiModelDB()
    db.create_collection("docs").insert({"_key": "k", "x": 7})
    # A user bind of the same name does not displace the literal.
    assert db.query(text, {name: 8}).rows == [{"_key": "k", "x": 7}]


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


def test_one_adhoc_round_plans_six_shapes(mmbench_data, adhoc_texts):
    db = MultiModelDB()
    load_into_multimodel(db, mmbench_data)
    before = db.plan_cache.stats()
    for text in adhoc_texts:
        db.query(text)
    after = db.plan_cache.stats()
    assert after["misses"] - before["misses"] == 6
    assert after["hits"] - before["hits"] == 544 - 6
    assert after["evictions"] == before["evictions"] == 0
    assert len(db.plan_cache) == 6


def test_a_repeated_text_is_not_lexed_again(unibench_pair, monkeypatch):
    _literal_db, shared = unibench_pair
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    tokenize = shapes.tokenize
    for text, binds in QUERIES_B.values():
        shared.query(text, binds)
    monkeypatch.setattr(shapes, "tokenize", counted)
    monkeypatch.setattr(parser_module, "tokenize", counted)
    for text, binds in QUERIES_B.values():
        assert shared.query(text, binds).stats["plan_cached"] is True
    assert calls == []
