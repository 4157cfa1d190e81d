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
* **Skeletons** — a text whose literals alone are new gets its shape from
  the skeleton memo, without the lexer: the same :class:`Shape` as
  :func:`lift` gives it, or the same lexer error, over every text of the
  corpus with random literals put in, and over the texts that could fool
  a one-regex scan.
* **Counts** — the adhoc round's six shapes and six tokenizations, and
  the memo that spares a repeated text the lexer.
"""

import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Column, ColumnType, TableSchema
from repro.core.database import MultiModelDB
from repro.errors import LexError
from repro.query import ast, shapes
from repro.query import parser as parser_module
from repro.query.engine import PlanCache
from repro.query.lexer import STRING_PATTERN, TokenKind, tokenize
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
# Skeletons
# ---------------------------------------------------------------------------

_STRING_RE = re.compile(STRING_PATTERN)


def _literal_spans(text: str) -> list:
    """``(start, end)`` of each NUMBER and STRING token of *text*, found
    by the lexer (not by the skeleton pass under test)."""
    line_starts = [0] + [match.end() for match in re.finditer("\n", text)]
    spans = []
    for token in tokenize(text)[:-1]:
        if token.kind not in (TokenKind.NUMBER, TokenKind.STRING):
            continue
        start = line_starts[token.line - 1] + token.column - 1
        if token.kind == TokenKind.NUMBER:
            spans.append((start, start + len(token.text)))
        else:
            spans.append((start, _STRING_RE.match(text, start).end()))
    return spans


def _substitute(text: str, spans: list, literals: list) -> str:
    for (start, end), literal in reversed(list(zip(spans, literals))):
        text = text[:start] + literal + text[end:]
    return text


def _shape_or_error(statement):
    """What a shape lookup gives: the shape's text, bind shape, typed
    values and literal flag, or the lexer error's line and column."""
    try:
        shape = statement()
    except LexError as error:
        return "LexError", error.line, error.column
    values = {name: (type(value), value) for name, value in shape.values.items()}
    return shape.text, shape.binds, values, shape.literal


def _lexes(text: str) -> bool:
    try:
        tokenize(text)
    except LexError:
        return False
    return True


def _class_of(literal: str) -> str:
    if literal[0] in "'\"":
        return "string"
    return "integer" if literal.isdigit() else "decimal"


_STRING_UNITS = [
    "a", "Z", "7", "0.5", " ", ".", "/", "*", "//", "/*", "*/", "\n", "é",
    "@x", "$", "\\n", "\\t", "\\\\", "\\'", '\\"', "\\q", "'", '"',
]


def _quoted(quote: str, units: list) -> str:
    """A string literal in *quote* of *units*, a bare quote escaped."""
    return quote + "".join(
        "\\" + unit if unit == quote else unit for unit in units
    ) + quote


_LITERALS = {
    "integer": st.integers(0, 10**15).map(str),
    "decimal": st.one_of(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).map(
            lambda parts: f"{parts[0]}.{parts[1]}"
        ),
        st.tuples(
            st.integers(0, 999), st.sampled_from(["e", "E", "e+", "E-"]),
            st.integers(0, 400),
        ).map(lambda parts: "".join(map(str, parts))),
    ),
    "string": st.builds(
        _quoted, st.sampled_from("'\""),
        st.lists(st.sampled_from(_STRING_UNITS), max_size=8),
    ),
}
#: Text that is no literal of the same class, or no literal at all.
_OTHER = st.one_of(
    st.sampled_from([
        "x.5", "1..3", "-1", "- 2.5", "'open", '"open', "/* 9 */ 4",
        "// '\n 5", "1e", "2.", ".5", "0x1", "'a''b'", "7 8", "@p1", "c1",
    ]),
    _LITERALS["integer"], _LITERALS["decimal"], _LITERALS["string"],
)


def _replacement(literal: str):
    return st.one_of(_LITERALS[_class_of(literal)], _OTHER)


#: Every text of the corpus that lexes: the parser goldens, the rule
#: statements, the nested_scopes fixtures as written and inlined, and
#: Q1–Q5 with literal values (the adhoc round joins them in the test).
_SKELETON_CORPUS = [
    text
    for text in (
        *json.loads((Path(__file__).with_name("parser_golden.json")).read_text()),
        *RULE_STATEMENTS,
        *(text for text, _binds in _FIXTURES.values()),
        *(_inline(text, binds) for text, binds in _FIXTURES.values()),
    )
    if _lexes(text)
]


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_the_skeleton_path_gives_what_lift_gives(adhoc_texts, data):
    text = data.draw(st.sampled_from(_SKELETON_CORPUS + adhoc_texts[:64]))
    spans = _literal_spans(text)
    literals = [
        data.draw(_replacement(text[start:end])) for start, end in spans
    ]
    other = _substitute(text, spans, literals)
    cache = PlanCache()
    learned, _tokens = cache.statement(text)
    assert _shape_or_error(lambda: learned) == _shape_or_error(
        lambda: lift(text)[0]
    )
    answer = []
    assert _shape_or_error(
        lambda: answer.extend(cache.statement(other)) or answer[0]
    ) == _shape_or_error(lambda: lift(other)[0]), other
    if shapes.skeleton(other)[0] == shapes.skeleton(text)[0]:
        assert answer[1] is None, other  # the memo answered, not the lexer


#: Texts a one-regex literal scan could misread: quotes and digits in
#: comments, digits in names, ``x.5``, ``1..3``, LIMIT pairs, an integer
#: compared with a call beside a decimal, unary minus, escapes, strings
#: over lines, both quotes, exponents.
SKELETON_TRAPS = [
    "FOR d IN docs FILTER d.n == 1 // it's 2 o'clock\nRETURN d.n",
    "FOR d IN docs /* 'a' 3 \"b\" */ FILTER d.s == 'x' RETURN d._key",
    "FOR d IN docs /* 1\n 2 */ FILTER d.n == 3\n// 4 '\nRETURN d.n",
    "FOR c1 IN docs FILTER c1.n2 == 3 AND c1.x == @p1 RETURN c1.n2",
    "LET x = {a: 1} RETURN x.5",
    "LET x = [1, 2, 3] RETURN x[1].5",
    "FOR i IN 1..3 RETURN i",
    "FOR v IN 1..2 OUTBOUND '1' GRAPH g LABEL 'knows' RETURN v._key",
    "FOR i IN 1..10 LIMIT 2, 3 RETURN i",
    "FOR d IN docs FILTER LENGTH(d.tags) > 0 AND d.x > 0.5 RETURN d._key",
    "FOR d IN docs FILTER d.n > -1 AND d.m < - 2.5 AND d.k == 3 - 1 RETURN d",
    "FOR d IN docs FILTER d.s == 'it\\'s \\\"q\\\" \\\\ \\n' RETURN d._key",
    "FOR d IN docs FILTER d.s == 'line one\nline 2' AND d.n == 2\nRETURN d.n",
    "FOR d IN docs FILTER d.a == \"x'y\" OR d.b == 'p\"q' RETURN d._key",
    "FOR d IN docs FILTER d.x < 1e3 AND d.y > 2.5E-2 RETURN {'k': d._key}",
    "RETURN [1.5, 'a' , \"b\", 7, {'k': 8}]",
]

#: Same-class stand-ins for a trap's literals: a sibling text of the
#: same skeleton.
_SIBLINGS = {"integer": "41", "decimal": "9.25", "string": "'z\\'z'"}


@pytest.mark.parametrize("text", SKELETON_TRAPS)
def test_a_trap_and_its_sibling_get_lift_s_shapes(text):
    spans = _literal_spans(text)
    sibling = _substitute(
        text, spans,
        [_SIBLINGS[_class_of(text[start:end])] for start, end in spans],
    )
    cache = PlanCache()
    for probe in (text, sibling):
        assert _shape_or_error(lambda: cache.statement(probe)[0]) == (
            _shape_or_error(lambda: lift(probe)[0])
        ), probe
    # The sibling's shape came from the skeleton memo, not the lexer.
    fresh = PlanCache()
    fresh.statement(text)
    assert fresh.statement(sibling)[1] is None


@pytest.mark.parametrize("first, then", [
    # Kept as an integer compared with a call, lifted as a decimal.
    ("FOR d IN docs FILTER LENGTH(d.tags) > 0 RETURN d._key",
     "FOR d IN docs FILTER LENGTH(d.tags) > 0.5 RETURN d._key"),
    ("FOR d IN docs FILTER d.n == 1 RETURN d", "FOR d IN docs FILTER d.n == '1' RETURN d"),
    ("FOR d IN docs FILTER d.n == 1.0 RETURN d", "FOR d IN docs FILTER d.n == 1 RETURN d"),
])
def test_a_literal_of_another_class_makes_another_skeleton(first, then):
    cache = PlanCache()
    cache.statement(first)
    assert _shape_or_error(lambda: cache.statement(then)[0]) == _shape_or_error(
        lambda: lift(then)[0]
    )


@pytest.mark.parametrize("text, position", [
    ("FOR d IN docs FILTER d.s == 'open RETURN d", (1, 29)),
    ("FOR d IN docs\n  FILTER d.s == \"a\" AND d.t == 'b RETURN 1", (2, 32)),
    ("FOR d IN docs FILTER d.s == 'two\nlines' AND d.n == 1 # RETURN 1", (2, 21)),
])
def test_a_lexer_error_keeps_its_line_and_column(text, position):
    cache = PlanCache()
    for _call in range(2):
        with pytest.raises(LexError) as caught:
            cache.statement(text)
        assert (caught.value.line, caught.value.column) == position
    assert not cache._skeletons


def test_a_skeleton_the_lexer_disagrees_with_is_lifted_every_call(monkeypatch):
    # A scan that does not know comments reads the ``2`` in one as a
    # literal: the offset check catches it.
    monkeypatch.setattr(
        shapes, "_SKELETON_RE",
        re.compile(r"(?P<string>'[^']*')|(?P<number>\d+)"),
    )
    cache = PlanCache()
    for value in (1, 5, 9):
        text = f"RETURN {value} // 2"
        shape, tokens = cache.statement(text)
        assert tokens is not None
        assert _shape_or_error(lambda: shape) == _shape_or_error(
            lambda: lift(text)[0]
        )
    assert list(cache._skeletons.values()) == [shapes.LIFT]


def test_a_skeleton_planned_literally_stays_literal():
    cache = PlanCache()
    cache.statement("FOR d IN docs FILTER d.n == 1 RETURN d")
    cache.plan_literally("FOR d IN docs FILTER d.n == 1 RETURN d")
    shape, tokens = cache.statement("FOR d IN docs FILTER d.n == 2 RETURN d")
    assert shape.literal and tokens is None
    assert shape.text == "FOR d IN docs FILTER d.n == 2 RETURN d"


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


def test_one_adhoc_round_plans_six_shapes(mmbench_data, adhoc_texts, monkeypatch):
    db = MultiModelDB()
    load_into_multimodel(db, mmbench_data)
    before = db.plan_cache.stats()
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(shapes, "tokenize", counted)
    monkeypatch.setattr(parser_module, "tokenize", counted)
    for text in adhoc_texts:
        db.query(text)
    after = db.plan_cache.stats()
    # One tokenization per skeleton: the other 538 texts are answered by
    # the skeleton memo.
    assert len(calls) == 6
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

    for text, binds in QUERIES_B.values():
        shared.query(text, binds)
    monkeypatch.setattr(shapes, "tokenize", counted)
    monkeypatch.setattr(parser_module, "tokenize", counted)
    for text, binds in QUERIES_B.values():
        assert shared.query(text, binds).stats["plan_cached"] is True
    assert calls == []
