"""Differential tests for the MMQL front end: lexer, parser and the rule
fixpoint, each held to a reference.

* **Lexer** — a hypothesis test over the token alphabet compares the
  one-pass lexer with a per-match reference loop kept here: kinds, texts,
  positions and the :class:`LexError` position.
* **Parser** — ``repr(parse(text))``, or the error's class and message with
  its line and column, against ``parser_golden.json``, which pins them for
  every text of the corpus.
* **Fixpoint** — :func:`optimize` against a reference full fixpoint that
  calls every active rule, pass after pass, until a whole pass changes
  nothing: the same plan, ``rules_fired`` and EXPLAIN text, with each rule
  disabled in turn.
"""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import MultiModelDB
from repro.errors import LexError, ParseError
from repro.query import ast
from repro.query.lexer import KEYWORDS, tokenize
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import MaterializeOp, SemiJoinOp, render_plan
from repro.query.rules import REGISTRY, RuleContext, rule_names
from repro.query.statistics import annotate_estimates
from repro.query.visit import (
    binds,
    contains_write,
    map_children,
    map_operation_exprs,
    nested_queries,
)
from repro.unibench import build_multimodel, generate
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

# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

#: One text of each statement shape of mmbench's ``adhoc_cold_plan``.
ADHOC_SHAPES = {
    "point_rel": "FOR c IN customers FILTER c.id == 7 RETURN c.name",
    "point_doc": "FOR o IN orders FILTER o.Order_no == '1a2b' RETURN o.total",
    "point_kv": "RETURN KV_GET('cart', '3')",
    "range_short": "FOR c IN customers FILTER c.id >= 7 AND c.id < 15 RETURN c.name",
    "Q2": (
        "FOR c IN customers FILTER c.id == 7 "
        "FOR o IN orders FILTER o.customer_id == c.id "
        "RETURN {customer: c.name, order: o.Order_no, total: o.total}"
    ),
    "Q5": (
        "FOR friend IN 1..1 OUTBOUND '30' GRAPH social "
        "LABEL 'knows' LET order_no = KV_GET('cart', "
        "friend._key) FILTER order_no != NULL FOR o IN orders "
        "FILTER o.Order_no == order_no "
        "RETURN {friend: friend._key, total: o.total}"
    ),
}

#: Statements over the UniBench data: Q1–Q5, every nested_scopes fixture
#: and the adhoc shapes.
UNIBENCH = {
    **{name: text for name, (text, _binds) in QUERIES_B.items()},
    **{
        name: text
        for fixtures in (
            NESTED_QUERIES, COLLECT_QUERIES, WRITING_SUBQUERIES,
            LOOKUP_QUERIES, LOOKUP_WRITES, LOOKUP_SCATTER,
        )
        for name, (text, _binds) in fixtures.items()
    },
    **{name: text for name, (text, _error) in LOOKUP_ERRORS.items()},
    "probe_keys": PROBE_QUERY,
    **{f"adhoc_{name}": text for name, text in ADHOC_SHAPES.items()},
    # Unsplit (predicate_split off), the residual FILTER decorrelation
    # leaves moves next to its FOR and probes an index a pass later.
    "residual_feeds_index_selection": (
        "FOR c IN customers FOR o IN orders FILTER LENGTH(FOR f IN feedback "
        "FILTER f.customer_id == c.id RETURN f) > 0 AND o.customer_id == c.id "
        "RETURN o"
    ),
}

#: Precedence, associativity, the clause-separating IN, and the errors a
#: precedence-climbing loop could place differently.
PARSER_CASES = [
    "RETURN 1 + 2 * 3 == 7 AND true",
    "RETURN a - b - c + d",
    "RETURN a / b * c % d",
    "RETURN -x + 1",
    "RETURN - - x * y",
    "RETURN -x.y[0]",
    "RETURN a OR b AND c OR d",
    "RETURN a || b && c",
    "RETURN NOT a AND b",
    "RETURN !a OR !b",
    "RETURN NOT NOT a == b",
    "RETURN NOT a IN b",
    "RETURN a NOT IN b AND c",
    "RETURN a + 1 NOT IN [1, 2]",
    "RETURN a LIKE 'x%' OR b IN c",
    "RETURN a ? b : c",
    "RETURN a ? b : c ? d : e",
    "RETURN a ? b ? c : d : e",
    "RETURN a OR b ? c AND d : e == f",
    "RETURN (a ? b : c) + 1",
    "RETURN a == (b == c)",
    "RETURN 1..5 + 2",
    "RETURN 1..a == b",
    "RETURN 1.5 + 2e3 - 0.00001",
    "RETURN x[* FILTER $CURRENT.a > 1][*].b[0]",
    "RETURN xs[*][*]",
    "RETURN xs[*].a[*].b",
    "RETURN xs[*][0].a",
    "RETURN {a: 1, 'b': 2, c, FOR: 3}",
    "RETURN COUNT(x) + SHORTEST_PATH(a, b)",
    "RETURN FIRST(FOR x IN xs RETURN x)",
    "RETURN (FOR x IN xs RETURN x)[0]",
    "RETURN [] + [1, [2]] + {}",
    "RETURN @bind.attr",
    "FOR x IN 1..5 RETURN x",
    "FOR v, e IN 1..2 ANY 'a' GRAPH g LABEL 'k' RETURN [v, e]",
    "FOR v IN outbound SHORTEST_PATH 'a' TO 'b' GRAPH g RETURN v",
    "UPDATE x WITH {a: y IN z} IN c",
    "REMOVE a + b IN c",
    "REMOVE (x IN y) IN c",
    "UPDATE k WITH x ? y : z IN c",
    "REPLACE k WITH d IN c",
    "UPSERT {a: 1} INSERT {a: 1} UPDATE {b: x IN y} INTO c",
    "INSERT {a: x IN y} INTO c",
    "FOR c IN cs COLLECT a = c.a, b = c.b AGGREGATE n = COUNT(c), "
    "s = SUM(c.x) INTO g RETURN g",
    "FOR c IN cs COLLECT WITH COUNT INTO n RETURN n",
    "FOR c IN cs SORT c.a DESC, c.b ASC, c.c LIMIT 1, 2 RETURN DISTINCT c",
    "for c in cs filter c.a == 1 return c",
    # errors
    "RETURN a == b == c",
    "RETURN a AND b == c == d",
    "RETURN NOT a == b == c",
    "RETURN a ? b == c == d : e",
    "RETURN (a == b == c)",
    "RETURN a NOT LIKE b",
    "RETURN a * NOT b",
    "RETURN - NOT a",
    "RETURN a == NOT b",
    "FILTER a IN b IN c RETURN 1",
    "REMOVE x NOT IN c",
    "UPDATE x IN c",
    "RETURN a ? b",
    "RETURN a ? b c",
    "RETURN 1 + ",
    "RETURN 1 1",
    "RETURN [1, 2",
    "RETURN {a: }",
    "RETURN f(1, 2",
    "RETURN x.",
    "RETURN x.1",
    "RETURN x[*",
    "FOR c IN customers\nRETRN c",
    "FOR c IN customers FILTER c.x",
    "",
    "FOR v, e IN xs RETURN v",
    "FOR v, e IN OUTBOUND SHORTEST_PATH 'a' TO 'b' GRAPH g RETURN v",
    "FOR v IN 1..x OUTBOUND 'a' GRAPH g RETURN v",
    "FOR v IN 1..2 OUTBOUND 'a' GRAPH g LABEL k RETURN v",
    "FOR c IN customers LIMIT 1e2 RETURN c",
    "FOR c IN customers LIMIT 1, 2.0 RETURN c",
    "LET x 1 RETURN x",
    "FOR c IN cs COLLECT RETURN 1",
    "FOR c IN cs COLLECT AGGREGATE n = LENGTH(c, 2) RETURN n",
    "FOR c IN cs COLLECT a = c.a WITH n RETURN a",
    "RETURN a #",
    "RETURN 'unterminated",
    "RETURN /* open comment",
    "RETURN a; RETURN b",
]

CORPUS = {
    **UNIBENCH,
    **{f"rules_{number}": text for number, text in enumerate(RULE_STATEMENTS)},
    **{f"case_{number}": text for number, text in enumerate(PARSER_CASES)},
}

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

#: The token grammar, matched one position at a time with no catch-all
#: group: a position nothing matches is the stray character.
_REFERENCE_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<space>\s+)
  | (?P<number>\d+(?:\.\d+)?[eE][+-]?\d+|\d+\.\d+|\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<bindvar>@[A-Za-z_]\w*)
  | (?P<ident>\$?[A-Za-z_]\w*)
  | (?P<op>\.\.|==|!=|<=|>=|&&|\|\||=~|[+\-*/%<>=!])
  | (?P<punct>[()\[\]{},:.?])
""",
    re.VERBOSE | re.DOTALL,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}


def _reference_unescape(body: str) -> str:
    out = []
    index = 0
    while index < len(body):
        char = body[index]
        if char == "\\" and index + 1 < len(body):
            out.append(_ESCAPES.get(body[index + 1], body[index + 1]))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _reference_tokens(text: str):
    """``(kind, text, line, column)`` per token, EOF last — or the
    ``(message, line, column)`` of the stray character.  A newline moves
    the line wherever it is, inside a string literal too."""
    tokens = []
    line, line_start, position = 1, 0, 0
    while position < len(text):
        match = _REFERENCE_RE.match(text, position)
        column = position - line_start + 1
        if match is None:
            return None, (f"unexpected character {text[position]!r}", line, column)
        kind, value = match.lastgroup, match.group()
        position = match.end()
        if kind == "string":
            tokens.append((kind, _reference_unescape(value[1:-1]), line, column))
        elif kind == "bindvar":
            tokens.append((kind, value[1:], line, column))
        elif kind == "ident":
            keyword = value.upper() in KEYWORDS
            tokens.append(("keyword" if keyword else "ident", value, line, column))
        elif kind not in ("space", "comment"):
            tokens.append((kind, value, line, column))
        if "\n" in value:
            line += value.count("\n")
            line_start = match.start() + value.rfind("\n") + 1
    tokens.append(("eof", "", line, position - line_start + 1))
    return tokens, None


def _tag(kind: str, text: str) -> str:
    if kind == "keyword":
        return text.upper()
    return text if kind in ("op", "punct") else kind


def _string_literal(quote: str, body: str, closed: bool) -> str:
    return quote + body + (quote if closed else "")


_FRAGMENTS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from([word, word.lower(), word.title()])
    ),
    st.from_regex(r"\$?[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"@[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,2})?([eE][+-]?[0-9]{0,2})?", fullmatch=True),
    st.builds(
        _string_literal,
        st.sampled_from(["'", '"']),
        st.lists(
            st.sampled_from(
                ["a", "Z", " ", "\n", "\\n", "\\'", '\\"', "\\\\", "\\q", "'", '"', "é"]
            ),
            max_size=6,
        ).map("".join),
        st.booleans(),
    ),
    st.sampled_from(["// note", "//", "/* a\nb */", "/**/", "/* open", "*/"]),
    st.sampled_from([" ", "  ", "\n", "\t", "\r\n", " \n\n "]),
    st.sampled_from(
        ["..", "==", "!=", "<=", ">=", "&&", "||", "=~", "+", "-", "*", "/",
         "%", "<", ">", "=", "!", *"()[]{},:.?"]
    ),
    st.sampled_from(["#", "^", "~", "`", ";", "\\", "é", "ß", "ı", "٣", "\x00", "|", "&"]),
)


class TestLexerAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_FRAGMENTS, max_size=24).map("".join))
    def test_tokens_and_errors_match_the_per_match_loop(self, text):
        expected, error = _reference_tokens(text)
        if error is not None:
            with pytest.raises(LexError) as raised:
                tokenize(text)
            message, line, column = error
            assert (raised.value.line, raised.value.column) == (line, column)
            assert str(raised.value) == f"{message} (line {line}, column {column})"
            return
        tokens = tokenize(text)
        assert [tuple(token[:4]) for token in tokens] == expected
        assert [token.tag for token in tokens] == [
            _tag(kind, value) for kind, value, _line, _column in expected
        ]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_GOLDEN = Path(__file__).with_name("parser_golden.json")


def parse_outcome(text: str) -> list:
    """``["ast", digest of repr(parse(text))]``, or the error's class name
    and message (which carries its line and column)."""
    try:
        tree = parse(text)
    except (LexError, ParseError) as error:
        return [type(error).__name__, str(error)]
    return ["ast", hashlib.sha256(repr(tree).encode()).hexdigest()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(_GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_parse_matches_the_golden(golden, name):
    text = CORPUS[name]
    assert text in golden, f"no golden for {name}"
    outcome = parse_outcome(text)
    if outcome[0] == "ast" and outcome != golden[text]:
        pytest.fail(f"{name} parses differently now:\n{parse(text)!r}")
    assert outcome == golden[text]


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------


def _full_fixpoint(query, active, context):
    """Every active rule in registry order, pass after pass, until a whole
    pass leaves the plan equal to what it was."""
    plan = query
    for _pass in range(10):
        changed = False
        for rule in active:
            rewritten = rule.rewrite(plan, context)
            if rewritten != plan:
                plan = rewritten
                changed = True
                if rule.name not in context.fired:
                    context.fired.append(rule.name)
        if not changed:
            return plan
    raise AssertionError("no fixpoint in 10 passes")


def _plan_scopes(query, active, context):
    """Each query nested in *query* planned as a scope of its own, with the
    variables bound around it in scope."""

    def plan_scope(inner, scope):
        inner_context = dataclasses.replace(context, scope=scope)
        return _plan_scopes(
            _full_fixpoint(inner, active, inner_context), active, inner_context
        )

    bound = set(context.scope)
    operations = []
    for operation in query.operations:
        bound.update(binds(operation))
        if isinstance(operation, MaterializeOp):
            operation = dataclasses.replace(
                operation, query=plan_scope(operation.query, frozenset())
            )
        elif nested_queries(operation):
            scope = frozenset(bound)
            if isinstance(operation, SemiJoinOp):
                scope |= {operation.var}
            planned = {}

            def plan_in(expr):
                if not isinstance(expr, ast.SubQuery):
                    return map_children(expr, plan_in)
                if id(expr) not in planned:
                    planned[id(expr)] = ast.SubQuery(plan_scope(expr.query, scope))
                return planned[id(expr)]

            operation = map_operation_exprs(operation, plan_in)
        operations.append(operation)
    return ast.Query(operations)


def reference_optimize(query, db, disabled=(), ast_only=False):
    """:func:`optimize` as a full fixpoint over every active rule."""
    off = set(disabled)
    if db is not None:
        off |= set(db.optimizer_rules.disabled)
    physical = db is not None and not ast_only
    active = [
        rule for rule in REGISTRY
        if rule.name not in off and (rule.ast_safe or physical)
    ]
    context = RuleContext(db=db, writes=contains_write(query))
    plan = _full_fixpoint(query, active, context)
    if physical:
        plan = _plan_scopes(plan, active, context)
    plan = ast.Query(list(plan.operations))
    plan.rules_fired = tuple(context.fired)
    if physical:
        annotate_estimates(plan, db)
    return plan


def _explain(plan) -> str:
    return render_plan(plan) + "\nRules fired: " + (
        ", ".join(plan.rules_fired) or "(none)"
    )


@pytest.fixture(scope="module")
def unibench_db():
    db = build_multimodel(generate(scale_factor=1, seed=11))
    load_probe_collections(db)
    load_write_collections(db)
    load_lookup_collections(db)
    return db


@pytest.fixture(scope="module")
def rules_db():
    database = MultiModelDB()
    customers = database.create_collection("customers")
    orders = database.create_collection("orders")
    for i in range(20):
        customers.insert({"_key": f"c{i}", "id": i, "name": f"n{i}"})
    for i in range(0, 20, 2):
        orders.insert({"_key": f"o{i}", "cust": i, "total": i * 10})
    return database


def _assert_same_as_the_full_fixpoint(db, text):
    # Physical planning, the coordinator's ast-only replanning, and the
    # ast-only rules with a database's toggles, each rule off in turn.
    for disabled in [(), *((name,) for name in rule_names())]:
        for on, ast_only in ((db, False), (None, True), (db, True)):
            plan = optimize(parse(text), on, disabled=disabled, ast_only=ast_only)
            reference = reference_optimize(
                parse(text), on, disabled=disabled, ast_only=ast_only
            )
            where = f"disabled={disabled} db={on is not None} ast_only={ast_only}"
            assert plan.operations == reference.operations, where
            assert plan.rules_fired == reference.rules_fired, where
            assert _explain(plan) == _explain(reference), where


@pytest.mark.parametrize("name", sorted(UNIBENCH))
def test_fixpoint_matches_the_full_fixpoint_over_unibench(unibench_db, name):
    _assert_same_as_the_full_fixpoint(unibench_db, UNIBENCH[name])


@pytest.mark.parametrize("number", range(len(RULE_STATEMENTS)))
def test_fixpoint_matches_the_full_fixpoint_over_the_rule_statements(
    rules_db, number
):
    _assert_same_as_the_full_fixpoint(rules_db, RULE_STATEMENTS[number])
