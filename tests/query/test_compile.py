"""The expression compiler is the engine's one expression evaluator: every
node kind lowers to a closure, with the values and errors pinned below.
Whole pipelines are cross-checked elsewhere against the unoptimized
batch-of-one run and the independent ``repro.polyglot`` oracle."""

import pytest

from repro.core.database import MultiModelDB
from repro.errors import BindError, ExecutionError
from repro.query import ast
from repro.query.compile import compile_expr
from repro.query.executor import ExecContext
from repro.query.parser import parse


def _expr_of(text: str) -> ast.Expr:
    """The RETURN expression of ``RETURN <text>``."""
    query = parse(f"RETURN {text}")
    return query.operations[-1].expr


@pytest.fixture()
def ctx():
    db = MultiModelDB()
    docs = db.create_collection("docs")
    docs.insert({"_key": "a", "n": 1})
    docs.insert({"_key": "b", "n": 2})
    return ExecContext(db=db, bind_vars={"limit": 10, "name": "amy"})


FRAME = {
    "x": 5,
    "y": 2.5,
    "s": "hello world",
    "arr": [3, 1, 2],
    "doc": {
        "a": {"b": 42},
        "tags": ["red", "blue"],
        "items": [
            {"a": {"b": 1}, "xs": [1, 2]},
            {"a": {"b": 2}, "xs": [0]},
            {"xs": [5]},
        ],
    },
    "flag": True,
    "nothing": None,
}

EXPRESSIONS = [
    ("1 + 2 * 3", 7),
    ("x - y", 2.5),
    ("x % 2 == 1", True),
    ("-x", -5),
    ("NOT flag", False),
    ("x > 3 AND y < 3", True),
    ("x < 3 OR s == 'hello world'", True),
    ("x != NULL", True),
    ("nothing == NULL", True),
    ("doc.a.b", 42),
    ("doc.missing.deeper", None),
    ("arr[1]", 1),
    ("doc.tags[0]", "red"),
    ("x IN arr", False),
    ("6 IN arr", False),
    ("s LIKE 'hello%'", True),
    ("s LIKE '%wor_d'", True),
    ("s LIKE arr[0]", False),
    ("1..4", [1, 2, 3, 4]),
    ("[x, y, 'z']", [5, 2.5, "z"]),
    ("{a: x, b: {c: y}}", {"a": 5, "b": {"c": 2.5}}),
    ("x > 3 ? 'big' : 'small'", "big"),
    ("@limit + x", 15),
    ("@name", "amy"),
    ("LENGTH(arr)", 3),
    ("UPPER(s)", "HELLO WORLD"),
    ("MAX(arr)", 3),
    ("doc.tags[*]", ["red", "blue"]),
    ("arr[* FILTER $CURRENT > 1]", [3, 2]),
    # expansion with a suffix; a non-array subject expands to []
    ("doc.items[*].a.b", [1, 2, None]),
    ("nothing[*]", []),
    ("s[*]", []),
    ("doc[*]", []),
    ("s[* FILTER TRUE]", []),
    # $CURRENT rebinds inside a nested expansion / inline filter
    (
        "doc.items[* FILTER LENGTH($CURRENT.xs[*]) > 1]",
        [{"a": {"b": 1}, "xs": [1, 2]}],
    ),
    (
        "doc.items[* FILTER LENGTH($CURRENT.xs[* FILTER $CURRENT > 1]) > 0]",
        [{"a": {"b": 1}, "xs": [1, 2]}, {"xs": [5]}],
    ),
    # subqueries: a correlated one reads the outer frame
    ("(FOR d IN docs SORT d.n RETURN d.n)", [1, 2]),
    ("(FOR d IN docs FILTER d.n == y - 0.5 RETURN d._key)", ["b"]),
]


@pytest.mark.parametrize(
    "text, expected", EXPRESSIONS, ids=[text for text, _ in EXPRESSIONS]
)
def test_compiled_value(ctx, text, expected):
    value = compile_expr(_expr_of(text))(ctx, dict(FRAME))
    assert value == expected
    assert type(value) is type(expected)


def test_current_binding_does_not_leak_into_the_frame(ctx):
    frame = dict(FRAME)
    compile_expr(_expr_of("arr[* FILTER $CURRENT > 1]"))(ctx, frame)
    assert "$CURRENT" not in frame


class TestErrors:
    def test_unknown_variable(self, ctx):
        fn = compile_expr(_expr_of("missing_var"))
        with pytest.raises(BindError, match="unknown variable"):
            fn(ctx, {})

    def test_missing_bind_parameter(self, ctx):
        fn = compile_expr(_expr_of("@absent"))
        with pytest.raises(BindError, match="missing bind parameter"):
            fn(ctx, {})

    def test_division_by_zero(self, ctx):
        fn = compile_expr(_expr_of("1 / (x - 5)"))
        with pytest.raises(ExecutionError, match="division by zero"):
            fn(ctx, dict(FRAME))

    def test_arithmetic_type_error(self, ctx):
        fn = compile_expr(_expr_of("s + 1"))
        with pytest.raises(ExecutionError, match="arithmetic"):
            fn(ctx, dict(FRAME))

    def test_unary_minus_type_error(self, ctx):
        fn = compile_expr(_expr_of("-s"))
        with pytest.raises(ExecutionError, match="unary"):
            fn(ctx, dict(FRAME))

    def test_in_requires_array(self, ctx):
        fn = compile_expr(_expr_of("x IN s"))
        with pytest.raises(ExecutionError, match="IN expects an array"):
            fn(ctx, dict(FRAME))

    def test_bad_index_type(self, ctx):
        fn = compile_expr(_expr_of("arr[flag]"))
        with pytest.raises(ExecutionError, match="index values"):
            fn(ctx, dict(FRAME))

    def test_subquery_error_propagates_with_its_class(self, ctx):
        fn = compile_expr(_expr_of("(FOR d IN docs RETURN d.n / (x - 5))"))
        with pytest.raises(ExecutionError, match="division by zero") as info:
            fn(ctx, dict(FRAME))
        assert info.type is ExecutionError

    def test_expansion_suffix_error(self, ctx):
        fn = compile_expr(_expr_of("arr[* FILTER $CURRENT + s]"))
        with pytest.raises(ExecutionError, match="arithmetic"):
            fn(ctx, dict(FRAME))


class TestShortCircuit:
    def test_and_skips_right_on_false(self, ctx):
        # The right side would raise if evaluated.
        fn = compile_expr(_expr_of("x < 0 AND missing_var"))
        assert fn(ctx, dict(FRAME)) is False

    def test_or_skips_right_on_true(self, ctx):
        fn = compile_expr(_expr_of("x > 0 OR missing_var"))
        assert fn(ctx, dict(FRAME)) is True

    def test_ternary_lazy_branches(self, ctx):
        fn = compile_expr(_expr_of("x > 0 ? 'ok' : missing_var"))
        assert fn(ctx, dict(FRAME)) == "ok"


class TestSortSemantics:
    """The decorate-sort-undecorate sort: stability, direction, NULLs."""

    @staticmethod
    def _db(rows):
        db = MultiModelDB()
        coll = db.create_collection("rows")
        for position, row in enumerate(rows):
            coll.insert({"_key": f"r{position}", **row})
        return db

    def test_nulls_first_ascending_last_descending(self):
        db = self._db([{"v": 2}, {"v": None}, {"v": 1}, {}])
        ascending = db.query("FOR r IN rows SORT r.v RETURN r.v").rows
        assert ascending == [None, None, 1, 2]
        descending = db.query("FOR r IN rows SORT r.v DESC RETURN r.v").rows
        assert descending == [2, 1, None, None]

    def test_mixed_direction_keys(self):
        db = self._db(
            [
                {"a": 1, "b": "x"},
                {"a": 2, "b": "x"},
                {"a": 1, "b": "y"},
                {"a": 2, "b": "y"},
            ]
        )
        rows = db.query(
            "FOR r IN rows SORT r.a ASC, r.b DESC RETURN {a: r.a, b: r.b}"
        ).rows
        assert rows == [
            {"a": 1, "b": "y"},
            {"a": 1, "b": "x"},
            {"a": 2, "b": "y"},
            {"a": 2, "b": "x"},
        ]

    def test_sort_is_stable(self):
        db = self._db([{"k": 1, "i": n} for n in range(6)])
        rows = db.query("FOR r IN rows SORT r.k RETURN r.i").rows
        assert rows == [0, 1, 2, 3, 4, 5]

    def test_heterogeneous_types_total_order(self):
        db = self._db([{"v": "s"}, {"v": 1}, {"v": True}, {"v": [1]}, {"v": {}}])
        rows = db.query("FOR r IN rows SORT r.v RETURN r.v").rows
        # null < bool < number < string < array < object
        assert rows == [True, 1, "s", [1], {}]


def test_like_builds_one_regex_per_pattern():
    from repro.query import compile as compile_module

    # Planned from the literal text, so a quoted pattern stays a literal.
    db = MultiModelDB(plan_cache_size=0)
    docs = db.create_collection("docs")
    for number in range(300):
        docs.insert({"name": f"n{number % 37}"})
    compile_module._like_regex.cache_clear()
    for pattern in ("n1%", "n_", "%7"):
        literal = db.query(
            f"FOR d IN docs FILTER d.name LIKE '{pattern}' RETURN d.name"
        ).rows
        bound = db.query(
            "FOR d IN docs FILTER d.name LIKE @p RETURN d.name", {"p": pattern}
        ).rows
        assert literal and bound == literal
    assert compile_module._like_regex.cache_info().misses == 3
