"""The AST toolkit: its two tables are complete, and its scoping rules
are the ones every caller relies on.

The completeness tests build one instance of every node type from its
dataclass fields, so a field added to a node — or a node added to
``ast.py``/``plan.py`` — without its table row fails here, not as a
wrong plan somewhere else.
"""

import dataclasses
import itertools

import pytest

from repro.query import ast, plan, visit
from repro.query.parser import parse

OPERATION_TYPES = sorted(
    {
        kind
        for module in (ast, plan)
        for kind in vars(module).values()
        if isinstance(kind, type)
        and issubclass(kind, ast.Operation)
        and kind is not ast.Operation
    },
    key=lambda kind: kind.__name__,
)

EXPR_TYPES = sorted(
    {
        kind
        for kind in vars(ast).values()
        if isinstance(kind, type) and issubclass(kind, ast.Expr) and kind is not ast.Expr
    },
    key=lambda kind: kind.__name__,
)


def _planted(kind):
    """An instance of dataclass *kind* with a distinct ``VarRef`` in every
    place its field types allow an expression; returns ``(instance,
    {field name: [the expressions planted there]})``."""
    fresh = (ast.VarRef(f"v{number}") for number in itertools.count())
    planted: dict = {}

    def expr(field):
        node = next(fresh)
        planted.setdefault(field.name, []).append(node)
        return node

    values = {}
    for field in dataclasses.fields(kind):
        declared = field.type.replace("ast.", "").strip("'\"")
        if declared in ("Expr", "Optional[Expr]"):
            values[field.name] = expr(field)
        elif declared == "tuple[Expr, ...]":
            values[field.name] = (expr(field), expr(field))
        elif declared == "tuple[tuple[str, Expr], ...]":
            values[field.name] = (("a", expr(field)), ("b", expr(field)))
        elif declared == "list[SortKeySpec]":
            values[field.name] = [
                ast.SortKeySpec(expr(field), True),
                ast.SortKeySpec(expr(field), False),
            ]
        elif declared == "list[tuple[str, Expr]]":
            values[field.name] = [("g", expr(field)), ("h", expr(field))]
        elif declared == "list[tuple[str, str, Expr]]":
            values[field.name] = [("n", "SUM", expr(field))]
        elif declared == "Query":
            values[field.name] = ast.Query([ast.ReturnOp(ast.Literal(1))])
        elif declared in ("str", "Optional[str]"):
            values[field.name] = field.name
        elif declared == "int":
            values[field.name] = 1
        elif declared == "bool":
            values[field.name] = True
        elif declared == "tuple":
            values[field.name] = ("path",)
        elif declared == "Any":
            values[field.name] = 7
        else:
            raise AssertionError(
                f"{kind.__name__}.{field.name}: {field.type!r} is a field "
                "type this test does not know how to fill"
            )
    return kind(**values), planted


def _primed(node: ast.VarRef) -> ast.VarRef:
    return ast.VarRef(node.name + "'")


def _exprs_in(value) -> list:
    """The expressions held by one field value of any slot shape."""
    if isinstance(value, ast.Expr):
        return [value]
    if isinstance(value, ast.SortKeySpec):
        return [value.expr]
    if isinstance(value, (list, tuple)):
        return [expr for item in value for expr in _exprs_in(item)]
    return []


# ---------------------------------------------------------------------------
# The operation table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", OPERATION_TYPES, ids=lambda kind: kind.__name__)
def test_every_expression_field_of_every_operation_is_in_the_table(kind):
    operation, planted = _planted(kind)
    yielded = visit.operation_exprs(operation)
    everything = [node for nodes in planted.values() for node in nodes]
    # Only a restated condition may go unyielded, and nothing is invented.
    assert [node for node in everything if node in yielded] == yielded
    assert {
        name
        for name, nodes in planted.items()
        if not all(node in yielded for node in nodes)
    } <= {"original_condition"}
    # ... but every one of them is mapped, the restated ones included.
    mapped = visit.map_operation_exprs(operation, _primed)
    for name, nodes in planted.items():
        assert _exprs_in(getattr(mapped, name)) == [
            _primed(node) for node in nodes
        ], f"{kind.__name__}.{name} was not mapped"
    # What is not an expression is carried over as it was.
    for field in dataclasses.fields(kind):
        if field.name not in planted:
            assert getattr(mapped, field.name) == getattr(operation, field.name)


@pytest.mark.parametrize("kind", OPERATION_TYPES, ids=lambda kind: kind.__name__)
def test_mapping_round_trips_and_identity_keeps_the_node(kind):
    operation, _planted_fields = _planted(kind)
    assert visit.map_operation_exprs(operation, lambda expr: expr) is operation
    mapped = visit.map_operation_exprs(operation, _primed)
    assert visit.operation_exprs(mapped) == [
        _primed(expr) for expr in visit.operation_exprs(operation)
    ]


def test_the_write_operations_are_the_five_dml_statements():
    assert set(visit.WRITE_OPS) == {
        ast.InsertOp, ast.UpdateOp, ast.RemoveOp, ast.ReplaceOp, ast.UpsertOp,
    }


def test_binds_in_binding_order():
    collect = parse(
        "FOR c IN cs COLLECT city = c.city, age = c.age "
        "AGGREGATE n = COUNT(c), top = MAX(c.x) INTO members RETURN city"
    ).operations[1]
    assert visit.binds(collect) == ["city", "age", "n", "top", "members"]
    traversal = parse(
        "FOR v, e IN 1..2 OUTBOUND 'a' GRAPH g RETURN v"
    ).operations[0]
    assert visit.binds(traversal) == ["v", "e"]
    assert visit.binds(parse("FOR v IN 1..2 OUTBOUND 'a' GRAPH g RETURN v").operations[0]) == ["v"]
    assert visit.binds(ast.FilterOp(ast.Literal(True))) == []


# ---------------------------------------------------------------------------
# The expression table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", EXPR_TYPES, ids=lambda kind: kind.__name__)
def test_map_children_inverts_children(kind):
    expr, _planted_fields = _planted(kind)
    assert visit.map_children(expr, lambda child: child) is expr
    mapped = visit.map_children(expr, _primed)
    assert mapped.children() == [_primed(child) for child in expr.children()]
    unprimed = visit.map_children(mapped, lambda child: ast.VarRef(child.name[:-1]))
    assert unprimed == expr


def test_an_expansion_without_a_suffix_keeps_none():
    bare = ast.Expansion(ast.VarRef("xs"))
    assert visit.map_children(bare, _primed) == ast.Expansion(ast.VarRef("xs'"))


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------


def _expr(text: str) -> ast.Expr:
    return parse(f"RETURN {text}").operations[0].expr


def test_walk_yields_a_subquery_and_does_not_enter_it():
    expr = _expr("a + LENGTH((FOR x IN xs RETURN x.y + hidden))")
    names = [node.name for node in visit.walk(expr) if isinstance(node, ast.VarRef)]
    assert names == ["a"]
    assert sum(isinstance(node, ast.SubQuery) for node in visit.walk(expr)) == 1


def test_walk_is_parents_first_left_to_right():
    names = [
        node.name
        for node in visit.walk(_expr("[a, f(b, c), {k: d}]"))
        if isinstance(node, ast.VarRef)
    ]
    assert names == ["a", "b", "c", "d"]


def test_conjuncts_and_and_join_are_inverse_and_ordered():
    condition = _expr("a == 1 AND (b == 2 AND c == 3) AND d == 4")
    parts = visit.conjuncts(condition)
    assert [part.left.name for part in parts] == ["a", "b", "c", "d"]
    assert visit.conjuncts(visit.and_join(parts)) == parts
    assert visit.and_join([]) is None
    assert visit.and_join(parts[:1]) is parts[0]


def test_variables_in_enters_subqueries_and_respects_what_they_bind():
    expr = _expr(
        "outer1 + LENGTH((FOR x IN source FILTER x.k == outer2 "
        "LET y = x.v RETURN y + xs[* FILTER $CURRENT > outer3]))"
    )
    assert visit.variables_in(expr) == {
        "outer1", "source", "outer2", "xs", "outer3",
    }


def test_an_inner_binding_shadows_only_from_where_it_is_bound():
    subquery = _expr("(FOR q IN z.items FOR z IN [1] RETURN z)")
    assert visit.variables_in(subquery) == {"z"}
    subquery = _expr("(FOR z IN [1] FOR q IN z.items RETURN z)")
    assert visit.variables_in(subquery) == set()


@pytest.mark.parametrize(
    "dml",
    [
        "INSERT {v: b.v} INTO t",
        "UPDATE b._key WITH {v: c.v} IN t",
        "REMOVE b._key IN t",
        "REPLACE b._key WITH {v: c.v} IN t",
        "UPSERT {k: b.v} INSERT {k: c.v} UPDATE {n: d.v} INTO t",
    ],
)
def test_every_dml_operation_reads_every_expression_it_holds(dml):
    operation = parse(f"FOR z IN [1] {dml}").operations[-1]
    wanted = {name for name in ("b", "c", "d") if f"{name}." in dml}
    assert visit.reads(operation) == wanted
    assert visit.contains_write(parse(f"RETURN LENGTH((FOR z IN [1] {dml}))"))


def test_free_vars_is_reads_minus_what_is_bound_upstream():
    query = parse(
        "FOR c IN customers LET tags = [c.id, cap] "
        "RETURN LENGTH((FOR t IN tags FILTER t > floor RETURN t))"
    )
    assert visit.free_vars(query.operations) == {"customers", "cap", "floor"}
    assert visit.free_vars(query.operations[1:]) == {"c", "cap", "floor"}
    assert visit.free_vars(query.operations[2:]) == {"tags", "floor"}
    assert visit.free_vars(query.operations[2:], bound=["tags"]) == {"floor"}


def test_a_scan_or_join_does_not_read_the_variable_it_gives_its_residual():
    residual = _expr("o.total > floor")
    shared = dict(
        var="o", source_name="orders", residual=residual,
        original_condition=residual,
    )
    scan = plan.IndexScanOp(
        path=("customer_id",), value=_expr("c.id"), index_name="i",
        index_kind="hash", **shared,
    )
    assert visit.reads(scan) == {"c", "floor"}
    assert visit.binds(scan) == ["o"]
    for kind in (plan.HashJoinOp, plan.SemiJoinOp, plan.AntiJoinOp):
        join = kind(build_path=("customer_id",), probe=_expr("c.id"), **shared)
        assert visit.reads(join) == {"c", "floor"}
        assert visit.binds(join) == (["o"] if kind is plan.HashJoinOp else [])
    assert visit.free_vars([scan], bound=["c"]) == {"floor"}


def test_nested_queries_are_direct_children_only_in_order():
    query = parse(
        "FOR v IN OUTBOUND SHORTEST_PATH (FOR a IN xs RETURN a._key)[0] "
        "TO (FOR b IN ys RETURN (FOR deep IN zs RETURN deep))[0] GRAPH g "
        "RETURN v"
    )
    path = query.operations[0]
    nested = visit.nested_queries(path)
    assert [inner.operations[0].var for inner in nested] == ["a", "b"]
    assert [
        inner.operations[0].var
        for inner in visit.nested_queries(nested[1].operations[-1])
    ] == ["deep"]
    materialized = plan.MaterializeOp("m", nested[0])
    assert visit.nested_queries(materialized) == [nested[0]]
    assert visit.operation_exprs(materialized) == []


def test_contains_write_looks_at_every_depth_and_only_at_writes():
    assert not visit.contains_write(parse("FOR c IN cs RETURN (FOR d IN ds RETURN d)"))
    assert visit.contains_write(parse("FOR c IN cs REMOVE c._key IN cs"))
    assert visit.contains_write(
        parse(
            "FOR c IN cs RETURN (FOR d IN ds "
            "RETURN LENGTH((FOR z IN [1] INSERT {k: d.k} INTO t)))"
        )
    )
    inner = parse("FOR z IN [1] INSERT {k: 1} INTO t")
    assert visit.contains_write(ast.Query([plan.MaterializeOp("m", inner)]))
