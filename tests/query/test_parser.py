"""MMQL lexer + parser tests."""

import pytest

from repro.errors import LexError, ParseError
from repro.query import ast
from repro.query.lexer import TokenKind, tokenize
from repro.query.parser import parse, parse_expression


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("for x In customers return x")
        assert tokens[0].is_keyword("FOR")
        assert tokens[2].is_keyword("IN")

    def test_strings_with_escapes(self):
        tokens = tokenize("'it\\'s' \"two\\nlines\"")
        assert tokens[0].text == "it's"
        assert tokens[1].text == "two\nlines"

    def test_bind_vars(self):
        tokens = tokenize("@limit")
        assert tokens[0].kind == TokenKind.BINDVAR
        assert tokens[0].text == "limit"

    def test_comments_skipped(self):
        tokens = tokenize("FOR // line comment\n x /* block */ IN y RETURN x")
        assert [t.text for t in tokens[:4]] == ["FOR", "x", "IN", "y"]

    def test_numbers(self):
        tokens = tokenize("3 3.5")
        assert [t.text for t in tokens[:2]] == ["3", "3.5"]

    def test_exponent_numbers_are_floats(self):
        assert [t.text for t in tokenize("1e-05 1.5E+16 2e3")[:3]] == [
            "1e-05", "1.5E+16", "2e3",
        ]
        for text, value in (("1e-05", 1e-05), ("1.5E+16", 1.5e16), ("2e3", 2000.0)):
            literal = parse_expression(text)
            assert literal.value == value and type(literal.value) is float

    def test_range_operator(self):
        tokens = tokenize("1..5")
        assert [t.text for t in tokens[:3]] == ["1", "..", "5"]

    def test_stray_character(self):
        with pytest.raises(LexError):
            tokenize("FOR x IN y RETURN #x")

    def test_positions(self):
        tokens = tokenize("FOR\n  x")
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    @pytest.mark.parametrize(
        "text,error,line,column",
        [
            ('RETURN "a\nb" #', LexError, 2, 4),
            ('LET x = "a\nbc"\nRETURN ]', ParseError, 3, 8),
        ],
    )
    def test_positions_after_a_multi_line_string(self, text, error, line, column):
        with pytest.raises(error) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (line, column)


class TestExpressionParsing:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3 == 7 AND true")
        assert isinstance(expr, ast.BinOp) and expr.op == "AND"
        left = expr.left
        assert left.op == "=="
        assert left.left.op == "+"
        assert left.left.right.op == "*"

    def test_attribute_chain(self):
        expr = parse_expression("c.orders.total")
        assert isinstance(expr, ast.AttrAccess)
        assert expr.attribute == "total"
        assert expr.subject.attribute == "orders"

    def test_index_access(self):
        expr = parse_expression("a[0][\"k\"]")
        assert isinstance(expr, ast.IndexAccess)
        assert expr.index.value == "k"

    def test_expansion(self):
        expr = parse_expression("o.Orderlines[*].Product_no")
        assert isinstance(expr, ast.Expansion)
        assert isinstance(expr.suffix, ast.AttrAccess)

    def test_bare_expansion(self):
        expr = parse_expression("xs[*]")
        assert isinstance(expr, ast.Expansion)
        assert expr.suffix is None

    def test_inline_filter(self):
        expr = parse_expression("lines[* FILTER $CURRENT.price > 35]")
        assert isinstance(expr, ast.InlineFilter)

    def test_function_call(self):
        expr = parse_expression("LENGTH(xs)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "LENGTH"

    def test_object_literal_and_shorthand(self):
        expr = parse_expression("{name: c.name, c}")
        assert isinstance(expr, ast.ObjectLiteral)
        assert expr.items[1] == ("c", ast.VarRef("c"))

    def test_array_literal(self):
        expr = parse_expression("[1, 'two', [3]]")
        assert isinstance(expr, ast.ArrayLiteral)
        assert len(expr.items) == 3

    def test_range(self):
        expr = parse_expression("1..5")
        assert isinstance(expr, ast.RangeExpr)

    def test_in_and_like(self):
        assert parse_expression("x IN [1,2]").op == "IN"
        assert parse_expression("x LIKE 'a%'").op == "LIKE"

    def test_not_in(self):
        expr = parse_expression("x NOT IN [1]")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "NOT"

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_subquery_expression(self):
        expr = parse_expression("(FOR x IN xs RETURN x)")
        assert isinstance(expr, ast.SubQuery)

    def test_parenthesized_expression(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + ")
        with pytest.raises(ParseError):
            parse_expression("1 1")


class TestQueryParsing:
    def test_minimal(self):
        query = parse("FOR c IN customers RETURN c")
        assert isinstance(query.operations[0], ast.ForOp)
        assert isinstance(query.operations[1], ast.ReturnOp)

    def test_full_pipeline(self):
        query = parse(
            """
            FOR c IN customers
              FILTER c.credit > 100 AND c.active == true
              LET orders = (FOR o IN orders FILTER o.cid == c.id RETURN o)
              SORT c.name DESC, c.id
              LIMIT 2, 5
              RETURN DISTINCT {c, orders}
            """
        )
        kinds = [type(op).__name__ for op in query.operations]
        assert kinds == ["ForOp", "FilterOp", "LetOp", "SortOp", "LimitOp", "ReturnOp"]
        sort = query.operations[3]
        assert sort.keys[0].ascending is False
        assert sort.keys[1].ascending is True
        limit = query.operations[4]
        assert (limit.offset, limit.count) == (2, 5)
        assert query.operations[5].distinct is True

    def test_traversal(self):
        query = parse(
            "FOR f IN 1..2 OUTBOUND c.id GRAPH social LABEL 'knows' RETURN f"
        )
        traversal = query.operations[0]
        assert isinstance(traversal, ast.TraversalOp)
        assert traversal.min_depth == 1
        assert traversal.max_depth == 2
        assert traversal.direction == "outbound"
        assert traversal.graph == "social"
        assert traversal.label == "knows"

    def test_range_loop_is_not_traversal(self):
        query = parse("FOR i IN 1..5 RETURN i")
        assert isinstance(query.operations[0], ast.ForOp)
        assert isinstance(query.operations[0].source, ast.RangeExpr)

    def test_collect_with_count(self):
        query = parse(
            "FOR c IN customers COLLECT city = c.city WITH COUNT INTO n RETURN {city, n}"
        )
        collect = query.operations[1]
        assert isinstance(collect, ast.CollectOp)
        assert collect.groups[0][0] == "city"
        assert collect.count_into == "n"

    def test_collect_into(self):
        query = parse(
            "FOR c IN customers COLLECT city = c.city INTO members RETURN members"
        )
        assert query.operations[1].into == "members"

    def test_insert(self):
        query = parse("INSERT {name: 'X'} INTO customers")
        assert isinstance(query.operations[0], ast.InsertOp)

    def test_update(self):
        query = parse("FOR c IN customers UPDATE c WITH {seen: true} IN customers")
        assert isinstance(query.operations[1], ast.UpdateOp)

    def test_remove(self):
        query = parse("REMOVE 'k1' IN customers")
        assert isinstance(query.operations[0], ast.RemoveOp)

    def test_missing_return(self):
        with pytest.raises(ParseError):
            parse("FOR c IN customers FILTER c.x")
        with pytest.raises(ParseError):
            parse("")

    def test_limit_takes_integers(self):
        for text in ("LIMIT 1e2", "LIMIT 1.5", "LIMIT '5'", "LIMIT 1, 2.0"):
            with pytest.raises(ParseError, match="LIMIT takes integers"):
                parse(f"FOR c IN customers {text} RETURN c")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("FOR c IN customers\nRETRN c")
        assert "line 2" in str(info.value)
