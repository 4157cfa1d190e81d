"""MMQL recursive-descent parser with precedence-climbing (Pratt)
expressions.

Grammar (EBNF-ish; ``…*`` repetition, ``[…]`` optional):

    query      := operation* return_like
    operation  := for | filter | let | sort | limit | collect | dml
    for        := FOR ident IN (traversal | expr)
    traversal  := int '..' int (OUTBOUND|INBOUND|ANY) expr GRAPH ident
                  [LABEL string]
    filter     := FILTER expr
    let        := LET ident '=' expr
    sort       := SORT expr [ASC|DESC] (',' expr [ASC|DESC])*
    limit      := LIMIT int [',' int]            (offset, count when two)
    collect    := COLLECT ident '=' expr (',' ident '=' expr)*
                  [WITH COUNT INTO ident] [INTO ident]
    return_like:= RETURN [DISTINCT] expr | insert | update | remove
    insert     := INSERT expr INTO ident
    update     := UPDATE expr WITH expr IN ident
    remove     := REMOVE expr IN ident

    expr       := one precedence-climbing loop over the binding powers of
                  _INFIX, loosest first: ?: < OR < AND < NOT < comparison
                  (== != < <= > >= IN LIKE NOT-IN; they do not chain)
                  < additive (+ -) < multiplicative (* / %) < unary (-)
                  < postfix (.attr, [index], [*], [* FILTER cond], call)
    primary    := literal | ident | @bindvar | '(' query-or-expr ')'
                | '[' exprs ']' | '{' pairs '}' | ident '(' args ')'

A parenthesized ``(FOR … RETURN …)`` is a subquery expression — the AQL
idiom the running example uses for its LET clauses (slide 28).  The parser
dispatches on each token's ``tag`` (:class:`repro.query.lexer.Token`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ParseError
from repro.query import ast
from repro.query.lexer import Token, TokenKind, tokenize

__all__ = ["parse", "parse_tokens", "parse_expression"]


def parse(text: str) -> ast.Query:
    """Parse a full MMQL query."""
    return parse_tokens(tokenize(text))


def parse_tokens(tokens: list[Token]) -> ast.Query:
    """Parse a full MMQL query from its :func:`tokenize` stream."""
    parser = _Parser(tokens)
    query = parser.parse_query()
    parser.expect_eof()
    return query


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


# Binding powers: an expression parsed at power P takes every infix
# operator of power P or more; an operand is parsed at the power above its
# operator's, except the right-associative ternary's.
_TERNARY, _OR, _AND, _COMPARE, _ADD, _MUL, _UNARY = 1, 2, 3, 4, 5, 6, 7

#: Infix operator tag -> (binding power, AST operator).
_INFIX = {
    "?": (_TERNARY, "?"),
    "OR": (_OR, "OR"),
    "||": (_OR, "OR"),
    "AND": (_AND, "AND"),
    "&&": (_AND, "AND"),
    **{op: (_COMPARE, op) for op in ("==", "!=", "<", "<=", ">", ">=", "IN", "LIKE")},
    "NOT": (_COMPARE, "NOT"),  # NOT IN
    **{op: (_ADD, op) for op in "+-"},
    **{op: (_MUL, op) for op in "*/%"},
}

_KEYWORD_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}

#: Keywords that open a subquery in parentheses or as a call argument.
_SUBQUERY_HEADS = frozenset(
    ("FOR", "LET", "RETURN", "FILTER", "SORT", "COLLECT", "LIMIT")
)

_DIRECTIONS = ("OUTBOUND", "INBOUND", "ANY")

#: The operations that end a query besides RETURN: the operation, whether
#: IN separates its clauses (so no expression of it may take one), and the
#: keyword before each expression after the first, the last one before the
#: target collection.
_DML = {
    "INSERT": (ast.InsertOp, False, ("INTO",)),
    "UPDATE": (ast.UpdateOp, True, ("WITH", "IN")),
    "REMOVE": (ast.RemoveOp, True, ("IN",)),
    "REPLACE": (ast.ReplaceOp, True, ("WITH", "IN")),
    "UPSERT": (ast.UpsertOp, False, ("INSERT", "UPDATE", "INTO")),
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0
        self._no_in = False

    # -- token plumbing ---------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != TokenKind.EOF:
            self._position += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(
            f"{message} (found {token.text or 'end of query'!r})",
            token.line,
            token.column,
        )

    def take(self, *tags: str) -> Optional[Token]:
        """The current token, stepped past, when its tag is one of *tags*."""
        token = self._tokens[self._position]
        if token.tag in tags:
            self._position += 1
            return token
        return None

    def expect_punct(self, text: str) -> None:
        if not self.take(text):
            raise self._error(f"expected {text!r}")

    def expect_keyword(self, name: str) -> None:
        if not self.take(name):
            raise self._error(f"expected {name}")

    def expect_ident(self) -> str:
        if self.current.kind != TokenKind.IDENT:
            raise self._error("expected an identifier")
        return self.advance().text

    def expect_eof(self) -> None:
        if self.current.kind != TokenKind.EOF:
            raise self._error("unexpected trailing input")

    def _comma_separated(self, item: Callable) -> list:
        items = [item()]
        while self.take(","):
            items.append(item())
        return items

    def _bracketed(self, close: str, item: Callable) -> list:
        """Comma-separated items up to *close*, the opener already taken."""
        if self.take(close):
            return []
        items = self._comma_separated(item)
        self.expect_punct(close)
        return items

    # -- query structure -----------------------------------------------------------

    def parse_query(self) -> ast.Query:
        operations: list[ast.Operation] = []
        while True:
            tag = self.current.tag
            clause = _CLAUSES.get(tag)
            if clause is not None:
                self.advance()
                operations.append(clause(self))
            elif tag == "RETURN":
                self.advance()
                distinct = self.take("DISTINCT") is not None
                operations.append(ast.ReturnOp(self.parse_expr(), distinct))
                return ast.Query(operations)
            elif tag in _DML:
                self.advance()
                operations.append(self._parse_dml(*_DML[tag]))
                return ast.Query(operations)
            else:
                raise self._error(
                    "expected FOR/FILTER/LET/SORT/LIMIT/COLLECT/RETURN/"
                    "INSERT/UPDATE/REMOVE"
                )

    def _parse_dml(self, operation: type, no_in: bool, keywords: tuple):
        parts = [self.parse_expr(no_in=no_in)]
        for keyword in keywords[:-1]:
            self.expect_keyword(keyword)
            parts.append(self.parse_expr(no_in=no_in))
        self.expect_keyword(keywords[-1])
        return operation(*parts, self.expect_ident())

    def _parse_for(self) -> ast.Operation:
        var = self.expect_ident()
        edge_var = None
        if self.take(","):
            edge_var = self.expect_ident()
        self.expect_keyword("IN")
        # Shortest-path form: DIRECTION SHORTEST_PATH start TO goal GRAPH g
        direction = self.take(*_DIRECTIONS)
        if direction is not None:
            self.expect_keyword("SHORTEST_PATH")
            if edge_var is not None:
                raise self._error(
                    "SHORTEST_PATH traversals do not bind an edge variable"
                )
            start = self.parse_expr()
            self.expect_keyword("TO")
            goal = self.parse_expr()
            self.expect_keyword("GRAPH")
            graph = self.expect_ident()
            return ast.ShortestPathOp(
                var, direction.text.lower(), start, goal, graph
            )
        # Traversal form: min..max DIRECTION start GRAPH name [LABEL s]
        saved = self._position
        low_token = self.take(TokenKind.NUMBER)
        if low_token is not None:
            if self.take(".."):
                high_token = self.take(TokenKind.NUMBER)
                if high_token is None:
                    raise self._error("expected the traversal's max depth")
                direction = self.take(*_DIRECTIONS)
                if direction is None:
                    # Not a traversal after all — `FOR i IN 1..5` is a plain
                    # range loop; re-parse as an expression.
                    if edge_var is not None:
                        raise self._error(
                            "an edge variable (FOR v, e IN …) requires a "
                            "graph traversal"
                        )
                    self._position = saved
                    return ast.ForOp(var, self.parse_expr())
                start = self.parse_expr()
                self.expect_keyword("GRAPH")
                graph = self.expect_ident()
                label = None
                if self.take("LABEL"):
                    if self.current.kind != TokenKind.STRING:
                        raise self._error("LABEL takes a string")
                    label = self.advance().text
                return ast.TraversalOp(
                    var,
                    int(low_token.text),
                    int(high_token.text),
                    direction.text.lower(),
                    start,
                    graph,
                    label,
                    edge_var,
                )
            self._position = saved
        if edge_var is not None:
            raise self._error(
                "an edge variable (FOR v, e IN …) requires a graph traversal"
            )
        return ast.ForOp(var, self.parse_expr())

    def _parse_filter(self) -> ast.FilterOp:
        return ast.FilterOp(self.parse_expr())

    def _parse_let(self) -> ast.LetOp:
        var = self.expect_ident()
        if not self.take("="):
            raise self._error("expected = after LET variable")
        return ast.LetOp(var, self.parse_expr())

    def _parse_sort(self) -> ast.SortOp:
        return ast.SortOp(self._comma_separated(self._sort_key))

    def _sort_key(self) -> ast.SortKeySpec:
        expr = self.parse_expr()
        ascending = self.take("DESC") is None
        if ascending:
            self.take("ASC")
        return ast.SortKeySpec(expr, ascending)

    def _parse_limit(self) -> ast.LimitOp:
        first = self._limit_integer()
        if self.take(","):
            return ast.LimitOp(first, self._limit_integer())
        return ast.LimitOp(0, first)

    def _limit_integer(self) -> int:
        token = self.current
        if token.kind != TokenKind.NUMBER or not token.text.isdigit():
            raise self._error("LIMIT takes integers")
        return int(self.advance().text)

    def _parse_collect(self) -> ast.CollectOp:
        groups = []
        if self.current.kind == TokenKind.IDENT:
            groups = self._comma_separated(lambda: self._binding("COLLECT group"))
        aggregates = []
        if self.take("AGGREGATE"):
            aggregates = self._comma_separated(self._aggregate)
        count_into = None
        into = None
        if self.take("WITH"):
            self.expect_keyword("COUNT")
            self.expect_keyword("INTO")
            count_into = self.expect_ident()
        elif self.take("INTO"):
            into = self.expect_ident()
        if not groups and count_into is None and not aggregates:
            raise self._error(
                "COLLECT needs groups, AGGREGATE, or WITH COUNT INTO"
            )
        return ast.CollectOp(groups, count_into, into, aggregates)

    def _binding(self, clause: str) -> tuple[str, ast.Expr]:
        name = self.expect_ident()
        if not self.take("="):
            raise self._error(f"expected = in {clause}")
        return name, self.parse_expr()

    def _aggregate(self) -> tuple[str, str, ast.Expr]:
        name, call = self._binding("AGGREGATE clause")
        if not isinstance(call, ast.FuncCall) or len(call.args) != 1:
            raise self._error("AGGREGATE takes FUNC(expr) with one argument")
        return name, call.name, call.args[0]

    # -- expressions (precedence climbing) ---------------------------------------

    def parse_expr(self, no_in: bool = False) -> ast.Expr:
        """``no_in=True`` keeps a top-level IN keyword unconsumed (the
        UPDATE/REMOVE clauses use IN as a clause separator; parenthesized
        and bracketed subexpressions reset the flag)."""
        saved = self._no_in
        self._no_in = no_in
        try:
            return self._parse_binary(_TERNARY)
        finally:
            self._no_in = saved

    def _parse_binary(self, power: int) -> ast.Expr:
        """An expression of binding power *power* or more.

        A comparison takes one operand of its own level on each side: once
        the loop has applied a comparison or anything looser, or the
        operand was a NOT, a comparison operator ends the expression where
        it stands, for every enclosing level up to the caller."""
        tokens = self._tokens
        tag = tokens[self._position].tag
        comparable = True
        if tag == "-":
            self._position += 1
            left: ast.Expr = ast.UnaryOp("-", self._parse_binary(_UNARY))
        elif (tag == "NOT" or tag == "!") and power <= _COMPARE:
            self._position += 1
            left = ast.UnaryOp("NOT", self._parse_binary(_COMPARE))
            comparable = False
        else:
            left = self._parse_postfix(self._parse_primary())
        while True:
            infix = _INFIX.get(tokens[self._position].tag)
            if infix is None or infix[0] < power:
                return left
            strength, op = infix
            if strength == _COMPARE:
                if not comparable or (self._no_in and op in ("IN", "NOT")):
                    return left
                self._position += 1
                if op == "NOT":
                    if not self.take("IN"):
                        raise self._error("expected IN after NOT")
                    left = ast.UnaryOp(
                        "NOT", ast.BinOp("IN", left, self._parse_binary(_ADD))
                    )
                else:
                    left = ast.BinOp(op, left, self._parse_binary(_ADD))
                comparable = False
            elif strength == _TERNARY:
                self._position += 1
                then = self._parse_binary(_TERNARY)
                self.expect_punct(":")
                left = ast.Ternary(left, then, self._parse_binary(_TERNARY))
                comparable = False
            else:
                self._position += 1
                left = ast.BinOp(op, left, self._parse_binary(strength + 1))
                if strength < _COMPARE:
                    comparable = False

    def _parse_postfix(self, expr: ast.Expr, expansions: bool = True) -> ast.Expr:
        """*expr* followed by its ``.attr`` / ``[index]`` chain and, with
        *expansions*, ``[*]`` / ``[* FILTER cond]``.  The chain after
        ``expr[*]`` applies per element: it is parsed against the
        pseudo-variable ``$CURRENT``, without expansions, up to the next
        ``[*``."""
        tokens = self._tokens
        while True:
            tag = tokens[self._position].tag
            if tag == ".":
                self._position += 1
                if self.current.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise self._error("expected an attribute name after .")
                expr = ast.AttrAccess(expr, self.advance().text)
            elif tag == "[" and (expansions or tokens[self._position + 1].tag != "*"):
                self._position += 1
                if expansions and self.take("*"):
                    if self.take("FILTER"):
                        condition = self.parse_expr()
                        self.expect_punct("]")
                        expr = ast.InlineFilter(expr, condition)
                    else:
                        self.expect_punct("]")
                        current = ast.VarRef("$CURRENT")
                        suffix = self._parse_postfix(current, expansions=False)
                        expr = ast.Expansion(expr, None if suffix is current else suffix)
                else:
                    index = self.parse_expr()
                    self.expect_punct("]")
                    expr = ast.IndexAccess(expr, index)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        tag = token.tag
        if tag == TokenKind.IDENT:
            self._position += 1
            if self.current.tag == "(":
                return self._parse_call(token.text)
            return ast.VarRef(token.text)
        if tag == TokenKind.NUMBER:
            self._position += 1
            value = int(token.text) if token.text.isdigit() else float(token.text)
            if self.take(".."):
                high = self.parse_expr()
                return ast.RangeExpr(ast.Literal(value), high)
            return ast.Literal(value)
        if tag == TokenKind.STRING:
            self._position += 1
            return ast.Literal(token.text)
        if tag == TokenKind.BINDVAR:
            self._position += 1
            return ast.BindVar(token.text)
        if tag in _KEYWORD_LITERALS:
            self._position += 1
            return ast.Literal(_KEYWORD_LITERALS[tag])
        if tag == "SHORTEST_PATH" or tag == "COUNT":
            # keyword-named builtins usable as functions
            self._position += 1
            return self._parse_call(token.text)
        if tag == "(":
            self._position += 1
            if self.current.tag in _SUBQUERY_HEADS:
                query = self.parse_query()
                self.expect_punct(")")
                return ast.SubQuery(query)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if tag == "[":
            self._position += 1
            return ast.ArrayLiteral(tuple(self._bracketed("]", self.parse_expr)))
        if tag == "{":
            self._position += 1
            return ast.ObjectLiteral(
                tuple(self._bracketed("}", self._parse_object_pair))
            )
        raise self._error("expected an expression")

    def _parse_object_pair(self) -> tuple[str, ast.Expr]:
        token = self.current
        if token.kind in (TokenKind.IDENT, TokenKind.STRING, TokenKind.KEYWORD):
            key = self.advance().text
        else:
            raise self._error("expected an object key")
        if self.take(":"):
            return key, self.parse_expr()
        # Shorthand {name} == {name: name}
        return key, ast.VarRef(key)

    def _parse_call(self, name: str) -> ast.FuncCall:
        self.expect_punct("(")
        return ast.FuncCall(name.upper(), tuple(self._bracketed(")", self._argument)))

    def _argument(self) -> ast.Expr:
        # A bare subquery is allowed as a call argument:
        # FIRST(FOR x IN xs RETURN x).
        if self.current.tag in _SUBQUERY_HEADS:
            return ast.SubQuery(self.parse_query())
        return self.parse_expr()


#: The operations a query goes on after, by keyword (already taken).
_CLAUSES = {
    "FOR": _Parser._parse_for,
    "FILTER": _Parser._parse_filter,
    "LET": _Parser._parse_let,
    "SORT": _Parser._parse_sort,
    "LIMIT": _Parser._parse_limit,
    "COLLECT": _Parser._parse_collect,
}
