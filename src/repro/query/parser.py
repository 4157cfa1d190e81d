"""MMQL recursive-descent parser (Pratt expressions).

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

    expr       := ternary-free Pratt expression with the precedence ladder
                  OR < AND < NOT < comparison (== != < <= > >= IN LIKE)
                  < additive (+ -) < multiplicative (* / %) < unary (-)
                  < postfix (.attr, [index], [*], [* FILTER cond], call)
    primary    := literal | ident | @bindvar | '(' query-or-expr ')'
                | '[' exprs ']' | '{' pairs '}' | ident '(' args ')'

A parenthesized ``(FOR … RETURN …)`` is a subquery expression — the AQL
idiom the running example uses for its LET clauses (slide 28).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.query import ast
from repro.query.lexer import Token, TokenKind, tokenize

__all__ = ["parse", "parse_expression"]


def parse(text: str) -> ast.Query:
    """Parse a full MMQL query."""
    parser = _Parser(tokenize(text))
    query = parser.parse_query(top_level=True)
    parser.expect_eof()
    return query


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


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
        token = self.current
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

    def match_punct(self, text: str) -> bool:
        if self.current.kind == TokenKind.PUNCT and self.current.text == text:
            self.advance()
            return True
        return False

    def match_op(self, *texts: str) -> Optional[str]:
        if self.current.kind == TokenKind.OPERATOR and self.current.text in texts:
            return self.advance().text
        return None

    def match_keyword(self, *names: str) -> Optional[str]:
        if self.current.is_keyword(*names):
            return self.advance().text
        return None

    def expect_punct(self, text: str) -> None:
        if not self.match_punct(text):
            raise self._error(f"expected {text!r}")

    def expect_keyword(self, name: str) -> None:
        if not self.match_keyword(name):
            raise self._error(f"expected {name}")

    def expect_ident(self) -> str:
        if self.current.kind != TokenKind.IDENT:
            raise self._error("expected an identifier")
        return self.advance().text

    def expect_eof(self) -> None:
        if self.current.kind != TokenKind.EOF:
            raise self._error("unexpected trailing input")

    # -- query structure -----------------------------------------------------------

    def parse_query(self, top_level: bool = False) -> ast.Query:
        operations: list[ast.Operation] = []
        while True:
            token = self.current
            if token.is_keyword("FOR"):
                operations.append(self._parse_for())
            elif token.is_keyword("FILTER"):
                self.advance()
                operations.append(ast.FilterOp(self.parse_expr()))
            elif token.is_keyword("LET"):
                operations.append(self._parse_let())
            elif token.is_keyword("SORT"):
                operations.append(self._parse_sort())
            elif token.is_keyword("LIMIT"):
                operations.append(self._parse_limit())
            elif token.is_keyword("COLLECT"):
                operations.append(self._parse_collect())
            elif token.is_keyword("RETURN"):
                self.advance()
                distinct = bool(self.match_keyword("DISTINCT"))
                operations.append(ast.ReturnOp(self.parse_expr(), distinct))
                break
            elif token.is_keyword("INSERT"):
                self.advance()
                document = self.parse_expr()
                self.expect_keyword("INTO")
                operations.append(ast.InsertOp(document, self.expect_ident()))
                break
            elif token.is_keyword("UPDATE"):
                self.advance()
                key = self.parse_expr(no_in=True)
                self.expect_keyword("WITH")
                changes = self.parse_expr(no_in=True)
                self.expect_keyword("IN")
                operations.append(ast.UpdateOp(key, changes, self.expect_ident()))
                break
            elif token.is_keyword("REMOVE"):
                self.advance()
                key = self.parse_expr(no_in=True)
                self.expect_keyword("IN")
                operations.append(ast.RemoveOp(key, self.expect_ident()))
                break
            elif token.is_keyword("REPLACE"):
                self.advance()
                key = self.parse_expr(no_in=True)
                self.expect_keyword("WITH")
                document = self.parse_expr(no_in=True)
                self.expect_keyword("IN")
                operations.append(
                    ast.ReplaceOp(key, document, self.expect_ident())
                )
                break
            elif token.is_keyword("UPSERT"):
                self.advance()
                search = self.parse_expr()
                self.expect_keyword("INSERT")
                insert_doc = self.parse_expr()
                self.expect_keyword("UPDATE")
                update_patch = self.parse_expr()
                self.expect_keyword("INTO")
                operations.append(
                    ast.UpsertOp(search, insert_doc, update_patch, self.expect_ident())
                )
                break
            else:
                raise self._error(
                    "expected FOR/FILTER/LET/SORT/LIMIT/COLLECT/RETURN/"
                    "INSERT/UPDATE/REMOVE"
                )
        if not operations:
            raise self._error("empty query")
        return ast.Query(operations)

    def _parse_for(self) -> ast.Operation:
        self.expect_keyword("FOR")
        var = self.expect_ident()
        edge_var = None
        if self.match_punct(","):
            edge_var = self.expect_ident()
        self.expect_keyword("IN")
        # Shortest-path form: DIRECTION SHORTEST_PATH start TO goal GRAPH g
        direction = self.match_keyword("OUTBOUND", "INBOUND", "ANY")
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
                var, direction.lower(), start, goal, graph
            )
        # Traversal form: min..max DIRECTION start GRAPH name [LABEL s]
        saved = self._position
        if self.current.kind == TokenKind.NUMBER:
            low_token = self.advance()
            if self.match_op(".."):
                if self.current.kind != TokenKind.NUMBER:
                    raise self._error("expected the traversal's max depth")
                high_token = self.advance()
                direction = self.match_keyword("OUTBOUND", "INBOUND", "ANY")
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
                if self.match_keyword("LABEL"):
                    if self.current.kind != TokenKind.STRING:
                        raise self._error("LABEL takes a string")
                    label = self.advance().text
                return ast.TraversalOp(
                    var,
                    int(low_token.text),
                    int(high_token.text),
                    direction.lower(),
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

    def _parse_let(self) -> ast.LetOp:
        self.expect_keyword("LET")
        var = self.expect_ident()
        if not self.match_op("="):
            raise self._error("expected = after LET variable")
        return ast.LetOp(var, self.parse_expr())

    def _parse_sort(self) -> ast.SortOp:
        self.expect_keyword("SORT")
        keys = []
        while True:
            expr = self.parse_expr()
            ascending = True
            if self.match_keyword("DESC"):
                ascending = False
            else:
                self.match_keyword("ASC")
            keys.append(ast.SortKeySpec(expr, ascending))
            if not self.match_punct(","):
                break
        return ast.SortOp(keys)

    def _parse_limit(self) -> ast.LimitOp:
        self.expect_keyword("LIMIT")
        first = self._limit_integer()
        if self.match_punct(","):
            return ast.LimitOp(first, self._limit_integer())
        return ast.LimitOp(0, first)

    def _limit_integer(self) -> int:
        token = self.current
        if token.kind != TokenKind.NUMBER or not token.text.isdigit():
            raise self._error("LIMIT takes integers")
        return int(self.advance().text)

    def _parse_collect(self) -> ast.CollectOp:
        self.expect_keyword("COLLECT")
        groups = []
        if self.current.kind == TokenKind.IDENT:
            while True:
                name = self.expect_ident()
                if not self.match_op("="):
                    raise self._error("expected = in COLLECT group")
                groups.append((name, self.parse_expr()))
                if not self.match_punct(","):
                    break
        aggregates: list[tuple[str, str, ast.Expr]] = []
        if self.match_keyword("AGGREGATE"):
            while True:
                name = self.expect_ident()
                if not self.match_op("="):
                    raise self._error("expected = in AGGREGATE clause")
                call = self.parse_expr()
                if not isinstance(call, ast.FuncCall) or len(call.args) != 1:
                    raise self._error(
                        "AGGREGATE takes FUNC(expr) with one argument"
                    )
                aggregates.append((name, call.name, call.args[0]))
                if not self.match_punct(","):
                    break
        count_into = None
        into = None
        if self.match_keyword("WITH"):
            self.expect_keyword("COUNT")
            self.expect_keyword("INTO")
            count_into = self.expect_ident()
        elif self.match_keyword("INTO"):
            into = self.expect_ident()
        if not groups and count_into is None and not aggregates:
            raise self._error(
                "COLLECT needs groups, AGGREGATE, or WITH COUNT INTO"
            )
        return ast.CollectOp(groups, count_into, into, aggregates)

    # -- expressions (Pratt) -----------------------------------------------------------

    def parse_expr(self, no_in: bool = False) -> ast.Expr:
        """``no_in=True`` keeps a top-level IN keyword unconsumed (the
        UPDATE/REMOVE clauses use IN as a clause separator; parenthesized
        and bracketed subexpressions reset the flag)."""
        saved = self._no_in
        self._no_in = no_in
        try:
            return self._parse_ternary()
        finally:
            self._no_in = saved

    def _parse_ternary(self) -> ast.Expr:
        condition = self._parse_or()
        if self.match_punct("?"):
            then = self._parse_ternary()
            self.expect_punct(":")
            otherwise = self._parse_ternary()
            return ast.Ternary(condition, then, otherwise)
        return condition

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.match_keyword("OR") or self.match_op("||"):
            left = ast.BinOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.match_keyword("AND") or self.match_op("&&"):
            left = ast.BinOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.match_keyword("NOT") or self.match_op("!"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        op = self.match_op(*_COMPARISON_OPS)
        if op is not None:
            return ast.BinOp(op, left, self._parse_additive())
        if not self._no_in and self.match_keyword("IN"):
            return ast.BinOp("IN", left, self._parse_additive())
        if self.match_keyword("LIKE"):
            return ast.BinOp("LIKE", left, self._parse_additive())
        if not self._no_in and self.match_keyword("NOT"):
            if self.match_keyword("IN"):
                return ast.UnaryOp(
                    "NOT", ast.BinOp("IN", left, self._parse_additive())
                )
            raise self._error("expected IN after NOT")
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            op = self.match_op("+", "-")
            if op is None:
                return left
            left = ast.BinOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op = self.match_op("*", "/", "%")
            if op is None:
                return left
            left = ast.BinOp(op, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expr:
        if self.match_op("-"):
            return ast.UnaryOp("-", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self.match_punct("."):
                if self.current.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise self._error("expected an attribute name after .")
                expr = ast.AttrAccess(expr, self.advance().text)
            elif self.match_punct("["):
                if self.current.kind == TokenKind.OPERATOR and self.current.text == "*":
                    self.advance()
                    if self.match_keyword("FILTER"):
                        condition = self.parse_expr()
                        self.expect_punct("]")
                        expr = ast.InlineFilter(expr, condition)
                    else:
                        self.expect_punct("]")
                        expr = self._parse_expansion_suffix(expr)
                else:
                    index = self.parse_expr()
                    self.expect_punct("]")
                    expr = ast.IndexAccess(expr, index)
            else:
                return expr

    def _parse_expansion_suffix(self, subject: ast.Expr) -> ast.Expr:
        """After ``expr[*]``, a chain like ``.a.b[0]`` applies per element;
        it is parsed against the pseudo-variable ``$CURRENT``."""
        suffix: ast.Expr = ast.VarRef("$CURRENT")
        has_suffix = False
        while True:
            if self.match_punct("."):
                if self.current.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise self._error("expected an attribute name after .")
                suffix = ast.AttrAccess(suffix, self.advance().text)
                has_suffix = True
            elif (
                self.current.kind == TokenKind.PUNCT
                and self.current.text == "["
                and self._peek_is_index()
            ):
                self.advance()
                index = self.parse_expr()
                self.expect_punct("]")
                suffix = ast.IndexAccess(suffix, index)
                has_suffix = True
            else:
                break
        return ast.Expansion(subject, suffix if has_suffix else None)

    def _peek_is_index(self) -> bool:
        next_token = self._tokens[self._position + 1]
        return not (
            next_token.kind == TokenKind.OPERATOR and next_token.text == "*"
        )

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == TokenKind.NUMBER:
            self.advance()
            value = int(token.text) if token.text.isdigit() else float(token.text)
            if self.match_op(".."):
                high = self.parse_expr()
                return ast.RangeExpr(ast.Literal(value), high)
            return ast.Literal(value)
        if token.kind == TokenKind.STRING:
            self.advance()
            return ast.Literal(token.text)
        if token.kind == TokenKind.BINDVAR:
            self.advance()
            return ast.BindVar(token.text)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("SHORTEST_PATH", "COUNT"):
            # keyword-named builtins usable as functions
            self.advance()
            return self._parse_call(token.text)
        if token.kind == TokenKind.IDENT:
            self.advance()
            if self.current.kind == TokenKind.PUNCT and self.current.text == "(":
                return self._parse_call(token.text)
            return ast.VarRef(token.text)
        if self.match_punct("("):
            if self.current.is_keyword(
                "FOR", "LET", "RETURN", "FILTER", "SORT", "COLLECT", "LIMIT"
            ):
                query = self.parse_query()
                self.expect_punct(")")
                return ast.SubQuery(query)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if self.match_punct("["):
            items = []
            if not self.match_punct("]"):
                while True:
                    items.append(self.parse_expr())
                    if not self.match_punct(","):
                        break
                self.expect_punct("]")
            return ast.ArrayLiteral(tuple(items))
        if self.match_punct("{"):
            pairs = []
            if not self.match_punct("}"):
                while True:
                    pairs.append(self._parse_object_pair())
                    if not self.match_punct(","):
                        break
                self.expect_punct("}")
            return ast.ObjectLiteral(tuple(pairs))
        raise self._error("expected an expression")

    def _parse_object_pair(self) -> tuple[str, ast.Expr]:
        token = self.current
        if token.kind in (TokenKind.IDENT, TokenKind.STRING, TokenKind.KEYWORD):
            key = self.advance().text
        else:
            raise self._error("expected an object key")
        if self.match_punct(":"):
            return key, self.parse_expr()
        # Shorthand {name} == {name: name}
        return key, ast.VarRef(key)

    def _parse_call(self, name: str) -> ast.FuncCall:
        self.expect_punct("(")
        args = []
        if not self.match_punct(")"):
            while True:
                # A bare subquery is allowed as a call argument:
                # FIRST(FOR x IN xs RETURN x).
                if self.current.is_keyword(
                    "FOR", "LET", "RETURN", "FILTER", "SORT", "COLLECT", "LIMIT"
                ):
                    args.append(ast.SubQuery(self.parse_query()))
                else:
                    args.append(self.parse_expr())
                if not self.match_punct(","):
                    break
            self.expect_punct(")")
        return ast.FuncCall(name.upper(), tuple(args))
