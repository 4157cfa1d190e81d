"""MMQL lexer.

MMQL is the engine's unified query language (challenge 2, slide 92): an
AQL-flavoured language — "SQL-like + concept of loops" (slide 71) — with
graph traversals, JSON path access and cross-model function calls.  The
lexer turns query text into a token stream with line/column positions for
error messages, in one ``finditer`` pass: a catch-all last alternative
matches the stray character no token starts with.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import LexError

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    """
    FOR IN FILTER LET RETURN SORT LIMIT COLLECT WITH INTO
    INSERT UPDATE REMOVE UPSERT REPLACE
    ASC DESC DISTINCT
    OUTBOUND INBOUND ANY GRAPH LABEL SHORTEST_PATH TO
    AND OR NOT LIKE
    TRUE FALSE NULL
    COUNT AGGREGATE
    """.split()
)


class TokenKind:
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    BINDVAR = "bindvar"
    OPERATOR = "op"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    """``tag`` is what the parser dispatches on: a keyword's upper-case
    name, an operator's or punctuation's text, else the (lower-case) kind."""

    kind: str
    text: str
    line: int
    column: int
    tag: str

    def is_keyword(self, *names: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.tag in names

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


#: The comment and literal patterns, shared with the skeleton pass of
#: :mod:`repro.query.shapes` so that both find the same literals.
COMMENT_PATTERN = r"//[^\n]*|/\*.*?\*/"
NUMBER_PATTERN = r"\d+(?:\.\d+)?[eE][+-]?\d+|\d+\.\d+|\d+"
STRING_PATTERN = r"""'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*\""""

# Group names double as token kinds, but for comment, space, ident, error.
_TOKEN_RE = re.compile(
    r"""
    (?P<comment>%s)
  | (?P<space>\s+)
  | (?P<number>%s)
  | (?P<string>%s)
  | (?P<bindvar>@[A-Za-z_]\w*)
  | (?P<ident>\$?[A-Za-z_]\w*)
  | (?P<op>\.\.|==|!=|<=|>=|&&|\|\||=~|[+\-*/%%<>=!])
  | (?P<punct>[()\[\]{},:.?])
  | (?P<error>.)
""" % (COMMENT_PATTERN, NUMBER_PATTERN, STRING_PATTERN),
    re.VERBOSE | re.DOTALL,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}


def _unescape(body: str) -> str:
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


def tokenize(text: str) -> list[Token]:
    """Tokenize MMQL text; raises :class:`LexError` on stray characters."""
    tokens: list[Token] = []
    append = tokens.append
    # Token's own constructor is a Python-level function; this is not.
    new = tuple.__new__
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "space" or kind == "comment":
            if "\n" in value:
                line += value.count("\n")
                line_start = match.start() + value.rfind("\n") + 1
            continue
        start = match.start()
        column = start - line_start + 1
        if kind == "ident":
            upper = value.upper()
            if upper in KEYWORDS:
                append(new(Token, ("keyword", value, line, column, upper)))
            else:
                append(new(Token, ("ident", value, line, column, "ident")))
        elif kind == "op" or kind == "punct":
            append(new(Token, (kind, value, line, column, value)))
        elif kind == "number":
            append(new(Token, (kind, value, line, column, kind)))
        elif kind == "string":
            body = value[1:-1]
            if "\\" in body:
                body = _unescape(body)
            append(new(Token, (kind, body, line, column, kind)))
            if "\n" in value:
                line += value.count("\n")
                line_start = start + value.rfind("\n") + 1
        elif kind == "bindvar":
            append(new(Token, (kind, value[1:], line, column, kind)))
        else:
            raise LexError(f"unexpected character {value!r}", line, column)
    append(Token(TokenKind.EOF, "", line, len(text) - line_start + 1, TokenKind.EOF))
    return tokens
