"""MMQL lexer.

MMQL is the engine's unified query language (challenge 2, slide 92): an
AQL-flavoured language — "SQL-like + concept of loops" (slide 71) — with
graph traversals, JSON path access and cross-model function calls.  The
lexer turns query text into a token stream with line/column positions for
error messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text.upper() in names

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


_TOKEN_RE = re.compile(
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


def _unescape(raw: str) -> str:
    body = raw[1:-1]
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
    line = 1
    line_start = 0
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            raise LexError(
                f"unexpected character {text[position]!r}", line, column
            )
        column = position - line_start + 1
        kind = match.lastgroup
        value = match.group()
        position = match.end()
        if kind in ("space", "comment"):
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = position - len(value) + value.rfind("\n") + 1
            continue
        if kind == "number":
            tokens.append(Token(TokenKind.NUMBER, value, line, column))
        elif kind == "string":
            tokens.append(Token(TokenKind.STRING, _unescape(value), line, column))
        elif kind == "bindvar":
            tokens.append(Token(TokenKind.BINDVAR, value[1:], line, column))
        elif kind == "ident":
            if value.upper() in KEYWORDS:
                # Keywords keep their source spelling; is_keyword compares
                # case-insensitively, and object keys keep the user's case.
                tokens.append(Token(TokenKind.KEYWORD, value, line, column))
            else:
                tokens.append(Token(TokenKind.IDENT, value, line, column))
        elif kind == "op":
            tokens.append(Token(TokenKind.OPERATOR, value, line, column))
        elif kind == "punct":
            tokens.append(Token(TokenKind.PUNCT, value, line, column))
    tokens.append(Token(TokenKind.EOF, "", line, position - line_start + 1))
    return tokens
