"""Statements: one text, lifted once, read by every layer — the engine,
the replica router, the server's gates and the cluster coordinator each
read a :class:`Statement` from a :class:`StatementMemo` (the plan cache is
one) instead of working out what the text is themselves.

``FILTER c.id == 7`` and ``FILTER c.id == 8`` plan the same.  A
statement's *shape* is its token stream with each value literal lifted into
a hidden bind parameter.  The plan cache keys on the shape (every kept
token's kind and text, ``$1``, ``$2``, … for the lifted literals, and their
model types), and each call hands its own literals to the shared plan as
the hidden binds' values.  ``pg_stat_statements`` normalization and Oracle's
``CURSOR_SHARING=FORCE`` are the same move.

Literals the parser or a rewrite rule reads for *structure* stay in the
shape as literals, so that a shared plan is the plan the literal text would
get:

* numbers on either side of ``..`` (traversal depths, ranges);
* the LIMIT offset and count, and the string after LABEL;
* the first argument of each store function (``visit.STORE_FUNCS``): it
  names the store (the coordinator places it, a router classifies it, and
  ``lookup_join`` wants ``DOCUMENT``'s and ``KV_GET``'s literal);
* a string object key (``{'a': 1}``, ``{'a'}``);
* an integer compared with a call (``LENGTH(x) > 0``: the existence tests
  ``decorrelate_subquery`` reads);
* a literal joined by an operator to another literal, and a number after a
  unary minus, so that constant folding still yields a ``Literal`` (which
  the columnar kernels and zone maps take).

TRUE, FALSE and NULL are keywords and never lift.  A hidden bind is named
by its ordinal (``1``, ``2``, …): MMQL wants a letter or ``_`` after ``@``,
so no statement can name one.

Finding a shape takes the lexer.  Texts that differ only in their literals
have one *skeleton* (:func:`skeleton`): the text with each string and
number literal replaced by a marker of its class, found by one regex pass
that also matches the comments (and keeps them), so no tokens are built.
:func:`learn` lifts the first text of a skeleton and records what
:func:`lift` decided for each literal position as a :class:`Template`;
every later text of the skeleton gets its shape from the template and its
own literals.  A template is made only when the skeleton's literals are,
offset for offset, the lexer's NUMBER and STRING tokens; otherwise the
skeleton is :data:`LIFT`, lifted on every call.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Optional

from repro.core.datamodel import TypeTag
from repro.errors import LexError, ParseError, ReproError
from repro.query.lexer import (
    COMMENT_PATTERN,
    NUMBER_PATTERN,
    STRING_PATTERN,
    Token,
    TokenKind,
    _unescape,
    tokenize,
)
from repro.query.parser import parse, parse_tokens
from repro.query.visit import STORE_FUNCS, contains_write, stores_named

__all__ = [
    "CLASSIFIED", "LIFT", "LITERAL", "Statement", "StatementMemo", "Template", "display",
    "learn", "lift", "literal_statement", "skeleton", "split_analyze",
]

_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_BINDVAR = TokenKind.BINDVAR
_NUMBER_TAG = int(TypeTag.NUMBER)
_STRING_TAG = int(TypeTag.STRING)

_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))
#: Operators constant folding collapses when both operands are literals.
_FOLDABLE = _COMPARISONS | {"+", "-", "*", "/", "%", "AND", "OR", "&&", "||"}
_KEYWORD_LITERALS = frozenset(("TRUE", "FALSE", "NULL"))
#: Tags of tokens an operand can end with: a ``-`` after one is binary.
_OPERAND_ENDS = frozenset(
    (")", "]", "}", "ident", _NUMBER, _STRING, _BINDVAR) + tuple(_KEYWORD_LITERALS)
)
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
#: Tags :func:`display` writes without a space before them.
_TIGHT_BEFORE = _CLOSERS | {",", ":", ".", ".."}


#: The prefix that runs a statement with per-operator probes; the one
#: place a text's ``EXPLAIN ANALYZE`` is recognized.
_EXPLAIN_ANALYZE = re.compile(r"^\s*EXPLAIN\s+ANALYZE\b", re.IGNORECASE)


def split_analyze(text: str) -> tuple[str, bool]:
    """``(text, analyze)``: *text* after its ``EXPLAIN ANALYZE`` prefix,
    and whether it had one."""
    match = _EXPLAIN_ANALYZE.match(text)
    if match:
        return text[match.end():], True
    return text, False


class Statement:
    """One statement's text, lifted.

    ``text`` and ``binds`` (the hidden binds' ``(name, model type tag)``
    pairs) go into the plan-cache key; ``values`` are this text's literals
    by hidden name.  A *literal* statement keeps every literal: its text is
    the statement's own, stripped, and it is planned from that — as is an
    *analyze* one, whose text is what follows ``EXPLAIN ANALYZE``.

    ``writes`` (DML anywhere, subqueries included), ``stores`` (the store
    names it reads, :func:`visit.stores_named`) and ``unnamed`` (some store
    is named by a bind or an expression, or read through an index) are
    None until :meth:`StatementMemo.classify` fills them in."""

    __slots__ = ("text", "binds", "values", "literal", "analyze", "writes", "stores", "unnamed")

    def __init__(self, text: str, binds: tuple, values: dict, literal=False, analyze=False):
        self.text = text
        self.binds = binds
        self.values = values
        self.literal = literal
        self.analyze = analyze
        self.writes = self.stores = self.unnamed = None


def literal_statement(text: str, analyze: bool = False) -> Statement:
    """The statement of *text* as it stands, planned from its exact text
    (stripped)."""
    return Statement(text.strip(), (), {}, literal=True, analyze=analyze)


def lift(text: str) -> tuple[Statement, list[Token]]:
    """Tokenize *text* and lift its value literals: its statement, and the
    token stream the parser reads, a hidden bind token in place of each
    lifted literal (raises :class:`~repro.errors.LexError` as
    :func:`tokenize` does)."""
    shape, tokens, _parts, _slots = _lift(tokenize(text))
    return shape, tokens


def _lift(tokens: list[Token]) -> tuple:
    """:func:`lift` over *tokens*, plus the shape text's ``parts`` and,
    per literal in order, ``(index of its part, hidden bind name)`` — the
    name None for a kept literal."""
    parts = []
    binds = []
    values = {}
    slots = []
    lifted = None
    for index in range(len(tokens) - 1):
        token = tokens[index]
        kind = token[0]
        body = token[1]
        if kind == _NUMBER or kind == _STRING:
            if _kept(tokens, index):
                slots.append((len(parts), None))
                parts.append(body if kind == _NUMBER else _quote(body))
                continue
            name = str(len(binds) + 1)
            if kind == _NUMBER:
                values[name] = int(body) if body.isdigit() else float(body)
                binds.append((name, _NUMBER_TAG))
            else:
                values[name] = body
                binds.append((name, _STRING_TAG))
            slots.append((len(parts), name))
            parts.append("$" + name)
            if lifted is None:
                lifted = list(tokens)
            lifted[index] = Token(_BINDVAR, name, token[2], token[3], _BINDVAR)
        elif kind == _BINDVAR:
            parts.append("@" + body)
        else:
            parts.append(body)
    shape = Statement(" ".join(parts), tuple(binds), values)
    return shape, lifted or tokens, parts, slots


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

#: Finds what the lexer would read as a string or number literal, and the
#: comments (kept as they are, so a quote or digit in one is not a
#: literal).  A number never starts inside a word (``c1``, ``@p2``).  The
#: lookahead lets the scan skip, in C, every position no match starts at.
_SKELETON_RE = re.compile(
    r"(?=[/'\"\d])(?:(?P<comment>%s)|(?P<string>%s)|(?<!\w)(?P<number>%s))"
    % (COMMENT_PATTERN, STRING_PATTERN, NUMBER_PATTERN),
    re.DOTALL,
)
#: A skeleton marks each literal by its class: :func:`_kept` reads
#: whether a number is an integer.  Only a comment or a string can hold
#: the marker character, and a text that does is given no skeleton.
_MARK = "\x00"
_INTEGER = _MARK + "i"
_DECIMAL = _MARK + "d"
_STRING_MARK = _MARK + "s"

#: Skeleton-memo verdicts besides a :class:`Template`: the skeleton's
#: literals are not the lexer's, so lift every call; its lifted tokens did
#: not parse, so plan every text of it from its literal text.
LIFT = "lift"
LITERAL = "literal"


def skeleton(text: str) -> tuple:
    """``(key, literals)``: *text* with each string and number literal
    replaced by a marker of its class (integer, decimal, string), and the
    literals as written, in order.  One regex pass, no tokens.  The key is
    None when *text* holds the marker character."""
    if _MARK in text:
        return None, ()
    parts = []
    literals = []
    last = 0
    for match in _SKELETON_RE.finditer(text):
        kind = match.lastgroup
        if kind == "comment":
            continue
        start, end = match.span()
        literal = text[start:end]
        parts.append(text[last:start])
        parts.append(
            _STRING_MARK if kind == "string"
            else _INTEGER if literal.isdigit() else _DECIMAL
        )
        literals.append(literal)
        last = end
    parts.append(text[last:])
    return "".join(parts), literals


class Template:
    """What :func:`lift` decided for each literal of one skeleton, so
    that a text of the skeleton gets its shape without the lexer.

    ``names`` holds, per literal in order, its hidden bind name, or None
    for a literal kept in the shape; ``pieces`` is the shape text cut at
    each kept literal; ``binds`` is the shape's bind shape."""

    __slots__ = ("pieces", "names", "binds")

    def __init__(self, pieces: list, names: tuple, binds: tuple):
        self.pieces = pieces
        self.names = names
        self.binds = binds

    def shape(self, literals: list) -> Statement:
        """The statement of the text whose skeleton's literals are
        *literals*: the one :func:`lift` gives it."""
        values = {}
        text = self.pieces[0]
        piece = 1
        for literal, name in zip(literals, self.names):
            if name is not None:
                values[name] = _value(literal)
            else:
                text += (
                    literal if literal[0] not in "'\"" else _quote(_body(literal))
                ) + self.pieces[piece]
                piece += 1
        return Statement(text, self.binds, values)


def learn(text: str) -> tuple:
    """``(shape, tokens, template)``: :func:`lift`'s answer for *text*,
    and the :class:`Template` of its skeleton — :data:`LIFT` when the
    skeleton's literals are not, offset for offset, the lexer's NUMBER
    and STRING tokens."""
    tokens = tokenize(text)
    shape, lifted, parts, slots = _lift(tokens)
    if _literal_offsets(text, tokens) != [
        match.start() for match in _SKELETON_RE.finditer(text)
        if match.lastgroup != "comment"
    ]:
        return shape, lifted, LIFT
    for index, name in slots:
        if name is None:
            parts[index] = _MARK
    pieces = " ".join(parts).split(_MARK)
    names = tuple(name for _index, name in slots)
    return shape, lifted, Template(pieces, names, shape.binds)


def _literal_offsets(text: str, tokens: list[Token]) -> list[int]:
    """Where in *text* each NUMBER and STRING token starts."""
    line_starts = [0] + [match.end() for match in re.finditer("\n", text)]
    return [
        line_starts[token[2] - 1] + token[3] - 1
        for token in tokens
        if token[0] == _NUMBER or token[0] == _STRING
    ]


def _body(literal: str) -> str:
    body = literal[1:-1]
    return _unescape(body) if "\\" in body else body


def _value(literal: str):
    """A literal's value, as the lexer and :func:`lift` read it."""
    if literal[0] in "'\"":
        return _body(literal)
    return int(literal) if literal.isdigit() else float(literal)


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------

#: The fewest shapes whose classification a :class:`StatementMemo` keeps:
#: a router or a server gate that sees up to this many shapes parses each
#: once, whatever the capacity of the memo.
CLASSIFIED = 1024


class StatementMemo:
    """Text → :class:`Statement`, made once.

    Three memos spare a text the lexer and the parser: the exact-text memo
    answers a repeated text with one dict probe; the skeleton memo answers
    a text whose literals alone are new with one regex pass
    (:func:`skeleton`) and the :class:`Template` :func:`learn` filled for
    its skeleton's first text; the shape memo holds each shape's
    classification, so :meth:`classify` parses once per shape.  The first
    two hold *capacity* entries, oldest out first; the shape memo holds
    at least :data:`CLASSIFIED`, least recently used out first, so a
    server whose plan cache is small (or off) still classifies each shape
    once.  Only a new skeleton is tokenized, so a lexer error keeps its
    line and column."""

    def __init__(self, capacity: int = 128):
        self.capacity = max(int(capacity), 0)
        #: Statement text → :class:`Statement`, oldest first.
        self._shapes: dict[str, Statement] = {}
        #: Skeleton → :class:`Template`, or :data:`LIFT` / :data:`LITERAL`.
        self._skeletons: dict[str, Any] = {}
        #: Shape text → ``(writes, stores, unnamed)``.
        self._kinds: dict[str, tuple] = {}
        self._lock = threading.Lock()

    def statement(self, text: str, remember: bool = True) -> tuple:
        """``(statement, tokens)``: the statement *text* plans under, and
        the token stream to parse it from — None when a memo gave the
        statement and spared the lexer (*remember* False leaves the memos
        as they are)."""
        statement = self._shapes.get(text)
        if statement is not None:
            return statement, None
        source, analyze = split_analyze(text)
        key, literals = (None, ()) if analyze else skeleton(text)
        template = LITERAL if analyze else self._skeletons.get(key)
        if template is None:
            statement, tokens, template = learn(text)
        elif template is LIFT:
            statement, tokens = lift(text)
            key = None
        else:
            statement = (
                literal_statement(source, analyze) if template is LITERAL
                else template.shape(literals)
            )
            tokens = key = None
        if remember:
            with self._lock:
                self._shapes[text] = statement
                if key is not None:
                    self._skeletons[key] = template
                self._trim()
        return statement, tokens

    def plan_literally(self, text: str) -> Statement:
        """From now on plan *text*, and every text of its skeleton, as it
        stands: its lifted tokens did not parse, so the user's own tokens
        decide."""
        statement = literal_statement(text)
        key = skeleton(text)[0]
        with self._lock:
            self._shapes[text] = statement
            self._trim()
            # A skeleton lifted every call stays so: its texts may lex
            # apart.
            if isinstance(self._skeletons.get(key), Template):
                self._skeletons[key] = LITERAL
        return statement

    @staticmethod
    def tokens(text: str, statement: Statement, tokens: Optional[list]) -> Optional[list]:
        """The tokens *statement* is parsed from: *tokens*, else *text*
        lifted again (the memo spared the lexer); None when literal."""
        if statement.literal:
            return None
        return tokens if tokens is not None else lift(text)[1]

    def parse(self, text: str, statement: Statement, tokens: Optional[list]) -> tuple:
        """``(query, statement)``: *text* parsed as *statement* plans it —
        from its lifted *tokens* (:meth:`tokens`), or from its own text
        when it is literal.  When the lifted tokens do not parse, the
        user's tokens decide: *text* is parsed (raising the user's error)
        and planned literally from now on, and the statement returned is
        the literal one."""
        if statement.literal:
            return parse(statement.text if statement.analyze else text), statement
        try:
            return parse_tokens(tokens), statement
        except ParseError:
            if not statement.binds:
                raise
        return parse(text), self.plan_literally(text)

    def classify(self, text: str) -> Statement:
        """*text*'s statement with ``writes``, ``stores`` and ``unnamed``
        filled in, from one parse per shape.  A text that does not lex or
        parse classifies as a read of nothing."""
        try:
            statement, tokens = self.statement(text)
        except LexError:
            statement, tokens = literal_statement(text), None
        if statement.writes is None:
            kind = self._kinds.get(statement.text)
            if kind is None:
                try:
                    tokens = self.tokens(text, statement, tokens)
                    query = self.parse(text, statement, tokens)[0]
                    kind = (contains_write(query), *stores_named(query))
                except ReproError:  # a read of nothing: the engine raises the error
                    kind = (False, frozenset(), False)
            with self._lock:  # (re)inserted: the newest used
                self._kinds.pop(statement.text, None)
                self._kinds[statement.text] = kind
                self._trim()
            # ``writes`` last: another thread takes it as the sign that
            # the statement is classified.
            statement.stores, statement.unnamed = kind[1:]
            statement.writes = kind[0]
        return statement

    def _trim(self) -> None:
        """Drop each memo's oldest entries past its bound (lock held)."""
        for memo in (self._shapes, self._skeletons, self._kinds):
            bound = max(self.capacity, CLASSIFIED) if memo is self._kinds else self.capacity
            while len(memo) > bound:
                del memo[next(iter(memo))]


def display(tokens: list[Token]) -> str:
    """A lifted token stream as ``.plancache`` lists it: the literals as
    ``$1``, ``$2``, …, the tokens spaced the way one writes them."""
    out = []
    glue = True
    for index in range(len(tokens) - 1):
        token = tokens[index]
        tag = token.tag
        if not glue and tag not in _TIGHT_BEFORE and not (
            tag == "(" and tokens[index - 1].kind == TokenKind.IDENT
        ):
            out.append(" ")
        out.append(_render(token))
        glue = tag in _OPENERS or tag == "." or tag == ".." or (
            tag == "-" and not _operand_end(tokens, index - 1)
        )
    return "".join(out)


def _quote(body: str) -> str:
    return "'" + body.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _render(token: Token) -> str:
    kind = token.kind
    if kind == _STRING:
        return _quote(token.text)
    if kind == _BINDVAR:
        return ("$" if token.text[0].isdigit() else "@") + token.text
    return token.text


def _operand_end(tokens: list, index: int) -> bool:
    """True when the token at *index* can end an operand (an attribute
    name after ``.`` may be a keyword)."""
    if index < 0:
        return False
    token = tokens[index]
    return token.tag in _OPERAND_ENDS or (
        token.kind == TokenKind.KEYWORD and index > 0 and tokens[index - 1].tag == "."
    )


def _literal_at(tokens: list, index: int) -> bool:
    if index < 0 or index >= len(tokens):
        return False
    token = tokens[index]
    return (
        token.kind == _NUMBER
        or token.kind == _STRING
        or token.tag in _KEYWORD_LITERALS
    )


def _call_at(tokens: list, index: int) -> bool:
    return (
        index + 1 < len(tokens)
        and (tokens[index].kind == TokenKind.IDENT or tokens[index].tag == "COUNT")
        and tokens[index + 1].tag == "("
    )


def _innermost_opener(tokens: list, index: int):
    """The bracket the token at *index* sits directly inside, or None."""
    depth = 0
    for position in range(index - 1, -1, -1):
        tag = tokens[position].tag
        if tag in _CLOSERS:
            depth += 1
        elif tag in _OPENERS:
            if not depth:
                return tag
            depth -= 1
    return None


def _kept(tokens: list, index: int) -> bool:
    """True when the literal at *index* is read for structure (see the
    module docstring) and so stays in the shape."""
    before = tokens[index - 1].tag if index else ""
    after = tokens[index + 1].tag
    if before == ".." or after == "..":
        return True
    if before in _FOLDABLE:
        if before == "-" and not _operand_end(tokens, index - 2):
            if tokens[index].kind == _NUMBER:  # unary minus
                return True
        elif _literal_at(tokens, index - 2):
            return True
    if after in _FOLDABLE and (
        _literal_at(tokens, index + 2)
        or (tokens[index + 2].tag == "-" and tokens[index + 3].kind == _NUMBER)
    ):
        return True
    if tokens[index].kind == _NUMBER:
        if before == "LIMIT" or (
            before == "," and index >= 3 and tokens[index - 3].tag == "LIMIT"
        ):
            return True
        return tokens[index].text.isdigit() and (
            (before in _COMPARISONS and tokens[index - 2].tag == ")")
            or (after in _COMPARISONS and _call_at(tokens, index + 2))
        )
    if before == "LABEL":
        return True
    if (
        before == "("
        and index >= 2
        and tokens[index - 2].kind == TokenKind.IDENT
        and tokens[index - 2].text.upper() in STORE_FUNCS
    ):
        return True
    return (before == "{" or before == ",") and _innermost_opener(
        tokens, index
    ) == "{"
