"""MMQL — the unified multi-model query language (challenge 2)."""

from repro.query.engine import explain_query, run_query
from repro.query.executor import ExecContext, Result, execute_stream
from repro.query.optimizer import optimize
from repro.query.parser import parse, parse_expression

__all__ = [
    "explain_query",
    "run_query",
    "ExecContext",
    "Result",
    "execute_stream",
    "optimize",
    "parse",
    "parse_expression",
]
