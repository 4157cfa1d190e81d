"""The correctness oracle.

Expected rows come from an embedded database of the driver's own, loaded
with the same data and run in the plainest configuration the engine has:
``optimize_query=False``, ``batch_size=1``, ``columnar=False``.  Embedded,
wire and cluster results are all compared against it.  Q1 is additionally
checked against the hand-written ``workload_b_api``.

Rows compare order-insensitively unless the statement SORTs.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.core.database import MultiModelDB
from repro.query.engine import run_query
from repro.unibench.generator import load_into_multimodel
from repro.unibench.workloads import workload_b_api

from workloads import MODEL_CHECKED


def _canonical(row) -> str:
    return json.dumps(row, sort_keys=True, default=str)


class Expected:
    """The rows one (statement, binds) pair must return."""

    __slots__ = ("rows", "ordered", "_bag", "_accepted")

    def __init__(self, rows: list, ordered: bool):
        self.rows = rows
        self.ordered = ordered
        self._bag = None
        #: Row orders already proven bag-equal, so the engine's usual
        #: order costs one list comparison, not a canonicalisation.
        self._accepted: list = []

    def check(self, rows) -> "str | None":
        """None when *rows* are right, else what is wrong."""
        if rows == self.rows:
            return None
        if not self.ordered:
            for known in self._accepted:
                if rows == known:
                    return None
            if self._bag is None:
                self._bag = Counter(_canonical(row) for row in self.rows)
            if Counter(_canonical(row) for row in rows) == self._bag:
                if len(self._accepted) < 4:
                    self._accepted.append(list(rows))
                return None
        return (
            f"rows differ from the oracle: got {len(rows)}, "
            f"expected {len(self.rows)}"
        )


class Oracle:
    """Computes and caches expected rows on a reference database."""

    def __init__(self, data):
        self.db = MultiModelDB()
        load_into_multimodel(self.db, data)
        self._cache: dict = {}

    def expected(self, op) -> Expected:
        key = op.key()
        found = self._cache.get(key)
        if found is None:
            rows = run_query(
                self.db, op.text, dict(op.binds),
                optimize_query=False, batch_size=1, columnar=False,
            ).rows
            if op.cls == "Q1" and "min_credit" in op.binds:
                api = workload_b_api(self.db, op.binds["min_credit"])
                if sorted(api) != sorted(rows):
                    raise AssertionError(
                        f"oracle disagrees with workload_b_api on {op!r}"
                    )
            found = self._cache[key] = Expected(rows, op.ordered)
        return found

    def fill(self, sequences: list) -> dict:
        """Attach expected rows to every read operation of *sequences*;
        returns ``{class: [row counts]}`` for the pool report."""
        rows_by_class: dict = {}
        for rounds in sequences:
            for round_ops in rounds:
                for op in round_ops:
                    if op.cls in MODEL_CHECKED or op.expect is not None:
                        continue
                    op.expect = self.expected(op)
                    rows_by_class.setdefault(op.cls, []).append(
                        len(op.expect.rows))
        return rows_by_class
