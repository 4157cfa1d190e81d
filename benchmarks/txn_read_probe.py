"""What a read costs inside a transaction against autocommit (Workload B).

Runs UniBench Q1–Q5 (``repro.unibench.workloads.QUERIES_B``) on an
embedded database loaded at ``--scale`` (seed 42) and prints, per query,
the median wall time of:

* an autocommit call, after two warm-up calls;
* a call inside a transaction begun with no writes since;
* a call inside a transaction begun before ``--commits`` autocommit
  updates, which its snapshot does not see (each moves one customer's
  ``credit_limit``, an attribute Q1 filters on).

The first call inside each transaction is not timed.

The three take turns call by call.  Results are checked as bags: the
first transaction's against autocommit, the second's against autocommit
before the updates.  The ``index_lookups`` stat of autocommit and of the
first transaction is printed next to the times.

    PYTHONPATH=src python benchmarks/txn_read_probe.py [--scale 4] [--calls 11]

To compare two checkouts, run it in each, alternating, on an otherwise
idle machine.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.cli import make_demo_db
from repro.core import datamodel
from repro.unibench.workloads import QUERIES_B


def _median_ms(runs, calls: int) -> list:
    """The median milliseconds of each of *runs* and its last result.  The
    runs take turns call by call, so a machine that speeds up or slows
    down meanwhile moves them alike."""
    times: list = [[] for _ in runs]
    results: list = [None] * len(runs)
    for _ in range(calls):
        for index, run in enumerate(runs):
            start = time.perf_counter()
            results[index] = run()
            times[index].append((time.perf_counter() - start) * 1e3)
    return [(statistics.median(spent), result) for spent, result in zip(times, results)]


def _bag(rows) -> list:
    return sorted(datamodel.canonical_json(row) for row in rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=int, default=4)
    parser.add_argument("--calls", type=int, default=11)
    parser.add_argument("--commits", type=int, default=100)
    args = parser.parse_args()
    db = make_demo_db(args.scale)
    customers = db.table("customers")
    moved = [row["id"] for row in customers.select(limit=args.commits)]
    print(
        f"scale {args.scale}, median of {args.calls} calls; "
        f"taking turns; {len(moved)} commits since the second begin"
    )
    print("query  autocommit  in txn   ratio  +commits  ratio  lookups (auto/txn)")
    for query_id, (text, binds) in QUERIES_B.items():
        def run(txn=None):
            return db.query(text, binds, txn=txn)

        run()
        expected = run()
        busy = db.begin()
        before = {key: customers.get(key)["credit_limit"] for key in moved}
        for key in moved:
            customers.update(key, {"credit_limit": before[key] + 1})
        txn = db.begin()
        run(txn), run(busy)
        (auto_ms, auto), (txn_ms, inside), (busy_ms, stale) = _median_ms(
            [run, lambda: run(txn), lambda: run(busy)], args.calls
        )
        db.abort(txn)
        db.abort(busy)
        for key in moved:
            customers.update(key, {"credit_limit": before[key]})
        assert _bag(inside.rows) == _bag(auto.rows), query_id
        assert _bag(stale.rows) == _bag(expected.rows), query_id
        print(
            f"{query_id:5}  {auto_ms:7.2f} ms {txn_ms:7.2f} ms {txn_ms / auto_ms:5.1f}x"
            f" {busy_ms:7.2f} ms {busy_ms / auto_ms:5.1f}x"
            f"  {auto.stats['index_lookups']}/{inside.stats['index_lookups']}"
        )


if __name__ == "__main__":
    main()
