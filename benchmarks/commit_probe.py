"""Where a durable new-order commit spends its time and memory (Workload C).

Runs UniBench new-order transactions (scale factor 4, seed 42, 40 hot
customers) on an embedded database whose WAL is fsynced per commit, and
prints:

* the p50 of a commit and of its parts: encoding the unit's WAL lines, the
  one write + flush + fsync, and the rest of the central-log call (entry
  creation and fan-out to the storage views);
* the subscriber calls one new-order unit makes;
* the fixed-count memory probe: VmRSS growth per new-order over ``--count``
  new-orders after 2 000 warm-up ones, with a read-only transaction every
  third and the ``c_txn_wal`` aggregate every seventh.

    PYTHONPATH=src python benchmarks/commit_probe.py [--count 20000]

Linux only (VmRSS).  To compare two checkouts, run it in each, alternating,
on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time
import zlib

from repro.core.database import MultiModelDB
from repro.storage import wal as wal_module
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import new_order_transaction

# The c_txn_wal aggregate (benchmarks/mmbench/workloads.py, TXN_AGG_TEXT).
AGGREGATE = (
    "FOR c IN customers COLLECT city = c.city "
    "AGGREGATE total = SUM(c.credit_limit), n = COUNT(c) "
    "SORT city RETURN {city: city, total: total, n: n}"
)


def _database(data, directory: str) -> MultiModelDB:
    db = MultiModelDB()
    load_into_multimodel(db, data)
    db.attach_wal(os.path.join(directory, f"wal-{time.monotonic_ns()}.log"), sync=True)
    return db


def _new_order(db, hot: list, index: int) -> None:
    key = f"probe{index:07d}"
    customer = hot[index % len(hot)]
    order = {"_key": key, "Order_no": key, "customer_id": customer,
             "total": 5 + index % 46, "Orderlines": []}
    txn = db.begin()
    new_order_transaction(db, customer, order, txn=txn)
    db.commit(txn)


def _rss() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def bytes_per_new_order(data, hot: list, directory: str, count: int) -> float:
    db = _database(data, directory)
    customers = db.table("customers")

    def run(start: int, stop: int) -> None:
        for index in range(start, stop):
            _new_order(db, hot, index)
            if index % 3 == 0:
                txn = db.begin()
                customers.get(hot[index % len(hot)], txn=txn)
                db.commit(txn)
            if index % 7 == 0:
                db.query(AGGREGATE)

    run(0, 2000)
    before = _rss()
    run(2000, 2000 + count)
    growth = _rss() - before
    db.close()
    return growth / count


def commit_parts(data, hot: list, directory: str, commits: int) -> dict:
    """p50 microseconds of a commit and of its parts, over *commits*
    new-orders after 500 warm-up ones."""
    encode = wal_module._encode
    parts: dict[str, list] = {"encode": [], "write_fsync": [], "log": [], "commit": []}

    def write_unit(self, records):
        started = time.perf_counter()
        lines = []
        for record in records:
            payload = encode(record)
            lines.append(f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n")
        encoded = time.perf_counter()
        self._file.write("".join(lines))
        self._file.flush()
        os.fsync(self._file.fileno())
        parts["encode"].append(encoded - started)
        parts["write_fsync"].append(time.perf_counter() - encoded)

    original = wal_module.WriteAheadLog._write_unit
    wal_module.WriteAheadLog._write_unit = write_unit
    try:
        db = _database(data, directory)
        log = db.context.log
        append_group = log.append_group

        def timed_group(txn_id, records):
            started = time.perf_counter()
            entries = append_group(txn_id, records)
            parts["log"].append(time.perf_counter() - started)
            return entries

        log.append_group = timed_group
        commit = db.commit

        def timed_commit(txn):
            started = time.perf_counter()
            commit(txn)
            parts["commit"].append(time.perf_counter() - started)

        db.commit = timed_commit
        for index in range(500 + commits):
            _new_order(db, hot, index)
        db.close()
    finally:
        wal_module.WriteAheadLog._write_unit = original
    # The log part is the whole central-log call less the WAL's share.
    parts["log"] = [
        whole - encoded - written
        for whole, encoded, written in zip(parts["log"], parts["encode"], parts["write_fsync"])
    ]
    return {name: statistics.median(samples[500:]) * 1e6 for name, samples in parts.items()}


def subscriber_calls(data, hot: list, directory: str) -> tuple:
    """The subscribers the entries of one new-order unit are handed to,
    and how many the engine has."""
    db = _database(data, directory)
    log = db.context.log
    start = log.last_lsn
    _new_order(db, hot, 0)
    db.close()
    calls = sum(len(log._routes[entry.namespace]) for entry in log.entries_since(start))
    return calls, len(log._subscribers)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=20000,
                        help="new-orders the memory probe measures")
    parser.add_argument("--commits", type=int, default=3000,
                        help="new-orders the commit timing measures")
    args = parser.parse_args()
    data = generate(4, 42)
    hot = [row["id"] for row in data.customers][:40]
    with tempfile.TemporaryDirectory() as directory:
        memory = bytes_per_new_order(data, hot, directory, args.count)
        parts = commit_parts(data, hot, directory, args.commits)
        calls = subscriber_calls(data, hot, directory)
    print(f"commit p50 {parts['commit']:.1f} us: encode {parts['encode']:.1f} us, "
          f"write + fsync {parts['write_fsync']:.1f} us, "
          f"log entries + fan-out {parts['log']:.1f} us")
    print(f"subscriber calls per new-order unit: {calls[0]} ({calls[1]} subscribers)")
    print(f"bytes per new-order: {memory:.0f}")


if __name__ == "__main__":
    main()
