"""The engine's own log (the one ``EngineContext`` builds) keeps a bounded
tail; LSNs, views and statistics carry on as if it kept everything."""

import io

from repro import MultiModelDB
from repro.cli import run_statement
from repro.core.context import _LOG_TAIL


def test_twenty_thousand_commits_leave_a_bounded_log_and_an_exact_lsn():
    db = MultiModelDB()
    cache = db.create_bucket("cache")
    for i in range(20_000):
        cache.put(f"k{i % 50}", i)  # autocommit: a data record + its COMMIT
    log = db.context.log
    assert log.last_lsn == 40_000
    assert _LOG_TAIL <= len(log) <= 2 * _LOG_TAIL
    assert log.floor_lsn == log.last_lsn - len(log)
    assert log.entry_at(log.last_lsn).lsn == 40_000
    assert cache.get("k49") == 19_999 and cache.count() == 50

    stats = db.stats()
    assert stats["log_entries"] == len(log)
    assert stats["log_floor_lsn"] == log.floor_lsn
    assert stats["transactions"]["commits"] == 20_000


def test_dbstats_prints_retained_entries_and_the_floor():
    db = MultiModelDB()
    db.create_bucket("cache").put("k", 1)
    out = io.StringIO()
    run_statement(db, ".dbstats", out, {"done": False})
    assert "log entries: 2 retained (floor lsn 0)" in out.getvalue()
