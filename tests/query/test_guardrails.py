"""Query guardrails: per-query timeout and max-rows budget.

Disabled by default — the first test pins that an unconfigured database
runs unbounded queries exactly as before.
"""

import os
import subprocess
import sys

import pytest

from repro.core.database import MultiModelDB
from repro.errors import QueryTimeoutError, ResourceExhaustedError
from repro.obs import metrics as obs_metrics


_RANGE_TIMEOUT_PROBE = """
import time
from repro.core.database import MultiModelDB
from repro.errors import QueryTimeoutError
db = MultiModelDB()
started = time.perf_counter()
try:
    db.query("FOR i IN 1..100000000 RETURN i", timeout=0.05)
    error = "none"
except QueryTimeoutError:
    error = "QueryTimeoutError"
seconds = time.perf_counter() - started
# VmHWM is this process image's own peak (getrusage's ru_maxrss keeps the
# parent's across exec).
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(error, seconds, peak_kb / 1024)
"""


@pytest.fixture
def db():
    database = MultiModelDB()
    docs = database.create_collection("docs")
    for i in range(100):
        docs.insert({"_key": f"d{i}", "n": i})
    graph = database.create_graph("g")
    for i in range(20):
        graph.add_vertex(f"v{i}", {"i": i})
    for i in range(19):
        graph.add_edge(f"v{i}", f"v{i + 1}", label="next")
    return database


class TestDisabledByDefault:
    def test_unconfigured_db_is_unbounded(self, db):
        assert db.guardrails.timeout is None
        assert db.guardrails.max_rows is None
        result = db.query("FOR d IN docs RETURN d.n")
        assert len(result.rows) == 100

    def test_limits_below_threshold_do_not_fire(self, db):
        result = db.query("FOR d IN docs RETURN d.n", timeout=60.0, max_rows=100)
        assert len(result.rows) == 100


class TestMaxRows:
    def test_per_call_budget(self, db):
        with pytest.raises(ResourceExhaustedError) as excinfo:
            db.query("FOR d IN docs RETURN d.n", max_rows=10)
        assert excinfo.value.rows == 11  # fails on the first excess row
        assert excinfo.value.limit == 10

    def test_db_default_applies(self, db):
        db.guardrails.max_rows = 5
        with pytest.raises(ResourceExhaustedError):
            db.query("FOR d IN docs RETURN d.n")

    def test_per_call_overrides_default(self, db):
        db.guardrails.max_rows = 5
        result = db.query("FOR d IN docs RETURN d.n", max_rows=1000)
        assert len(result.rows) == 100

    def test_limit_clause_keeps_query_under_budget(self, db):
        result = db.query("FOR d IN docs LIMIT 10 RETURN d.n", max_rows=10)
        assert len(result.rows) == 10

    def test_budget_counts_result_rows_not_scanned_rows(self, db):
        # 100 docs scanned, 1 row returned: aggregation fits a tiny budget.
        result = db.query(
            "FOR d IN docs COLLECT AGGREGATE total = SUM(d.n) RETURN total",
            max_rows=1,
        )
        assert result.rows == [sum(range(100))]

    def test_typed_error_is_a_query_error(self, db):
        from repro.errors import QueryError

        assert issubclass(ResourceExhaustedError, QueryError)
        assert issubclass(QueryTimeoutError, QueryError)

    def test_metric_counted(self, db):
        before = obs_metrics.REGISTRY.total("query_row_budget_exceeded_total")
        with pytest.raises(ResourceExhaustedError):
            db.query("FOR d IN docs RETURN d.n", max_rows=1)
        after = obs_metrics.REGISTRY.total("query_row_budget_exceeded_total")
        assert after == before + 1


class TestTimeout:
    def test_expired_deadline_raises(self, db):
        with pytest.raises(QueryTimeoutError) as excinfo:
            db.query("FOR d IN docs RETURN d.n", timeout=0.0)
        assert excinfo.value.limit == 0.0

    def test_deadline_checked_inside_range_iteration(self):
        # No catalog scan at all — the FOR over a range must still observe
        # the deadline, or a cartesian blow-up would run forever; and it
        # iterates the range, so the array is never built.  A fresh process
        # reports its own peak RSS (this one's high-water mark is the
        # suite's).
        child = subprocess.run(
            [sys.executable, "-c", _RANGE_TIMEOUT_PROBE],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.returncode == 0, child.stderr
        error, seconds, max_rss_mb = child.stdout.split()
        assert error == "QueryTimeoutError"
        assert float(seconds) < 0.2
        assert float(max_rss_mb) < 100

    def test_deadline_checked_inside_traversal(self, db):
        with pytest.raises(QueryTimeoutError):
            db.query(
                "FOR v IN 1..19 OUTBOUND 'v0' GRAPH g RETURN v._key",
                timeout=0.0,
            )

    def test_db_default_timeout(self, db):
        db.guardrails.timeout = 0.0
        with pytest.raises(QueryTimeoutError):
            db.query("FOR d IN docs RETURN d.n")
        db.guardrails.timeout = None

    def test_generous_timeout_passes(self, db):
        result = db.query("FOR d IN docs RETURN d.n", timeout=60.0)
        assert len(result.rows) == 100

    def test_timeout_metric_counted(self, db):
        before = obs_metrics.REGISTRY.total("query_timeouts_total")
        with pytest.raises(QueryTimeoutError):
            db.query("FOR d IN docs RETURN d.n", timeout=0.0)
        after = obs_metrics.REGISTRY.total("query_timeouts_total")
        assert after == before + 1

    def test_error_reports_elapsed_and_limit(self, db):
        with pytest.raises(QueryTimeoutError) as excinfo:
            db.query("FOR d IN docs RETURN d.n", timeout=0.0)
        assert excinfo.value.elapsed >= 0.0
        assert "timeout" in str(excinfo.value)


class TestGuardrailsWithPlanCache:
    def test_cached_plan_still_enforces_limits(self, db):
        text = "FOR d IN docs RETURN d.n"
        assert len(db.query(text).rows) == 100  # populate the cache
        with pytest.raises(ResourceExhaustedError):
            db.query(text, max_rows=10)  # limits are per-execution, not per-plan
        assert len(db.query(text).rows) == 100  # and leave the plan untouched
