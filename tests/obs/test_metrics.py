"""Metrics registry: counters, histogram quantile math, exporters, and
the disabled-path no-op guarantee."""

import json

import pytest

from repro.obs import export
from repro.obs import metrics


@pytest.fixture
def registry():
    return metrics.MetricsRegistry()


class TestCounterGauge:
    def test_counter_increments(self, registry):
        counter = registry.counter("ops_total", model="doc")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_handle(self, registry):
        a = registry.counter("x", a="1", b="2")
        b = registry.counter("x", b="2", a="1")  # label order irrelevant
        assert a is b
        assert registry.counter("x", a="1") is not a  # different label set

    def test_gauge_up_down(self, registry):
        gauge = registry.gauge("active")
        gauge.set(7)
        gauge.dec(2)
        assert gauge.value == 5

    def test_reset_zeroes_but_keeps_handles(self, registry):
        counter = registry.counter("c")
        hist = registry.histogram("h")
        counter.inc(9)
        hist.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert hist.count == 0
        assert registry.counter("c") is counter


class TestBoundHandles:
    def test_a_handle_is_one_series_whatever_the_label_order(self, registry):
        first = registry.histogram("lat_seconds", op="q", phase="execute")
        again = registry.histogram("lat_seconds", phase="execute", op="q")
        assert first is again
        assert first is registry.histogram("lat_seconds", op="q", phase="execute")
        first.observe(0.5)
        again.observe(0.25)
        [series] = registry.snapshot()["lat_seconds"]
        assert series["count"] == 2
        assert series["labels"] == {"op": "q", "phase": "execute"}
        assert len(registry) == 1

    def test_reset_keeps_bound_handles_live(self):
        family = metrics.Family(metrics.counter, "bound_handles_total", "op")
        handle = family["ping"]
        handle.inc(3)
        metrics.REGISTRY.reset()
        assert handle.value == 0
        handle.inc()
        assert family["ping"] is handle
        assert metrics.counter("bound_handles_total", op="ping").value == 1

    def test_every_over_cap_call_counts_a_drop(self):
        registry = metrics.MetricsRegistry(max_label_sets=2)
        family = metrics.Family(registry.counter, "ops_total", "op")
        family["a"].inc()
        family["b"].inc()
        for _ in range(5):
            family["c"].inc()
        registry.counter("ops_total", op="d", extra="x")
        registry.counter("ops_total", extra="x", op="d")
        assert registry.counter("obs_labels_dropped_total").value == 7
        assert registry.counter("ops_total", overflow="true").value == 5
        # The series under the cap stay bound; the overflow one never is.
        assert family["a"] is registry.counter("ops_total", op="a")
        assert family["a"].value == 1


class TestHistogramQuantiles:
    def test_quantiles_over_uniform_samples(self, registry):
        hist = registry.histogram("latency")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)
        assert hist.min == 1.0
        assert hist.max == 100.0
        assert hist.quantile(0.50) == pytest.approx(50.5)
        assert hist.quantile(0.95) == pytest.approx(95.05)
        assert hist.quantile(0.99) == pytest.approx(99.01)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_empty_and_single_sample(self, registry):
        hist = registry.histogram("h")
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0
        hist.observe(3.5)
        assert hist.quantile(0.5) == 3.5
        assert hist.percentiles() == {"p50": 3.5, "p95": 3.5, "p99": 3.5}

    def test_ring_keeps_recent_samples_and_exact_totals(self):
        hist = metrics.Histogram("h", capacity=10)
        for value in range(100):
            hist.observe(float(value))
        # Totals are exact even though only 10 samples are retained.
        assert hist.count == 100
        assert hist.max == 99.0
        # Quantiles describe the retained (recent) window: 90..99.
        assert hist.quantile(0.0) == 90.0


class TestExporters:
    def test_prometheus_text(self, registry):
        registry.counter("queries_total").inc(3)
        registry.histogram("query_seconds", phase="parse").observe(0.25)
        text = export.prometheus_text(registry)
        assert "# HELP queries_total" in text
        assert "# TYPE queries_total counter" in text
        assert "queries_total 3" in text
        assert "# TYPE query_seconds histogram" in text
        assert 'query_seconds_bucket{phase="parse",le="0.25"} 1' in text
        assert 'query_seconds_bucket{phase="parse",le="+Inf"} 1' in text
        assert 'query_seconds_count{phase="parse"} 1' in text
        assert 'query_seconds_sum{phase="parse"} 0.25' in text

    def test_json_dump_round_trips(self, registry):
        registry.counter("c", model="kv").inc()
        payload = json.loads(export.json_dump(registry))
        assert payload["c"][0]["labels"] == {"model": "kv"}
        assert payload["c"][0]["value"] == 1

    def test_registry_total_sums_label_sets(self, registry):
        registry.counter("ops", model="doc").inc(2)
        registry.counter("ops", model="graph").inc(3)
        assert registry.total("ops") == 5
        assert registry.total("missing") == 0


class TestDisabledPath:
    def test_engine_records_nothing_when_disabled(self):
        from repro.core.database import MultiModelDB

        db = MultiModelDB()
        db.create_collection("docs")
        db.collection("docs").insert({"x": 1})
        metrics.disable()
        try:
            before = json.dumps(metrics.REGISTRY.snapshot(), sort_keys=True, default=str)
            db.query("FOR d IN docs FILTER d.x == 1 RETURN d")
            with db.transaction() as txn:
                db.collection("docs").insert({"x": 2}, txn=txn)
            after = json.dumps(metrics.REGISTRY.snapshot(), sort_keys=True, default=str)
        finally:
            metrics.enable()
        assert before == after

    def test_timed_call_still_times_when_disabled(self):
        hist = metrics.Histogram("h")
        metrics.disable()
        try:
            result, seconds = metrics.timed_call(lambda: 42, metric=hist)
        finally:
            metrics.enable()
        assert result == 42
        assert seconds >= 0.0
        assert hist.count == 0  # disabled: measured but not recorded
