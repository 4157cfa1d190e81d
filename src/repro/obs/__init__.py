"""Engine-wide observability: metrics registry, span tracing, exporters,
slow-query log, and store instrumentation.

Entry points:

* :mod:`repro.obs.metrics` — counters/gauges/histograms in the global
  :data:`~repro.obs.metrics.REGISTRY`; ``metrics.disable()`` turns every
  instrumentation site in the engine into a near-zero-cost no-op.
* :mod:`repro.obs.tracing` — nested wall-time spans (off by default;
  the shell's ``.trace on`` prints trees after each query).
* :mod:`repro.obs.export` — Prometheus text and JSON exposition.
* :mod:`repro.obs.slowlog` — bounded ring of queries over a threshold.
* :mod:`repro.obs.instrument` — per-model store method wrapping.
* :mod:`repro.obs.events` — structured JSON-lines event log with
  trace/session/request correlation ids.
* :mod:`repro.obs.telemetry` — stdlib HTTP endpoint, on its own thread, serving
  ``/metrics`` (Prometheus), ``/healthz``, ``/stats`` and ``/events``.

Distributed tracing (trace ids, remote-parent adoption, explicit
cross-thread handoff, span summaries for the wire) lives in
:mod:`repro.obs.tracing`; see ``docs/OBSERVABILITY.md`` for the full
tour.
"""

from repro.obs import events, export, instrument, metrics, slowlog, tracing
from repro.obs.events import EVENTS, EventLog, emit
from repro.obs.export import json_dump, prometheus_text
from repro.obs.instrument import instrument_store
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    time_block,
    timed_call,
)
from repro.obs.tracing import (
    Span,
    SpanContext,
    Tracer,
    format_span,
    format_summary,
    last_trace,
    span,
    span_summary,
)

__all__ = [
    "metrics",
    "tracing",
    "export",
    "slowlog",
    "instrument",
    "events",
    "EVENTS",
    "EventLog",
    "emit",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "time_block",
    "timed_call",
    "Span",
    "SpanContext",
    "Tracer",
    "span",
    "span_summary",
    "last_trace",
    "format_span",
    "format_summary",
    "prometheus_text",
    "json_dump",
    "instrument_store",
]
