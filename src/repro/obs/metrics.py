"""Dependency-free metrics primitives: counters, gauges, histograms.

The whole engine reports into one process-wide :class:`MetricsRegistry`
(:data:`REGISTRY`) so that query, storage, index and transaction counters
land in a single place — the prerequisite for attributing cost across the
relational/document/graph/KV/XML paths of a multi-model engine.

Design constraints:

* **Near-zero cost when disabled.** Every instrumentation site guards on
  the module-level :data:`ENABLED` flag (one attribute load + truth test)
  and performs no string formatting, no timestamping and no allocation on
  the disabled path.
* **Stable handles.** ``registry.counter(name, **labels)`` is
  get-or-create: modules grab their handles once at import time and
  :meth:`MetricsRegistry.reset` zeroes values without invalidating them.
  A site whose label varies per call holds a :class:`Family`, which
  resolves each label value through the registry once.  A repeated
  lookup is one dict probe keyed in call order; only the first call of
  a label order builds the sorted key.
* **Bounded memory.** Histograms keep running count/sum/min/max exactly,
  fixed Prometheus-style latency buckets, and a fixed-size ring of recent
  samples for the p50/p95/p99 quantiles.  The registry additionally caps
  **label cardinality**: at most :attr:`MetricsRegistry.max_label_sets`
  distinct label combinations per metric name — creation beyond the cap
  folds into one ``overflow="true"`` series and bumps
  ``obs_labels_dropped_total``, so a site that (mis)labels by session or
  cursor id cannot grow the registry without bound.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "is_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "MetricsRegistry",
    "REGISTRY",
    "Family",
    "counter",
    "gauge",
    "histogram",
    "describe",
    "timed_call",
    "time_block",
]

#: Global kill switch. Instrumentation sites check ``metrics.ENABLED``
#: before touching any metric object.
ENABLED = True


def enable() -> None:
    """Turn instrumentation on (the default)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn instrumentation off; all guarded sites become no-ops."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    return ENABLED


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """Value that can go up and down (active transactions, live sessions)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


#: Default histogram bucket upper bounds (seconds) — latency-oriented,
#: 500 µs to 10 s; every histogram also gets an implicit ``+Inf`` bucket.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Streaming distribution: exact count/sum/min/max, fixed cumulative
    buckets for Prometheus exposition, plus a bounded ring of recent
    samples from which p50/p95/p99 are computed on demand.

    The ring (default 4096 samples) keeps memory constant under any load;
    quantiles therefore describe *recent* behaviour, which is what a
    slow-query investigation wants anyway.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "_samples", "_capacity", "_cursor", "buckets",
                 "bucket_counts")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (), capacity: int = 4096,
                 buckets: tuple = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self._capacity = max(int(capacity), 1)
        self.buckets = tuple(sorted(buckets))
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._samples: list = []
        self._cursor = 0
        #: Per-bucket (non-cumulative) hit counts; the last slot is +Inf.
        self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            # Overwrite oldest: a ring of the most recent `capacity` samples.
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self._capacity

    def cumulative_buckets(self) -> list[tuple[str, int]]:
        """``(le, cumulative count)`` pairs ending with ``("+Inf", count)``
        — exactly the series a Prometheus histogram exposes."""
        out: list[tuple[str, int]] = []
        running = 0
        for bound, hits in zip(self.buckets, self.bucket_counts):
            running += hits
            out.append((f"{bound:g}", running))
        out.append(("+Inf", self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the retained samples
        (``q`` in [0, 1]); 0.0 when nothing has been observed."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1 - fraction) + ordered[upper] * fraction

    def percentiles(self) -> dict:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}{dict(self.labels)} "
            f"count={self.count} mean={self.mean:.6f}>"
        )


#: Default per-name label-set cap (see :class:`MetricsRegistry`).
DEFAULT_MAX_LABEL_SETS = 64

#: Label set every over-the-cap creation folds into.
_OVERFLOW_LABELS = (("overflow", "true"),)


class MetricsRegistry:
    """Process-wide catalog of metrics, keyed by (name, sorted labels).

    ``max_label_sets`` bounds how many *distinct labeled series* one
    metric name may create (``None`` disables the cap).  The cap guards
    against unbounded-cardinality labels (session ids, cursor ids, raw
    query text): the first creation past it returns a shared
    ``{overflow="true"}`` series for that name instead, and each such
    fold increments ``obs_labels_dropped_total`` — so misuse degrades to
    one coarse series plus an alarm, never to unbounded registry growth.
    """

    def __init__(self, max_label_sets: Optional[int] = DEFAULT_MAX_LABEL_SETS):
        #: The series, keyed by (name, sorted labels).
        self._metrics: dict[tuple, Any] = {}
        #: The same series keyed by (name, labels in call order): what a
        #: lookup probes first.  The overflow series is never entered, so
        #: every over-cap call reaches the cap check and counts its drop.
        self._by_call_order: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        self._label_set_counts: dict[str, int] = {}
        self._help: dict[str, str] = {}
        self.max_label_sets = max_label_sets

    def _get_or_create(self, factory: Callable, name: str, labels: dict):
        call_key = (name, tuple(labels.items()))
        metric = self._by_call_order.get(call_key)
        if metric is not None:
            return metric
        key = (name, tuple(sorted(call_key[1])))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                if (
                    labels
                    and self.max_label_sets is not None
                    and self._label_set_counts.get(name, 0)
                    >= self.max_label_sets
                ):
                    return self._overflow_locked(factory, name)
                metric = factory(name, key[1])
                self._metrics[key] = metric
                if labels:
                    self._label_set_counts[name] = (
                        self._label_set_counts.get(name, 0) + 1
                    )
            self._by_call_order[call_key] = metric
        return metric

    def _overflow_locked(self, factory: Callable, name: str):
        """Cap hit (lock held): count the drop and return the shared
        overflow series for *name*."""
        dropped = self._metrics.get(("obs_labels_dropped_total", ()))
        if dropped is None:
            dropped = Counter("obs_labels_dropped_total", ())
            self._metrics[("obs_labels_dropped_total", ())] = dropped
        dropped.inc()
        key = (name, _OVERFLOW_LABELS)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, _OVERFLOW_LABELS)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    # -- help text -----------------------------------------------------------

    def describe(self, name: str, help_text: str) -> None:
        """Register a ``# HELP`` line for *name* (exposition only)."""
        self._help[name] = help_text

    def help_for(self, name: str) -> Optional[str]:
        return self._help.get(name)

    def collect(self) -> Iterator[Any]:
        """All metrics, sorted by (name, labels) for stable output."""
        return iter(sorted(self._metrics.values(), key=lambda m: (m.name, m.labels)))

    def snapshot(self) -> dict:
        """Plain-dict dump: {name: [{labels, ...fields}]} — JSON-friendly."""
        out: dict[str, list] = {}
        for metric in self.collect():
            entry: dict[str, Any] = {"labels": dict(metric.labels)}
            if metric.kind == "histogram":
                entry.update(
                    count=metric.count,
                    sum=metric.sum,
                    min=metric.min,
                    max=metric.max,
                    mean=metric.mean,
                    **metric.percentiles(),
                )
            else:
                entry["value"] = metric.value
            entry["kind"] = metric.kind
            out.setdefault(metric.name, []).append(entry)
        return out

    def total(self, name: str) -> float:
        """Sum of a metric's value (counters/gauges) or count (histograms)
        across all label sets; 0 when the metric has never been touched."""
        total = 0
        for metric in self._metrics.values():
            if metric.name != name:
                continue
            total += metric.count if metric.kind == "histogram" else metric.value
        return total

    def reset(self) -> None:
        """Zero every metric, keeping the objects (module-level handles
        stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def __len__(self) -> int:
        return len(self._metrics)


#: The default, engine-wide registry.
REGISTRY = MetricsRegistry()


class Family:
    """The series of one metric that differ in one label, for a site whose
    label value varies per call: ``family[value]`` is the handle that
    ``make(name, **{label: value})`` returns, resolved once per value.

    A value the registry folds into the overflow series is not kept, so
    each over-cap call goes back to the registry and counts its drop; the
    kept values are therefore bounded by the registry's label-set cap."""

    __slots__ = ("_make", "name", "label", "_series")

    def __init__(self, make: Callable, name: str, label: str):
        self._make = make
        self.name = name
        self.label = label
        self._series: dict = {}

    def __getitem__(self, value):
        metric = self._series.get(value)
        if metric is None:
            metric = self._make(self.name, **{self.label: value})
            if metric.labels is not _OVERFLOW_LABELS:
                self._series[value] = metric
        return metric


def counter(name: str, **labels) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels) -> Histogram:
    return REGISTRY.histogram(name, **labels)


def describe(name: str, help_text: str) -> None:
    """Register a ``# HELP`` line for *name* in the default registry."""
    REGISTRY.describe(name, help_text)


def timed_call(fn: Callable, *args, metric: Optional[Histogram] = None, **kwargs):
    """Run ``fn(*args, **kwargs)``; returns ``(result, seconds)``.

    Always measures (callers need the duration regardless); observes into
    *metric* only when instrumentation is enabled.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    if ENABLED and metric is not None:
        metric.observe(elapsed)
    return result, elapsed


class time_block:
    """``with time_block(hist): …`` — observe the block's wall time.

    Exposes ``.seconds`` after exit so callers can reuse the measurement.
    """

    __slots__ = ("metric", "seconds", "_start")

    def __init__(self, metric: Optional[Histogram] = None):
        self.metric = metric
        self.seconds = 0.0

    def __enter__(self) -> "time_block":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        if ENABLED and self.metric is not None:
            self.metric.observe(self.seconds)
