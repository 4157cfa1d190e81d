"""``b_embedded_warm`` and ``adhoc_cold_plan``: MMQL through embedded
``db.query`` on one thread.

The two use ``query.engine`` in opposite ways.  ``b_embedded_warm`` runs
five statement texts with bind parameters, so the 128-entry plan cache
always hits and the executor, the compiled closures, the model stores and
the indexes do nearly all the work.  ``adhoc_cold_plan`` runs 544 distinct
texts with the literals inlined, 4.25× the cache, so every call misses and
evicts and the lexer, parser, optimizer and closure compilation do most of
it.  A plan-cache or planning-path change that helps one and hurts the
other shows.
"""

from __future__ import annotations

import time

from repro.core.database import MultiModelDB
from repro.obs import metrics as obs_metrics
from repro.query.compile import fallback_node_counts
from repro.query.lexer import tokenize
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.unibench.generator import generate, load_into_multimodel

import layers
import workloads


def setup_phase_probe() -> dict:
    """``generate_s`` / ``load_s`` / ``build_s`` of the data set, timed on
    throwaway databases (the fastest of three, as a difference of two
    noisy loads is wanted): loading with and without the
    secondary indexes and taking the difference keeps the index list in
    the generator's hands."""
    started = time.perf_counter()
    data = generate(workloads.SCALE_FACTOR, workloads.DATA_SEED)
    generated = time.perf_counter()
    plain, indexed = [], []
    for _ in range(3):
        for with_indexes, times in ((False, plain), (True, indexed)):
            begin = time.perf_counter()
            load_into_multimodel(MultiModelDB(), data, with_indexes)
            times.append(time.perf_counter() - begin)
    return {
        "unibench.generator.generate_s": generated - started,
        "unibench.generator.load_s": min(plain),
        "indexes.manager.build_s": max(min(indexed) - min(plain), 0.0),
    }


class EmbeddedQueries:
    """Both embedded query workloads; they differ in their sequence."""

    def __init__(self, name: str):
        self.name = name
        self.db = None
        self.data = None
        self._probes = None
        self._queries = None

    # -- sequence ---------------------------------------------------------

    def sequences(self, data, seed: int, smoke: bool) -> list:
        if self.name == "b_embedded_warm":
            rounds = 1 if smoke else workloads.B_CYCLE_ROUNDS
            return [workloads.b_sequence(data, seed, rounds)]
        return [workloads.adhoc_sequence(data, seed)]

    def warmup_rounds(self, sequences: list) -> list:
        # One round fills the plan cache (b_embedded_warm) or turns it
        # over four times (adhoc_cold_plan) and builds the lazy segments.
        return [rounds[:1] for rounds in sequences]

    def trace_rounds(self, sequences: list, smoke: bool) -> list:
        count = (
            (1 if smoke else 16) if self.name == "b_embedded_warm"
            else (1 if smoke else 8)
        )
        return [workloads.cycled(rounds, count) for rounds in sequences]

    # -- system under test ------------------------------------------------

    def setup(self) -> None:
        self.data = generate(workloads.SCALE_FACTOR, workloads.DATA_SEED)
        self.db = MultiModelDB()
        load_into_multimodel(self.db, self.data)

    def teardown(self) -> None:
        self.db = None

    def children(self) -> list:
        return []

    def execute(self, op, thread: int):
        return self.db.query(op.text, op.binds)

    def verify(self, op, result, thread: int):
        return op.expect.check(result.rows)

    def finish(self) -> list:
        return []

    # -- traced pass ------------------------------------------------------

    def begin_trace(self) -> None:
        self._probes = layers.StoreProbes(self.db, self.data)
        self._queries = TracedQueries(self.db)
        self.counters = self._queries.counters

    def execute_traced(self, op, thread: int, tracer, op_id: int):
        root = tracer.open(op_id, None, f"driver.op.{op.cls}")
        result = self._queries.run(op, tracer, root)
        tracer.close(root)
        self._queries.after(op, result, tracer)
        self._probes.run(tracer, op_id)
        return result, (root["end_ns"] - root["start_ns"]) / 1e9

    def layer_counts(self) -> dict:
        return self._queries.metrics()


class TracedQueries:
    """``db.query`` calls of a traced pass, each with its child spans and
    the counters it moved."""

    def __init__(self, db):
        self.db = db
        self.stats = layers.StatCounts()
        self.misses = 0
        self.rules_fired = 0
        self.fallbacks = 0
        self.access_paths = 0
        self.counters = layers.Accumulator(lambda: {
            **db.plan_cache.stats(),
            "rebuilds": db.context.segments.stats()["rebuilds"],
        })
        self._access_path = [
            obs_metrics.counter("index_access_path_total", outcome=outcome)
            for outcome in ("hit", "miss")
        ]
        # The engine times its own phases per call; the traced pass turns
        # each call's share of these into that call's child spans.
        self._phases = [
            obs_metrics.histogram("query_phase_seconds", phase=phase)
            for phase in ("parse", "optimize", "execute")
        ]
        self._last_parse = None

    def run(self, op, tracer, parent: dict):
        """``db.query`` inside a ``query.engine.run_query`` span."""
        phases = self._phases
        paths_before = sum(counter.value for counter in self._access_path)
        phase_before = [histogram.sum for histogram in phases]
        calls_before = phases[-1].count
        run = tracer.open(
            parent["op_id"], parent["span_id"], "query.engine.run_query")
        result = self.db.query(op.text, op.binds)
        tracer.close(run)
        if phases[-1].count != calls_before + 1:
            raise RuntimeError("query_phase_seconds did not advance; the "
                               "traced pass needs obs.metrics enabled")
        parse_ns, optimize_ns, execute_ns = (
            int((histogram.sum - before) * 1e9)
            for histogram, before in zip(phases, phase_before)
        )
        self.access_paths += (
            sum(counter.value for counter in self._access_path) - paths_before
        )
        children = [("query.executor.execute", execute_ns)]
        if not result.stats["plan_cached"]:
            # Only what the call did becomes a child span: a plan-cache
            # hit neither parsed nor optimized.
            children = [
                ("query.parser.parse", parse_ns),
                ("query.optimizer.optimize", optimize_ns),
            ] + children
        placed = tracer.place_children(run, children)
        self._last_parse = None if result.stats["plan_cached"] else placed[0]
        self.stats.add(result.stats)
        return result

    def after(self, op, result, tracer) -> None:
        """What has to be replayed, once the operation's clock stopped."""
        if self._last_parse is None:
            return
        self.misses += 1
        # The engine does not time its lexer.  parse() tokenizes first
        # thing, so the replayed span sits at the head of the parse span.
        begin = time.perf_counter_ns()
        tokenize(op.text)
        tracer.place_children(self._last_parse, [
            ("query.lexer.tokenize", time.perf_counter_ns() - begin)])
        plan = optimize(parse(op.text), self.db)
        self.rules_fired += len(plan.rules_fired)
        self.fallbacks += sum(fallback_node_counts(plan).values())

    def metrics(self) -> dict:
        moved = self.counters.total
        hits, misses = moved["hits"], moved["misses"]
        ratio = layers.ratio
        return {
            **self.stats.metrics(),
            "query.optimizer.rules_fired_per_stmt":
                ratio(self.rules_fired, self.misses),
            "query.compile.fallbacks_per_stmt":
                ratio(self.fallbacks, self.misses),
            "query.engine.plan_cache_hit_ratio": ratio(hits, hits + misses),
            "query.engine.plan_cache_evictions": moved["evictions"],
            "storage.segments.rebuilds": moved["rebuilds"],
            "indexes.manager.lookups_per_op":
                ratio(self.access_paths, self.stats.ops),
        }
