"""Tests of the benchmark itself.  Not part of tier-1; run them with

    PYTHONPATH=src python -m pytest benchmarks/mmbench/tests -q

They start real server and shard subprocesses (``--smoke`` passes of every
workload), so they take a couple of minutes.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(BENCH))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from repro.unibench.generator import generate  # noqa: E402

#: Per-layer metrics that are pure counts of what the program did: two
#: traced passes of one commit with one seed must agree on them exactly.
#: (``server.protocol.bytes_per_op`` is left out: responses carry phase
#: timings and LSNs whose digit count varies.)
EXACT_COUNTS = [
    "query.optimizer.rules_fired_per_stmt",
    "query.engine.plan_cache_hit_ratio",
    "query.engine.plan_cache_evictions",
    "query.executor.rows_scanned_per_row_returned",
    "query.executor.index_lookups_per_op",
    "query.executor.batches_per_op",
    "query.compile.fallbacks_per_stmt",
    "storage.segments.scanned_per_op",
    "storage.segments.pruned_ratio",
    "storage.segments.kernel_rows_per_op",
    "storage.segments.rebuilds",
    "indexes.manager.lookups_per_op",
    "txn.manager.abort_ratio",
    "txn.manager.conflicts",
    "txn.manager.retries_per_commit",
    "storage.wal.bytes_per_commit",
    "storage.wal.appends_per_commit",
    "storage.wal.fsyncs_per_commit",
    "storage.wal.write_amplification",
    "server.server.cursor_fetches_per_op",
    "server.server.rejected",
    "cluster.coordinator.fan_out_per_op",
    "cluster.coordinator.rows_shipped_per_row_returned",
    "cluster.coordinator.stale_map_replans",
]


@pytest.fixture(scope="module")
def data():
    return generate(workloads.SCALE_FACTOR, workloads.DATA_SEED)


def sequences_of(name: str, data, seed: int) -> list:
    """Every connection's rounds, as the workload objects build them."""
    if name in ("b_embedded_warm", "b_cluster2"):
        return [workloads.b_sequence(data, seed)]
    if name == "adhoc_cold_plan":
        return [workloads.adhoc_sequence(data, seed)]
    if name == "a_wire_mixed":
        return [workloads.wire_sequence(data, seed, connection)
                for connection in range(workloads.WIRE_CONNECTIONS)]
    return [workloads.txn_sequence(data, seed)]


def flat(sequences: list) -> list:
    return [
        (op.cls, op.text, sorted(op.binds.items()))
        for rounds in sequences for round_ops in rounds for op in round_ops
    ]


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_sequence(name, data):
    assert flat(sequences_of(name, data, 7)) == flat(sequences_of(name, data, 7))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_order_same_mix(name, data):
    one, other = flat(sequences_of(name, data, 7)), flat(sequences_of(name, data, 8))
    assert one != other
    assert (collections.Counter(op[0] for op in one)
            == collections.Counter(op[0] for op in other))


def test_cluster_runs_the_embedded_sequence(data):
    assert (flat(sequences_of("b_cluster2", data, 3))
            == flat(sequences_of("b_embedded_warm", data, 3)))


def test_adhoc_working_set_is_four_plan_caches(data):
    (rounds,) = sequences_of("adhoc_cold_plan", data, 1)
    texts = [op.text for op in rounds[0]]
    assert len(set(texts)) == len(texts) >= 512
    assert not any(op.binds for op in rounds[0])


def test_mix_shares_are_the_documented_ones():
    def share(mix, *classes):
        return sum(mix[cls] for cls in classes) / sum(mix.values())

    assert share(workloads.WIRE_MIX, "point_rel", "point_doc", "point_kv") == 0.8
    assert share(workloads.WIRE_MIX, "range_cursor") == 0.1
    assert share(workloads.WIRE_MIX, "insert", "update") == 0.1
    assert share(workloads.TXN_MIX, "new_order") == 0.7
    assert share(workloads.TXN_MIX, "txn_read") == 0.2
    assert share(workloads.TXN_MIX, "agg_scan") == 0.1


def test_workload_b_pools_return_rows(data):
    sequences = sequences_of("b_embedded_warm", data, 1)
    rows = Oracle(data).fill(sequences)
    counts = [count for values in rows.values() for count in values]
    assert sum(1 for count in counts if count) / len(counts) >= 0.9
    assert set(rows) == {"Q1", "Q2", "Q3", "Q4", "Q5"}


# ---------------------------------------------------------------------------
# Smoke passes of the real thing
# ---------------------------------------------------------------------------


def _run(name: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "5", "--smoke", "--trace", str(trace), "--record"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """One timed and two traced smoke passes per workload."""
    return {
        name: {"timed": _run(name, 0), "traced": [_run(name, 1), _run(name, 1)]}
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_passes_with_no_failed_operation(name, smoke):
    for record in [smoke[name]["timed"], *smoke[name]["traced"]]:
        assert record["correct"] and record["failed"] == 0, record["problems"]
        assert record["attempted"] >= 1
    end_to_end = {m["name"] for m in _spec()["end_to_end"]}
    assert set(smoke[name]["timed"]["metrics"]) == end_to_end
    assert all(m["value"] > 0 for m in smoke[name]["timed"]["metrics"].values())
    assert list(smoke[name]["traced"][0]["metrics"]) == [
        name for name, _unit, _better in layers.PER_LAYER]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(name, smoke):
    first, second = (record["metrics"] for record in smoke[name]["traced"])
    for metric in EXACT_COUNTS:
        assert first[metric]["value"] == second[metric]["value"], metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_span_file_is_a_forest_with_nonnegative_self_times(name, smoke):
    recorded = spans.load(os.path.join(BENCH, "out", f"trace-{name}.jsonl"))
    assert recorded
    by_id = {span["span_id"]: span for span in recorded}
    assert len(by_id) == len(recorded)
    for span in recorded:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent_id"] is not None:
            assert by_id[span["parent_id"]]["op_id"] == span["op_id"]
    own = spans.self_times(recorded)
    assert min(own.values()) >= 0
    if name in ("b_embedded_warm", "adhoc_cold_plan"):
        op_time = sum(
            span["end_ns"] - span["start_ns"] for span in recorded
            if span["name"].startswith("driver.op."))
        attributed = sum(
            own[span["span_id"]] for span in recorded
            if not span["name"].startswith(("driver.op.", "probe.")))
        assert attributed / op_time >= 0.9


def test_share_of_time_isolates_the_layers(smoke):
    """The isolation each workload claims, on the smoke trace (the README
    has the full-size table)."""
    def share(name, *prefixes):
        table = smoke[name]["traced"][0]["share_of_time"]
        return sum(v for k, v in table.items() if k.startswith(prefixes))

    planning = ("query.lexer.", "query.parser.", "query.optimizer.")
    assert share("adhoc_cold_plan", *planning) >= 0.5
    assert share("b_embedded_warm", *planning) <= 0.02
    assert share("a_wire_mixed", "server.server.execute") <= 0.15
    assert share("c_txn_wal", "txn.manager.commit", "storage.wal.") >= 0.5


# ---------------------------------------------------------------------------
# BENCHMARK.json and compare.py
# ---------------------------------------------------------------------------


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def test_benchmark_json_names_the_catalogue():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/mmbench"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p95_ms",
        "cpu_ms_per_op", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [v * 1.02 for v in steady], 0.1, "lower")[0] \
        == "within-bound"
    assert compare.verdict(steady, [v * 1.3 for v in steady], 0.1, "lower")[0] \
        == "regression"
    assert compare.verdict(steady, [v * 0.7 for v in steady], 0.1, "higher")[0] \
        == "regression"
    assert compare.verdict(steady, [v * 0.7 for v in steady], 0.1, "lower")[0] \
        == "within-bound"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(steady, noisy, 0.1, "lower")[0] == "unresolved"
