"""mmbench — the UniBench-shaped benchmark of the multi-model engine.

One run of one workload (the form the benchmark driver uses)::

    python3 benchmarks/mmbench/run.py --workload b_embedded_warm \\
        --seed 1 --seconds 15 --trace 0

prints every metric by name and unit, checks every result against the
oracle and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` is the timed pass (tracing off) and reports
the end-to-end metrics, times scaled to the reference machine speed (the
figures as measured are printed beside them); ``--trace 1`` is the traced
pass and reports the per-layer metrics, as measured.

Without ``--workload`` it runs all five workloads, each in a fresh
process, timed and traced, and writes one record per workload with its
environment under ``out/``; ``--repeat K`` does that K times and
``--smoke`` shrinks every pass to a second or two.

See README.md in this directory for the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src"))
sys.path.insert(0, _HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import spans as span_log  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 0.5


def default_seconds() -> int:
    """``run_seconds`` of the root BENCHMARK.json: one place fixes it."""
    spec = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "BENCHMARK.json")
    with open(spec, encoding="utf-8") as source:
        return json.load(source)["run_seconds"]


def make_workload(name: str, paths: harness.Paths):
    if name in ("b_embedded_warm", "adhoc_cold_plan"):
        from embedded import EmbeddedQueries
        return EmbeddedQueries(name)
    if name == "a_wire_mixed":
        from wire import WireMixed
        return WireMixed(paths)
    if name == "c_txn_wal":
        from txnwal import TxnWal
        return TxnWal(paths)
    if name == "b_cluster2":
        from clusterwl import Cluster2
        return Cluster2(paths)
    raise SystemExit(f"unknown workload {name!r}; one of {workloads.WORKLOADS}")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Set up, measure and tear down one workload; returns its record."""
    from repro.unibench.generator import generate

    from embedded import setup_phase_probe
    from oracle import Oracle

    paths = harness.Paths()
    workload = make_workload(name, paths)
    data = generate(workloads.SCALE_FACTOR, workloads.DATA_SEED)
    sequences = workload.sequences(data, seed, smoke)
    rows_by_class = Oracle(data).fill(sequences)
    problems: list = []
    metrics: dict = {}
    extra: dict = {}
    try:
        repeats = 1 if (trace or smoke) else harness.SETUP_REPEATS
        setup_times = harness.timed_setup(workload, sequences, repeats)
        if not trace:
            result = harness.run_pass(workload, sequences, seconds)
            rss = harness.peak_rss_mb(workload)
            metrics, extra = harness.end_to_end(result, setup_times, rss)
        else:
            tracer = span_log.SpanLog()
            workload.begin_trace()
            result, untraced = harness.traced_pass(
                workload, workload.trace_rounds(sequences, smoke), tracer)
            values = layers.span_metrics(tracer)
            values.update(workload.layer_counts())
            values.update(harness.driver_metrics(result, untraced))
            values.update(setup_phase_probe())
            metrics = layers.complete(values)
            tracer.dump(os.path.join(
                paths.ensure_out(), f"trace-{name}.jsonl"))
            extra["share_of_time"] = harness.share_of_time(tracer)
        extra["samples"] = len(result.all_latencies())
        if trace:
            result.merge(untraced)  # its failures and attempts count too
        problems.extend(result.failures)
        problems.extend(workload.finish())
    finally:
        workload.teardown()
    return {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "env": harness.environment(paths, seed),
        "correct": not problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": problems,
        "rows_per_class": {
            cls: sum(counts) / len(counts)
            for cls, counts in sorted(rows_by_class.items())
        },
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
        **extra,
    }


def print_record(record: dict) -> None:
    print(f"# {record['workload']}  seed={record['env']['seed']}  "
          f"trace={int(record['trace'])}  samples={record.get('samples')}")
    for key, metric in record["metrics"].items():
        print(f"{key:52s} {metric['value']:>16.6f} {metric['unit']}")
    if "speed_factor" in record:
        print(f"# machine speed factor {record['speed_factor']:.4f}; as "
              f"measured: {record['as_measured']}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def run_all(args) -> int:
    """Every workload, timed then traced, each in a fresh process."""
    paths = harness.Paths()
    records = []
    for repeat in range(args.repeat):
        for name in args.only or workloads.WORKLOADS:
            for trace in (0,) if args.timed_only else (0, 1):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed + repeat),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--record",
                ]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(
                    command, capture_output=True, text=True, check=False)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    print(f"{name} trace={trace}: exit {done.returncode}")
                    return done.returncode
                record = json.loads(done.stdout.strip().splitlines()[-1])
                record["repeat"] = repeat
                print_record(record)
                records.append(record)
    summary = {
        "benchmark": "mmbench",
        "env": records[0]["env"],
        "records": records,
        "correct": all(record["correct"] for record in records),
        "claim": None,
    }
    target = os.path.join(
        paths.ensure_out(), args.output or f"results-{int(time.time())}.json")
    with open(target, "w", encoding="utf-8") as sink:
        json.dump(summary, sink, indent=1)
        sink.write("\n")
    print(f"wrote {target}")
    print(json.dumps({
        "benchmark": "mmbench", "records": len(records),
        "correct": summary["correct"], "claim": None,
    }))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny passes: a correctness check, not a number")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole suite this many times")
    parser.add_argument("--only", action="append", metavar="WORKLOAD",
                        choices=workloads.WORKLOADS,
                        help="suite mode: just this workload (repeatable)")
    parser.add_argument("--timed-only", action="store_true",
                        help="suite mode: skip the traced passes")
    parser.add_argument("--output", help="result file name under out/")
    parser.add_argument("--record", action="store_true",
                        help="print the full record as the last line")
    args = parser.parse_args(argv)
    # A terminated run must still stop its servers: turn SIGTERM into an
    # exit, so the ``finally`` blocks run as they do on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.workload is None:
        return run_all(args)
    record = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    print_record(record)
    print(json.dumps(record) if args.record else contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
