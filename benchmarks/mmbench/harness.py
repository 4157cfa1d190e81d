"""The measurement loop shared by all workloads.

A workload object (see ``embedded.py``, ``wire.py``, ``txnwal.py``,
``clusterwl.py``) builds the system under test and knows how to run and
verify one operation; this module times set-up, runs the untraced timed
pass or the traced pass, and assembles the metrics.

Load shape: a closed loop.  Each connection (one thread each, at most
``nproc``) sends its next operation only when the previous reply has been
verified.  A run repeats whole rounds (``workloads.py``) until
``--seconds`` is up, so every run measures the same mix.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time

import spans as span_log
import workloads

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: CPU seconds :func:`calibrate` took on the machine the benchmark was
#: frozen on, in a calm hour.  Time metrics are reported at that speed.
REFERENCE_CALIBRATION_S = 0.00095


def calibrate() -> float:
    """CPU seconds this thread needs for a fixed piece of interpreter work.

    The sandbox's processor speeds up and slows down by a third for minutes
    at a time (a neighbour on the host), and a whole run lands in one such
    spell.  Every connection runs this kernel before each round; the run's
    median says how fast the machine was during the window, and the time
    metrics are scaled by it.  Thread CPU time, not wall time: waiting for
    the interpreter lock or the scheduler is not slowness of the core."""
    started = time.thread_time()
    total = 0
    for value in range(20000):
        total += value * value % 7
    return time.thread_time() - started


class Paths:
    """Where things live, all derived from this directory."""

    def __init__(self):
        self.bench = os.path.dirname(os.path.abspath(__file__))
        self.root = os.path.dirname(os.path.dirname(self.bench))
        self.src = os.path.join(self.root, "src")
        self.out = os.path.join(self.bench, "out")

    def ensure_out(self) -> str:
        os.makedirs(self.out, exist_ok=True)
        return self.out


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(math.ceil(q * len(ordered)) - 1, 0))]


def environment(paths: Paths, seed: int) -> dict:
    """What a result record needs to be read later."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", paths.root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as source:
            for line in source:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "scale_factor": workloads.SCALE_FACTOR,
        "data_seed": workloads.DATA_SEED,
        "seed": seed,
    }


class PassResult:
    """Latencies and failures of one pass over some rounds."""

    def __init__(self):
        self.latencies: dict = {}  # class -> [seconds]
        #: Per connection, per round: (wall seconds, correct ops, p50, p95,
        #: calibration CPU seconds).
        self.rounds: list = []
        self.failures: list = []   # messages, first few kept
        self.failed = 0
        self.attempted = 0
        self.cpu = 0.0

    def merge(self, other: "PassResult") -> None:
        for cls, values in other.latencies.items():
            self.latencies.setdefault(cls, []).extend(values)
        self.rounds.extend(other.rounds)
        self.failures.extend(other.failures)
        self.failed += other.failed
        self.attempted += other.attempted

    def fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op!r}: {message}")

    def all_latencies(self) -> list:
        return sorted(v for values in self.latencies.values() for v in values)

    @property
    def correct(self) -> int:
        return self.attempted - self.failed


def _run_rounds(workload, rounds: list, thread: int, seconds, out: PassResult,
                tracer=None) -> None:
    """Run whole rounds on one connection: cycle through *rounds* until
    *seconds* have passed (``None``: exactly once through)."""
    perf_counter = time.perf_counter
    latencies = out.latencies
    per_round: list = []
    out.rounds.append(per_round)
    started = perf_counter()
    op_id = thread * 10_000_000
    while True:
        for round_ops in rounds:
            in_round = []
            calibration = calibrate() if tracer is None else 0.0
            round_started = perf_counter()
            for op in round_ops:
                out.attempted += 1
                op_id += 1
                try:
                    if tracer is None:
                        begin = perf_counter()
                        result = workload.execute(op, thread)
                        elapsed = perf_counter() - begin
                    else:
                        # The traced call times the operation itself; the
                        # replays and probes it adds are not latency.
                        result, elapsed = workload.execute_traced(
                            op, thread, tracer, op_id)
                    problem = workload.verify(op, result, thread)
                except Exception as error:  # noqa: BLE001 - a failed op
                    out.fail(op, f"{type(error).__name__}: {error}")
                    continue
                if problem is not None:
                    out.fail(op, problem)
                    continue
                in_round.append(elapsed)
                latencies.setdefault(op.cls, []).append(elapsed)
            ended = perf_counter()
            in_round.sort()
            per_round.append((
                ended - round_started, len(in_round),
                percentile(in_round, 0.50), percentile(in_round, 0.95),
                calibration,
            ))
            if seconds is not None and ended - started >= seconds:
                return
        if seconds is None:
            return


def run_pass(workload, sequences: list, seconds, tracer=None) -> PassResult:
    """One pass: ``sequences[i]`` is connection *i*'s list of rounds."""
    children = workload.children()
    results = [PassResult() for _ in sequences]
    child_cpu = sum(child.cpu_seconds() for child in children)
    own_cpu = time.process_time()
    if len(sequences) == 1:
        _run_rounds(workload, sequences[0], 0, seconds, results[0], tracer)
    else:
        gate = threading.Barrier(len(sequences))

        def connection(index: int) -> None:
            gate.wait()
            _run_rounds(workload, sequences[index], index, seconds,
                        results[index], tracer)

        threads = [
            threading.Thread(target=connection, args=(index,))
            for index in range(len(sequences))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    total = PassResult()
    total.cpu = (time.process_time() - own_cpu) + (
        sum(child.cpu_seconds() for child in children) - child_cpu
    )
    for result in results:
        total.merge(result)
    return total


def traced_pass(workload, sequences: list, tracer) -> tuple:
    """The traced pass: every round is run untraced, then traced, so both
    see the same minute of the machine and their ratio is the tracing
    overhead.  Returns ``(traced, untraced)``."""
    traced, untraced = PassResult(), PassResult()
    for index in range(len(sequences[0])):
        step = [[rounds[index]] for rounds in sequences]
        untraced.merge(run_pass(workload, step, None))
        workload.counters.resume()
        traced.merge(run_pass(workload, step, None, tracer))
        workload.counters.pause()
    return traced, untraced


def _median_of_rounds(result: PassResult, column: int) -> float:
    values = [
        entry[column] for per_round in result.rounds for entry in per_round
        if entry[1]
    ]
    return statistics.median(values) if values else 0.0


def timed_setup(workload, sequences: list, repeats: int) -> tuple:
    """Set the system up *repeats* times (the last one is kept); returns
    the seconds each took.

    A set-up is generate + load + index build + server/shard start +
    warm-up; the oracle is the benchmark's own work and is not in it."""
    times = []
    for index in range(repeats):
        started = time.perf_counter()
        workload.setup()
        warm = run_pass(workload, workload.warmup_rounds(sequences), None)
        times.append(time.perf_counter() - started)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.failures}")
        if index < repeats - 1:
            workload.teardown()
    return times


def peak_rss_mb(workload) -> float:
    """Max RSS of the driver plus the peak RSS of each live child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(child.peak_rss_mb() for child in workload.children())


def end_to_end(result: PassResult, setup_times: list, rss_mb: float) -> tuple:
    """The six end-to-end metrics of one timed pass, and what went into
    them: ``(metrics, {"speed_factor", "as_measured"})``.

    Throughput and the two latency percentiles are medians over rounds:
    every round is the same multiset of operations, so a round's ops/s,
    median and 95th percentile estimate the mix's, and the median round
    shrugs off the second-long slow spells of a shared machine that a
    whole-window figure absorbs.  Times are then scaled to the reference
    machine speed (see :func:`calibrate`)."""
    throughput = sum(
        statistics.median(entry[1] / entry[0] for entry in per_round)
        for per_round in result.rounds if per_round
    )
    measured = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": throughput,
        "latency_p50_ms": _median_of_rounds(result, 2) * 1e3,
        "latency_p95_ms": _median_of_rounds(result, 3) * 1e3,
        "cpu_ms_per_op": result.cpu * 1e3 / max(result.correct, 1),
        "peak_rss_mb": rss_mb,
    }
    factor = REFERENCE_CALIBRATION_S / _median_of_rounds(result, 4)
    units = {"setup_s": "s", "throughput_ops_s": "ops/s", "peak_rss_mb": "MB"}
    metrics = {}
    for name, value in measured.items():
        if name == "throughput_ops_s":
            value /= factor
        elif name != "peak_rss_mb":
            value *= factor
        metrics[name] = (value, units.get(name, "ms"))
    return metrics, {"speed_factor": factor, "as_measured": measured}


def driver_metrics(traced: PassResult, untraced: PassResult) -> dict:
    """Per-class medians, p99 and the tracing overhead guard."""
    out = {}
    for cls in workloads.OP_CLASSES:
        values = sorted(traced.latencies.get(cls, ()))
        out[f"driver.op.{cls}.p50_ms"] = percentile(values, 0.5) * 1e3
    traced_all = traced.all_latencies()
    out["driver.latency_p99_ms"] = percentile(traced_all, 0.99) * 1e3
    base = percentile(untraced.all_latencies(), 0.5)
    out["obs.tracing.overhead_ratio"] = (
        percentile(traced_all, 0.5) / base if base else 0.0)
    return out


def share_of_time(tracer: span_log.SpanLog) -> dict:
    """``{span name: share of all operation time}`` along the blocking
    path of every operation; the shares add up to 1."""
    operations = [
        span for span in tracer.spans
        if span["name"].startswith("driver.op.")
    ]
    wanted = {span["op_id"] for span in operations}
    totals = span_log.critical_path_by_name([
        span for span in tracer.spans
        if span["op_id"] in wanted and not span["name"].startswith("probe.")
    ])
    op_time = sum(span["end_ns"] - span["start_ns"] for span in operations)
    return {
        name: total / op_time for name, total in sorted(totals.items())
    } if op_time else {}
