"""Compare two sets of mmbench runs.

    python3 benchmarks/mmbench/compare.py A.json B.json

A and B are result files written by ``run.py --repeat K --output NAME``
(A is the baseline).  For every workload × end-to-end metric it prints each
side's median and quartiles and a verdict against the bound fixed in
``BENCHMARK.json``:

* ``within-bound`` — B's median is not worse than A's by more than the bound;
* ``regression``   — it is;
* ``unresolved``   — either side's own spread (distance between its
  quartiles over its median) is wider than the bound, so the runs cannot
  tell.

To measure two checkouts against each other, alternating which side runs
first so that machine drift hits both alike::

    python3 benchmarks/mmbench/compare.py --drive PARENT_DIR CHANGE_DIR --pairs 10

Both checkouts must carry the same benchmark files.  Nothing here claims a
gain; the rule for that (nine tenths of the pairs, medians further apart
than the parent's own spread) is in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def load_bounds() -> dict:
    """``{metric: (bound, better)}`` from the root ``BENCHMARK.json``."""
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        spec = json.load(source)
    return {
        metric["name"]: (metric["bound"], metric["better"])
        for metric in spec["end_to_end"]
    }


def load_runs(path: str) -> dict:
    """``{workload: {metric: [values]}}`` of the timed records in *path*."""
    with open(path, encoding="utf-8") as source:
        summary = json.load(source)
    runs: dict = {}
    for record in summary["records"]:
        if record["trace"]:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: list, other: list, bound: float, better: str) -> tuple:
    """(verdict, relative change of the median, wider own spread)."""
    base_low, base_med, base_high = quartiles(base)
    other_low, other_med, other_high = quartiles(other)
    spread = max(
        (base_high - base_low) / base_med, (other_high - other_low) / other_med)
    change = (other_med - base_med) / base_med
    worse_by = change if better == "lower" else -change
    if spread > bound:
        return "unresolved", change, spread
    return ("regression" if worse_by > bound else "within-bound"), change, spread


def compare(path_a: str, path_b: str) -> int:
    bounds = load_bounds()
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    regressions = 0
    for workload in runs_a:
        if workload not in runs_b:
            print(f"{workload}: missing from {path_b}")
            continue
        print(f"{workload}  (A: {len(next(iter(runs_a[workload].values())))} "
              f"runs, B: {len(next(iter(runs_b[workload].values())))} runs)")
        for name, (bound, better) in bounds.items():
            base, other = runs_a[workload][name], runs_b[workload][name]
            outcome, change, spread = verdict(base, other, bound, better)
            regressions += outcome == "regression"
            low_a, med_a, high_a = quartiles(base)
            low_b, med_b, high_b = quartiles(other)
            print(
                f"  {name:18s} A {med_a:11.4f} [{low_a:.4f}, {high_a:.4f}]  "
                f"B {med_b:11.4f} [{low_b:.4f}, {high_b:.4f}]  "
                f"{change:+7.1%} (bound {bound:.0%}, spread {spread:.1%})  "
                f"{outcome}"
            )
    return 1 if regressions else 0


def drive(dir_a: str, dir_b: str, pairs: int, seconds, workloads: list) -> tuple:
    """Run both checkouts *pairs* times, alternating which goes first;
    returns the two result file paths."""
    outputs = []
    for label, checkout in (("A", dir_a), ("B", dir_b)):
        outputs.append(os.path.join(
            checkout, "benchmarks", "mmbench", "out", f"drive-{label}.json"))
    records: tuple = ([], [])
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            checkout = (dir_a, dir_b)[side]
            name = f"drive-pair-{pair}.json"
            command = [
                sys.executable,
                os.path.join(checkout, "benchmarks", "mmbench", "run.py"),
                "--seed", str(1000 + pair), "--output", name, "--timed-only",
            ]
            if seconds is not None:
                command += ["--seconds", str(seconds)]
            for workload in workloads:
                command += ["--only", workload]
            subprocess.run(command, check=True, cwd=checkout)
            with open(os.path.join(os.path.dirname(outputs[side]), name),
                      encoding="utf-8") as source:
                records[side].extend(json.load(source)["records"])
    for side, path in enumerate(outputs):
        with open(path, "w", encoding="utf-8") as sink:
            json.dump({"benchmark": "mmbench", "records": records[side],
                       "claim": None}, sink, indent=1)
    return tuple(outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="RESULTS.json")
    parser.add_argument("--drive", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--only", action="append", default=[],
                        metavar="WORKLOAD")
    args = parser.parse_args(argv)
    if args.drive:
        files = drive(args.drive[0], args.drive[1], args.pairs,
                      args.seconds, args.only)
    elif len(args.files) == 2:
        files = tuple(args.files)
    else:
        parser.error("give two result files, or --drive with two checkouts")
    return compare(*files)


if __name__ == "__main__":
    sys.exit(main())
