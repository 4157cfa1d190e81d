"""What one scattered statement costs the client: CPU and wall, per shape.

Starts two ``repro.cli serve`` shard processes (``--demo SCALE``, the
demo placement profile) and runs UniBench Q5
(``repro.unibench.workloads.QUERIES_B``), a two-shard scatter, four ways,
taking turns call by call:

* ``cluster`` — ``ClusterClient.query``: plan, scatter, merge;
* ``one shard`` — the shard statement on one bare ``ReproClient``;
* ``two shards, back to back`` — the shard statement on two bare
  ``ReproClient``\\ s, the second sent after the first answered;
* ``two shards, written then read`` — both requests written, then both
  replies read (``ReproClient.submit``; skipped where the client has none).

It prints each way's median client CPU (``time.process_time``, every
thread of this process) and median wall time per call, in microseconds.
The shards' own CPU is not counted.

    PYTHONPATH=src python benchmarks/scatter_probe.py [--scale 4] [--calls 2000]

To compare two checkouts, run it in each, alternating, on an otherwise
idle machine.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

from repro.client.client import ReproClient
from repro.cluster.bootstrap import make_demo_shard_map
from repro.cluster.client import ClusterClient
from repro.unibench.workloads import QUERIES_B

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start_shards(scale: int, workdir: str) -> tuple:
    ports = [_free_port(), _free_port()]
    shard_map = make_demo_shard_map([f"127.0.0.1:{port}" for port in ports])
    map_path = os.path.join(workdir, "map.json")
    shard_map.save(map_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
             "--demo", str(scale), "--cluster", map_path,
             "--shard-id", str(shard_id)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for shard_id, port in enumerate(ports)
    ]
    return shard_map, procs


def _connect(port: int, version: int) -> ReproClient:
    deadline = time.monotonic() + 60
    while True:
        try:
            client = ReproClient(port=port)
            client.connect()
            client.shard_map_version = version
            return client
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=4)
    parser.add_argument("--calls", type=int, default=2000)
    args = parser.parse_args()

    text, binds = QUERIES_B["Q5"]
    with tempfile.TemporaryDirectory() as workdir:
        shard_map, procs = _start_shards(args.scale, workdir)
        try:
            shards = [_connect(int(entry.primary.rpartition(":")[2]),
                               shard_map.version)
                      for entry in shard_map.shards]
            cluster = ClusterClient(shard_map).connect()
            plan = cluster.coordinator.plan(text, binds)
            assert plan.strategy == "scatter", plan.strategy
            statement = plan.segments[0].statement
            shard_binds = {**binds, **plan.values}

            def one_shard():
                return shards[0].query(statement, shard_binds).rows

            def back_to_back():
                return [row for client in shards
                        for row in client.query(statement, shard_binds).rows]

            def written_then_read():
                pending = [client.submit(statement, shard_binds)
                           for client in shards]
                return [row for reply in pending for row in reply.result().rows]

            ways = {
                "cluster": lambda: cluster.query(text, binds).rows,
                "one shard": one_shard,
                "two shards, back to back": back_to_back,
            }
            if hasattr(ReproClient, "submit"):
                ways["two shards, written then read"] = written_then_read
            expected = sorted(map(str, ways["cluster"]()))
            for name, way in ways.items():
                if name != "one shard":
                    assert sorted(map(str, way())) == expected, name
            cpu = {name: [] for name in ways}
            wall = {name: [] for name in ways}
            for call in range(args.calls + 50):
                for name, way in ways.items():
                    cpu_started = time.process_time()
                    started = time.perf_counter()
                    way()
                    elapsed = time.perf_counter() - started
                    cpu_elapsed = time.process_time() - cpu_started
                    if call >= 50:  # warm-up
                        wall[name].append(elapsed)
                        cpu[name].append(cpu_elapsed)
            cluster.close()
            for client in shards:
                client.close()
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(10)
    print(f"Q5, scale {args.scale}, {args.calls} calls a way "
          f"(median per call, µs)")
    print(f"{'way':<32}{'client CPU':>12}{'wall':>10}")
    for name in ways:
        print(f"{name:<32}{statistics.median(cpu[name]) * 1e6:>12.0f}"
              f"{statistics.median(wall[name]) * 1e6:>10.0f}")


if __name__ == "__main__":
    main()
