"""One shell over one surface: the commands the embedded and the remote
shells share print the same thing, and ``.help`` lists exactly the
entries a target serves."""

import io
import re

import pytest

from repro.cli import make_demo_db, run_statement
from repro.client import ReproClient
from repro.cluster.bootstrap import make_demo_shard_map
from repro.cluster.client import ClusterClient
from repro.obs import slowlog
from repro.server import ReproServer

SHARED = [
    'FOR c IN customers FILTER c.city == "Prague" SORT c.id LIMIT 2 RETURN c.name',
    "FOR x IN nope RETURN x",
    "FOR broken FILTER",
    '.explain FOR o IN orders FILTER o.Order_no == "x" RETURN o',
    ".explain",
    ".slowlog",
    ".slowlog 0",
    "RETURN 1",
    ".slowlog",
    ".events 1 slow_query",
    ".slowlog off",
    ".slowlog",
    ".slowlog abc",
    ".stats",
    ".nonsense",
]

SERVED = {
    "embedded": {
        ".help", ".catalog", ".dbstats", ".explain", ".advise", ".rules",
        ".stats", ".metrics", ".plancache", ".batch", ".columnar", ".trace",
        ".events", ".slowlog", ".faults", ".quit",
    },
    "wire": {
        ".help", ".explain", ".stats", ".trace", ".events", ".slowlog",
        ".begin", ".commit", ".abort", ".set", ".server", ".replicas",
        ".info", ".quit",
    },
    "cluster": {
        ".help", ".explain", ".stats", ".trace", ".begin", ".shards",
        ".info", ".quit",
    },
}


@pytest.fixture(scope="module")
def embedded():
    return make_demo_db(scale_factor=1)


@pytest.fixture(scope="module")
def wire():
    server = ReproServer(make_demo_db(scale_factor=1), port=0)
    server.start_in_thread()
    with ReproClient(port=server.port) as client:
        yield client
    server.stop()


@pytest.fixture()
def cluster():
    # Never connected: every command checked here must answer without a
    # call to a shard.
    return ClusterClient(make_demo_shard_map(["127.0.0.1:1", "127.0.0.1:2"]))


@pytest.fixture(autouse=True)
def _slowlog_off():
    slowlog.set_threshold(None)
    slowlog.clear()
    yield
    slowlog.set_threshold(None)
    slowlog.clear()


def _transcript(target, statements) -> str:
    out = io.StringIO()
    state = {"done": False}
    for statement in statements:
        print(f">>> {statement}", file=out)
        run_statement(target, statement, out, state)
    # Timings differ from run to run; the server adds its phase timings
    # and LSN to a query's stats.
    text = re.sub(r"\d+\.\d+(e-?\d+)?", "#", out.getvalue())
    return re.sub(r"\n  (server_phases|last_lsn): [^\n]*", "", text)


def test_shared_commands_print_the_same(embedded, wire):
    local = _transcript(embedded, SHARED)
    remote = _transcript(wire, SHARED)
    assert local == remote
    assert "error [UNKNOWN_COLLECTION]:" in local
    assert "error [PARSE]:" in local
    assert "IndexScan" in local
    assert "1 slow query" in local and "RETURN 1" in local
    assert '"kind": "slow_query"' in local
    assert "usage: .slowlog [MS|off]" in local


def _listed(target) -> set:
    out = io.StringIO()
    run_statement(target, ".help", out, {"done": False})
    return {
        line.split()[0] for line in out.getvalue().splitlines()
        if line.startswith("  .")
    }


@pytest.mark.parametrize("kind", ["embedded", "wire", "cluster"])
def test_help_lists_exactly_the_served_entries(kind, request):
    target = request.getfixturevalue(kind)
    assert _listed(target) == SERVED[kind]


@pytest.mark.parametrize("kind", ["embedded", "wire", "cluster"])
def test_unserved_commands_are_refused_before_any_call(kind, request):
    target = request.getfixturevalue(kind)
    for word in set().union(*SERVED.values()) - SERVED[kind]:
        out = io.StringIO()
        run_statement(target, f"{word} x", out, {"done": False})
        assert out.getvalue() == (
            f"  {word!r} is not available on this connection type\n"
        )
