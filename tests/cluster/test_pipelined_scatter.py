"""The scatter writes every shard's request, then reads the replies.

One thread, two passes: ``Coordinator._scatter`` calls the runner for
every target shard (the :class:`ClusterClient`'s runner only writes the
request and returns a pending reply), then resolves each reply in shard
order.  These tests pin the order, the runner contract (a pending reply
or a finished tuple), what a transport failure between the write and the
read does, and that no lock or unread reply is left behind.
"""

import json
import sys
import threading

import pytest

from repro import MultiModelDB
from repro.cluster import start_cluster
from repro.errors import FailoverInProgressError, ShardUnavailableError
from repro.fault import registry as fault_registry
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import QUERIES_B

#: Queries whose statements impose a total order on the result.
ORDERED = {"Q3", "Q4"}

#: A statement that updates nothing but still runs on every shard.
NO_OP_UPDATE = (
    "FOR c IN customers FILTER c.id < 0 UPDATE c WITH {touched: 1} IN customers"
)


def _canon(rows, ordered=False):
    texts = [json.dumps(row, sort_keys=True, default=str) for row in rows]
    return texts if ordered else sorted(texts)


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=1, seed=11)


@pytest.fixture(scope="module")
def expected(data):
    """Workload B's answers from the embedded engine."""
    db = MultiModelDB()
    load_into_multimodel(db, data)
    return {
        query_id: _canon(db.query(text, binds).rows, query_id in ORDERED)
        for query_id, (text, binds) in QUERIES_B.items()
    }


@pytest.fixture(scope="module")
def cluster(data):
    with start_cluster(num_shards=2, data=data) as handle:
        yield handle


@pytest.fixture()
def client(cluster):
    with cluster.client(sleep=None) as cluster_client:
        yield cluster_client


@pytest.fixture(autouse=True)
def _disarm():
    yield
    fault_registry.disarm_all()


class Recorder:
    """A runner around another: logs ``("send", shard, text)`` when the
    coordinator asks for a shard's request and ``("read", shard, text)``
    when it resolves the reply.  ``before_read`` runs just before a reply
    is read."""

    def __init__(self, runner, before_read=None):
        self.runner = runner
        self.before_read = before_read
        self.log: list = []

    def __call__(self, shard_id, text, binds, **options):
        self.log.append(("send", shard_id, text))
        return _Recorded(self, shard_id, text, self.runner(shard_id, text, binds, **options))


class _Recorded:
    def __init__(self, recorder, shard_id, text, reply):
        self.recorder, self.shard_id, self.text, self.reply = recorder, shard_id, text, reply

    def result(self):
        self.recorder.log.append(("read", self.shard_id, self.text))
        if self.recorder.before_read is not None:
            self.recorder.before_read(self.shard_id)
        return self.reply.result()


def _execute(client, text, binds, runner):
    coordinator = client.coordinator
    plan = coordinator.plan(text, binds)
    return plan, coordinator.execute(plan, binds, runner)


def _segments(log) -> dict:
    """``{statement: [(event, shard), ...]}`` in log order."""
    segments: dict = {}
    for event, shard_id, text in log:
        segments.setdefault(text, []).append((event, shard_id))
    return segments


def _assert_written_before_read(log, shards=(0, 1)):
    for text, events in _segments(log).items():
        sends = [shard for event, shard in events if event == "send"]
        reads = [shard for event, shard in events if event == "read"]
        assert sends == list(shards), text
        assert reads == list(shards), text
        assert events == [("send", s) for s in shards] + [("read", s) for s in shards], text


@pytest.mark.parametrize(
    "query_id, strategy, segments",
    [("Q5", "scatter", 1), ("Q2", "scatter", 1), ("Q1", "multi_segment", 2)],
)
def test_every_request_of_a_segment_is_written_before_any_reply_is_read(
    client, expected, query_id, strategy, segments
):
    text, binds = QUERIES_B[query_id]
    recorder = Recorder(client._runner)
    plan, result = _execute(client, text, binds, recorder)
    assert plan.strategy == strategy
    assert len(_segments(recorder.log)) == segments
    _assert_written_before_read(recorder.log)
    assert _canon(result.rows, query_id in ORDERED) == expected[query_id]


def test_a_dml_scatter_writes_both_requests_first(client):
    recorder = Recorder(client._runner)
    plan, result = _execute(client, NO_OP_UPDATE, {}, recorder)
    assert plan.strategy == "dml_scatter"
    _assert_written_before_read(recorder.log)
    assert result.rows == []


def _blocking_runner(client):
    """A runner that returns the finished ``(rows, stats, analyzed)``:
    each shard answers before the next is asked."""

    def run(shard_id, text, binds, **options):
        cursor = client._runner(shard_id, text, binds, **options).result()
        return cursor.fetch_all(), cursor.stats, cursor.analyzed

    return run


def test_a_runner_returning_a_finished_tuple_still_works(client, expected):
    runner = _blocking_runner(client)
    for query_id, (text, binds) in sorted(QUERIES_B.items()):
        _plan, result = _execute(client, text, binds, runner)
        assert _canon(result.rows, query_id in ORDERED) == expected[query_id], query_id


def _drop_reply_of(shard):
    def before_read(shard_id):
        if shard_id == shard:
            fault_registry.arm("client.frame_read", "once", "drop_conn")

    return before_read


@pytest.mark.parametrize("path", ["pipelined", "blocking"])
def test_a_dropped_reply_without_a_replica_ends_the_statement_typed(
    cluster, expected, path
):
    text, binds = QUERIES_B["Q5"]
    # One attempt per request: the dropped reply reaches the shard's
    # router, whose only recovery is a failover with nothing to promote.
    with cluster.client(retries=1, sleep=None) as client:
        client.query(text, binds)  # connect both shards
        if path == "pipelined":
            runner = Recorder(client._runner, before_read=_drop_reply_of(0))
        else:
            # The first frame this process reads next is shard 0's reply.
            fault_registry.arm("client.frame_read", "once", "drop_conn")
            runner = _blocking_runner(client)
        with pytest.raises(ShardUnavailableError) as info:
            _execute(client, text, binds, runner)
        # The shard is named; the router's verdict is the cause.
        assert info.value.shard == 0
        assert isinstance(info.value.__cause__, FailoverInProgressError)
        if path == "pipelined":
            # Shard 1's reply was read all the same: its stream is in step.
            assert ("read", 1, runner.log[0][2]) in runner.log
        # The next statement, on both shards, answers what the embedded
        # engine does.
        assert _canon(client.query(text, binds).rows) == expected["Q5"]


def test_a_shard_lost_mid_scatter_is_named(cluster, expected):
    """A reply lost on shard 0 with nothing to fail over to: the statement
    ends as SHARD_UNAVAILABLE naming shard 0, the router's failover error
    its cause."""
    text, binds = QUERIES_B["Q5"]
    with cluster.client(retries=1, sleep=None) as client:
        client.query(text, binds)  # connect both shards
        # The first frame this process reads next is shard 0's reply.
        fault_registry.arm("client.frame_read", "once", "drop_conn")
        with pytest.raises(ShardUnavailableError) as info:
            client.query(text, binds)
        assert info.value.shard == 0
        assert isinstance(info.value.__cause__, FailoverInProgressError)
        assert _canon(client.query(text, binds).rows) == expected["Q5"]


def test_a_dropped_reply_with_a_replica_fails_over_and_answers(data, expected):
    text, binds = QUERIES_B["Q5"]
    # A long heartbeat keeps the replica's own stream from reading a frame
    # while the failpoint is armed.
    with start_cluster(
        num_shards=2, data=data, replica_for=1, heartbeat_interval=30.0
    ) as cluster:
        with cluster.client(retries=1, sleep=None) as client:
            assert _canon(client.query(text, binds).rows) == expected["Q5"]
            recorder = Recorder(client._runner, before_read=_drop_reply_of(1))
            _plan, result = _execute(client, text, binds, recorder)
            _assert_written_before_read(recorder.log)
            assert _canon(result.rows) == expected["Q5"]
            replica_set = client._replica_set(1)
            assert replica_set.failovers == 1
            host, _, port = cluster.shard_map.entry(1).replicas[0].rpartition(":")
            assert replica_set.primary_address == (host, int(port))
            for query_id, (q_text, q_binds) in sorted(QUERIES_B.items()):
                rows = client.query(q_text, q_binds).rows
                assert _canon(rows, query_id in ORDERED) == expected[query_id], query_id


def _in_another_thread(work, timeout=5.0):
    """Run *work* on a fresh thread; a lock leaked by this one would
    block it, so it must finish within *timeout*."""
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = work()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "a lock was left held by the failed scatter"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def test_a_runner_that_fails_to_send_still_reads_the_other_replies(client, expected):
    text, binds = QUERIES_B["Q5"]
    log: list = []

    def failing_on_0(shard_id, statement, statement_binds, **options):
        if shard_id == 0:
            raise ConnectionError("send failed")
        log.append(shard_id)
        return Recorder(client._runner, None)(shard_id, statement, statement_binds, **options)

    with pytest.raises(ShardUnavailableError) as info:
        _execute(client, text, binds, failing_on_0)
    assert info.value.shard == 0
    assert log == [1]
    rows = _in_another_thread(lambda: client.query(text, binds).rows)
    assert _canon(rows) == expected["Q5"]


def test_a_failed_write_still_reads_the_other_replies(cluster, expected):
    text, binds = QUERIES_B["Q5"]
    with cluster.client(retries=1, sleep=None) as client:
        client.query(text, binds)  # connect both shards
        recorder = Recorder(client._runner)
        # The first frame this process writes next is shard 0's request.
        fault_registry.arm("client.frame_write", "once", "drop_conn")
        with pytest.raises(ShardUnavailableError) as info:
            _execute(client, text, binds, recorder)
        assert info.value.shard == 0
        assert isinstance(info.value.__cause__, FailoverInProgressError)
        assert [event[:2] for event in recorder.log] == [
            ("send", 0), ("send", 1), ("read", 0), ("read", 1)
        ]
        rows = _in_another_thread(lambda: client.query(text, binds).rows)
        assert _canon(rows) == expected["Q5"]


def test_four_threads_on_one_client_get_the_single_thread_answers(client, expected):
    statements = sorted(QUERIES_B.items()) * 10  # 50 statements a thread
    failures: list = []

    def work(offset):
        for index in range(len(statements)):
            query_id, (text, binds) = statements[(index + offset) % len(statements)]
            try:
                rows = client.query(text, binds).rows
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append((offset, index, query_id, repr(error)))
                continue
            if _canon(rows, query_id in ORDERED) != expected[query_id]:
                failures.append((offset, index, query_id))

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between a write and its read
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
