"""Primary-side replication bookkeeping: subscribers and semi-sync acks.

One :class:`ReplicationHub` lives in each :class:`ReproServer`, and several
threads use it at once: a session thread registers a subscriber on
``wal_subscribe`` and records the ``ack`` frames it reads, the
subscriber's ship thread advances ``shipped_lsn``, any committing thread
asks for the slowest subscriber (the log's trim floor), and semi-sync
writers wait for acknowledgements.  One :class:`threading.Condition`
guards the registry and the ack watermarks; writers wait on it.

**Semi-sync** (``ack_replication=K > 0``): after a write executes, the
server blocks the response until at least K subscribers have acknowledged
an LSN at or past the write.  Because replicas apply strictly in LSN
order, an ack for LSN N covers every record at or below N — so a
positively-acknowledged write exists on K replicas, and promotion (which
picks the largest ``applied_lsn``) can never lose it.  That is the whole
"zero committed-write loss" argument, and the chaos harness checks it.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import ReplicationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics

__all__ = ["ReplicationHub", "Subscriber", "heartbeat_timeout"]


def heartbeat_timeout(heartbeat_interval: float) -> float:
    """How long either end of a WAL stream waits on a silent peer: the
    replica's read timeout, and the primary's send timeout for ship frames
    (a subscriber that stops reading is dropped after it, so it cannot pin
    the log)."""
    return max(4 * heartbeat_interval, 1.0)


class Subscriber:
    """One subscribed replica connection."""

    __slots__ = ("session_id", "peer", "shipped_lsn", "acked_lsn",
                 "subscribed_at", "stopped")

    def __init__(self, session_id: int, peer: str, from_lsn: int):
        self.session_id = session_id
        self.peer = peer
        self.shipped_lsn = from_lsn
        self.acked_lsn = from_lsn
        self.subscribed_at = time.time()
        #: Set on unsubscribe/shutdown; the ship thread streaming to this
        #: subscriber exits when it sees it.
        self.stopped = threading.Event()

    def describe(self) -> dict:
        return {
            "session": self.session_id,
            "peer": self.peer,
            "shipped_lsn": self.shipped_lsn,
            "acked_lsn": self.acked_lsn,
            "uptime_seconds": round(time.time() - self.subscribed_at, 3),
        }


class ReplicationHub:
    """Subscriber registry + ack condition, shared by the server's
    threads."""

    def __init__(self):
        self._subscribers: dict[int, Subscriber] = {}
        self._cond = threading.Condition()

    # -- registry ------------------------------------------------------------

    def subscribe(self, session_id: int, peer: str, from_lsn: int) -> Subscriber:
        subscriber = Subscriber(session_id, peer, from_lsn)
        with self._cond:
            existing = self._subscribers.pop(session_id, None)
            self._subscribers[session_id] = subscriber
            # A replica re-subscribing from its watermark may already cover
            # what a semi-sync writer waits for.
            self._cond.notify_all()
        if existing is not None:
            existing.stopped.set()
        obs_events.emit(
            "wal_subscriber_joined",
            session_id=session_id,
            peer=peer,
            from_lsn=from_lsn,
        )
        return subscriber

    def unsubscribe(
        self, session_id: int, only: Optional[Subscriber] = None
    ) -> None:
        """Drop the session's subscriber — when *only* is given, only if it
        is still that one (not one a later ``wal_subscribe`` put there)."""
        with self._cond:
            subscriber = self._subscribers.get(session_id)
            if subscriber is None or only not in (None, subscriber):
                return
            del self._subscribers[session_id]
        subscriber.stopped.set()
        obs_events.emit(
            "wal_subscriber_left",
            session_id=session_id,
            peer=subscriber.peer,
            shipped_lsn=subscriber.shipped_lsn,
            acked_lsn=subscriber.acked_lsn,
        )

    def shutdown(self) -> None:
        with self._cond:
            session_ids = list(self._subscribers)
        for session_id in session_ids:
            self.unsubscribe(session_id)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def describe(self) -> list[dict]:
        with self._cond:
            subscribers = list(self._subscribers.values())
        return [sub.describe() for sub in subscribers]

    def slowest_shipped_lsn(self) -> Optional[int]:
        """The LSN every live subscriber has been shipped (None without
        one): the engine log keeps what follows it, so a subscriber that
        lags is never trimmed out of the stream.  Called by whichever
        thread appends to the log."""
        with self._cond:
            return min(
                (sub.shipped_lsn for sub in self._subscribers.values()),
                default=None,
            )

    # -- acks ----------------------------------------------------------------

    def _acked_count(self, lsn: int) -> int:
        return sum(
            1 for sub in self._subscribers.values() if sub.acked_lsn >= lsn
        )

    def record_ack(self, session_id: int, lsn: int) -> None:
        if not isinstance(lsn, int):
            return
        with self._cond:
            subscriber = self._subscribers.get(session_id)
            if subscriber is not None and lsn > subscriber.acked_lsn:
                subscriber.acked_lsn = lsn
                self._cond.notify_all()

    def wait_for_acks(self, lsn: int, count: int, timeout: float) -> None:
        """Block until *count* subscribers have acked *lsn*, or raise
        :class:`ReplicationError` after *timeout* — the write is durable
        and committed **locally** either way; what the error withholds is
        the replication guarantee, so the client knows this write might
        not survive a primary failure."""
        if count <= 0:
            return
        with self._cond:
            if self._cond.wait_for(
                lambda: self._acked_count(lsn) >= count, timeout
            ):
                return
            have, subscribers = self._acked_count(lsn), len(self._subscribers)
        if obs_metrics.ENABLED:
            obs_metrics.counter("repl_ack_timeouts_total").inc()
        obs_events.emit(
            "repl_ack_timeout",
            lsn=lsn,
            want=count,
            have=have,
            subscribers=subscribers,
        )
        raise ReplicationError(
            f"semi-sync: {count} replica ack(s) for lsn {lsn} "
            f"did not arrive within {timeout}s "
            f"({have}/{count} acked, "
            f"{subscribers} subscribed) — the write "
            "is committed locally but may not be replicated"
        )
