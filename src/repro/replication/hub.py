"""Primary-side replication bookkeeping: subscribers and semi-sync acks.

One :class:`ReplicationHub` lives in each :class:`ReproServer`.  The
server's event loop does all the mutation (``wal_subscribe`` registers,
the per-connection ship task advances ``shipped_lsn``, incoming ``ack``
frames advance ``acked_lsn``), so the hub needs no locking of its own —
only an :class:`asyncio.Condition` so semi-sync writers can wait for
acknowledgements.

**Semi-sync** (``ack_replication=K > 0``): after a write executes, the
server blocks the response until at least K subscribers have acknowledged
an LSN at or past the write.  Because replicas apply strictly in LSN
order, an ack for LSN N covers every record at or below N — so a
positively-acknowledged write exists on K replicas, and promotion (which
picks the largest ``applied_lsn``) can never lose it.  That is the whole
"zero committed-write loss" argument, and the chaos harness checks it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.errors import ReplicationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics

__all__ = ["ReplicationHub", "Subscriber"]


class Subscriber:
    """One subscribed replica connection."""

    __slots__ = ("session_id", "peer", "shipped_lsn", "acked_lsn",
                 "subscribed_at", "task")

    def __init__(self, session_id: int, peer: str, from_lsn: int):
        self.session_id = session_id
        self.peer = peer
        self.shipped_lsn = from_lsn
        self.acked_lsn = from_lsn
        self.subscribed_at = time.time()
        #: The ship task streaming to this subscriber (cancelled on
        #: unsubscribe/shutdown).
        self.task: Optional[asyncio.Task] = None

    def describe(self) -> dict:
        return {
            "session": self.session_id,
            "peer": self.peer,
            "shipped_lsn": self.shipped_lsn,
            "acked_lsn": self.acked_lsn,
            "uptime_seconds": round(time.time() - self.subscribed_at, 3),
        }


class ReplicationHub:
    """Subscriber registry + ack condition, owned by the server loop."""

    def __init__(self):
        self._subscribers: dict[int, Subscriber] = {}
        self._ack_cond: Optional[asyncio.Condition] = None

    def _condition(self) -> asyncio.Condition:
        if self._ack_cond is None:
            self._ack_cond = asyncio.Condition()
        return self._ack_cond

    # -- registry ------------------------------------------------------------

    def subscribe(self, session_id: int, peer: str, from_lsn: int) -> Subscriber:
        existing = self._subscribers.pop(session_id, None)
        if existing is not None and existing.task is not None:
            existing.task.cancel()
        subscriber = Subscriber(session_id, peer, from_lsn)
        self._subscribers[session_id] = subscriber
        obs_events.emit(
            "wal_subscriber_joined",
            session_id=session_id,
            peer=peer,
            from_lsn=from_lsn,
        )
        return subscriber

    def unsubscribe(self, session_id: int) -> None:
        subscriber = self._subscribers.pop(session_id, None)
        if subscriber is None:
            return
        if subscriber.task is not None:
            subscriber.task.cancel()
        obs_events.emit(
            "wal_subscriber_left",
            session_id=session_id,
            peer=subscriber.peer,
            shipped_lsn=subscriber.shipped_lsn,
            acked_lsn=subscriber.acked_lsn,
        )

    def shutdown(self) -> None:
        for session_id in list(self._subscribers):
            self.unsubscribe(session_id)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def describe(self) -> list[dict]:
        return [sub.describe() for sub in self._subscribers.values()]

    def slowest_shipped_lsn(self) -> Optional[int]:
        """The LSN every live subscriber has been shipped (None without
        one): the engine log keeps what follows it, so a subscriber that
        lags is never trimmed out of the stream.  The one method called
        off the loop — by whichever thread commits — hence the copy."""
        return min(
            (sub.shipped_lsn for sub in list(self._subscribers.values())),
            default=None,
        )

    # -- acks ----------------------------------------------------------------

    def acked_count(self, lsn: int) -> int:
        return sum(
            1 for sub in self._subscribers.values() if sub.acked_lsn >= lsn
        )

    async def record_ack(self, session_id: int, lsn: int) -> None:
        subscriber = self._subscribers.get(session_id)
        if subscriber is None or not isinstance(lsn, int):
            return
        if lsn > subscriber.acked_lsn:
            subscriber.acked_lsn = lsn
            condition = self._condition()
            async with condition:
                condition.notify_all()

    async def wait_for_acks(
        self, lsn: int, count: int, timeout: float
    ) -> None:
        """Block until *count* subscribers have acked *lsn*, or raise
        :class:`ReplicationError` after *timeout* — the write is durable
        and committed **locally** either way; what the error withholds is
        the replication guarantee, so the client knows this write might
        not survive a primary failure."""
        if count <= 0 or self.acked_count(lsn) >= count:
            return
        condition = self._condition()
        deadline = time.monotonic() + timeout
        async with condition:
            while self.acked_count(lsn) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if obs_metrics.ENABLED:
                        obs_metrics.counter("repl_ack_timeouts_total").inc()
                    obs_events.emit(
                        "repl_ack_timeout",
                        lsn=lsn,
                        want=count,
                        have=self.acked_count(lsn),
                        subscribers=self.subscriber_count,
                    )
                    raise ReplicationError(
                        f"semi-sync: {count} replica ack(s) for lsn {lsn} "
                        f"did not arrive within {timeout}s "
                        f"({self.acked_count(lsn)}/{count} acked, "
                        f"{self.subscriber_count} subscribed) — the write "
                        "is committed locally but may not be replicated"
                    )
                try:
                    await asyncio.wait_for(condition.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    continue  # loop re-checks and raises via the deadline
