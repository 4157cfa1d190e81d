"""Exception hierarchy for the ``repro`` multi-model database engine.

Every error raised by the public API derives from :class:`ReproError`, so
callers can catch one base class.  The sub-hierarchy mirrors the subsystems
described in DESIGN.md: data-model errors, catalog errors, query-language
errors, transaction errors, storage errors, server errors and benchmark
errors.

**Wire codes.**  Every class carries a stable ``code`` string (a class
attribute, also exposed per-instance).  Codes are the contract the network
layer ships across the wire: the server serializes ``(code, message,
details)`` and the client re-raises the *same* class by looking the code up
with :func:`error_for_code`.  Codes are append-only — renaming one is a
protocol break, so don't.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by the engine."""

    #: Stable machine-readable identifier; subclasses override.  Instances
    #: read it through the class, so ``error.code`` always works.
    code = "REPRO_ERROR"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


class DataModelError(ReproError):
    """A value violates the unified data-model rules."""

    code = "DATA_MODEL"


class TypeMismatchError(DataModelError):
    """An operation was applied to values of incompatible types."""

    code = "TYPE_MISMATCH"


class PathError(DataModelError):
    """A document path expression could not be resolved or parsed."""

    code = "PATH"


# ---------------------------------------------------------------------------
# Catalog / schema
# ---------------------------------------------------------------------------


class CatalogError(ReproError):
    """Catalog-level problem (unknown or duplicate namespace object)."""

    code = "CATALOG"


class UnknownCollectionError(CatalogError):
    """The named collection/table/graph/bucket does not exist."""

    code = "UNKNOWN_COLLECTION"


class DuplicateCollectionError(CatalogError):
    """A namespace object with that name already exists."""

    code = "DUPLICATE_COLLECTION"


class SchemaError(ReproError):
    """A schema definition or schema check failed."""

    code = "SCHEMA"


class ConstraintViolationError(SchemaError):
    """A row/document violates a declared constraint."""

    code = "CONSTRAINT_VIOLATION"


class PrimaryKeyError(ConstraintViolationError):
    """Primary-key violation: missing, duplicate, or wrongly typed key."""

    code = "PRIMARY_KEY"


# ---------------------------------------------------------------------------
# Query language
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for MMQL query problems."""

    code = "QUERY"


class LexError(QueryError):
    """The query text could not be tokenized."""

    code = "LEX"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(QueryError):
    """The token stream is not a valid MMQL query."""

    code = "PARSE"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BindError(QueryError):
    """A variable or bind parameter is undefined or redefined."""

    code = "BIND"


class PlanError(QueryError):
    """The logical plan could not be built or optimized."""

    code = "PLAN"


class ExecutionError(QueryError):
    """A runtime failure while executing a query plan."""

    code = "EXECUTION"


class FunctionError(ExecutionError):
    """A built-in function received bad arguments."""

    code = "FUNCTION"


class QueryTimeoutError(QueryError):
    """The query exceeded its wall-clock budget (graceful degradation:
    the engine gives up deterministically instead of starving the rest of
    the workload)."""

    code = "QUERY_TIMEOUT"

    def __init__(self, message: str, elapsed: float = 0.0, limit: float = 0.0):
        super().__init__(message)
        self.elapsed = elapsed
        self.limit = limit


class ResourceExhaustedError(QueryError):
    """The query exceeded a resource budget (currently: max result rows)."""

    code = "RESOURCE_EXHAUSTED"

    def __init__(self, message: str, rows: int = 0, limit: int = 0):
        super().__init__(message)
        self.rows = rows
        self.limit = limit


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction failures."""

    code = "TXN"


class SerializationError(TransactionError):
    """A write-write conflict, or under SERIALIZABLE a read-write one."""

    code = "TXN_SERIALIZATION"


class InvalidTransactionStateError(TransactionError):
    """Operation on a transaction that is not active (committed/aborted)."""

    code = "TXN_INVALID_STATE"


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-layer failures."""

    code = "STORAGE"


class WalError(StorageError):
    """The write-ahead log is corrupt or out of sequence."""

    code = "STORAGE_WAL"


class RecoveryError(StorageError):
    """Crash recovery could not be completed."""

    code = "STORAGE_RECOVERY"


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class InjectedFaultError(ReproError):
    """A failpoint fired with the ``error`` effect.

    Raised by armed failpoint sites that are asked to produce a *recoverable*
    fault (as opposed to a simulated process crash); callers exercising
    retry/degradation paths catch this.
    """

    code = "FAULT_INJECTED"


class SimulatedCrash(Exception):
    """A failpoint fired with the ``crash`` effect: the process is presumed
    dead from this point on.

    Deliberately **not** a :class:`ReproError`: nothing inside the engine may
    catch and survive it — only the torture harness (which then discards all
    in-memory state and recovers from the on-disk WAL/checkpoint) handles it.
    """

    def __init__(self, site: str):
        super().__init__(f"simulated process crash at failpoint {site!r}")
        self.site = site


# ---------------------------------------------------------------------------
# Indexes
# ---------------------------------------------------------------------------


class IndexError_(ReproError):
    """Base class for index subsystem failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """

    code = "INDEX"


class UnknownIndexError(IndexError_):
    """The named index does not exist."""

    code = "INDEX_UNKNOWN"


class UnsupportedIndexOperationError(IndexError_):
    """The index type cannot answer the requested operation
    (e.g. a range scan against a hash index, per slide 79)."""

    code = "INDEX_UNSUPPORTED_OP"


# ---------------------------------------------------------------------------
# Server / wire protocol
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for network-service failures.  Also what the client
    raises for a server-side error whose code it does not recognize."""

    code = "SERVER"


class ProtocolError(ServerError):
    """A wire frame was malformed: bad length prefix, payload that is not a
    JSON object, an oversized frame, or a truncated stream."""

    code = "SERVER_PROTOCOL"


class ServerOverloadedError(ServerError):
    """Admission control rejected the request: the server is at its session
    limit or its in-flight + queued query budget.  Clients should back off
    and retry; the request was **not** executed."""

    code = "SERVER_OVERLOADED"


class ServerShutdownError(ServerError):
    """The server is draining for shutdown and no longer accepts new work
    (in-flight queries are allowed to finish)."""

    code = "SERVER_SHUTDOWN"


class SessionStateError(ServerError):
    """The request is invalid in this session's current state (e.g.
    ``begin`` while a transaction is already active, or ``commit``
    without one)."""

    code = "SERVER_SESSION_STATE"


class CursorNotFoundError(ServerError):
    """``cursor_next``/``cursor_close`` named a cursor this session does
    not hold — it was never opened here, already exhausted, explicitly
    closed, or reaped after sitting idle past the server's
    ``cursor_idle_timeout``."""

    code = "CURSOR_NOT_FOUND"


class CursorLimitError(ServerOverloadedError):
    """``query_open`` refused because the session already holds
    ``max_cursors_per_session`` open cursors.  Close or drain one first;
    like every overload rejection, the query was **not** executed."""

    code = "CURSOR_LIMIT"


# ---------------------------------------------------------------------------
# Replication / failover
# ---------------------------------------------------------------------------


class ReplicationError(ServerError):
    """Base class for replication failures (subscription, shipping,
    apply, or a semi-sync acknowledgement that never arrived)."""

    code = "REPLICATION"


class NotPrimaryError(ReplicationError):
    """A write (or transaction) was sent to a **replica**.  Replicas apply
    the primary's WAL stream and serve reads only; the client should
    re-route the statement to the current primary.  ``details`` may carry
    the primary address the replica is following."""

    code = "NOT_PRIMARY"

    def __init__(self, message: str, primary: Optional[str] = None):
        super().__init__(message)
        self.primary = primary


class ReplicaBelowFloorError(ReplicationError):
    """A replica that already holds state asked to resume the WAL stream
    from an LSN the primary's bounded log no longer retains.  It cannot be
    caught up by streaming: it has to subscribe again asking for a snapshot
    (``wal_subscribe`` with ``snapshot: true``), which it then loads as the
    difference to its own state — the engine's own puller does just that.
    ``from_lsn`` and ``floor_lsn`` say by how much it missed."""

    code = "REPLICA_BELOW_FLOOR"

    def __init__(self, message: str, from_lsn: int, floor_lsn: int):
        super().__init__(message)
        self.from_lsn = from_lsn
        self.floor_lsn = floor_lsn


class FailoverInProgressError(ReplicationError):
    """The replica-set router is mid-failover: the old primary is gone and
    a replacement has not been promoted yet.  Non-transactional work is
    retried transparently; transactional work gets this error because the
    server-side transaction died with the old primary and silently
    retargeting would lie about it."""

    code = "FAILOVER_IN_PROGRESS"


# ---------------------------------------------------------------------------
# Cluster / sharding
# ---------------------------------------------------------------------------


class ClusterError(ServerError):
    """Base class for sharded-cluster failures (coordinator planning,
    scatter-gather execution, shard routing, topology)."""

    code = "CLUSTER"


class ShardMapStaleError(ClusterError):
    """The client presented a shard-map version that does not match the
    topology this shard was configured with.  The client must refetch the
    map (``shard_map`` op) and retry; ``details`` carries the server's
    ``version`` so the client can tell *who* is behind."""

    code = "SHARD_MAP_STALE"

    def __init__(self, message: str, version: Optional[int] = None):
        super().__init__(message)
        self.version = version


class ShardUnavailableError(ClusterError):
    """A shard (including all of its replicas) could not be reached while
    executing a scattered statement.  The statement's result is undefined
    for reads and per-shard for DML; the coordinator surfaces this instead
    of returning a silently partial answer."""

    code = "SHARD_UNAVAILABLE"

    def __init__(self, message: str, shard: Optional[int] = None):
        super().__init__(message)
        self.shard = shard


class ClusterUnsupportedError(ClusterError):
    """The statement is valid MMQL but the coordinator cannot run it
    against a sharded topology (e.g. interactive multi-statement
    transactions, which would need distributed commit)."""

    code = "CLUSTER_UNSUPPORTED"


# ---------------------------------------------------------------------------
# Code registry — the wire contract
# ---------------------------------------------------------------------------

#: Serializable instance attributes worth shipping in an error's
#: ``details`` dict (and restoring on the reconstructed instance).
_DETAIL_TYPES = (str, int, float, bool, type(None))


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def code_registry() -> dict[str, type]:
    """{code: class} for every :class:`ReproError` subclass currently
    imported.  Walked dynamically so subsystem-local errors (e.g.
    ``repro.fault.retry.RetryExhaustedError``) participate once their
    module loads."""
    registry: dict[str, type] = {}
    for cls in _subclasses(ReproError):
        registry.setdefault(cls.__dict__.get("code", cls.code), cls)
    return registry


def code_of(error: BaseException) -> str:
    """The wire code for any exception (``INTERNAL`` for non-engine ones)."""
    return getattr(error, "code", "INTERNAL")


def error_details(error: BaseException) -> dict:
    """JSON-safe instance attributes (``line``, ``elapsed``, …) to ship
    alongside the code and message."""
    return {
        key: value
        for key, value in vars(error).items()
        if not key.startswith("_") and isinstance(value, _DETAIL_TYPES)
    }


def error_for_code(
    code: str, message: str, details: Optional[dict] = None
) -> ReproError:
    """Reconstruct a typed engine error from its wire form.

    The instance is built without calling the subclass ``__init__`` (several
    have decorated messages that would double-apply), so the message arrives
    exactly as the server rendered it.  Unknown codes degrade to
    :class:`ServerError` carrying the original code as an instance
    attribute — never a raise-time failure.
    """
    cls = code_registry().get(code)
    if cls is None:
        error = ServerError(message)
        error.code = code  # preserve the foreign code for callers
    else:
        error = cls.__new__(cls)
        Exception.__init__(error, message)
    for key, value in (details or {}).items():
        try:
            setattr(error, key, value)
        except Exception:
            pass
    return error
