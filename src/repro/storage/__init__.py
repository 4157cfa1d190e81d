"""Storage substrate: central logical log, storage views, column segments,
WAL and checkpoint.

See DESIGN.md §3 and slides 15-16 (OctopusDB), 78-82 (index-backed views).
"""

from repro.storage.log import CentralLog, LogEntry, LogOp
from repro.storage.views import ColumnView, IndexView, LogOnlyView, RowView
from repro.storage.wal import WriteAheadLog, recover, replay_into

__all__ = [
    "CentralLog",
    "LogEntry",
    "LogOp",
    "ColumnView",
    "IndexView",
    "LogOnlyView",
    "RowView",
    "WriteAheadLog",
    "recover",
    "replay_into",
]
