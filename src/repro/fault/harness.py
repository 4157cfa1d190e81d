"""Crash-recovery torture harness.

The driver runs a seeded, randomized multi-namespace transactional workload
against the real engine stack (central log → WAL shadow → row view), with
one failpoint site armed to crash partway through.  When the simulated
crash fires, every in-memory object is discarded — exactly the substitution
documented in DESIGN.md §2 — and the engine is recovered from the on-disk
WAL (and, independently, from checkpoint + WAL tail).  Three invariants are
then checked:

1. **Committed data survives** — every write whose COMMIT returned before
   the crash is present after recovery.
2. **Uncommitted tails vanish** — a transaction whose COMMIT never returned
   is either fully absent or (when its COMMIT record reached the WAL before
   the crash) fully present: never partial.
3. **Checkpoint + WAL-tail replay ≡ full WAL replay** — the accelerated
   recovery path reconstructs exactly the same state.

Every run is reproducible from ``(site, trigger, effect, seed)``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SerializationError, SimulatedCrash
from repro.fault.registry import FAILPOINTS
from repro.obs import metrics as obs_metrics
from repro.storage.checkpoint import recover_from_checkpoint, write_checkpoint
from repro.storage.log import CentralLog, LogOp
from repro.storage.views import RowView
from repro.storage.wal import WriteAheadLog, replay_into
from repro.txn.manager import TransactionManager

# Importing these modules is what registers their failpoint sites, so
# enumerate-and-torture sees the whole durability surface even if the
# caller never touched the engine before.
import repro.polyglot.integrator  # noqa: F401  (polyglot sites)

__all__ = ["TortureReport", "torture_run", "torture_all_sites", "DEFAULT_SITE_PREFIXES"]

#: The sites whose crash-recovery behaviour the harness can meaningfully
#: exercise (polyglot sites model a *different* failure — cross-store
#: inconsistency — and have their own workload).
DEFAULT_SITE_PREFIXES = ("wal.", "log.", "txn.", "checkpoint.")

_NAMESPACES = ("rel:customers", "doc:orders", "kv:cart")

_TORTURE_RUNS = obs_metrics.counter("torture_runs_total")


@dataclass
class TortureReport:
    """Outcome of one torture run (one site, one seed)."""

    site: str
    seed: int
    trigger: str
    effect: str
    crashed: bool = False
    ops_attempted: int = 0
    committed_txns: int = 0
    aborted_txns: int = 0
    checkpoint_lsn: Optional[int] = None
    recovered_records: int = 0
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        crash = "crashed" if self.crashed else "no-crash"
        return (
            f"[{status}] site={self.site} seed={self.seed} "
            f"trigger={self.trigger} effect={self.effect} {crash} "
            f"committed={self.committed_txns} errors={self.errors or '-'}"
        )


def _recovered_state(wal_path: str) -> dict:
    """Full-WAL redo recovery → {namespace: {key: value}}."""
    log = CentralLog()
    replay_into(wal_path, log)
    rows = RowView(log, subscribe=False)
    rows.catch_up()
    return _view_state(rows)


def _checkpoint_state(checkpoint_path: str, wal_path: str) -> dict:
    """Checkpoint + WAL-tail recovery → {namespace: {key: value}}."""
    log = CentralLog()
    recover_from_checkpoint(checkpoint_path, wal_path, log)
    rows = RowView(log, subscribe=False)
    rows.catch_up()
    return _view_state(rows)


def _view_state(rows: RowView) -> dict:
    state = {}
    for namespace in rows.namespaces():
        pairs = dict(rows.scan(namespace))
        if pairs:
            state[namespace] = pairs
    return state


def _apply_writes(state: dict, writes: list) -> dict:
    """Oracle + one transaction's writes, applied atomically."""
    merged = {namespace: dict(pairs) for namespace, pairs in state.items()}
    for namespace, key, value, is_delete in writes:
        bucket = merged.setdefault(namespace, {})
        if is_delete:
            bucket.pop(key, None)
        else:
            bucket[key] = value
    return {namespace: pairs for namespace, pairs in merged.items() if pairs}


def torture_run(
    site: str,
    seed: int,
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    ops: int = 40,
    trigger: Optional[str] = None,
    effect: str = "crash",
) -> TortureReport:
    """One torture run: arm *site*, run the workload, crash, recover, check.

    ``trigger`` defaults to ``after:K`` with K drawn from the seed, so
    different seeds crash at different depths of the workload.  A run in
    which the failpoint never fires (K beyond the site's hit count) is
    still verified — it degenerates to a clean-shutdown recovery check.
    """
    rng = random.Random(seed)
    if trigger is None:
        trigger = f"after:{rng.randint(1, 12)}"
    report = TortureReport(site=site, seed=seed, trigger=trigger, effect=effect)
    if obs_metrics.ENABLED:
        _TORTURE_RUNS.inc()

    # -- build the engine stack ------------------------------------------
    log = CentralLog()
    rows = RowView(log)
    manager = TransactionManager(log, rows)
    wal = WriteAheadLog(wal_path, sync=True)
    log.write_ahead = wal.log_group

    oracle: dict = {}  # committed state the recovery must reproduce
    inflight: Optional[list] = None  # writes of the txn crashed mid-commit
    checkpoint_at = ops // 2 if checkpoint_path else None

    FAILPOINTS.arm(site, trigger, effect, seed=seed)
    try:
        for namespace in _NAMESPACES:
            log.append(0, LogOp.CREATE_NAMESPACE, namespace)
        for index in range(ops):
            report.ops_attempted = index + 1
            if checkpoint_at is not None and index == checkpoint_at:
                report.checkpoint_lsn = write_checkpoint(
                    checkpoint_path, rows, log, manager
                )
            txn = manager.begin()
            writes = []
            for _ in range(rng.randint(1, 3)):
                namespace = rng.choice(_NAMESPACES)
                key = f"k{rng.randint(1, 12)}"
                if rng.random() < 0.15 and oracle.get(namespace, {}).get(key):
                    manager.delete(txn, namespace, key)
                    writes.append((namespace, key, None, True))
                else:
                    value = {"v": index, "by": txn.txn_id}
                    manager.write(txn, namespace, key, value)
                    writes.append((namespace, key, value, False))
            if rng.random() < 0.1:
                manager.abort(txn)
                report.aborted_txns += 1
                continue
            if index % 7 == 6:
                wal.flush()  # exercise the explicit-flush fsync site too
            inflight = writes
            try:
                manager.commit(txn)
            except SerializationError:
                report.aborted_txns += 1
                inflight = None
                continue
            oracle = _apply_writes(oracle, writes)
            inflight = None
            report.committed_txns += 1
        # Clean end of workload: close the WAL like a well-behaved process.
        wal.close()
    except SimulatedCrash:
        report.crashed = True
        # Process presumed dead: drop every in-memory object unclosed.
    finally:
        FAILPOINTS.disarm(site)
    del log, rows, manager, wal

    # -- recover and check invariants ------------------------------------
    recovered = _recovered_state(wal_path)
    report.recovered_records = sum(len(pairs) for pairs in recovered.values())
    acceptable = [oracle]
    if inflight is not None:
        # The crash interrupted one commit: if its COMMIT record reached
        # the WAL the transaction is durable, otherwise it must vanish —
        # either way, atomically.
        acceptable.append(_apply_writes(oracle, inflight))
    if recovered not in acceptable:
        report.errors.append(
            "recovered state matches neither the committed oracle nor "
            "oracle+in-flight transaction (atomicity violation): "
            f"recovered={recovered!r} oracle={oracle!r} inflight={inflight!r}"
        )

    if checkpoint_path is not None:
        via_checkpoint = _checkpoint_state(checkpoint_path, wal_path)
        if via_checkpoint != recovered:
            report.errors.append(
                "checkpoint + WAL-tail recovery diverges from full WAL "
                f"replay: checkpoint={via_checkpoint!r} full={recovered!r}"
            )
    return report


def torture_all_sites(
    base_dir: str,
    seed: int = 0,
    ops: int = 40,
    effects: tuple = ("crash", "torn"),
    prefixes: tuple = DEFAULT_SITE_PREFIXES,
) -> list[TortureReport]:
    """Torture every registered durability failpoint site under every
    *effect*; returns one report per (site, effect) pair.

    Sites are enumerated from the global registry, so a newly added
    failpoint is automatically covered the moment its module is imported.
    """
    reports = []
    run = 0
    for name in FAILPOINTS.names():
        if not name.startswith(prefixes):
            continue
        for effect in effects:
            if effect == "torn" and ".write" not in name:
                # Torn writes only exist at byte-sink sites; elsewhere the
                # effect would degrade to a recoverable error, which is not
                # a crash-recovery scenario.
                continue
            run += 1
            wal_path = os.path.join(base_dir, f"torture-{run}.wal")
            checkpoint_path = os.path.join(base_dir, f"torture-{run}.ckpt")
            # Sites hit at most once per run (the single checkpoint, the
            # clean close) need ``once`` to fire at all; per-record sites
            # get a seed-varied depth.
            if name.startswith(("checkpoint.", "wal.close")):
                trigger = "once"  # hit at most once per run
            elif name == "wal.flush.fsync":
                trigger = "after:2"  # hit once every few iterations
            else:
                trigger = None  # seed-varied depth
            reports.append(
                torture_run(
                    name,
                    seed + run,
                    wal_path,
                    checkpoint_path,
                    ops=ops,
                    trigger=trigger,
                    effect=effect,
                )
            )
    return reports
