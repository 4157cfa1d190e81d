"""``repro-shell`` — an interactive MMQL shell, a server, and a wire client.

Usage:

    repro-shell [--wal PATH] [--demo [SCALE]] [-c QUERY] [-f FILE]
    repro-shell serve   [--host H] [--port P] [--demo [SCALE]] [--wal PATH]
                        [--max-sessions N] [--max-inflight N] [--queue-depth N]
                        [--checkpoint PATH] [--timeout S] [--max-rows N]
    repro-shell connect [--host H] [--port P] [-c QUERY] [-f FILE]

* ``--demo`` loads the UniBench e-commerce data set (default scale 1) so
  there is something to query immediately;
* ``--wal`` attaches a write-ahead log (recovering from it first when the
  file already has history);
* ``-c`` runs one query and exits; ``-f`` runs a ``;``-separated script;
* ``serve`` hosts the database over the wire protocol (docs/SERVER.md);
* ``connect`` opens the same shell against a running server.

Inside the shell:

    mmql> FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.name
    mmql> .explain FOR c IN customers RETURN c
    mmql> .catalog        .stats        .help        .quit

Everything is a plain function over streams, so the shell is unit-testable
without a TTY.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Optional

from repro.core.database import MultiModelDB
from repro.errors import ReproError

__all__ = [
    "make_demo_db",
    "run_statement",
    "repl",
    "run_remote_statement",
    "remote_repl",
    "main",
    "serve_main",
    "connect_main",
]

_HELP = """\
MMQL shell commands:
  .help                 this message
  .catalog              list collections/tables/graphs/buckets/stores
  .dbstats              record counts, indexes, log, txn and metric counters
  .explain <query>      show the optimized plan without executing
  .advise [query]       recommend indexes (runtime near-miss log, or a query)
  .rules [list|on NAME|off NAME]
                        list / toggle optimizer rewrite rules
  .stats                statistics of the last query
  .metrics [json]       dump the engine metrics registry (Prometheus text)
  .plancache [clear|size N]
                        show (or clear/resize) the query plan cache
  .batch [N]            show / set the default execution batch size
  .columnar [on|off]    show / toggle columnar segment scans (+ segment stats)
  .trace [on|off]       print a span tree after each query
  .events [N] [KIND]    tail the structured event log (optionally filtered)
  .slowlog [MS|off]     show the slow-query log / set its threshold in ms
  .faults [arm SITE TRIGGER [EFFECT] [seed N] | disarm SITE|all]
                        list / arm / disarm fault-injection failpoints
  .quit                 exit
EXPLAIN ANALYZE <query> executes the query and prints the physical plan
annotated with per-operator rows and wall-time.
Anything else is executed as an MMQL query; rows print as JSON lines."""


def _print_events(tail, argument: str, out: IO) -> None:
    """Shared ``.events [N] [KIND]`` body for the local and remote shells;
    *tail* is any ``(n, kind) -> list[dict]`` source."""
    words = argument.strip().split()
    limit: Optional[int] = 20
    kind: Optional[str] = None
    for word in words:
        if word.isdigit():
            limit = int(word)
        elif word.lower() == "all":
            limit = None
        else:
            kind = word
    entries = tail(limit, kind)
    if not entries:
        suffix = f" of kind {kind!r}" if kind else ""
        print(f"  no events{suffix} recorded yet", file=out)
        return
    for event in entries:
        print(f"  {json.dumps(event, default=str, sort_keys=True)}", file=out)


def make_demo_db(scale_factor: int = 1) -> MultiModelDB:
    """A database pre-loaded with the UniBench e-commerce data set."""
    from repro.unibench.generator import generate, load_into_multimodel

    db = MultiModelDB()
    load_into_multimodel(db, generate(scale_factor=scale_factor, seed=42))
    return db


def run_statement(db: MultiModelDB, statement: str, out: IO, state: dict) -> None:
    """Execute one shell statement (dot-command or MMQL) against *db*."""
    statement = statement.strip()
    if not statement:
        return
    if statement in (".quit", ".exit"):
        state["done"] = True
        return
    if statement == ".help":
        print(_HELP, file=out)
        return
    if statement == ".catalog":
        for name, kind in db.catalog().items():
            print(f"  {name:<20} {kind}", file=out)
        return
    if statement == ".dbstats":
        from repro.obs import metrics as obs_metrics

        stats = db.stats()
        for name, entry in stats["objects"].items():
            print(
                f"  {name:<20} {entry['kind']:<12} {entry['records']} records",
                file=out,
            )
        print(f"  indexes: {len(stats['indexes'])}", file=out)
        print(
            f"  log entries: {stats['log_entries']} retained "
            f"(floor lsn {stats['log_floor_lsn']})",
            file=out,
        )
        print(f"  transactions: {stats['transactions']}", file=out)
        registry = obs_metrics.REGISTRY
        print("  metrics:", file=out)
        for metric_name in (
            "queries_total",
            "query_rows_returned_total",
            "index_lookups_total",
            "plan_cache_hits_total",
            "plan_cache_misses_total",
            "plan_cache_evictions_total",
            "hash_join_builds_total",
            "columnar_segments_pruned_total",
            "columnar_kernel_rows_total",
            "columnar_segment_rebuilds_total",
            "model_ops_total",
            "txn_commits_total",
            "wal_appends_total",
            "fault_injections_total",
            "recovery_runs_total",
            "query_timeouts_total",
            "wal_records_shipped_total",
            "failover_total",
            "repl_ack_timeouts_total",
            "server_cursors_reaped_total",
            "cluster_fanout_queries_total",
            "cluster_single_shard_queries_total",
            "cluster_merge_rows_total",
        ):
            print(f"    {metric_name}: {registry.total(metric_name)}", file=out)
        cache = getattr(db, "plan_cache", None)
        if cache is not None:
            cache_stats = cache.stats()
            print(
                f"  plan cache: {cache_stats['size']}/{cache_stats['capacity']} "
                f"entries, {cache_stats['hits']} hits, "
                f"{cache_stats['misses']} misses",
                file=out,
            )
        return
    if statement == ".stats":
        stats = state.get("last_stats")
        if stats is None:
            print(
                "  no query has run yet — run one and .stats will show its "
                "scan/index/write counters",
                file=out,
            )
        else:
            for key, value in stats.items():
                print(f"  {key}: {value}", file=out)
        return
    if statement.startswith(".metrics"):
        from repro.obs import export as obs_export
        from repro.obs import metrics as obs_metrics

        argument = statement[len(".metrics"):].strip().lower()
        if len(obs_metrics.REGISTRY) == 0:
            print("  no metrics recorded yet", file=out)
        elif argument == "json":
            print(obs_export.json_dump(), file=out)
        else:
            print(obs_export.prometheus_text(), file=out)
        return
    if statement.startswith(".plancache"):
        cache = getattr(db, "plan_cache", None)
        if cache is None:
            print("  this database has no plan cache", file=out)
            return
        argument = statement[len(".plancache"):].strip().lower()
        if argument == "clear":
            cache.clear()
            print("  plan cache cleared", file=out)
            return
        if argument.startswith("size"):
            try:
                capacity = int(argument[len("size"):].strip())
            except ValueError:
                print("  usage: .plancache [clear|size N]", file=out)
                return
            cache.resize(capacity)
            print(f"  plan cache capacity set to {cache.capacity}", file=out)
            return
        if argument:
            print("  usage: .plancache [clear|size N]", file=out)
            return
        cache_stats = cache.stats()
        print(
            f"  {cache_stats['size']}/{cache_stats['capacity']} entries; "
            f"{cache_stats['hits']} hits, {cache_stats['misses']} misses, "
            f"{cache_stats['evictions']} evictions, "
            f"{cache_stats['invalidations']} DDL invalidations",
            file=out,
        )
        for entry in reversed(cache.entries()):  # most recently used first
            binds = (
                " @" + ",@".join(entry["bind_shape"])
                if entry["bind_shape"]
                else ""
            )
            flavour = "" if entry["optimized"] else " [unoptimized]"
            query_text = " ".join(entry["query"].split())
            if len(query_text) > 60:
                query_text = query_text[:57] + "..."
            print(
                f"  {entry['hits']:>5} hits  {query_text}{binds}{flavour}",
                file=out,
            )
        return
    if statement.startswith(".batch"):
        argument = statement[len(".batch"):].strip()
        if not argument:
            ceiling = getattr(getattr(db, "guardrails", None), "max_batch_size", None)
            suffix = f" (guardrail ceiling {ceiling})" if ceiling is not None else ""
            print(f"  batch size: {db.batch_size}{suffix}", file=out)
            return
        try:
            width = int(argument)
        except ValueError:
            print("  usage: .batch [N]", file=out)
            return
        if width < 1:
            print("  batch size must be >= 1", file=out)
            return
        db.batch_size = width
        print(f"  batch size set to {db.batch_size}", file=out)
        return
    if statement.startswith(".columnar"):
        argument = statement[len(".columnar"):].strip().lower()
        if argument == "on":
            db.columnar = True
        elif argument == "off":
            db.columnar = False
        elif argument:
            print("  usage: .columnar [on|off]", file=out)
            return
        status = "on" if getattr(db, "columnar", True) else "off"
        segment_stats = db.context.segments.stats()
        print(
            f"  columnar scans {status} — {segment_stats['segments']} "
            f"segments / {segment_stats['rows']} rows over "
            f"{segment_stats['namespaces']} namespaces "
            f"({segment_stats['rebuilds']} rebuilds, "
            f"{segment_stats['appends']} tail appends, "
            f"{segment_stats['patches']} row patches)",
            file=out,
        )
        return
    if statement.startswith(".trace"):
        from repro.obs import tracing

        argument = statement[len(".trace"):].strip().lower()
        if argument == "on":
            tracing.enable()
            print("  tracing on — span trees print after each query", file=out)
        elif argument == "off":
            tracing.disable()
            print("  tracing off", file=out)
        elif argument == "":
            status = "on" if tracing.is_enabled() else "off"
            print(f"  tracing is {status}; usage: .trace on|off", file=out)
        else:
            print("  usage: .trace on|off", file=out)
        return
    if statement.startswith(".events"):
        from repro.obs import events as obs_events

        _print_events(obs_events.tail, statement[len(".events"):], out)
        return
    if statement.startswith(".slowlog"):
        from repro.obs import slowlog

        argument = statement[len(".slowlog"):].strip().lower()
        if argument == "off":
            slowlog.set_threshold(None)
            slowlog.clear()
            print("  slow-query log off", file=out)
        elif argument:
            try:
                millis = float(argument)
            except ValueError:
                print("  usage: .slowlog [threshold-ms|off]", file=out)
                return
            slowlog.set_threshold(millis / 1000.0)
            print(f"  slow-query log on: threshold {millis:g} ms", file=out)
        else:
            threshold = slowlog.get_threshold()
            if threshold is None:
                print(
                    "  slow-query log is off — .slowlog <ms> to enable",
                    file=out,
                )
                return
            entries = slowlog.entries()
            print(
                f"  threshold {threshold * 1000:g} ms, "
                f"{len(entries)} slow quer{'y' if len(entries) == 1 else 'ies'}",
                file=out,
            )
            for entry in entries:
                print(
                    f"  {entry['seconds'] * 1000:8.1f} ms  "
                    f"{entry['rows']:>6} rows  {entry['query']}",
                    file=out,
                )
        return
    if statement.startswith(".faults"):
        from repro.fault import registry as fault_registry

        # Importing the durability modules is what registers their sites,
        # so the listing covers the whole engine even on a fresh shell.
        import repro.polyglot.integrator  # noqa: F401
        import repro.storage.checkpoint  # noqa: F401
        import repro.storage.wal  # noqa: F401
        import repro.txn.manager  # noqa: F401

        words = statement[len(".faults"):].strip().split()
        usage = "  usage: .faults [arm SITE TRIGGER [EFFECT] [seed N] | disarm SITE|all]"
        if not words:
            states = fault_registry.FAILPOINTS.states()
            if not states:
                print("  no failpoints registered", file=out)
                return
            for entry in states:
                if entry["armed"]:
                    detail = (
                        f"armed {entry['trigger']} effect={entry['effect']} "
                        f"fires={entry['fires']}"
                    )
                else:
                    detail = "disarmed"
                    if entry["fires"]:
                        detail += f" (fired {entry['fires']})"
                print(f"  {entry['site']:<36} {detail}", file=out)
            return
        command, words = words[0].lower(), words[1:]
        if command == "disarm":
            if len(words) != 1:
                print(usage, file=out)
                return
            if words[0].lower() == "all":
                fault_registry.FAILPOINTS.disarm_all()
                print("  all failpoints disarmed", file=out)
                return
            try:
                fault_registry.FAILPOINTS.disarm(words[0])
            except KeyError:
                print(f"  unknown failpoint {words[0]!r}", file=out)
                return
            print(f"  {words[0]} disarmed", file=out)
            return
        if command == "arm":
            seed = None
            if len(words) >= 2 and words[-2].lower() == "seed":
                try:
                    seed = int(words[-1])
                except ValueError:
                    print(usage, file=out)
                    return
                words = words[:-2]
            if len(words) not in (2, 3):
                print(usage, file=out)
                return
            site, trigger = words[0], words[1]
            effect = words[2].lower() if len(words) == 3 else "crash"
            try:
                fault_registry.FAILPOINTS.arm(site, trigger, effect, seed=seed)
            except KeyError:
                print(f"  unknown failpoint {site!r}", file=out)
                return
            except ValueError as error:
                print(f"error: {error}", file=out)
                return
            print(
                f"  {site} armed: {trigger} effect={effect}"
                + (f" seed={seed}" if seed is not None else ""),
                file=out,
            )
            return
        print(usage, file=out)
        return
    if statement.startswith(".explain"):
        query_text = statement[len(".explain"):].strip()
        if not query_text:
            print("  usage: .explain <query>", file=out)
            return
        try:
            print(db.explain(query_text), file=out)
        except ReproError as error:
            print(f"error: {error}", file=out)
        return
    if statement.startswith(".advise"):
        query_text = statement[len(".advise"):].strip()
        from repro.query.advisor import advise

        try:
            # Bare ``.advise`` reads the optimizer's runtime near-miss log;
            # with a query argument it also analyzes that statement.
            recommendations = advise(db, [query_text] if query_text else None)
        except ReproError as error:
            print(f"error: {error}", file=out)
            return
        if not recommendations:
            if query_text:
                print("  no new indexes would help this query", file=out)
            else:
                print(
                    "  no suggestions recorded yet — run some queries, "
                    "or pass a query: .advise <query>",
                    file=out,
                )
        for recommendation in recommendations:
            print(f"  {recommendation.describe()}", file=out)
        return
    if statement.startswith(".rules"):
        argument = statement[len(".rules"):].strip()
        from repro.query.rules import REGISTRY

        toggles = db.optimizer_rules
        if not argument or argument == "list":
            for rule in REGISTRY:
                state_word = (
                    "on" if toggles.is_enabled(rule.name) else "OFF"
                )
                print(
                    f"  [{state_word:>3}] {rule.name}: {rule.description}",
                    file=out,
                )
            return
        parts = argument.split()
        if len(parts) == 2 and parts[0] in ("on", "off"):
            try:
                if parts[0] == "on":
                    toggles.enable(parts[1])
                else:
                    toggles.disable(parts[1])
            except KeyError as error:
                print(f"error: {error.args[0]}", file=out)
                return
            print(f"  {parts[1]} -> {parts[0]}", file=out)
            return
        print("  usage: .rules [list|on NAME|off NAME]", file=out)
        return
    if statement.startswith("."):
        print(f"unknown command {statement.split()[0]!r}; try .help", file=out)
        return
    try:
        result = db.query(statement)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return
    if result.analyzed is not None:
        # EXPLAIN ANALYZE: the annotated plan is the output, not the rows.
        print(result.analyzed, file=out)
    else:
        for row in result.rows:
            print(json.dumps(row, default=str), file=out)
    state["last_stats"] = result.stats
    print(
        f"-- {len(result.rows)} row(s); scanned {result.stats['scanned']}, "
        f"index lookups {result.stats['index_lookups']}",
        file=out,
    )
    from repro.obs import tracing

    if tracing.is_enabled():
        trace = tracing.last_trace()
        if trace is not None:
            print(tracing.format_span(trace), file=out)


def repl(db: MultiModelDB, source: IO, out: IO, prompt: str = "mmql> ") -> None:
    """Read statements from *source* until EOF or ``.quit``.

    Multi-line queries are supported: a line ending in ``\\`` continues.
    """
    state: dict = {"done": False}
    buffer: list[str] = []
    interactive = out.isatty() if hasattr(out, "isatty") else False
    while not state["done"]:
        if interactive:
            out.write(prompt if not buffer else "....> ")
            out.flush()
        line = source.readline()
        if not line:
            break
        line = line.rstrip("\n")
        if line.endswith("\\"):
            buffer.append(line[:-1])
            continue
        buffer.append(line)
        statement = "\n".join(buffer)
        buffer = []
        run_statement(db, statement, out, state)


# ---------------------------------------------------------------------------
# Remote shell (the `connect` subcommand)
# ---------------------------------------------------------------------------

_REMOTE_HELP = """\
Remote MMQL shell commands:
  .help                 this message
  .explain <query>      server-side optimized plan, without executing
  .begin [ISOLATION]    open a transaction on this session
  .commit / .abort      finish the session's transaction
  .set [timeout S|off] [max_rows N|off]
                        session guardrail overrides (host caps still apply)
  .server               server stats: sessions, in-flight, limits
  .replicas             replication status: role, watermarks, subscribers
  .shards               cluster topology: shard roster, placements,
                        per-shard reachability (cluster connections only)
  .info                 server handshake info (version, protocol, limits)
  .trace <query>        run the query traced; print the stitched
                        client+server span tree (one trace across every
                        fetch of the stream)
  .events [N] [KIND]    tail the server's structured event log
  .slowlog [MS|off]     show the server's slow-query log / set threshold
  .quit                 exit
Anything else runs as an MMQL query on the server; rows print as JSON."""


def run_remote_statement(client, statement: str, out: IO, state: dict) -> None:
    """Execute one remote-shell statement (dot-command or MMQL)."""
    statement = statement.strip()
    if not statement:
        return
    if statement in (".quit", ".exit"):
        state["done"] = True
        return
    if statement == ".help":
        print(_REMOTE_HELP, file=out)
        return
    try:
        if statement == ".server":
            stats = client.stats()
            print(
                f"  uptime {stats['uptime_seconds']}s, "
                f"{len(stats['sessions'])} session(s), "
                f"{stats['inflight']} in flight"
                + (", draining" if stats["draining"] else ""),
                file=out,
            )
            for limit, value in stats["limits"].items():
                print(f"  {limit}: {value}", file=out)
            for entry in stats["sessions"]:
                print(
                    f"  session {entry['session']} peer={entry['peer']} "
                    f"requests={entry['requests']} in_txn={entry['in_txn']}",
                    file=out,
                )
            return
        if statement == ".replicas":
            status = client._call("repl_status")
            role = status.get("role", "?")
            print(
                f"  role {role}, last_lsn {status.get('last_lsn')}",
                file=out,
            )
            if role == "replica":
                print(
                    f"  primary {status.get('primary')} "
                    f"connected={status.get('connected')} "
                    f"applied={status.get('applied_lsn')} "
                    f"received={status.get('received_lsn')}",
                    file=out,
                )
            else:
                print(
                    f"  ack_replication: {status.get('ack_replication')}",
                    file=out,
                )
                subscribers = status.get("subscribers") or []
                if not subscribers:
                    print("  no subscribed replicas", file=out)
                for entry in subscribers:
                    print(
                        f"  replica {entry.get('peer')} "
                        f"shipped={entry.get('shipped_lsn')} "
                        f"acked={entry.get('acked_lsn')}",
                        file=out,
                    )
            return
        if statement == ".info":
            for key, value in client.info().items():
                print(f"  {key}: {value}", file=out)
            return
        if statement == ".shards":
            shards_status = getattr(client, "shards_status", None)
            if shards_status is None:
                print(
                    "  not a cluster connection — reconnect with "
                    "`connect --cluster MAP|HOST:PORT`",
                    file=out,
                )
                return
            for entry in shards_status():
                replicas = ", ".join(entry["replicas"]) or "none"
                health = "up" if entry["alive"] else "UNREACHABLE"
                print(
                    f"  shard {entry['shard_id']}: primary "
                    f"{entry['primary']} ({health}), replicas: {replicas}",
                    file=out,
                )
            info = client.info()
            print(
                f"  map v{info['map_version']}, placements: "
                + ", ".join(
                    f"{name}={mode}"
                    for name, mode in info["placements"].items()
                ),
                file=out,
            )
            return
        if statement.startswith(".begin"):
            isolation = statement[len(".begin"):].strip() or "snapshot"
            txn = client.begin(isolation)
            print(f"  transaction {txn} started ({isolation})", file=out)
            return
        if statement == ".commit":
            client.commit()
            print("  committed", file=out)
            return
        if statement == ".abort":
            client.abort()
            print("  aborted", file=out)
            return
        if statement.startswith(".set"):
            words = statement[len(".set"):].strip().split()
            kwargs: dict = {}
            index = 0
            while index < len(words):
                key = words[index].lower()
                if key in ("timeout", "max_rows") and index + 1 < len(words):
                    raw = words[index + 1].lower()
                    if raw == "off":
                        kwargs[key] = None
                    else:
                        kwargs[key] = float(raw) if key == "timeout" else int(raw)
                    index += 2
                else:
                    print(
                        "  usage: .set [timeout S|off] [max_rows N|off]",
                        file=out,
                    )
                    return
            effective = client.set_limits(**kwargs)
            print(
                f"  session limits: timeout={effective['timeout']} "
                f"max_rows={effective['max_rows']}",
                file=out,
            )
            return
        if statement.startswith(".explain"):
            query_text = statement[len(".explain"):].strip()
            if not query_text:
                print("  usage: .explain <query>", file=out)
                return
            print(client.explain(query_text), file=out)
            return
        if statement.startswith(".trace"):
            query_text = statement[len(".trace"):].strip()
            if not query_text:
                print("  usage: .trace <query>", file=out)
                return
            cursor = client.query(query_text, trace=True)
            rows = cursor.rows  # drain so the trace covers every fetch
            if cursor.trace is not None:
                print(cursor.trace.format(), file=out)
            else:
                print(
                    "  (server does not advertise the trace feature)",
                    file=out,
                )
            print(f"-- {len(rows)} row(s)", file=out)
            state["last_stats"] = cursor.stats
            return
        if statement.startswith(".events"):
            _print_events(client.events, statement[len(".events"):], out)
            return
        if statement.startswith(".slowlog"):
            argument = statement[len(".slowlog"):].strip().lower()
            if argument == "off":
                client.slowlog(threshold_ms=None)
                print("  server slow-query log off", file=out)
                return
            if argument:
                try:
                    millis = float(argument)
                except ValueError:
                    print("  usage: .slowlog [threshold-ms|off]", file=out)
                    return
                client.slowlog(threshold_ms=millis)
                print(
                    f"  server slow-query log on: threshold {millis:g} ms",
                    file=out,
                )
                return
            payload = client.slowlog()
            threshold = payload.get("threshold_ms")
            if threshold is None:
                print(
                    "  server slow-query log is off — .slowlog <ms> to enable",
                    file=out,
                )
                return
            entries = payload.get("entries") or []
            print(
                f"  threshold {threshold:g} ms, {len(entries)} "
                f"slow quer{'y' if len(entries) == 1 else 'ies'}",
                file=out,
            )
            for entry in entries:
                correlation = ""
                if entry.get("trace_id"):
                    correlation = f"  trace={entry['trace_id']}"
                print(
                    f"  {entry['seconds'] * 1000:8.1f} ms  "
                    f"{entry['rows']:>6} rows  {entry['query']}{correlation}",
                    file=out,
                )
            return
        if statement.startswith("."):
            print(
                f"unknown command {statement.split()[0]!r}; try .help",
                file=out,
            )
            return
        result = client.query(statement)
    except ReproError as error:
        print(f"error [{error.code}]: {error}", file=out)
        return
    except AttributeError:
        print(
            f"  {statement.split()[0]!r} is not available on this "
            "connection type",
            file=out,
        )
        return
    except (ConnectionError, OSError, ValueError) as error:
        print(f"error: {error}", file=out)
        return
    if result.analyzed is not None:
        print(result.analyzed, file=out)
    else:
        for row in result.rows:
            print(json.dumps(row, default=str), file=out)
    state["last_stats"] = result.stats
    print(
        f"-- {len(result.rows)} row(s); scanned {result.stats['scanned']}, "
        f"index lookups {result.stats['index_lookups']}",
        file=out,
    )


def remote_repl(client, source: IO, out: IO, prompt: str = "mmql*> ") -> None:
    """Like :func:`repl`, but every statement goes over the wire."""
    state: dict = {"done": False}
    buffer: list[str] = []
    interactive = out.isatty() if hasattr(out, "isatty") else False
    while not state["done"]:
        if interactive:
            out.write(prompt if not buffer else "....> ")
            out.flush()
        line = source.readline()
        if not line:
            break
        line = line.rstrip("\n")
        if line.endswith("\\"):
            buffer.append(line[:-1])
            continue
        buffer.append(line)
        statement = "\n".join(buffer)
        buffer = []
        run_remote_statement(client, statement, out, state)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def serve_main(argv: Optional[list[str]] = None) -> int:
    """``repro-shell serve`` — host a database over the wire protocol."""
    from repro import __version__
    from repro.client.client import DEFAULT_PORT
    from repro.server import ReproServer

    parser = argparse.ArgumentParser(
        prog="repro-shell serve", description="serve a database over TCP"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--demo", nargs="?", const=1, type=int, metavar="SCALE",
        help="load the UniBench demo data set",
    )
    parser.add_argument("--wal", help="attach (and recover from) a WAL file")
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="write a checkpoint here during graceful shutdown",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="S",
        help="host-wide query timeout cap (db.guardrails.timeout)",
    )
    parser.add_argument(
        "--max-rows", type=int, metavar="N",
        help="host-wide result row cap (db.guardrails.max_rows)",
    )
    parser.add_argument(
        "--telemetry-port", type=int, metavar="P",
        help="serve HTTP /metrics, /healthz, /stats and /events on this "
        "port (0 picks a free one)",
    )
    parser.add_argument(
        "--replica-of", metavar="HOST:PORT",
        help="start as a read replica: subscribe to this primary's WAL "
        "stream and refuse writes (docs/SERVER.md#replication)",
    )
    parser.add_argument(
        "--ack-replication", type=int, default=0, metavar="K",
        help="semi-sync: a write confirms only after K replicas "
        "acknowledged its LSN (0 = asynchronous, the default)",
    )
    parser.add_argument(
        "--ack-timeout", type=float, default=5.0, metavar="S",
        help="how long a semi-sync write waits for replica acks before "
        "failing with a REPLICATION error",
    )
    parser.add_argument(
        "--events-file", metavar="PATH",
        help="append structured events to PATH as JSON lines",
    )
    parser.add_argument(
        "--cluster", metavar="MAP.json",
        help="join a sharded cluster: path to the shard-map JSON "
        "(docs/SERVER.md#cluster); requires --shard-id",
    )
    parser.add_argument(
        "--shard-id", type=int, metavar="N",
        help="this server's shard id in the --cluster map",
    )
    args = parser.parse_args(argv)

    if (args.cluster is None) != (args.shard_id is None):
        parser.error("--cluster and --shard-id go together")
    shard_map = None
    if args.cluster is not None:
        from repro.cluster.shardmap import ShardMap

        shard_map = ShardMap.load(args.cluster)
        if args.shard_id not in shard_map.all_shard_ids():
            parser.error(
                f"--shard-id {args.shard_id} is not in the map "
                f"(shards: {shard_map.all_shard_ids()})"
            )

    if args.replica_of is not None:
        host_part, _, port_part = args.replica_of.rpartition(":")
        if not host_part or not port_part.isdigit():
            parser.error("--replica-of expects HOST:PORT")
        if args.demo is not None or args.wal:
            parser.error(
                "--replica-of populates the database from the primary's "
                "WAL stream; --demo/--wal do not combine with it"
            )

    if args.demo is not None:
        if shard_map is not None:
            # A cluster shard loads only its slice of the demo data set.
            from repro.cluster.bootstrap import load_sharded_unibench
            from repro.unibench.generator import generate

            stand_ins = [
                MultiModelDB() for _ in range(shard_map.num_shards)
            ]
            load_sharded_unibench(
                stand_ins,
                generate(scale_factor=args.demo, seed=42),
                shard_map,
            )
            db = stand_ins[
                shard_map.all_shard_ids().index(args.shard_id)
            ]
        else:
            db = make_demo_db(args.demo)
    else:
        db = MultiModelDB()
    if args.wal:
        import os

        if os.path.exists(args.wal):
            db.recover(args.wal)
        db.attach_wal(args.wal)
    if args.timeout is not None:
        db.guardrails.timeout = args.timeout
    if args.max_rows is not None:
        db.guardrails.max_rows = args.max_rows

    if args.events_file:
        from repro.obs import events as obs_events

        obs_events.attach_file(args.events_file)

    server = ReproServer(
        db,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        checkpoint_path=args.checkpoint,
        telemetry_port=args.telemetry_port,
        replica_of=args.replica_of,
        ack_replication=args.ack_replication,
        ack_timeout=args.ack_timeout,
        shard_id=args.shard_id,
        shard_map=shard_map,
    )
    host, port = server.start_in_thread()
    role = (
        f"replica of {args.replica_of}" if args.replica_of else "primary"
    )
    if args.shard_id is not None:
        role += f", shard {args.shard_id} of {shard_map.num_shards}"
    print(
        f"repro {__version__} serving on {host}:{port} as {role} "
        f"(max {args.max_sessions} sessions, {args.max_inflight} engine "
        "calls at once; Ctrl-C for graceful drain)",
        file=sys.stdout,
    )
    if args.ack_replication:
        print(
            f"semi-sync replication: writes wait for "
            f"{args.ack_replication} replica ack(s), "
            f"timeout {args.ack_timeout:g}s",
            file=sys.stdout,
        )
    if server.telemetry_address is not None:
        telemetry_host, telemetry_port = server.telemetry_address
        print(
            f"telemetry on http://{telemetry_host}:{telemetry_port} "
            "(/metrics /healthz /stats /events)",
            file=sys.stdout,
        )
    try:
        import time

        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("draining…", file=sys.stdout)
    finally:
        server.stop()
        db.close()
        if args.events_file:
            from repro.obs import events as obs_events

            obs_events.detach_file()
    print("server stopped", file=sys.stdout)
    return 0


def connect_main(argv: Optional[list[str]] = None) -> int:
    """``repro-shell connect`` — the shell against a running server."""
    from repro.client import ReproClient
    from repro.client.client import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro-shell connect", description="remote MMQL shell"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("-c", "--command", help="run one query and exit")
    parser.add_argument("-f", "--file", help="run a ;-separated script")
    parser.add_argument(
        "--cluster", metavar="MAP|HOST:PORT",
        help="connect to a sharded cluster: a shard-map JSON file, or "
        "any shard's address to fetch the map from",
    )
    args = parser.parse_args(argv)

    if args.cluster is not None:
        import os

        from repro.cluster.client import ClusterClient
        from repro.cluster.shardmap import ShardMap

        try:
            if os.path.exists(args.cluster):
                client = ClusterClient(ShardMap.load(args.cluster))
            else:
                client = ClusterClient(seed=args.cluster)
            client.connect()
        except (ConnectionError, OSError, ReproError) as error:
            print(f"error: cannot join cluster {args.cluster}: {error}",
                  file=sys.stderr)
            return 1
    else:
        try:
            client = ReproClient(host=args.host, port=args.port)
            client.connect()
        except (ConnectionError, OSError) as error:
            print(f"error: cannot reach {args.host}:{args.port}: {error}",
                  file=sys.stderr)
            return 1
    with client:
        state: dict = {"done": False}
        if args.command:
            run_remote_statement(client, args.command, sys.stdout, state)
            return 0
        if args.file:
            with open(args.file, "r", encoding="utf-8") as handle:
                script = handle.read()
            for statement in script.split(";"):
                run_remote_statement(client, statement, sys.stdout, state)
            return 0
        if args.cluster is not None:
            info = client.info()
            print(
                f"connected to a {info['shards']}-shard cluster "
                f"(map v{info['map_version']}) — .help for commands, "
                ".shards for the roster",
                file=sys.stdout,
            )
        else:
            info = client.server_info or {}
            print(
                f"connected to repro {info.get('version')} at "
                f"{args.host}:{args.port} (session {info.get('session')}) — "
                ".help for commands",
                file=sys.stdout,
            )
        remote_repl(client, sys.stdin, sys.stdout)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "connect":
        return connect_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-shell", description="interactive MMQL shell"
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("--wal", help="attach (and recover from) a WAL file")
    parser.add_argument(
        "--demo",
        nargs="?",
        const=1,
        type=int,
        metavar="SCALE",
        help="load the UniBench demo data set",
    )
    parser.add_argument("-c", "--command", help="run one query and exit")
    parser.add_argument("-f", "--file", help="run a ;-separated script")
    args = parser.parse_args(argv)

    if args.demo is not None:
        db = make_demo_db(args.demo)
    else:
        db = MultiModelDB()
    if args.wal:
        import os

        if os.path.exists(args.wal):
            db.recover(args.wal)
        db.attach_wal(args.wal)

    state: dict = {"done": False}
    if args.command:
        run_statement(db, args.command, sys.stdout, state)
        return 0
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            script = handle.read()
        for statement in script.split(";"):
            run_statement(db, statement, sys.stdout, state)
        return 0
    print("repro MMQL shell — .help for commands", file=sys.stdout)
    repl(db, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
