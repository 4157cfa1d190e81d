"""``repro-shell`` — an interactive MMQL shell, a server, and a wire client.

Usage:

    repro-shell [--wal PATH] [--demo [SCALE]] [-c QUERY] [-f FILE]
    repro-shell serve   [--host H] [--port P] [--demo [SCALE]] [--wal PATH]
                        [--max-sessions N] [--max-inflight N] [--queue-depth N]
                        [--checkpoint PATH] [--timeout S] [--max-rows N]
    repro-shell connect [--host H] [--port P] [--cluster MAP|HOST:PORT]
                        [-c QUERY] [-f FILE]

* ``--demo`` loads the UniBench e-commerce data set (default scale 1) so
  there is something to query immediately;
* ``--wal`` attaches a write-ahead log (recovering from it first when the
  file already has history);
* ``-c`` runs one statement and exits; ``-f`` runs a script whose
  statements are separated by ``;`` (outside string literals and comments);
* ``serve`` hosts the database over the wire protocol (docs/SERVER.md);
* ``connect`` opens the same shell against a running server or cluster.

Inside the shell:

    mmql> FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.name
    mmql> .explain FOR c IN customers RETURN c
    mmql> .catalog        .stats        .help        .quit

One shell serves three kinds of target: an embedded :class:`MultiModelDB`,
a :class:`~repro.client.ReproClient` (``wire``) and a
:class:`~repro.cluster.client.ClusterClient` (``cluster``).  Every
dot-command is one entry of one table that names the kinds serving it.
Everything is a plain function over streams, so the shell is
unit-testable without a TTY.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import IO, Callable, NamedTuple, Optional

from repro.core.database import MultiModelDB
from repro.errors import ReproError
from repro.query.lexer import COMMENT_PATTERN, STRING_PATTERN

__all__ = [
    "make_demo_db",
    "run_statement",
    "repl",
    "split_script",
    "main",
    "serve_main",
    "connect_main",
]

def make_demo_db(scale_factor: int = 1) -> MultiModelDB:
    """A database pre-loaded with the UniBench e-commerce data set."""
    from repro.unibench.generator import generate, load_into_multimodel

    db = MultiModelDB()
    load_into_multimodel(db, generate(scale_factor=scale_factor, seed=42))
    return db


def target_kind(target) -> str:
    """``embedded``, ``wire`` or ``cluster``: which entries serve *target*."""
    if isinstance(target, MultiModelDB):
        return "embedded"
    from repro.cluster.client import ClusterClient

    return "cluster" if isinstance(target, ClusterClient) else "wire"


# ---------------------------------------------------------------------------
# The command table: one entry per dot-command and meaning, naming the
# target kinds that serve it
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    name: str
    kinds: frozenset
    usage: str  # the command and its arguments, as .help and usage lines print it
    summary: str
    run: Callable  # (target, argument, out, state) -> None


class _Usage(Exception):
    """Raised by a command handler for malformed arguments."""


_COMMANDS: list[_Command] = []


def _command(name: str, kinds: str, summary: str, arguments: str = ""):
    usage = f"{name} {arguments}".strip()

    def register(run):
        _COMMANDS.append(
            _Command(name, frozenset(kinds.split()), usage, summary, run)
        )
        return run

    return register


@_command(".help", "embedded wire cluster", "this message")
def _help(target, argument, out, state):
    kind = target_kind(target)
    print("MMQL shell commands:", file=out)
    for command in _COMMANDS:
        if kind in command.kinds:
            gap = "\n" + " " * 24 if len(command.usage) > 21 else ""
            print(f"  {command.usage:<22}{gap}{command.summary}", file=out)
    print(
        "EXPLAIN ANALYZE <query> executes the query and prints the physical "
        "plan\nannotated with per-operator rows and wall-time.\n"
        "Anything else runs as an MMQL query; rows print as JSON lines.",
        file=out,
    )


@_command(".catalog", "embedded", "list collections/tables/graphs/buckets/stores")
def _catalog(db, argument, out, state):
    for name, kind in db.catalog().items():
        print(f"  {name:<20} {kind}", file=out)


_DBSTATS_METRICS = (
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
)


@_command(".dbstats", "embedded", "record counts, indexes, log, txn and metric counters")
def _dbstats(db, argument, out, state):
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
    print("  metrics:", file=out)
    for metric_name in _DBSTATS_METRICS:
        total = obs_metrics.REGISTRY.total(metric_name)
        print(f"    {metric_name}: {total}", file=out)
    cache = getattr(db, "plan_cache", None)
    if cache is not None:
        cache_stats = cache.stats()
        print(
            f"  plan cache: {cache_stats['size']}/{cache_stats['capacity']} "
            f"entries, {cache_stats['hits']} hits, "
            f"{cache_stats['misses']} misses",
            file=out,
        )


@_command(".explain", "embedded wire cluster",
          "show the optimized plan without executing", "<query>")
def _explain(target, argument, out, state):
    if not argument:
        raise _Usage
    print(target.explain(argument), file=out)


@_command(".advise", "embedded",
          "recommend indexes (runtime near-miss log, or a query)", "[query]")
def _advise(db, argument, out, state):
    from repro.query.advisor import advise

    # Bare ``.advise`` reads the optimizer's runtime near-miss log; with a
    # query argument it also analyzes that statement.
    recommendations = advise(db, [argument] if argument else None)
    if not recommendations:
        if argument:
            print("  no new indexes would help this query", file=out)
        else:
            print(
                "  no suggestions recorded yet — run some queries, "
                "or pass a query: .advise <query>",
                file=out,
            )
    for recommendation in recommendations:
        print(f"  {recommendation.describe()}", file=out)


@_command(".rules", "embedded", "list / toggle optimizer rewrite rules",
          "[list|on NAME|off NAME]")
def _rules(db, argument, out, state):
    from repro.query.rules import REGISTRY

    toggles = db.optimizer_rules
    if not argument or argument == "list":
        for rule in REGISTRY:
            state_word = "on" if toggles.is_enabled(rule.name) else "OFF"
            print(
                f"  [{state_word:>3}] {rule.name}: {rule.description}",
                file=out,
            )
        return
    parts = argument.split()
    if len(parts) != 2 or parts[0] not in ("on", "off"):
        raise _Usage
    try:
        if parts[0] == "on":
            toggles.enable(parts[1])
        else:
            toggles.disable(parts[1])
    except KeyError as error:
        print(f"error: {error.args[0]}", file=out)
        return
    print(f"  {parts[1]} -> {parts[0]}", file=out)


@_command(".stats", "embedded wire cluster", "statistics of the last query")
def _stats(target, argument, out, state):
    stats = state.get("last_stats")
    if stats is None:
        print(
            "  no query has run yet — run one and .stats will show its "
            "scan/index/write counters",
            file=out,
        )
        return
    for key, value in stats.items():
        print(f"  {key}: {value}", file=out)


@_command(".metrics", "embedded",
          "dump the engine metrics registry (Prometheus text)", "[json]")
def _metrics(db, argument, out, state):
    from repro.obs import export as obs_export
    from repro.obs import metrics as obs_metrics

    if len(obs_metrics.REGISTRY) == 0:
        print("  no metrics recorded yet", file=out)
    elif argument.lower() == "json":
        print(obs_export.json_dump(), file=out)
    else:
        print(obs_export.prometheus_text(), file=out)


@_command(".plancache", "embedded",
          "show (or clear/resize) the query plan cache", "[clear|size N]")
def _plancache(db, argument, out, state):
    cache = getattr(db, "plan_cache", None)
    if cache is None:
        print("  this database has no plan cache", file=out)
        return
    words = argument.lower().split()
    if words == ["clear"]:
        cache.clear()
        print("  plan cache cleared", file=out)
        return
    if words[:1] == ["size"]:
        if len(words) != 2 or not words[1].lstrip("-").isdigit():
            raise _Usage
        cache.resize(int(words[1]))
        print(f"  plan cache capacity set to {cache.capacity}", file=out)
        return
    if words:
        raise _Usage
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
            " @" + ",@".join(entry["bind_shape"]) if entry["bind_shape"] else ""
        )
        flavour = "" if entry["optimized"] else " [unoptimized]"
        query_text = " ".join(entry["query"].split())
        if len(query_text) > 60:
            query_text = query_text[:57] + "..."
        print(
            f"  {entry['hits']:>5} hits  {query_text}{binds}{flavour}",
            file=out,
        )


@_command(".batch", "embedded", "show / set the default execution batch size", "[N]")
def _batch(db, argument, out, state):
    if not argument:
        ceiling = getattr(getattr(db, "guardrails", None), "max_batch_size", None)
        suffix = f" (guardrail ceiling {ceiling})" if ceiling is not None else ""
        print(f"  batch size: {db.batch_size}{suffix}", file=out)
        return
    if not argument.lstrip("-").isdigit():
        raise _Usage
    if int(argument) < 1:
        print("  batch size must be >= 1", file=out)
        return
    db.batch_size = int(argument)
    print(f"  batch size set to {db.batch_size}", file=out)


@_command(".columnar", "embedded",
          "show / toggle columnar segment scans (+ segment stats)", "[on|off]")
def _columnar(db, argument, out, state):
    argument = argument.lower()
    if argument not in ("", "on", "off"):
        raise _Usage
    if argument:
        db.columnar = argument == "on"
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


@_command(".trace", "embedded", "print a span tree after each query", "[on|off]")
def _trace_switch(db, argument, out, state):
    from repro.obs import tracing

    argument = argument.lower()
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
        raise _Usage


@_command(".trace", "wire cluster",
          "run the query traced; print the stitched client+server span tree",
          "<query>")
def _trace_query(client, argument, out, state):
    if not argument:
        raise _Usage
    cursor = client.query(argument, trace=True)
    rows = cursor.rows  # drain so the trace covers every fetch
    if cursor.trace is not None:
        print(cursor.trace.format(), file=out)
    else:
        print("  (server does not advertise the trace feature)", file=out)
    print(f"-- {len(rows)} row(s)", file=out)
    state["last_stats"] = cursor.stats


@_command(".events", "embedded wire",
          "tail the structured event log (optionally filtered)", "[N] [KIND]")
def _events(target, argument, out, state):
    if isinstance(target, MultiModelDB):
        from repro.obs.events import tail
    else:
        tail = target.events
    limit: Optional[int] = 20
    kind: Optional[str] = None
    for word in argument.split():
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
    for event in entries:
        print(f"  {json.dumps(event, default=str, sort_keys=True)}", file=out)


@_command(".slowlog", "embedded wire",
          "show the slow-query log / set its threshold in ms", "[MS|off]")
def _slowlog(target, argument, out, state):
    if isinstance(target, MultiModelDB):
        from repro.obs import slowlog

        def read(**params):
            return slowlog.payload(params)

    else:
        read = target.slowlog
    argument = argument.lower()
    if argument == "off":
        read(threshold_ms=None)
        print("  slow-query log off", file=out)
        return
    if argument:
        try:
            millis = float(argument)
        except ValueError:
            raise _Usage from None
        read(threshold_ms=millis)
        print(f"  slow-query log on: threshold {millis:g} ms", file=out)
        return
    answer = read()
    threshold = answer["threshold_ms"]
    if threshold is None:
        print("  slow-query log is off — .slowlog <ms> to enable", file=out)
        return
    entries = answer["entries"]
    plural = "y" if len(entries) == 1 else "ies"
    print(f"  threshold {threshold:g} ms, {len(entries)} slow quer{plural}", file=out)
    for entry in entries:
        trace_id = entry.get("trace_id")
        print(
            f"  {entry['seconds'] * 1000:8.1f} ms  "
            f"{entry['rows']:>6} rows  {entry['query']}"
            + (f"  trace={trace_id}" if trace_id else ""),
            file=out,
        )


@_command(".faults", "embedded", "list / arm / disarm fault-injection failpoints",
          "[arm SITE TRIGGER [EFFECT] [seed N] | disarm SITE|all]")
def _faults(db, argument, out, state):
    from repro.fault.registry import FAILPOINTS

    # Importing the durability modules is what registers their sites, so
    # the listing covers the whole engine even on a fresh shell.
    import repro.polyglot.integrator  # noqa: F401
    import repro.storage.checkpoint  # noqa: F401
    import repro.storage.wal  # noqa: F401
    import repro.txn.manager  # noqa: F401

    words = argument.split()
    if not words:
        states = FAILPOINTS.states()
        if not states:
            print("  no failpoints registered", file=out)
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
            raise _Usage
        if words[0].lower() == "all":
            FAILPOINTS.disarm_all()
            print("  all failpoints disarmed", file=out)
            return
        try:
            FAILPOINTS.disarm(words[0])
        except KeyError:
            print(f"  unknown failpoint {words[0]!r}", file=out)
            return
        print(f"  {words[0]} disarmed", file=out)
        return
    if command != "arm":
        raise _Usage
    seed = None
    if len(words) >= 2 and words[-2].lower() == "seed":
        try:
            seed = int(words[-1])
        except ValueError:
            raise _Usage from None
        words = words[:-2]
    if len(words) not in (2, 3):
        raise _Usage
    site, trigger = words[0], words[1]
    effect = words[2].lower() if len(words) == 3 else "crash"
    try:
        FAILPOINTS.arm(site, trigger, effect, seed=seed)
    except KeyError:
        print(f"  unknown failpoint {site!r}", file=out)
        return
    print(
        f"  {site} armed: {trigger} effect={effect}"
        + (f" seed={seed}" if seed is not None else ""),
        file=out,
    )


@_command(".begin", "wire cluster", "open a transaction on this session",
          "[ISOLATION]")
def _begin(client, argument, out, state):
    isolation = argument or "snapshot"
    txn = client.begin(isolation)
    print(f"  transaction {txn} started ({isolation})", file=out)


@_command(".commit", "wire", "commit the session's transaction")
def _commit(client, argument, out, state):
    client.commit()
    print("  committed", file=out)


@_command(".abort", "wire", "abort the session's transaction")
def _abort(client, argument, out, state):
    client.abort()
    print("  aborted", file=out)


@_command(".set", "wire", "session guardrail overrides (host caps still apply)",
          "[timeout S|off] [max_rows N|off]")
def _set(client, argument, out, state):
    words = argument.lower().split()
    limits: dict = {}
    for key, raw in zip(words[::2], words[1::2]):
        if key not in ("timeout", "max_rows"):
            raise _Usage
        parse = float if key == "timeout" else int
        limits[key] = None if raw == "off" else parse(raw)
    if len(words) % 2:
        raise _Usage
    effective = client.set_limits(**limits)
    print(
        f"  session limits: timeout={effective['timeout']} "
        f"max_rows={effective['max_rows']}",
        file=out,
    )


@_command(".server", "wire", "server stats: sessions, in-flight, limits")
def _server(client, argument, out, state):
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


@_command(".replicas", "wire", "replication status: role, watermarks, subscribers")
def _replicas(client, argument, out, state):
    status = client._call("repl_status")
    role = status.get("role", "?")
    print(f"  role {role}, last_lsn {status.get('last_lsn')}", file=out)
    if role == "replica":
        print(
            f"  primary {status.get('primary')} "
            f"connected={status.get('connected')} "
            f"applied={status.get('applied_lsn')} "
            f"received={status.get('received_lsn')}",
            file=out,
        )
        return
    print(f"  ack_replication: {status.get('ack_replication')}", file=out)
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


@_command(".shards", "cluster", "cluster topology: shard roster, placements, reachability")
def _shards(client, argument, out, state):
    for entry in client.shards_status():
        replicas = ", ".join(entry["replicas"]) or "none"
        health = "up" if entry["alive"] else "UNREACHABLE"
        print(
            f"  shard {entry['shard_id']}: primary "
            f"{entry['primary']} ({health}), replicas: {replicas}",
            file=out,
        )
    info = client.info()
    placements = ", ".join(f"{n}={m}" for n, m in info["placements"].items())
    print(f"  map v{info['map_version']}, placements: {placements}", file=out)


@_command(".info", "wire cluster", "server handshake info (version, protocol, limits)")
def _info(client, argument, out, state):
    for key, value in client.info().items():
        print(f"  {key}: {value}", file=out)


@_command(".quit", "embedded wire cluster", "exit (or .exit)")
def _quit(target, argument, out, state):
    state["done"] = True


# ---------------------------------------------------------------------------
# Statements, scripts and the REPL
# ---------------------------------------------------------------------------


def run_statement(target, statement: str, out: IO, state: dict) -> None:
    """Execute one shell statement (dot-command or MMQL) against *target*:
    a :class:`MultiModelDB`, a ``ReproClient`` or a ``ClusterClient``."""
    statement = statement.strip()
    if not statement:
        return
    kind = target_kind(target)
    try:
        if statement.startswith("."):
            word = statement.split()[0]
            name = ".quit" if word == ".exit" else word
            named = [command for command in _COMMANDS if command.name == name]
            served = [c for c in named if kind in c.kinds]
            if served:
                try:
                    served[0].run(target, statement[len(word):].strip(), out, state)
                except _Usage:
                    print(f"  usage: {served[0].usage}", file=out)
            elif named:
                print(f"  {word!r} is not available on this connection type", file=out)
            else:
                print(f"unknown command {word!r}; try .help", file=out)
            return
        result = target.query(statement)
        if result.analyzed is not None:
            # EXPLAIN ANALYZE: the annotated plan is the output, not the rows.
            print(result.analyzed, file=out)
        else:
            for row in result.rows:
                print(json.dumps(row, default=str), file=out)
        state["last_stats"] = stats = result.stats
        print(
            f"-- {len(result.rows)} row(s); scanned {stats['scanned']}, "
            f"index lookups {stats['index_lookups']}",
            file=out,
        )
    except ReproError as error:
        print(f"error [{error.code}]: {error}", file=out)
        return
    except (ConnectionError, OSError, ValueError) as error:
        print(f"error: {error}", file=out)
        return
    if kind == "embedded":
        from repro.obs import tracing

        trace = tracing.last_trace() if tracing.is_enabled() else None
        if trace is not None:
            print(tracing.format_span(trace), file=out)


def repl(target, source: IO, out: IO, prompt: str = "mmql> ") -> None:
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
        run_statement(target, statement, out, state)


_SCRIPT_RE = re.compile(f"{COMMENT_PATTERN}|{STRING_PATTERN}|;", re.DOTALL)


def split_script(script: str) -> list[str]:
    """Split a ``-f`` script on each ``;`` outside string literals and
    comments (the lexer's own patterns decide what those are)."""
    cuts = [m.start() for m in _SCRIPT_RE.finditer(script) if m.group() == ";"]
    starts = [0] + [cut + 1 for cut in cuts]
    return [script[a:b] for a, b in zip(starts, cuts + [len(script)])]


def _add_script_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--command", help="run one statement and exit")
    parser.add_argument("-f", "--file", help="run a ;-separated script")


def _drive(target, args, banner: str, prompt: str) -> int:
    """The ``-c`` / ``-f`` / REPL driver ``main`` and ``connect`` share."""
    state: dict = {"done": False}
    if args.command:
        run_statement(target, args.command, sys.stdout, state)
    elif args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            script = handle.read()
        for statement in split_script(script):
            run_statement(target, statement, sys.stdout, state)
    else:
        print(banner, file=sys.stdout)
        repl(target, sys.stdin, sys.stdout, prompt)
    return 0


def _add_open_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--demo", nargs="?", const=1, type=int, metavar="SCALE",
        help="load the UniBench demo data set",
    )
    parser.add_argument("--wal", help="attach (and recover from) a WAL file")


def _open_db(args, shard_map=None, shard_id: Optional[int] = None) -> MultiModelDB:
    """The ``--demo`` / ``--wal`` opener ``main`` and ``serve`` share.  A
    cluster shard loads only its own slice of the demo data set."""
    if args.demo is None:
        db = MultiModelDB()
    elif shard_map is None:
        db = make_demo_db(args.demo)
    else:
        from repro.cluster.bootstrap import shard_slice
        from repro.unibench.generator import generate, load_into_multimodel

        db = MultiModelDB()
        position = shard_map.all_shard_ids().index(shard_id)
        load_into_multimodel(
            db, generate(scale_factor=args.demo, seed=42),
            keep=shard_slice(shard_map, position),
        )
    if args.wal:
        import os

        if os.path.exists(args.wal):
            db.recover(args.wal)
        db.attach_wal(args.wal)
    return db


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
    _add_open_args(parser)
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

    db = _open_db(args, shard_map, args.shard_id)
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
    _add_script_args(parser)
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
        info = client.info()
        banner = (
            f"connected to a {info['shards']}-shard cluster "
            f"(map v{info['map_version']}) — .help for commands, "
            ".shards for the roster"
        )
    else:
        try:
            client = ReproClient(host=args.host, port=args.port)
            client.connect()
        except (ConnectionError, OSError) as error:
            print(f"error: cannot reach {args.host}:{args.port}: {error}",
                  file=sys.stderr)
            return 1
        info = client.server_info or {}
        banner = (
            f"connected to repro {info.get('version')} at "
            f"{args.host}:{args.port} (session {info.get('session')}) — "
            ".help for commands"
        )
    try:  # the session connected above is the one the shell runs in
        return _drive(client, args, banner, "mmql*> ")
    finally:
        client.close()


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
    _add_open_args(parser)
    _add_script_args(parser)
    args = parser.parse_args(argv)
    banner = "repro MMQL shell — .help for commands"
    return _drive(_open_db(args), args, banner, "mmql> ")


if __name__ == "__main__":
    raise SystemExit(main())
