"""Live telemetry endpoint: a dependency-free HTTP server on a thread.

Serves the observability surface of a running process over plain
HTTP/1.1 so a server is inspectable with ``curl`` or scraped by
Prometheus without going through the wire protocol (or the shell):

* ``GET /metrics``  — Prometheus text exposition of the metrics registry
  (``text/plain; version=0.0.4; charset=utf-8``);
* ``GET /healthz``  — liveness JSON: ``{"ok": true, ...}`` plus whatever
  the host's health provider reports (uptime, draining, sessions);
* ``GET /stats``    — the host's stats document plus a full JSON metrics
  snapshot;
* ``GET /events``   — the structured event log's recent entries
  (``?n=50`` limits, ``?kind=slow_query`` filters).

The implementation is deliberately minimal: stdlib :mod:`http.server`, one
request per connection (``Connection: close``), GET only, no TLS — it
binds to loopback by default and exists for scrapes and health probes, not
as a public API.  :class:`repro.server.server.ReproServer` starts one
alongside its wire port when constructed with ``telemetry_port=``.
"""

from __future__ import annotations

import http
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.export import prometheus_text

__all__ = ["PROMETHEUS_CONTENT_TYPE", "TelemetryEndpoint"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How often the serving thread looks for a stop request.
_POLL_SECONDS = 0.05


class TelemetryEndpoint:
    """One HTTP listener exposing metrics/health/stats/events.

    ``stats_provider`` / ``health_provider`` are zero-argument callables
    returning JSON-safe dicts (the wire server passes its own); both are
    optional so the endpoint also works standalone in embedded processes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[Any] = None,
        stats_provider: Optional[Callable[[], dict]] = None,
        health_provider: Optional[Callable[[], dict]] = None,
    ):
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else obs_metrics.REGISTRY
        self.stats_provider = stats_provider
        self.health_provider = health_provider
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> tuple[str, int]:
        """Bind and serve; ``port=0`` picks a free port, returned here."""
        self._server = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._server.endpoint = self
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _POLL_SECONDS},
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    # ------------------------------------------------------------- serving --

    def _route(self, target: str) -> tuple[int, str, bytes]:
        split = urlsplit(target)
        path = split.path or "/"
        query = parse_qs(split.query)
        if path == "/metrics":
            text = prometheus_text(self.registry)
            return 200, PROMETHEUS_CONTENT_TYPE, (text + "\n").encode("utf-8")
        if path == "/healthz":
            payload: dict = {"ok": True}
            if self.health_provider is not None:
                try:
                    payload.update(self.health_provider())
                except Exception as error:
                    payload = {"ok": False, "error": str(error)}
            status = 200 if payload.get("ok") else 503
            return status, "application/json", _json_bytes(payload)
        if path == "/stats":
            payload = {"metrics": self.registry.snapshot()}
            if self.stats_provider is not None:
                try:
                    payload["server"] = self.stats_provider()
                except Exception as error:
                    payload["server"] = {"error": str(error)}
            return 200, "application/json", _json_bytes(payload)
        if path == "/events":
            limit = _int_param(query, "n")
            kind = (query.get("kind") or [None])[0]
            entries = obs_events.tail(limit, kind=kind)
            return 200, "application/json", _json_bytes({"events": entries})
        return 404, "text/plain", b"not found: /metrics /healthz /stats /events\n"


class _Handler(BaseHTTPRequestHandler):
    """GET goes to :meth:`TelemetryEndpoint._route`; every other method is
    405 and a malformed request 400.  Responses are written whole, with
    only the three headers below."""

    def do_GET(self) -> None:
        # Counted before the response goes out, so a client that has read
        # it finds it counted.
        if obs_metrics.ENABLED:
            obs_metrics.counter(
                "telemetry_requests_total",
                path=urlsplit(self.path).path or "/",
            ).inc()
        self._respond(*self.server.endpoint._route(self.path))

    def __getattr__(self, name: str):
        if name.startswith("do_"):
            return lambda: self._respond(
                405, "text/plain", b"method not allowed\n"
            )
        raise AttributeError(name)

    def send_error(self, code, message=None, explain=None) -> None:
        self._respond(code, "text/plain", b"bad request\n")

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {http.HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)
        self.close_connection = True

    def log_message(self, format, *args) -> None:
        pass  # scrapes are counted in telemetry_requests_total, not logged


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, default=str, sort_keys=True) + "\n").encode("utf-8")


def _int_param(query: dict, name: str) -> Optional[int]:
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None
