"""The HTTP ops plane: a zero-dependency server for the observability stack.

Everything the obs layer captures in-process — the metrics registry, the
trace rings, the structured event log, the health checks — becomes
network-reachable through one stdlib :class:`ThreadingHTTPServer`:

================  ==========================================================
``GET /metrics``  Prometheus text exposition 0.0.4
                  (``MetricsRegistry.expose_prometheus``)
``GET /healthz``  liveness: 200 while the server thread responds
``GET /readyz``   readiness: runs the :class:`~repro.obs.health.HealthRegistry`
                  deep checks; 200 when ready, 503 when any critical check
                  fails or the node is draining (JSON report either way)
``GET /stats``    the attached stats callable's dict as JSON
                  (``QueryService.stats`` when serving)
``GET /traces``   recent trace summaries (``?n=``, ``?kind=query|update``)
``GET /traces/<id>``  one full trace (spans, operators, profile) or 404
``GET /slow``     the slow-query ring, full traces
``GET /events``   the event log as NDJSON (``?type=a,b``, ``?tail=N``); with
                  ``?follow=1`` the response streams new records as they are
                  emitted, surviving log rotations
``POST /drain``   force ``/readyz`` to 503 (load-balancer rotation hook)
``POST /undrain`` restore check-driven readiness
================  ==========================================================

Design notes: the server binds on construction (``port=0`` picks an
ephemeral port, exposed via :attr:`OpsServer.port` — tests and embedders
never race for a fixed port) and serves from a daemon thread, one thread
per connection (``ThreadingHTTPServer``), so a long-lived ``/events``
follower never blocks a concurrent scrape.  Responses are HTTP/1.0 with
``Connection: close`` — streaming NDJSON then needs no chunked framing;
the stream simply ends at connection close.  :meth:`OpsServer.close` flips
a stop flag every follower polls, so shutdown never hangs on an idle
stream.  Read-only by design: the only mutating verbs are the two drain
toggles, which touch readiness state, never data.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs.events import follow_events, tail_events
from repro.obs.health import HealthRegistry

__all__ = ["OpsServer", "parse_ops_addr", "DEFAULT_OPS_HOST"]

logger = logging.getLogger("repro.obs.http")

#: Loopback by default: the ops plane is an operational surface, not a
#: public API — exposing it wider is an explicit deployment decision.
DEFAULT_OPS_HOST = "127.0.0.1"


def parse_ops_addr(value: Union[int, str, Tuple[str, int]]) -> Tuple[str, int]:
    """Normalise an ops-address spec into ``(host, port)``.

    Accepts an int port, a ``"port"`` / ``"host:port"`` string, or a
    ``(host, port)`` tuple.  Port 0 asks the OS for an ephemeral port.
    """
    if isinstance(value, tuple):
        host, port = value
        return str(host) or DEFAULT_OPS_HOST, int(port)
    if isinstance(value, int):
        return DEFAULT_OPS_HOST, value
    text = str(value).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        return host or DEFAULT_OPS_HOST, int(port_text)
    return DEFAULT_OPS_HOST, int(text)


class _OpsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Fast restarts: a closed ops port must be rebindable immediately.
    allow_reuse_address = True
    ops: "OpsServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "graphflow-ops/1"
    protocol_version = "HTTP/1.0"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> "OpsServer":
        return self.server.ops  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_body(
        self, body: bytes, status: int = 200, content_type: str = "application/json"
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8") + b"\n"
        self._send_body(body, status=status)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message, "status": status}, status=status)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        try:
            if path == "/metrics":
                self._handle_metrics()
            elif path == "/healthz":
                self._send_json({"status": "ok"})
            elif path == "/readyz":
                self._handle_readyz()
            elif path == "/stats":
                self._handle_stats()
            elif path == "/traces":
                self._handle_traces(query)
            elif path.startswith("/traces/"):
                self._handle_trace_by_id(path[len("/traces/"):])
            elif path == "/slow":
                self._handle_slow(query)
            elif path == "/events":
                self._handle_events(query)
            elif path == "/":
                self._handle_index()
            else:
                self._send_error_json(404, f"no such endpoint: {parts.path}")
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # pragma: no cover - handler bug guard
            logger.exception("ops handler error for %s", self.path)
            try:
                self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        path = urlsplit(self.path).path.rstrip("/")
        health = self.ops.health
        if path == "/drain":
            if health is None:
                self._send_error_json(404, "no health registry attached")
                return
            health.set_draining(True, reason="drained via ops endpoint")
            self._send_json({"status": "draining"})
        elif path == "/undrain":
            if health is None:
                self._send_error_json(404, "no health registry attached")
                return
            health.set_draining(False)
            self._send_json({"status": "ready"})
        else:
            self._send_error_json(405, f"POST not supported on {path or '/'}")

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _handle_index(self) -> None:
        self._send_json(
            {
                "service": "graphflow ops plane",
                "endpoints": [
                    "/metrics",
                    "/healthz",
                    "/readyz",
                    "/stats",
                    "/traces",
                    "/traces/<id>",
                    "/slow",
                    "/events",
                ],
            }
        )

    def _handle_metrics(self) -> None:
        body = self.ops.obs.registry.expose_prometheus().encode("utf-8")
        self._send_body(
            body, content_type="text/plain; version=0.0.4; charset=utf-8"
        )

    def _handle_readyz(self) -> None:
        health = self.ops.health
        if health is None:
            # No deep checks wired: readiness degenerates to liveness.
            self._send_json({"status": "ready", "healthy": True, "checks": {}})
            return
        report = health.run()
        self._send_json(report.as_dict(), status=200 if report.healthy else 503)

    def _handle_stats(self) -> None:
        stats_fn = self.ops.stats_fn
        if stats_fn is None:
            self._send_error_json(404, "no stats source attached")
            return
        self._send_json(stats_fn())

    @staticmethod
    def _trace_summary(trace) -> dict:
        return {
            "trace_id": trace.trace_id,
            "kind": trace.kind,
            "query": trace.query_name,
            "status": trace.status,
            "mode": trace.mode,
            "started_at": trace.started_at,
            "total_seconds": trace.total_seconds,
            "num_matches": trace.num_matches,
            "plan_type": trace.plan_type,
        }

    def _int_param(self, query: dict, name: str, default: int) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            raise _BadParam(f"{name} must be an integer, got {values[0]!r}")

    def _handle_traces(self, query: dict) -> None:
        try:
            n = self._int_param(query, "n", 50)
        except _BadParam as exc:
            self._send_error_json(400, str(exc))
            return
        kind = query.get("kind", [None])[0]
        if kind not in (None, "query", "update"):
            self._send_error_json(400, f"kind must be 'query' or 'update', got {kind!r}")
            return
        traces = self.ops.obs.traces.recent(n, kind=kind)
        self._send_json(
            {"count": len(traces), "traces": [self._trace_summary(t) for t in traces]}
        )

    def _handle_trace_by_id(self, id_text: str) -> None:
        try:
            trace_id = int(id_text)
        except ValueError:
            self._send_error_json(400, f"trace id must be an integer, got {id_text!r}")
            return
        trace = self.ops.obs.traces.get(trace_id)
        if trace is None:
            self._send_error_json(404, f"no trace {trace_id} in the ring (evicted or never recorded)")
            return
        self._send_json(trace.as_dict())

    def _handle_slow(self, query: dict) -> None:
        try:
            n = self._int_param(query, "n", 50)
        except _BadParam as exc:
            self._send_error_json(400, str(exc))
            return
        # Full traces, not summaries: slow entries outlive the main ring, so
        # /traces/<id> may already 404 for exactly the queries being debugged.
        slow = self.ops.obs.traces.slow(n)
        self._send_json({"count": len(slow), "traces": [t.as_dict() for t in slow]})

    def _handle_events(self, query: dict) -> None:
        log = self.ops.obs.event_log
        if log is None:
            self._send_error_json(404, "no event log attached to this database")
            return
        types_text = query.get("type", [None])[0]
        types = (
            [t.strip() for t in types_text.split(",") if t.strip()]
            if types_text
            else None
        )
        follow = query.get("follow", ["0"])[0] in ("1", "true", "yes")
        try:
            tail = self._int_param(query, "tail", 0 if follow else 100)
        except _BadParam as exc:
            self._send_error_json(400, str(exc))
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        if not follow:
            records = tail_events(log.path, n=tail, types=types) if tail else []
            body = b"".join(
                json.dumps(r, separators=(",", ":"), default=str).encode("utf-8") + b"\n"
                for r in records
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        # Follow mode: no Content-Length — the body streams until the client
        # disconnects or the server shuts down (stop flag polled per read).
        self.end_headers()
        if tail:
            for record in tail_events(log.path, n=tail, types=types):
                self._write_ndjson_record(record)
        stopping = self.ops._stopping
        for record in follow_events(
            log.path,
            types=types,
            poll_interval=self.ops.poll_interval,
            stop=stopping.is_set,
            max_backups=log.backups,
        ):
            self._write_ndjson_record(record)

    def _write_ndjson_record(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str).encode("utf-8")
        self.wfile.write(line + b"\n")
        self.wfile.flush()


class _BadParam(ValueError):
    pass


class OpsServer:
    """The ops-plane HTTP server, bound and serving on construction.

    Parameters
    ----------
    obs:
        The :class:`~repro.obs.Observability` root whose registry, trace
        rings, and event log the endpoints read.
    health:
        A :class:`~repro.obs.health.HealthRegistry` backing ``/readyz`` and
        the drain toggles; ``None`` degrades readiness to liveness.
    stats_fn:
        Zero-argument callable returning the ``/stats`` JSON document
        (``QueryService.stats`` when embedded in a service).
    host / port:
        Bind address.  Port 0 (the default) picks an ephemeral port — read
        :attr:`port` / :attr:`url` for the bound one.
    poll_interval:
        The ``/events?follow=1`` tail's poll cadence.
    """

    def __init__(
        self,
        obs,
        health: Optional[HealthRegistry] = None,
        stats_fn: Optional[Callable[[], dict]] = None,
        host: str = DEFAULT_OPS_HOST,
        port: int = 0,
        poll_interval: float = 0.2,
    ) -> None:
        self.obs = obs
        self.health = health
        self.stats_fn = stats_fn
        self.poll_interval = poll_interval
        self._stopping = threading.Event()
        self._server = _OpsHTTPServer((host, port), _Handler)
        self._server.ops = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="ops-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("ops server listening on %s", self.url)

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)``."""
        return self._server.server_address[:2]

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._stopping.is_set()

    def close(self) -> None:
        """Stop serving: flip the stop flag (unblocks ``/events`` followers),
        shut the listener down, and join the server thread.  Idempotent."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "OpsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        return f"OpsServer({self.url}, {state})"
