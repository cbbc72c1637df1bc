"""Stdlib-only HTTP/JSON surface over a :class:`FleetMonitor`.

A deliberately small API — the fleet is the product, the server is a
transport.  ``ThreadingHTTPServer`` gives one thread per connection; all
shared state behind it is the fleet, which carries its own locking.

Endpoints:

``POST /ingest``
    Body ``{"ticks": [{"workload", "node", "ip"?, "metrics", "cpi"}]}``.
    Replies ``{"accepted", "rejected", "malformed", "events"}`` where
    each event is ``{"type": "alarm"|"diagnosis", "context", "tick",
    ...}``.  Malformed tick entries are skipped and counted, not fatal:
    one bad agent must not poison a batch carrying a thousand contexts.

``GET /health``
    Liveness + fleet shape: resident lanes, shards, rejected-tick total,
    committed incident bundles.

``GET /contexts``
    ``{"workload@node": "<state>", ...}`` for every resident lane.

``GET /explain/<workload>@<node>``
    The last retained diagnosis of the context as the full evidence
    report — text by default, JSON with ``?format=json``.

``GET /metrics``
    Prometheus text exposition of the process metrics registry,
    including the per-endpoint RED series this module writes.

``GET /debug/prof?seconds=N``
    Block for ``N`` seconds sampling every thread (the in-flight
    workload keeps running on the other handler threads), then return
    the profile as speedscope JSON (``?format=collapsed`` for
    flamegraph collapsed text).

Every request is RED-instrumented: ``invarnetx_http_requests_total``
(endpoint/method/status) and ``invarnetx_http_request_seconds``
(endpoint) are recorded *after* the reply bytes are written, so a
``GET /metrics`` body reflects the registry as it stood before that
request — byte-stable under a quiet fleet.  Each request carries an
``X-Request-Id`` (client-supplied or generated), echoed on the response
and threaded through the request span and log lines.  A client that
disconnects mid-response increments
``invarnetx_http_disconnects_total`` instead of dumping a traceback.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, unquote, urlparse

import numpy as np

import repro.obs as obs
from repro.core.context import OperationContext
from repro.core.online import AlarmEvent, DiagnosisEvent
from repro.obs.prof import DEFAULT_HZ, capture
from repro.serve.fleet import FleetMonitor, Tick

__all__ = [
    "build_server",
    "endpoint_label",
    "FleetRequestHandler",
    "HttpMetrics",
]

_log = obs.get_logger("serve.http")

#: Maximum accepted request body (64 MiB — a generous telemetry batch).
MAX_BODY = 64 * 1024 * 1024

#: Longest profile a ``/debug/prof`` request may hold its thread for.
MAX_PROF_SECONDS = 30.0

#: RED metric family names (read back by ``repro.obs.slo`` and
#: ``invarnetx top``).
REQUESTS_TOTAL = "invarnetx_http_requests_total"
REQUEST_SECONDS = "invarnetx_http_request_seconds"
DISCONNECTS_TOTAL = "invarnetx_http_disconnects_total"

#: Latency buckets; 0.5 must stay present — the default ingest-latency
#: SLO reads its good-count exactly at that bound.
LATENCY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0)

#: Fixed paths that are their own endpoint label.
_FIXED_ENDPOINTS = frozenset(
    {"/health", "/contexts", "/metrics", "/ingest"}
)


def endpoint_label(path: str) -> str:
    """Normalise a request path to a bounded endpoint label.

    Parameterised paths collapse (``/explain/wc@n1`` → ``/explain``) and
    unknown paths become ``(other)`` so hostile traffic cannot mint
    unbounded label cardinality.
    """
    if path in _FIXED_ENDPOINTS:
        return path
    if path == "/explain" or path.startswith("/explain/"):
        return "/explain"
    if path == "/debug/prof":
        return "/debug/prof"
    return "(other)"


class HttpMetrics:
    """The HTTP layer's RED families on one registry, bound again by the
    first request after a reset (one int compare on the registry
    generation, as :class:`~repro.obs.metrics.CounterBinding` does)."""

    def __init__(self, registry) -> None:
        self._registry = registry
        self._generation = -1
        self.bound()

    def bound(self) -> "HttpMetrics":
        """These handles, bound to the registry's current families."""
        registry = self._registry
        generation = registry.generation
        if generation != self._generation:
            self.requests = registry.counter(
                REQUESTS_TOTAL,
                "HTTP requests by endpoint, method and status.",
                ("endpoint", "method", "status"),
            )
            self.seconds = registry.histogram(
                REQUEST_SECONDS,
                "HTTP request latency in seconds.",
                ("endpoint",),
                buckets=LATENCY_BUCKETS,
            )
            self.disconnects = registry.counter(
                DISCONNECTS_TOTAL,
                "Responses abandoned because the client disconnected.",
                ("endpoint",),
            )
            self._generation = generation  # last: families first
        return self


def _event_json(context: OperationContext, event) -> dict:
    out = {"context": str(context), "tick": event.tick}
    if isinstance(event, AlarmEvent):
        out["type"] = "alarm"
    elif isinstance(event, DiagnosisEvent):
        out["type"] = "diagnosis"
        out.update(event.summary())
    return out


def _parse_tick(entry: object) -> Tick | None:
    """One JSON tick → :class:`Tick`, or None when malformed."""
    if not isinstance(entry, dict):
        return None
    workload = entry.get("workload")
    node = entry.get("node")
    metrics = entry.get("metrics")
    cpi = entry.get("cpi")
    if not isinstance(workload, str) or not isinstance(node, str):
        return None
    if not isinstance(metrics, list) or not isinstance(cpi, (int, float)):
        return None
    try:
        row = np.asarray(metrics, dtype=float)
    except (TypeError, ValueError):
        return None
    if row.ndim != 1:
        return None
    ip = entry.get("ip", "")
    context = OperationContext(
        workload, node, ip if isinstance(ip, str) else ""
    )
    return Tick(context=context, metrics=row, cpi=float(cpi))


def _parse_context(raw: str) -> OperationContext | None:
    """``workload@node`` (URL-decoded) → context; None when malformed."""
    if "@" not in raw:
        return None
    workload, _, node = raw.rpartition("@")
    if not workload or not node:
        return None
    return OperationContext(workload, node)


def _parse_query(query: str, allowed: frozenset[str]) -> dict[str, str] | None:
    """Strict query-string parse: unknown or repeated keys → None."""
    params: dict[str, str] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in allowed or key in params:
            return None
        params[key] = value
    # parse_qsl swallows separator-only junk ("?&&&") without producing
    # pairs; a non-empty raw query that parsed to nothing is malformed.
    if query and not params:
        return None
    return params


class FleetRequestHandler(BaseHTTPRequestHandler):
    """Request handler bound to one fleet (see :func:`build_server`)."""

    fleet: FleetMonitor  # class attribute, set by build_server
    metrics: HttpMetrics | None = None  # class attribute, set by build_server
    server_version = "invarnetx-serve/1"
    protocol_version = "HTTP/1.1"

    #: Process-wide request-id generator (itertools.count is atomic).
    _request_ids = itertools.count(1)

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        pass  # request logging goes through repro.obs, not stderr

    def _reply(
        self,
        status: int,
        payload: bytes,
        content_type: str,
        close: bool = False,
    ) -> None:
        """Send the whole response — status line, headers, body — in one
        socket write.

        Never split it: with Nagle on, a body written after the headers
        waits for the client to ACK them, and a keep-alive client delays
        that ACK (~40 ms on Linux), so a request that follows a reply at
        once would pay the delay.  The headers and their order are those
        ``send_response`` + ``send_header`` would emit; an HTTP/0.9
        request gets the bare body, as the stdlib gives it.  ``close``
        ends the connection after this reply and says so in a
        ``Connection: close`` header.
        """
        self._status = status
        head = b""
        if self.request_version != "HTTP/0.9":
            lines = [
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(payload)}",
            ]
            rid = getattr(self, "request_id", "")
            if rid:
                lines.append(f"X-Request-Id: {rid}")
            if close:
                lines.append("Connection: close")
            head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if close:
            self.close_connection = True
        self.wfile.write(head + payload)

    def _reply_json(
        self, status: int, obj: object, close: bool = False
    ) -> None:
        body = json.dumps(obj, sort_keys=True).encode("utf-8")
        self._reply(status, body, "application/json", close)

    def _reply_error(
        self, status: int, message: str, close: bool = False
    ) -> None:
        self._reply_json(status, {"error": message}, close)

    # -- instrumented dispatch -----------------------------------------
    def _dispatch(self, method: str, route) -> None:
        """Route one request with RED accounting around it.

        Metrics are recorded *after* the reply is written — a
        ``GET /metrics`` body never includes its own request.  A client
        disconnect mid-reply is an operational count, not a traceback.
        """
        start = time.perf_counter()
        self._status = 0
        endpoint = endpoint_label(urlparse(self.path).path)
        self.request_id = (
            self.headers.get("X-Request-Id", "").strip()
            or f"req-{next(self._request_ids):06d}"
        )
        disconnected = False
        with obs.span("http.request") as sp:
            if sp:
                sp.set(
                    endpoint=endpoint,
                    method=method,
                    request_id=self.request_id,
                )
            try:
                route()
            except (BrokenPipeError, ConnectionResetError):
                disconnected = True
                self.close_connection = True
        elapsed = time.perf_counter() - start
        if self.metrics is not None:
            metrics = self.metrics.bound()
            if disconnected:
                metrics.disconnects.inc(endpoint=endpoint)
            metrics.requests.inc(
                endpoint=endpoint,
                method=method,
                status=str(self._status or 0),
            )
            metrics.seconds.observe(elapsed, endpoint=endpoint)
        obs.log_event(
            _log,
            logging.INFO if disconnected else logging.DEBUG,
            "http.disconnect" if disconnected else "http.request",
            endpoint=endpoint,
            method=method,
            status=self._status,
            request_id=self.request_id,
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._dispatch("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        self._dispatch("POST", self._route_post)

    # -- GET -----------------------------------------------------------
    def _route_get(self) -> None:
        url = urlparse(self.path)
        if url.path == "/health":
            self._reply_json(
                200,
                {
                    "status": "ok",
                    "contexts": len(self.fleet.contexts()),
                    "shards": self.fleet.shards,
                    "rejected_total": self.fleet.rejected_total,
                    "incident_bundles": self.fleet.bundles_committed,
                },
            )
            return
        if url.path == "/contexts":
            self._reply_json(200, {"contexts": self.fleet.states()})
            return
        if url.path == "/metrics":
            body = obs.metrics_registry().render_prometheus()
            self._reply(
                200,
                body.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if url.path == "/debug/prof":
            self._route_prof(url.query)
            return
        if url.path.startswith("/explain/"):
            self._route_explain(url)
            return
        self._reply_error(404, f"unknown path {url.path}")

    def _route_explain(self, url) -> None:
        raw = unquote(url.path[len("/explain/") :])
        context = _parse_context(raw)
        if context is None:
            self._reply_error(400, "context must look like workload@node")
            return
        params = _parse_query(url.query, frozenset({"format"}))
        if params is None:
            self._reply_error(
                400, "/explain takes only ?format=text|json"
            )
            return
        fmt = params.get("format", "text")
        if fmt not in ("text", "json"):
            self._reply_error(
                400, f"unknown format {fmt!r} (want text or json)"
            )
            return
        try:
            explanation = self.fleet.explain(context)
        except KeyError:
            self._reply_error(404, f"no retained incident for {context}")
            return
        if fmt == "json":
            self._reply_json(200, explanation.to_json())
        else:
            self._reply(
                200,
                explanation.render_text().encode("utf-8"),
                "text/plain; charset=utf-8",
            )

    def _route_prof(self, query: str) -> None:
        """``/debug/prof?seconds=N[&hz=H][&format=speedscope|collapsed]``."""
        params = _parse_query(
            query, frozenset({"seconds", "hz", "format"})
        )
        if params is None:
            self._reply_error(
                400, "/debug/prof takes only seconds, hz and format"
            )
            return
        try:
            seconds = float(params.get("seconds", "1"))
            hz = float(params.get("hz", str(DEFAULT_HZ)))
        except ValueError:
            self._reply_error(400, "seconds and hz must be numbers")
            return
        if not 0.0 < seconds <= MAX_PROF_SECONDS:
            self._reply_error(
                400, f"seconds must be in (0, {MAX_PROF_SECONDS:g}]"
            )
            return
        if not 1.0 <= hz <= 1000.0:
            self._reply_error(400, "hz must be in [1, 1000]")
            return
        fmt = params.get("format", "speedscope")
        if fmt not in ("speedscope", "collapsed"):
            self._reply_error(
                400, f"unknown format {fmt!r} (want speedscope or collapsed)"
            )
            return
        report = capture(seconds, hz=hz)
        if fmt == "collapsed":
            self._reply(
                200,
                report.render_collapsed().encode("utf-8"),
                "text/plain; charset=utf-8",
            )
        else:
            self._reply_json(
                200, report.to_speedscope(f"invarnetx {seconds:g}s")
            )

    # -- POST ----------------------------------------------------------
    def _route_post(self) -> None:
        """Every POST reply keeps the connection in step: the body is
        read even when the request is refused, and a body whose length
        is unknown ends the connection (otherwise its bytes would be
        parsed as the next request)."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY:
            self._reply_error(
                400, "invalid or oversized Content-Length", close=True
            )
            return
        body = self.rfile.read(length)
        if urlparse(self.path).path != "/ingest":
            self._reply_error(404, f"unknown path {self.path}")
            return
        try:
            payload = json.loads(body or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._reply_error(400, "body is not valid JSON")
            return
        ticks_json = payload.get("ticks") if isinstance(payload, dict) else None
        if not isinstance(ticks_json, list):
            self._reply_error(400, 'body must be {"ticks": [...]}')
            return
        batch: list[Tick] = []
        malformed = 0
        for entry in ticks_json:
            tick = _parse_tick(entry)
            if tick is None:
                malformed += 1
            else:
                batch.append(tick)
        result = self.fleet.ingest(batch, request_id=self.request_id)
        self._reply_json(
            200,
            {
                "accepted": result.accepted,
                "rejected": result.rejected,
                "malformed": malformed,
                "events": [
                    _event_json(e.context, e.event) for e in result.events
                ],
            },
        )


def build_server(
    fleet: FleetMonitor, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-run server bound to ``fleet`` (port 0 = ephemeral).

    The handler class is subclassed per call so the fleet and its RED
    metric handles ride on class attributes —
    ``BaseHTTPRequestHandler`` instantiates per request, leaving no
    instance hook to inject state through.
    """
    handler = type(
        "BoundFleetRequestHandler",
        (FleetRequestHandler,),
        {"fleet": fleet, "metrics": HttpMetrics(obs.metrics_registry())},
    )
    return ThreadingHTTPServer((host, port), handler)
