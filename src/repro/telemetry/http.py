"""Live ops endpoints: a stdlib HTTP listener over the telemetry state.

One :class:`OpsServer` (a daemon-threaded
:class:`~http.server.ThreadingHTTPServer`) exposes the process's
observability surface to ``curl`` / Prometheus / a dashboard:

* ``/metrics`` — the process-wide
  :class:`~repro.telemetry.metrics.MetricsRegistry` in Prometheus text
  exposition format;
* ``/healthz`` — JSON readiness: every registered health provider is
  called and the overall status is 200 only when all report ok (the
  gateway registers its lanes and pump);
* ``/traces`` — the last completed requests: the span log's
  ``serve.request`` records (:mod:`repro.telemetry.spanlog`), newest
  last; ``?limit=N`` bounds the reply.  While a listener runs, the
  gateway adds the record of every traced or failed request to the
  log (every request, if the log is armed anyway); the launch path
  stays unobserved.

Opt-in via ``REPRO_TELEMETRY_HTTP=host:port`` (``:0`` picks a free
port; the bound address is printed once) or programmatically::

    from repro.telemetry.http import OpsServer
    ops = OpsServer("127.0.0.1", 0)
    host, port = ops.start()

The gateway calls :func:`maybe_start_from_env` at start-up, so one
environment variable lights up the serving process — and every gateway
in one process shares the listener and its health registry.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import knobs
from . import spanlog

__all__ = [
    "TELEMETRY_HTTP_ENV",
    "OpsServer",
    "register_health",
    "unregister_health",
    "health_snapshot",
    "maybe_start_from_env",
    "shared_server",
    "shutdown_shared_server",
]

#: Environment variable: ``host:port`` to serve the ops endpoints on
#: (``127.0.0.1:0`` binds an OS-assigned free port).
TELEMETRY_HTTP_ENV = knobs.TELEMETRY_HTTP

#: The fields of one ``/traces`` entry, read from a ``serve.request``
#: record.
TRACE_FIELDS = (
    "trace_id", "request_id", "workload", "tenant", "lane", "batch_size",
    "batch_wait_s", "held", "latency_s", "error", "ts",
)

#: Health providers: name -> callable returning ``(ok, detail_dict)``.
_health_lock = threading.Lock()
_health: Dict[str, Callable[[], Tuple[bool, dict]]] = {}


def register_health(name: str, provider: Callable[[], Tuple[bool, dict]]):
    """Register a component readiness probe under ``name``.  The
    provider returns ``(ok, detail)``; exceptions count as not-ok."""
    with _health_lock:
        _health[name] = provider


def unregister_health(name: str) -> None:
    with _health_lock:
        _health.pop(name, None)


def health_snapshot() -> Tuple[bool, Dict[str, dict]]:
    """Run every provider; overall ok = all ok (vacuously true)."""
    with _health_lock:
        providers = dict(_health)
    components: Dict[str, dict] = {}
    overall = True
    for name, provider in sorted(providers.items()):
        try:
            ok, detail = provider()
            detail = dict(detail)
        except Exception as exc:  # noqa: BLE001 - a provider is foreign code; any crash reads as "down"
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        detail["ok"] = bool(ok)
        components[name] = detail
        overall = overall and bool(ok)
    return overall, components


class _OpsHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz and /traces; everything else is 404."""

    server_version = "repro-ops/1"
    protocol_version = "HTTP/1.1"

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload) -> None:
        body = json.dumps(payload, indent=1, default=str).encode()
        self._send(code, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            if route == "/metrics":
                from .export import to_prometheus
                from .metrics import registry

                self._send(
                    200,
                    to_prometheus(registry()).encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/healthz":
                ok, components = health_snapshot()
                self._send_json(
                    200 if ok else 503,
                    {
                        "ok": ok,
                        "pid": os.getpid(),
                        "components": components,
                        "config": knobs.effective(),
                    },
                )
            elif route == "/traces":
                query = parse_qs(parsed.query)
                limit = spanlog.CAPACITY
                if "limit" in query:
                    try:
                        limit = int(query["limit"][0])
                    except (ValueError, IndexError):
                        pass
                records = spanlog.log().recent(limit, kind="serve.request")
                self._send_json(
                    200,
                    {
                        "stats": {
                            "kept": len(records),
                            "capacity": spanlog.log().capacity,
                        },
                        "traces": [
                            {k: r.get(k) for k in TRACE_FIELDS}
                            for r in records
                        ],
                    },
                )
            else:
                self._send_json(404, {"error": f"no route {route!r}"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - any route failure is a 500 reply; the ops listener never dies
            try:
                self._send_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass

    def log_message(self, fmt: str, *args) -> None:  # silence stderr
        pass


class OpsServer:
    """The embeddable ops listener; start/stop are idempotent."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns the bound
        ``(host, port)``."""
        if self._httpd is not None:
            return (self.host, self.port)
        httpd = ThreadingHTTPServer((self.host, self.port), _OpsHandler)
        httpd.daemon_threads = True
        self._httpd = httpd
        spanlog.listen()
        self.host, self.port = httpd.server_address[:2]
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-ops-http",
            daemon=True,
        )
        self._thread.start()
        return (self.host, self.port)

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            spanlog.listen(False)
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def __enter__(self) -> "OpsServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "bound" if self._httpd is not None else "stopped"
        return f"<OpsServer {self.host}:{self.port} {state}>"


_shared_lock = threading.Lock()
_shared: Optional[OpsServer] = None


def shared_server() -> Optional[OpsServer]:
    """The process's env-activated ops server, or None."""
    return _shared


def maybe_start_from_env() -> Optional[OpsServer]:
    """Start (or return) the shared ops server iff
    ``REPRO_TELEMETRY_HTTP=host:port`` is set.  Idempotent — every
    gateway of the process calls this and shares one listener.
    A malformed address or a bind failure is reported, never raised:
    the ops surface must not take the serving path down with it."""
    global _shared
    addr = knobs.get(TELEMETRY_HTTP_ENV)
    if addr is None:
        return None
    with _shared_lock:
        if _shared is not None:
            return _shared
        host, port = addr
        server = OpsServer(host, port)
        try:
            bound_host, bound_port = server.start()
        except OSError as exc:
            print(
                f"ops endpoints failed to bind {host}:{port}: {exc}",
                file=sys.stderr,
            )
            return None
        print(
            f"repro ops endpoints on http://{bound_host}:{bound_port} "
            "(/metrics /healthz /traces)",
            file=sys.stderr,
            flush=True,
        )
        _shared = server
        return server


def shutdown_shared_server() -> None:
    """Stop the env-activated server (tests)."""
    global _shared
    with _shared_lock:
        server, _shared = _shared, None
    if server is not None:
        server.stop()
