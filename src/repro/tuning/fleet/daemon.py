"""The fleet tuning daemon: one authoritative cache, N workers.

``python -m repro.tuning.fleet serve`` runs this.  The daemon owns the
tuning-cache file and answers the ops of
:mod:`repro.tuning.fleet.client` in the binary frames of
:mod:`repro.serve.protocol` — one thread per connection, strictly
request/response per connection.

Semantics worth stating:

* **Leases are in-memory** (uuid token + deadline).  A worker that
  crashed mid-measurement stops blocking the fleet when its lease
  expires; a *live* worker whose tuning run outlasts the timeout keeps
  its lease through ``renew`` heartbeats.  A daemon restart forgets all
  leases, which merely lets the race re-run — the merge-on-write cache
  makes duplicate publishes harmless.
* **`wait` is push-style**: the op parks on a condition variable and
  returns the entry the moment a `put` lands (or early with ``null``
  when the lease holder released without publishing), instead of the
  client polling.
* **Writes are atomic and merging** — the daemon persists through
  :meth:`TuningCache.save`, so it can even share a cache file with
  file-lock-mode workers.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from typing import Any, Dict, Optional, Tuple

from ... import knobs
from ...core.errors import ServeError
from ...serve.protocol import (
    decode_message,
    encode_message,
    read_frame_blocking,
)
from ...telemetry import flight, tracing
from ...telemetry import http as ops_http
from ...telemetry.spans import record_span
from ..cache import TuningCache, entry_from_dict, entry_to_dict
from .config import FleetConfig

__all__ = ["FleetDaemon"]


class FleetDaemon:
    """Threaded TCP server over one :class:`TuningCache`."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        *,
        cache_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ):
        self.config = config or FleetConfig(mode="daemon")
        self.cache = TuningCache(cache_path)
        self.host = host if host is not None else self.config.host
        self.port = port if port is not None else self.config.port
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # key -> (token, deadline); guarded by _cond's lock, which also
        # serialises publish visibility for parked `wait` ops.
        self._leases: Dict[str, Tuple[str, float]] = {}
        self._cond = threading.Condition()
        self._conns: set = set()
        self._ops: Dict[str, int] = {}
        self._started_at = time.monotonic()

    # -- life cycle ----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port) —
        pass ``port=0`` to let the OS pick."""
        server = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        server.settimeout(0.2)
        self._server = server
        self.host, self.port = server.getsockname()[:2]
        self.cache.reload()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-daemon-accept", daemon=True
        )
        self._accept_thread.start()
        # Live ops surface: the daemon is a long-lived process, so it
        # exposes /metrics, /healthz and /traces when asked to.
        ops_http.maybe_start_from_env()
        ops_http.register_health("fleet_daemon", self._health)
        return (self.host, self.port)

    def _health(self):
        with self._cond:
            leases = sum(
                1 for key in list(self._leases)
                if self._lease_active_locked(key)
            )
            conns = len(self._conns)
        up = self._server is not None and not self._stopping.is_set()
        return up, {
            "entries": len(self.cache),
            "leases": leases,
            "connections": conns,
            "uptime": time.monotonic() - self._started_at,
        }

    def serve_forever(self) -> None:
        if self._server is None:
            self.start()
        try:
            while not self._stopping.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        ops_http.unregister_health("fleet_daemon")
        self._stopping.set()
        with self._cond:
            self._cond.notify_all()
            conns = list(self._conns)
        for conn in conns:
            # Unblock connection threads parked in a read; a client
            # mid-conversation sees a clean EOF/reset, not a hang.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None

    # -- accept / per-connection ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="fleet-daemon-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        with self._cond:
            self._conns.add(conn)
        rfile = conn.makefile("rb")
        try:
            while not self._stopping.is_set():
                try:
                    frame = read_frame_blocking(rfile)
                    if frame is None:
                        return
                    msg = decode_message(frame)
                except ServeError as exc:
                    conn.sendall(
                        encode_message(
                            {"id": None, "ok": False, "message": str(exc)}
                        )
                    )
                    return
                reply = self._dispatch(msg)
                conn.sendall(encode_message(reply))
        except OSError:
            pass
        finally:
            with self._cond:
                self._conns.discard(conn)
            try:
                rfile.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    # -- ops -----------------------------------------------------------

    def _count(self, op: str) -> None:
        with self._cond:
            self._ops[op] = self._ops.get(op, 0) + 1

    def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        op = msg.get("op")
        msg_id = msg.get("id")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {
                "id": msg_id,
                "ok": False,
                "message": f"unknown op {op!r}",
            }
        self._count(str(op))
        # The wire context (when the client sent one) makes this op a
        # child span of the remote caller; a malformed traceparent
        # degrades to an untraced op.
        ctx = tracing.from_traceparent(msg.get("trace"))
        if op in ("lease", "put", "release", "wait"):
            flight.maybe_record(
                f"fleet_{op}",
                key=str(msg.get("key", "")),
                **(ctx.ids() if ctx is not None else {}),
            )
        t0 = time.perf_counter()
        try:
            with tracing.use(ctx):
                payload = handler(msg)
        except Exception as exc:  # a bad request must not kill the conn
            record_span(
                f"fleet.{op}", t0, time.perf_counter(), cat="fleet",
                trace=ctx, error=type(exc).__name__,
                key=str(msg.get("key", "")),
            )
            return {"id": msg_id, "ok": False, "message": str(exc)}
        record_span(
            f"fleet.{op}", t0, time.perf_counter(), cat="fleet",
            trace=ctx, key=str(msg.get("key", "")),
        )
        return {"id": msg_id, "ok": True, **payload}

    def _op_ping(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    def _op_get(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        entry = self.cache.get_key(str(msg["key"]))
        return {"entry": entry_to_dict(entry) if entry else None}

    def _op_put(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg["key"])
        entry = entry_from_dict(msg["entry"])
        self.cache.put_key(key, entry)
        self.cache.save()
        token = msg.get("token")
        with self._cond:
            # Only the lease holder's own publish clears the lease: an
            # uncoordinated put (token=None, e.g. a tune_schedule
            # re-measure of a cached key) must not cancel an active
            # holder that is still measuring and will publish its own
            # result.  Waiters are notified either way — the entry is
            # in the cache and they can adopt it.
            held = self._leases.get(key)
            if held is not None and token is not None and held[0] == token:
                del self._leases[key]
            self._cond.notify_all()
        return {"stored": True}

    def _lease_active_locked(self, key: str) -> bool:
        held = self._leases.get(key)
        if held is None:
            return False
        if held[1] <= time.monotonic():
            del self._leases[key]
            return False
        return True

    def _op_lease(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg["key"])
        if self.cache.get_key(key) is not None:
            # Already tuned; nothing to measure.  The client fetches.
            return {"token": None, "reason": "cached"}
        with self._cond:
            if self._lease_active_locked(key):
                return {"token": None, "reason": "held"}
            token = uuid.uuid4().hex
            deadline = time.monotonic() + self.config.lease_timeout
            self._leases[key] = (token, deadline)
        return {"token": token}

    def _op_renew(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Extend a held lease's deadline (heartbeat from a measuring
        worker whose tuning run outlives ``lease_timeout``)."""
        key = str(msg["key"])
        token = str(msg.get("token", ""))
        with self._cond:
            held = self._leases.get(key)
            if held is not None and held[0] == token:
                deadline = time.monotonic() + self.config.lease_timeout
                self._leases[key] = (token, deadline)
                return {"renewed": True}
        return {"renewed": False}

    def _op_release(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg["key"])
        token = str(msg.get("token", ""))
        with self._cond:
            held = self._leases.get(key)
            if held is not None and held[0] == token:
                del self._leases[key]
            self._cond.notify_all()
        return {"released": True}

    def _op_wait(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg["key"])
        timeout = float(msg.get("timeout", self.config.wait_timeout))
        deadline = time.monotonic() + max(timeout, 0.0)
        with self._cond:
            while True:
                entry = self.cache.get_key(key)
                if entry is not None:
                    return {"entry": entry_to_dict(entry)}
                if not self._lease_active_locked(key):
                    # Holder released/expired without publishing; let the
                    # waiter fall back to the heuristic immediately.
                    return {"entry": None, "reason": "abandoned"}
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopping.is_set():
                    return {"entry": None, "reason": "timeout"}
                self._cond.wait(min(remaining, 0.5))

    def _op_stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        with self._cond:
            ops = dict(self._ops)
            leases = sum(
                1 for key in list(self._leases)
                if self._lease_active_locked(key)
            )
        return {
            "stats": {
                "entries": len(self.cache),
                "leases": leases,
                "ops": ops,
                "uptime": time.monotonic() - self._started_at,
                "cache_path": self.cache.path,
                "config": knobs.effective(),
            }
        }
