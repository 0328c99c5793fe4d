"""The fleet tuning daemon: one authoritative cache, N workers.

``python -m repro.tuning.fleet serve`` runs this.  The daemon owns the
tuning-cache file and answers the ops of
:mod:`repro.tuning.fleet.client` in the binary frames of
:mod:`repro.serve.protocol`.  It is an op table on the serve layer's
frame-service skeleton (:class:`~repro.serve.server.FrameServer` — the
same accept loop, connection lifecycle and malformed-frame policy as
the gateway's server), run on one event-loop thread: the lease table
and op counters live on that loop and need no lock.

Semantics worth stating:

* **Leases are in-memory** (uuid token + deadline).  A worker that
  crashed mid-measurement stops blocking the fleet when its lease
  expires; a *live* worker whose tuning run outlasts the timeout keeps
  its lease through ``renew`` heartbeats.  A daemon restart forgets all
  leases, which merely lets the race re-run — the merge-on-write cache
  makes duplicate publishes harmless.
* **`wait` is push-style**: the op parks on a signal that `put`,
  `release` and shutdown set, and returns the entry the moment a `put`
  lands (or early with ``null`` when the lease holder released or its
  lease lapsed without a publish), instead of the client polling.
* **Writes are atomic and merging** — the daemon persists through
  :meth:`TuningCache.save` (off the loop, in a worker thread), so it can
  even share a cache file with file-lock-mode workers.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
import uuid
from typing import Any, Dict, Optional, Tuple

from ... import knobs
from ...core.errors import ServeError
from ...serve.server import FrameServer
from ...telemetry import flight
from ...telemetry import http as ops_http
from ...telemetry.spans import record_span
from ..cache import TuningCache, entry_from_dict, entry_to_dict
from .config import FleetConfig

__all__ = ["FleetDaemon"]

Message = Dict[str, Any]


class FleetDaemon(FrameServer):
    """TCP service over one :class:`TuningCache`, on its own loop thread."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        *,
        cache_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ):
        super().__init__()
        self.config = config or FleetConfig(mode="daemon")
        self.cache = TuningCache(cache_path)
        self.host = host if host is not None else self.config.host
        self.port = port if port is not None else self.config.port
        self._thread: Optional[threading.Thread] = None
        # key -> (token, deadline).
        self._leases: Dict[str, Tuple[str, float]] = {}
        self._ops: Dict[str, int] = {}
        self._waiting = 0
        # Replaced on every set, so a parked `wait` holds the one it
        # parked on and cannot miss a wake-up.
        self._changed = asyncio.Event()
        self._started_at = time.monotonic()

    # -- life cycle ----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port) —
        pass ``port=0`` to let the OS pick."""
        self.cache.reload()
        ready = concurrent.futures.Future()
        thread = threading.Thread(
            target=asyncio.run, args=(self._serve(ready),),
            name="fleet-daemon", daemon=True,
        )
        thread.start()
        self.host, self.port = ready.result()  # a bind error raises here
        self._thread = thread
        # Live ops surface: the daemon is a long-lived process, so it
        # exposes /metrics, /healthz and /traces when asked to.
        ops_http.maybe_start_from_env()
        ops_http.register_health("fleet_daemon", self._health)
        return (self.host, self.port)

    async def _serve(self, ready: concurrent.futures.Future) -> None:
        """The loop thread's main: listen, serve until :meth:`shutdown`
        sets ``_halt``, then close."""
        try:
            await self.listen(self.host, self.port)
        except OSError as exc:
            ready.set_exception(exc)
            return
        self._loop, self._halt = asyncio.get_running_loop(), asyncio.Event()
        ready.set_result(self.address)
        await self._halt.wait()
        # Hang up first: a parked `wait` woken below finds the service
        # closed and its reply has no connection left to reach.
        await self.close()
        self._wake()

    def serve_forever(self) -> None:
        if self._thread is None:
            self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        ops_http.unregister_health("fleet_daemon")
        thread, self._thread = self._thread, None
        if thread is not None:
            self._loop.call_soon_threadsafe(self._halt.set)
            thread.join()

    def _state(self) -> Dict[str, Any]:
        # Also read by the ops HTTP thread: one-bytecode snapshots only.
        now = time.monotonic()
        return {
            "entries": len(self.cache),
            "leases": sum(d > now for _, d in list(self._leases.values())),
            "connections": len(self._writers),
            "waiting": self._waiting,
            "uptime": now - self._started_at,
        }

    def _health(self):
        return self._server is not None, self._state()

    # -- ops -----------------------------------------------------------

    async def _dispatch(self, message: Message, trace) -> Message:
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ServeError(f"unknown op {op!r}")
        self._ops[op] = self._ops.get(op, 0) + 1
        key = str(message.get("key", ""))
        # The remote context (when the client sent one) is passed, never
        # installed: ops interleave on the loop thread.
        ids = trace.ids() if trace is not None else {}
        if op in ("lease", "put", "release", "wait"):
            flight.maybe_record(f"fleet_{op}", key=key, **ids)
        t0, error = time.perf_counter(), None
        try:
            return {"id": message.get("id"), "ok": True, **await handler(message)}
        except Exception as exc:  # noqa: BLE001 - stamp the span; FrameServer replies
            error = type(exc).__name__
            raise
        finally:
            record_span(
                f"fleet.{op}", t0, time.perf_counter(), cat="fleet",
                trace=trace, error=error, key=key,
            )

    def _wake(self) -> None:
        self._changed.set()
        self._changed = asyncio.Event()

    def _lease(self, key: str) -> Optional[Tuple[str, float]]:
        """``key``'s live (token, deadline); an expired lease is dropped."""
        held = self._leases.get(key)
        if held is not None and held[1] <= time.monotonic():
            del self._leases[key]
            held = None
        return held

    def _holds(self, key: str, token) -> bool:
        return token is not None and self._leases.get(key, (None,))[0] == token

    async def _op_ping(self, msg: Message) -> Message:
        return {"pong": True}

    async def _op_get(self, msg: Message) -> Message:
        entry = self.cache.get_key(str(msg["key"]))
        return {"entry": entry_to_dict(entry) if entry else None}

    async def _op_put(self, msg: Message) -> Message:
        key = str(msg["key"])
        self.cache.put_key(key, entry_from_dict(msg["entry"]))
        await asyncio.to_thread(self.cache.save)
        # Only the lease holder's own publish clears the lease: an
        # uncoordinated put (token=None, e.g. a tune_schedule re-measure
        # of a cached key) must not cancel an active holder that is
        # still measuring and will publish its own result.  Waiters are
        # woken either way — the entry is in the cache to adopt.
        if self._holds(key, msg.get("token")):
            del self._leases[key]
        self._wake()
        return {"stored": True}

    async def _op_lease(self, msg: Message) -> Message:
        key = str(msg["key"])
        if self.cache.get_key(key) is not None:
            # Already tuned; nothing to measure.  The client fetches.
            return {"token": None, "reason": "cached"}
        if self._lease(key) is not None:
            return {"token": None, "reason": "held"}
        token = uuid.uuid4().hex
        self._leases[key] = (token, time.monotonic() + self.config.lease_timeout)
        return {"token": token}

    async def _op_renew(self, msg: Message) -> Message:
        """Extend a held lease's deadline (heartbeat from a measuring
        worker whose tuning run outlives ``lease_timeout``)."""
        key, token = str(msg["key"]), str(msg.get("token", ""))
        if not self._holds(key, token):
            return {"renewed": False}
        self._leases[key] = (token, time.monotonic() + self.config.lease_timeout)
        return {"renewed": True}

    async def _op_release(self, msg: Message) -> Message:
        key = str(msg["key"])
        if self._holds(key, str(msg.get("token", ""))):
            del self._leases[key]
        self._wake()
        return {"released": True}

    async def _op_wait(self, msg: Message) -> Message:
        key = str(msg["key"])
        timeout = float(msg.get("timeout", self.config.wait_timeout))
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            entry = self.cache.get_key(key)
            if entry is not None:
                return {"entry": entry_to_dict(entry)}
            held = self._lease(key)
            if held is None:
                # Holder released/expired without publishing; let the
                # waiter fall back to the heuristic immediately.
                return {"entry": None, "reason": "abandoned"}
            now = time.monotonic()
            if now >= deadline or self._server is None:
                return {"entry": None, "reason": "timeout"}
            # Nothing signals a lease lapsing: wake at its deadline too.
            self._waiting += 1
            try:
                await asyncio.wait_for(
                    self._changed.wait(), min(deadline, held[1]) - now
                )
            except asyncio.TimeoutError:
                pass
            finally:
                self._waiting -= 1

    async def _op_stats(self, msg: Message) -> Message:
        return {
            "stats": dict(
                self._state(),
                ops=dict(self._ops),
                cache_path=self.cache.path,
                config=knobs.effective(),
            )
        }
