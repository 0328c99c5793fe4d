"""Socket client for the fleet tuning daemon.

One connection speaking the binary frames of
:mod:`repro.serve.protocol`, strictly request/response: every op sends
one frame and blocks for one reply frame.  ``wait`` is the only op the
daemon may hold open — the client stretches its socket timeout to cover
the requested wait.

A dead daemon raises :class:`~repro.core.errors.TuningFleetError` from
the constructor (so :func:`~repro.tuning.fleet.coordinator.maybe_coordinator`
can degrade to standalone tuning) and from any mid-conversation I/O
failure (callers on the tuning path catch it and fall back to the
heuristic; it never propagates out of a kernel launch).
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Optional

from ...core.errors import ServeError, TuningFleetError
from ...serve.protocol import (
    decode_message,
    encode_message,
    read_frame_blocking,
)
from ...telemetry import tracing
from ..cache import CachedResult, entry_from_dict, entry_to_dict
from .config import FleetConfig

__all__ = ["FleetClient"]


class FleetClient:
    """Blocking framed client; thread-safe (one in-flight op)."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self._lock = threading.Lock()
        self._next_id = 0
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._connect()

    # -- transport -----------------------------------------------------

    def _connect(self) -> None:
        try:
            sock = socket.create_connection(
                self.config.addr, timeout=self.config.io_timeout
            )
        except OSError as exc:
            raise TuningFleetError(
                f"fleet daemon unreachable at "
                f"{self.config.host}:{self.config.port} ({exc})"
            ) from exc
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        with self._lock:
            if self._rfile is not None:
                try:
                    self._rfile.close()
                except OSError:
                    pass
                self._rfile = None
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def _roundtrip(
        self, payload: Dict[str, Any], *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        with self._lock:
            if self._sock is None:
                raise TuningFleetError("fleet client is closed")
            self._next_id += 1
            payload = dict(payload, id=self._next_id)
            # Distributed tracing: ops made during a drift re-tune (or
            # any traced tuning path) carry the caller's context, so
            # daemon-side spans stitch under the request that caused
            # the fleet traffic.  Untraced callers add nothing.
            ctx = tracing.current() or tracing.from_env()
            if ctx is not None:
                payload["trace"] = ctx.child().to_traceparent()
            try:
                self._sock.settimeout(
                    timeout if timeout is not None else self.config.io_timeout
                )
                self._sock.sendall(encode_message(payload))
                frame = read_frame_blocking(self._rfile)
                reply = decode_message(frame) if frame is not None else None
            except (OSError, ServeError) as exc:
                self._teardown_locked()
                raise TuningFleetError(
                    f"fleet daemon connection failed mid-conversation ({exc})"
                ) from exc
            if reply is None:
                self._teardown_locked()
                raise TuningFleetError("fleet daemon closed the connection")
            if reply.get("id") != payload["id"]:
                self._teardown_locked()
                raise TuningFleetError(
                    f"fleet daemon reply out of sequence "
                    f"(sent id {payload['id']}, got {reply.get('id')!r})"
                )
            if not reply.get("ok", False):
                raise TuningFleetError(
                    f"fleet daemon rejected {payload.get('op')!r}: "
                    f"{reply.get('message', 'no detail')}"
                )
            return reply

    def _teardown_locked(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- ops -----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def get(self, key: str) -> Optional[CachedResult]:
        reply = self._roundtrip({"op": "get", "key": key})
        entry = reply.get("entry")
        return entry_from_dict(entry) if entry else None

    def put(
        self, key: str, result: CachedResult, *, token: Optional[str] = None
    ) -> None:
        self._roundtrip(
            {
                "op": "put",
                "key": key,
                "entry": entry_to_dict(result),
                "token": token,
            }
        )

    def lease(self, key: str) -> Optional[str]:
        reply = self._roundtrip({"op": "lease", "key": key})
        token = reply.get("token")
        return str(token) if token else None

    def release(self, key: str, token: str) -> None:
        self._roundtrip({"op": "release", "key": key, "token": token})

    def renew(self, key: str, token: str) -> bool:
        """Extend a held lease's deadline; False when the lease is no
        longer ours (expired and re-granted, or already released)."""
        return bool(
            self._roundtrip(
                {"op": "renew", "key": key, "token": token}
            ).get("renewed")
        )

    def wait(self, key: str, timeout: float) -> Optional[CachedResult]:
        reply = self._roundtrip(
            {"op": "wait", "key": key, "timeout": timeout},
            timeout=timeout + self.config.io_timeout,
        )
        entry = reply.get("entry")
        return entry_from_dict(entry) if entry else None

    def stats(self) -> Dict[str, Any]:
        return dict(self._roundtrip({"op": "stats"}).get("stats", {}))
