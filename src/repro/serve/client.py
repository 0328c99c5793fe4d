"""Async client for ``python -m repro.serve``.

:class:`ServeClient` multiplexes any number of concurrent requests over
one TCP connection, a :class:`~repro.serve.protocol.FrameConnection`
(the server's reader and writer): each response frame is routed to the
matching awaiter by correlation id as it is read, with no reader task.
A request's arrays are copied into one frame when the call starts, so
the caller may change them as soon as the call returns or is cancelled
(a cancelled call whose frame is still queued in the transport sends
the values it was given); a reply's arrays are views into the reply's
own frame.
:class:`RetryAfter` backpressure from the server is honoured
transparently by :meth:`launch`/:meth:`submit_graph` (sleep for the
server's hint, then resubmit) up to ``max_retries``; pass
``max_retries=0`` to surface :class:`RetryAfter` to the caller instead.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Dict, Optional

import numpy as np

from ..core.errors import ServeError
from ..telemetry import tracing
from ..telemetry.spans import record_span
from .protocol import (
    FrameConnection,
    decode_arrays,
    decode_message,
    encode_arrays,
    encode_message,
)
from .types import DEFAULT_TENANT, GatewayClosed, RetryAfter, ServeResult

__all__ = ["ServeClient"]

#: Default cap on transparent RetryAfter resubmissions.
DEFAULT_MAX_RETRIES = 50


class ServeClient:
    """Framed gateway client.  Use as ``async with ServeClient(...)``."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self._conn: Optional[FrameConnection] = None
        self._waiters: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._closed = False

    # -- connection -------------------------------------------------------

    async def connect(self) -> "ServeClient":
        loop = asyncio.get_running_loop()
        _, self._conn = await loop.create_connection(
            lambda: FrameConnection(self._frame_read), self.host, self.port
        )
        self._conn.ended.add_done_callback(self._connection_ended)
        return self

    async def close(self) -> None:
        self._closed = True
        if self._conn is not None:
            self._conn.close()
            await self._conn.ended
        self._fail_waiters(GatewayClosed("client closed the connection"))

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- reading ----------------------------------------------------------

    def _frame_read(self, frame) -> None:
        try:
            message = decode_message(frame)
        except ServeError as exc:  # no call may wait on a lost stream
            self._fail_waiters(exc)
            self._conn.close()
            return
        waiter = self._waiters.pop(message.get("id"), None)
        if waiter is not None and not waiter.done():
            waiter.set_result(message)

    def _connection_ended(self, ended: asyncio.Future) -> None:
        who = "client" if self._closed else "server"
        self._fail_waiters(
            ended.result() or GatewayClosed(f"{who} closed the connection")
        )

    def _fail_waiters(self, exc: BaseException) -> None:
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)

    # -- request plumbing -------------------------------------------------

    async def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._conn is None or self._closed:
            raise GatewayClosed("client is not connected")
        if self._conn.ended.done():
            raise GatewayClosed("server closed the connection")
        msg_id = next(self._ids)
        message["id"] = msg_id
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[msg_id] = waiter
        try:
            # One joined frame: the transport may keep unsent bytes
            # after a cancel, and they must not be the caller's arrays.
            self._conn.write_frame([encode_message(message)])
            await self._conn.drain()
            return await waiter
        finally:
            self._waiters.pop(msg_id, None)

    @staticmethod
    def _raise_remote(response: Dict[str, Any]) -> None:
        name = response.get("error", "ServeError")
        msg = response.get("message", "remote failure")
        if name == "RetryAfter":
            raise RetryAfter(
                tenant="",
                delay=float(response.get("retry_after", 0.05)),
                depth=0,
            )
        if name == "GatewayClosed":
            raise GatewayClosed(msg)
        raise ServeError(f"{name}: {msg}")

    async def _submit(self, op: str, workload, tenant, backend, params, arrays):
        message = {
            "op": op,
            "workload": workload,
            "tenant": tenant,
            "backend": backend,
            "params": params or {},
            "arrays": encode_arrays(
                {k: np.asarray(v) for k, v in (arrays or {}).items()}
            ),
        }
        # Distributed tracing: propagate the caller's ambient context
        # (or the REPRO_TRACEPARENT seed) so the server-side request
        # joins this trace.  Untraced callers add nothing to the frame.
        ctx = tracing.current() or tracing.from_env()
        retries = 0
        while True:
            if ctx is None:
                response = await self._roundtrip(dict(message))
            else:
                # One span per round trip, under the id the server
                # parents its ``serve.request`` span to.
                wire = ctx.child()
                message["trace"] = wire.to_traceparent()
                t0 = time.perf_counter()
                response = await self._roundtrip(dict(message))
                record_span(
                    "serve.client.wire", t0, time.perf_counter(),
                    cat="serve", trace=wire, op=op, retries=retries,
                )
            if response.get("ok"):
                return ServeResult(
                    request_id=response.get("id", -1),
                    tenant=tenant,
                    workload=workload,
                    arrays=decode_arrays(response.get("arrays") or {}),
                    latency=float(response.get("latency", 0.0)),
                    batch_size=int(response.get("batch_size", 1)),
                    lane=response.get("lane", ""),
                )
            try:
                self._raise_remote(response)
            except RetryAfter as exc:
                if retries >= self.max_retries:
                    raise
                retries += 1
                await asyncio.sleep(exc.delay)

    # -- public API -------------------------------------------------------

    async def launch(
        self,
        workload: str,
        *,
        tenant: str = DEFAULT_TENANT,
        backend: str = "",
        params: Optional[dict] = None,
        arrays: Optional[dict] = None,
    ) -> ServeResult:
        """Submit one kernel launch; resolves when the result arrives."""
        return await self._submit("launch", workload, tenant, backend, params, arrays)

    async def submit_graph(
        self,
        workload: str,
        *,
        tenant: str = DEFAULT_TENANT,
        backend: str = "",
        params: Optional[dict] = None,
        arrays: Optional[dict] = None,
    ) -> ServeResult:
        """Submit one dataflow graph as a single unit of admission."""
        return await self._submit("graph", workload, tenant, backend, params, arrays)

    async def stats(self) -> Dict[str, Any]:
        response = await self._roundtrip({"op": "stats"})
        if not response.get("ok"):
            self._raise_remote(response)
        return response["stats"]

    async def ping(self) -> bool:
        response = await self._roundtrip({"op": "ping"})
        return bool(response.get("pong"))
