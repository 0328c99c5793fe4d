"""The frame-service skeleton, and the asyncio TCP front-end of the
gateway built on it.

:class:`FrameServer` is the package's one connection loop: it accepts
connections, reads the binary frames of :mod:`repro.serve.protocol` and
answers each with what ``_dispatch`` returns for the decoded message —
the only thing a service defines.  Each connection is one
:class:`~repro.serve.protocol.FrameConnection`, which hands every whole
frame to the server as it is read; each frame is its own task, so a
connection can have any number of requests in flight and receives
completions out of order, and one task per connection waits for its
end.  Both rejection kinds of the protocol are applied here, for every
service: a lost framing gets one error reply and a hang-up, a whole
frame whose content is not a message gets an error reply and the
connection carries on.

A frame is read once, into a buffer of its own, and a request's arrays
are views into it: on a host-addressable lane they are the kernel's
arguments (:func:`repro.mem.view_plain`), the kernel writes its output
into the request's own array, and the reply is sent from that memory —
a large reply part by part, without joining it into one copy.

:class:`ServeServer` binds the skeleton to a
:class:`~repro.serve.gateway.Gateway`; a gateway the server builds
itself steps on the server's own event loop, with no thread of its own.
A frame read while its connection has no other request unanswered, and
with no frame of any connection read behind it by the time its handler
starts, is *lone*: the gateway may run it to completion inside
``submit`` (nothing queued ahead of it, an unheld batch), and its reply
is built at once.  Every other request is offered and waits for the
loop's next step — so a pipelining connection's frames, and concurrent
connections' frames that arrive together, still meet in the batcher.
Every batch runs on the event-loop thread, one at a time, so a server
starts no thread of its own, and a completion wakes its frame handler
directly.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional, Tuple

from .. import knobs
from ..core.errors import ServeError
from ..telemetry import tracing
from ..telemetry.spans import record_span
from .config import ServeConfig, config_from_env
from .gateway import Gateway
from .protocol import (
    FrameConnection,
    decode_arrays,
    decode_message,
    encode_frame,
    error_payload,
    result_payload,
)
from .types import DEFAULT_TENANT, GraphRequest, LaunchRequest

__all__ = ["FrameServer", "ServeServer", "serve_forever"]


class FrameServer:
    """Accept loop, connection lifecycle and per-frame codec; a subclass
    supplies ``async _dispatch(message, trace, lone) -> reply``."""

    def __init__(self):
        self._server: Optional[asyncio.AbstractServer] = None
        #: Each open connection, and the task that waits for its end.
        self._connections = {}
        #: Frames read so far, over every connection.
        self._frames_read = 0

    async def listen(self, host: str, port: int) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._accept, host, port)

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        """Stop accepting and hang up on every connection."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for conn in list(self._connections):
            conn.close()
        if server is not None:
            await server.wait_closed()

    async def _dispatch(self, message: dict, trace, lone: bool) -> dict:
        """The reply to ``message``; ``lone`` is True when the frame
        arrived with no other frame of its connection unanswered and no
        frame of any connection was read behind it before its handler
        started — nothing else is waiting for this thread."""
        raise NotImplementedError

    # -- per-connection ---------------------------------------------------

    def _accept(self) -> FrameConnection:
        #: This connection's frames whose reply is not yet written.
        unanswered = set()

        def frame_read(frame) -> None:
            self._frames_read += 1
            # Lone: nothing else of this connection unanswered, and
            # still the last frame read when its handler starts
            # (handlers start in read order, so none waits behind).
            seq = None if unanswered else self._frames_read
            task = asyncio.ensure_future(self._handle_frame(frame, conn, seq))
            unanswered.add(task)
            task.add_done_callback(unanswered.discard)

        conn = FrameConnection(frame_read)
        self._connections[conn] = asyncio.ensure_future(
            self._handle_connection(conn, unanswered)
        )
        return conn

    async def _handle_connection(self, conn: FrameConnection, unanswered) -> None:
        try:
            end = await conn.ended
            if isinstance(end, ServeError):
                # The framing is lost (refused prefix, stream ended
                # mid-frame): say why, then drop the connection.
                conn.write_frame(encode_frame(error_payload(None, end)))
            if unanswered:
                await asyncio.gather(*unanswered, return_exceptions=True)
        finally:
            self._connections.pop(conn, None)
            conn.close()

    async def _handle_frame(
        self, frame, conn: FrameConnection, seq: Optional[int]
    ) -> None:
        lone = seq == self._frames_read
        msg_id = trace = None
        try:
            t0 = time.perf_counter()
            message = decode_message(frame)
            msg_id = message.get("id")
            # A malformed traceparent degrades to untraced — the
            # service then applies its own capture rules.
            trace = tracing.from_traceparent(message.get("trace"))
            message["arrays"] = decode_arrays(message.get("arrays") or {})
            _wire_span("serve.wire.decode", t0, trace, len(frame))
            response = await self._dispatch(message, trace, lone)
            t0 = time.perf_counter()
            reply = encode_frame(response)
            _wire_span("serve.wire.encode", t0, trace, sum(map(len, reply)))
        except Exception as exc:  # noqa: BLE001 - any failed request is its own reply
            reply = encode_frame(error_payload(msg_id, exc))
        conn.write_frame(reply)
        await conn.drain()


class ServeServer(FrameServer):
    """TCP server bound to a gateway; ``async with`` manages both.

    Build it on the running loop that serves it (in a coroutine): a
    gateway it builds itself steps on that loop."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        gateway: Optional[Gateway] = None,
        **overrides,
    ):
        super().__init__()
        if config is None:
            config = config_from_env()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self._owns_gateway = gateway is None
        self.gateway = gateway or Gateway(config, loop=asyncio.get_running_loop())

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        await self.listen(self.config.host, self.config.port)

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self.address[1]

    async def stop(self, drain: bool = True) -> None:
        await self.close()
        if self._owns_gateway:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, lambda: self.gateway.shutdown(drain=drain)
            )

    async def __aenter__(self) -> "ServeServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _dispatch(self, message: dict, trace, lone: bool) -> dict:
        op = message.get("op")
        msg_id = message.get("id")
        if op == "ping":
            return {"id": msg_id, "ok": True, "pong": True}
        if op == "stats":
            stats = dict(self.gateway.stats(), config=knobs.effective())
            return {"id": msg_id, "ok": True, "stats": stats}
        if op in ("launch", "graph"):
            fields = dict(
                workload=message.get("workload", ""),
                tenant=message.get("tenant", DEFAULT_TENANT),
                backend=message.get("backend", ""),
                params=message.get("params") or {},
                arrays=message["arrays"],
                trace=trace,
            )
            if op == "launch":
                request = LaunchRequest(**fields, owns_arrays=True)
            else:
                request = GraphRequest(**fields)
            # A lone request may have run to completion inside submit.
            result = await self.gateway.submit(request, lone=lone).async_result()
            return result_payload(msg_id, result, trace=request.trace)
        raise ServeError(f"unknown op {op!r}")


def _wire_span(name: str, t0: float, trace, nbytes: int) -> None:
    """Codec time as a child span of the request — free when unobserved."""
    record_span(
        name, t0, time.perf_counter(), cat="serve",
        trace=trace.child() if trace is not None else None, bytes=nbytes,
    )


async def serve_forever(config: Optional[ServeConfig] = None, **overrides):
    """Run the server until cancelled (the ``__main__`` entry point)."""
    server = ServeServer(config, **overrides)
    await server.start()
    print(
        f"repro.serve listening on {server.config.host}:{server.port} "
        f"(lanes: {[l.label for l in server.gateway.router.lanes]})",
        flush=True,
    )
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()
