"""The frame-service skeleton, and the asyncio TCP front-end of the
gateway built on it.

:class:`FrameServer` is the package's one connection loop: it accepts
connections, reads the binary frames of :mod:`repro.serve.protocol` and
answers each with what ``_dispatch`` returns for the decoded message —
the only thing a service defines.  Each client connection is an
independent reader task and each frame its own task, so a connection
can have any number of requests in flight and receives completions out
of order.  Both rejection kinds of the protocol are applied here, for
every service: a lost framing gets one error reply and a hang-up, a
whole frame whose content is not a message gets an error reply and the
connection carries on.

:class:`ServeServer` binds the skeleton to a
:class:`~repro.serve.gateway.Gateway`; a gateway the server builds
itself steps on the server's own event loop, with no thread of its own.
A frame read while its connection has no other request unanswered, and
with no frame of any connection read behind it by the time its handler
starts, is *lone*: the gateway may run it to completion inside
``submit`` (nothing queued ahead of it, an unheld batch, an idle lane),
and its reply is built at once.  Every other request is offered and
waits for the loop's next step — so a pipelining connection's frames,
and concurrent connections' frames that arrive together, still meet in
the batcher.  Every batch runs on the event-loop thread while its lane
is idle, and on the lane's thread when it is busy; a completion on the
loop thread wakes its frame handler directly.
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
    MAX_FRAME_BYTES,
    decode_arrays,
    decode_message,
    encode_message,
    error_payload,
    read_frame,
    result_payload,
)
from .types import DEFAULT_TENANT, GraphRequest, LaunchRequest

__all__ = ["FrameServer", "ServeServer", "serve_forever"]


class FrameServer:
    """Accept loop, connection lifecycle and per-frame codec; a subclass
    supplies ``async _dispatch(message, trace, lone) -> reply``."""

    def __init__(self):
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers = set()
        #: Frames read so far, over every connection.
        self._frames_read = 0

    async def listen(self, host: str, port: int) -> None:
        # The stream limit only paces the transport here (frames are
        # read with readexactly); at the frame bound a whole frame
        # arrives without pause/resume churn.
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_FRAME_BYTES
        )

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
        for writer in list(self._writers):
            writer.close()
        if server is not None:
            await server.wait_closed()

    async def _dispatch(self, message: dict, trace, lone: bool) -> dict:
        """The reply to ``message``; ``lone`` is True when the frame
        arrived with no other frame of its connection unanswered and no
        frame of any connection was read behind it before its handler
        started — nothing else is waiting for this thread."""
        raise NotImplementedError

    # -- per-connection ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        #: This connection's frames whose reply is not yet written.
        unanswered = set()
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except OSError:
                    break
                except ServeError as exc:
                    # The framing is lost (refused prefix, stream ended
                    # mid-frame): say why, then drop the connection.
                    await self._send(
                        encode_message(error_payload(None, exc)),
                        writer, write_lock,
                    )
                    break
                if frame is None:
                    break
                self._frames_read += 1
                # Lone: nothing else of this connection unanswered, and
                # still the last frame read when its handler starts
                # (handlers start in read order, so none waits behind).
                seq = None if unanswered else self._frames_read
                task = asyncio.ensure_future(
                    self._handle_frame(frame, writer, write_lock, seq)
                )
                unanswered.add(task)
                task.add_done_callback(unanswered.discard)
            if unanswered:
                await asyncio.gather(*unanswered, return_exceptions=True)
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_frame(
        self, frame: bytes, writer, write_lock, seq: Optional[int]
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
            reply = encode_message(response)
            _wire_span("serve.wire.encode", t0, trace, len(reply))
        except Exception as exc:  # noqa: BLE001 - any failed request is its own reply
            reply = encode_message(error_payload(msg_id, exc))
        await self._send(reply, writer, write_lock)

    @staticmethod
    async def _send(frame: bytes, writer, write_lock) -> None:
        async with write_lock:
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; the work already ran


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
            cls = LaunchRequest if op == "launch" else GraphRequest
            request = cls(
                workload=message.get("workload", ""),
                tenant=message.get("tenant", DEFAULT_TENANT),
                backend=message.get("backend", ""),
                params=message.get("params") or {},
                arrays=message["arrays"],
                trace=trace,
            )
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
