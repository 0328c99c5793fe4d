"""asyncio TCP front-end for the gateway.

One :class:`ServeServer` wraps one :class:`~repro.serve.gateway.Gateway`
and speaks the JSON-lines protocol of :mod:`repro.serve.protocol`.
Each client connection is an independent reader task; responses are
written as the underlying handles resolve, so a connection can have any
number of requests in flight and receives completions out of order.

The gateway core is thread-based (``concurrent.futures.Future``); the
server bridges with :func:`asyncio.wrap_future`, keeping the event loop
free while kernels run on device-lane threads.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Optional

from .. import knobs
from .config import ServeConfig, config_from_env
from .gateway import Gateway
from .protocol import (
    MAX_LINE_BYTES,
    decode_arrays,
    decode_message,
    encode_message,
    error_payload,
    result_payload,
)
from .types import DEFAULT_TENANT, GraphRequest, LaunchRequest

__all__ = ["ServeServer", "serve_forever"]


class ServeServer:
    """TCP server bound to a gateway; ``async with`` manages both."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        gateway: Optional[Gateway] = None,
        **overrides,
    ):
        if config is None:
            config = config_from_env()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.gateway = gateway if gateway is not None else Gateway(config)
        self._owns_gateway = gateway is None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers = set()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        # The stream limit must match the protocol's frame bound — the
        # asyncio default (64 KiB) would sever any connection sending a
        # modestly sized array payload.
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
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

    # -- per-connection ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        pending = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # Line exceeds the stream limit: the framing is
                    # unrecoverable, so drop the connection rather than
                    # crash the callback.
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_line(self, line: bytes, writer, write_lock) -> None:
        msg_id = None
        try:
            message = decode_message(line)
            msg_id = message.get("id")
            response = await self._dispatch(message)
        except BaseException as exc:  # every failure becomes a reply
            response = error_payload(msg_id, exc)
        async with write_lock:
            try:
                writer.write(encode_message(response))
                await writer.drain()
            except (ConnectionResetError, RuntimeError):
                pass  # client went away; the work already ran

    async def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        msg_id = message.get("id")
        if op == "ping":
            return {"id": msg_id, "ok": True, "pong": True}
        if op == "stats":
            stats = dict(self.gateway.stats(), config=knobs.effective())
            return {"id": msg_id, "ok": True, "stats": stats}
        if op in ("launch", "graph"):
            from ..telemetry import tracing

            cls = LaunchRequest if op == "launch" else GraphRequest
            request = cls(
                workload=message.get("workload", ""),
                tenant=message.get("tenant", DEFAULT_TENANT),
                backend=message.get("backend", ""),
                params=message.get("params") or {},
                arrays=decode_arrays(message.get("arrays") or {}),
                # A malformed traceparent degrades to untraced — the
                # gateway then applies its own capture rules.
                trace=tracing.from_traceparent(message.get("trace")),
            )
            handle = self.gateway.submit(request)
            result = await asyncio.wrap_future(handle.future)
            return result_payload(msg_id, result, trace=request.trace)
        from ..core.errors import ServeError

        raise ServeError(f"unknown op {op!r}")


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
