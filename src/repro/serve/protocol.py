"""Wire protocol for ``python -m repro.serve``: length-prefixed binary
frames over TCP.

One message is one frame::

    +-------+------------+-------------+----------------+---------------+
    | magic | header_len | payload_len | header         | payload       |
    | 4 B   | u32, BE    | u32, BE     | UTF-8 JSON     | raw array     |
    | RPF1  |            |             | object         | bytes         |
    +-------+------------+-------------+----------------+---------------+

The 12-byte prefix announces both lengths, so a reader knows how much
to expect — and refuses a frame larger than :data:`MAX_FRAME_BYTES`
(prefix + header + payload) *before* reading any of its body.  The
header is the message itself, a small JSON object; arrays do not live
in it.  Each entry of its ``"arrays"`` object says where the array's
C-contiguous bytes sit in the payload::

    "arrays": {"x": {"dtype": "float64", "shape": [1024],
                     "offset": 0, "nbytes": 8192}, ...}

and the payload is those bytes verbatim — no text encoding, no
escaping; only alignment pads between arrays.  The bytes are the bytes:
bit-identity with in-process launches survives the wire, for any byte
order.

Alignment: the header is padded with JSON spaces so that prefix +
header ends on an 8-byte boundary, and each array's ``offset`` is
padded (with zero bytes) to a multiple of 8.  In a frame buffer that
starts 8-aligned, every array of a dtype aligned to 8 bytes or less
lies aligned.

In memory an array travels as ``{"dtype", "shape", "data"}`` with
``data`` a bytes-like view (:func:`encode_array` makes a read-only one
over the caller's array; :func:`decode_array` turns one back into an
ndarray).  :func:`encode_message` lays the ``data`` of every entry of
``message["arrays"]`` out in the payload and writes ``offset``/``nbytes``
in its place; :func:`decode_message` does the reverse on one whole
frame, leaving views into it.  A decoded array is a *view into the
frame* when the frame is writable and the array's slice is aligned —
the frames :class:`FrameConnection` reads are private buffers, one per
frame, so a request's arrays alias nothing but its own frame and a
server may compute in them.  Read-only bytes (a ``bytes`` frame, an
:func:`encode_array` entry) and misaligned slices are copied.

Client → server::

    {"op": "launch", "id": 7, "workload": "axpy", "tenant": "alice",
     "backend": "", "params": {"alpha": 2.0},
     "trace": "00-<32 hex>-<16 hex>-01",
     "arrays": {"x": {...}, "y": {...}}}
    {"op": "graph", ...}            # same fields, graph admission
    {"op": "stats", "id": 8}
    {"op": "ping", "id": 9}

``trace`` is an optional W3C ``traceparent``
(:mod:`repro.telemetry.tracing`): the server parses it into the
request's trace context, so the gateway's spans — and everything they
cascade into, kernel launches and pool-worker chunks included — join
the caller's distributed trace.  Responses echo the request's trace
ids back.

Server → client::

    {"id": 7, "ok": true, "arrays": {...}, "latency": 0.0031,
     "batch_size": 8, "lane": "AccCpuSerial/0"}
    {"id": 7, "ok": false, "error": "RetryAfter", "message": "...",
     "retry_after": 0.25}
    {"id": 8, "ok": true, "stats": {...}}

``id`` is a client-chosen correlation token echoed verbatim; responses
may arrive out of submission order (that is the point of the gateway).

Every rejection is a :class:`~repro.core.errors.ServeError`.  Two
kinds, and the connection loop
(:class:`~repro.serve.server.FrameServer`) applies one policy to each:

* **The framing is lost** — raised by the reader
  (:class:`FrameConnection`): wrong magic,
  announced lengths over the bound, end of stream inside a prefix or a
  body.  Nothing after that point can be trusted; the peer gets one
  error reply and the connection is closed.
* **The frame is whole but its content is not a message** — raised by
  :func:`decode_message` / :func:`decode_arrays`: header not UTF-8, not
  JSON or not an object; an array's ``offset``/``nbytes`` outside the
  payload; ``nbytes`` that is not shape × itemsize; negative extents;
  object dtypes (their bytes are pointers).  The stream is still in
  step, so the connection stays usable.

This module is the only place that packs or unpacks a prefix, and
:class:`FrameConnection` is the one reader and writer of frames: the
serve server and client both speak through it.  It reads small frames
out of one staging buffer and gives a frame larger than that buffer a
buffer of its own — allocated, uninitialised, only once the frame's
prefix passed the bound — which the socket fills directly.  A frame
with a payload of at least :data:`JOIN_LIMIT` bytes goes out as one
transport write per part (header, then each array's memory), not as one
joined copy.  A transport may keep views of bytes it has not sent yet,
so a part must be memory nothing changes afterwards: the server's
replies are, the client joins its requests into one frame.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..core.errors import ServeError

__all__ = [
    "dtype_name",
    "encode_array",
    "decode_array",
    "encode_arrays",
    "decode_arrays",
    "encode_message",
    "encode_frame",
    "decode_message",
    "FrameConnection",
    "result_payload",
    "error_payload",
    "MAX_FRAME_BYTES",
    "STAGING_BYTES",
    "JOIN_LIMIT",
]

#: Upper bound on one whole frame (prefix + header + payload); a 64 MiB
#: frame is a client bug, not a workload.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: A connection's staging buffer: frames up to this size are parsed out
#: of it; a larger frame gets a buffer of its own.
STAGING_BYTES = 64 * 1024
#: A frame whose payload reaches this many bytes is written part by
#: part; a smaller one as one joined write.  Joined, a small reply is
#: one send instead of one per part (less server CPU per reply with one
#: request in flight); part by part, a large one skips copying its
#: arrays.  Any limit between the small (2-4 KiB) and bulk (0.5-1 MiB)
#: serve frames picks the same path for each.
JOIN_LIMIT = 64 * 1024

_MAGIC = b"RPF1"
#: magic, header length, payload length.
_PREFIX = struct.Struct("!4sII")
#: Alignment of the payload's start and of every array offset.
_ALIGN = 8
#: ``json.dumps(..., separators=(",", ":"))`` without building an
#: encoder per frame.
_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"))


# -- arrays -------------------------------------------------------------------

#: dtype -> its name on the wire: ``str(dtype)`` runs numpy's
#: Python-level naming on every call.  Capped, since the wire picks the
#: dtypes a server names (past the cap a name is computed each time).
_dtype_names: Dict[np.dtype, str] = {}


def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)`` (``"float64"``), memoised per dtype."""
    name = _dtype_names.get(dtype)
    if name is None:
        name = str(dtype)
        if len(_dtype_names) < 256:
            _dtype_names[dtype] = name
    return name


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    arr = np.asarray(arr)
    if arr.dtype.hasobject:
        raise ServeError(
            f"cannot send an array of dtype {arr.dtype}: object arrays "
            "hold pointers, not data"
        )
    # ascontiguousarray promotes 0-d to 1-d; the shape on the wire is
    # the caller's.  Read-only: decoding the entry must not alias the
    # caller's array.
    flat = np.ascontiguousarray(arr).reshape(-1)
    return {
        "dtype": dtype_name(arr.dtype),
        "shape": list(arr.shape),
        "data": memoryview(flat.view(np.uint8)).toreadonly(),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    try:
        name, shape, data = payload["dtype"], payload["shape"], payload["data"]
        if not isinstance(name, str):
            raise TypeError(f"dtype must be a string, got {name!r}")
        dtype = np.dtype(name)
        shape = tuple(map(int, shape))
        data = memoryview(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed array payload: {exc}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise ServeError(f"refusing dtype {dtype} from the wire")
    if shape and min(shape) < 0:
        raise ServeError(f"array shape {shape} has a negative extent")
    expected = math.prod(shape) * dtype.itemsize
    if data.nbytes != expected:
        raise ServeError(
            f"array payload size mismatch: got {data.nbytes} bytes, "
            f"shape {shape} of {dtype} needs {expected}"
        )
    arr = np.frombuffer(data, dtype=dtype).reshape(shape)
    # A writable frame is private to its message: its aligned arrays
    # stay views.  Read-only or misaligned bytes are copied.
    if data.readonly or not arr.flags.aligned:
        return arr.copy()
    return arr


def encode_arrays(arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    return {name: encode_array(arr) for name, arr in arrays.items()}


def decode_arrays(payload: Dict[str, Any]) -> Dict[str, np.ndarray]:
    if not isinstance(payload, dict):
        raise ServeError("'arrays' must be an object of named arrays")
    return {name: decode_array(spec) for name, spec in payload.items()}


# -- frames -------------------------------------------------------------------


def _frame_lengths(prefix) -> Tuple[int, int]:
    """``(header_len, payload_len)`` announced by a prefix; refuses a
    short prefix, a foreign magic and a frame over the bound."""
    if len(prefix) < _PREFIX.size:
        raise ServeError(
            f"truncated frame: {len(prefix)} of {_PREFIX.size} prefix bytes"
        )
    magic, header_len, payload_len = _PREFIX.unpack_from(prefix)
    if magic != _MAGIC:
        raise ServeError(f"not a protocol frame: magic {magic!r}")
    _check_bound(header_len, payload_len)
    return header_len, payload_len


def _check_bound(header_len: int, payload_len: int) -> None:
    total = _PREFIX.size + header_len + payload_len
    if total > MAX_FRAME_BYTES:
        raise ServeError(
            f"protocol frame of {total} bytes exceeds {MAX_FRAME_BYTES}"
        )


def encode_frame(message: Dict[str, Any]) -> List:
    """One whole frame for ``message``, as the buffers to write in
    order: prefix + header, then the payload's parts (each array's
    ``data``, zero pads between).  Entries of ``message["arrays"]`` are
    :func:`encode_array` specs."""
    parts, offset = [], 0
    arrays = message.get("arrays")
    if arrays:
        placed = {}
        for name, spec in arrays.items():
            data = spec["data"]
            pad = -offset % _ALIGN
            if pad:
                parts.append(bytes(pad))
                offset += pad
            placed[name] = {
                "dtype": spec["dtype"],
                "shape": spec["shape"],
                "offset": offset,
                "nbytes": len(data),
            }
            parts.append(data)
            offset += len(data)
        message = dict(message, arrays=placed)
    header = _HEADER_ENCODER.encode(message).encode()
    header += b" " * (-(_PREFIX.size + len(header)) % _ALIGN)
    _check_bound(len(header), offset)
    return [_PREFIX.pack(_MAGIC, len(header), offset) + header, *parts]


def encode_message(message: Dict[str, Any]) -> bytes:
    """One whole frame for ``message`` as one ``bytes`` object (see
    :func:`encode_frame`)."""
    return b"".join(encode_frame(message))


def decode_message(frame) -> Dict[str, Any]:
    """The message in one whole frame (as the reader delivers it).
    Array entries come back as :func:`decode_array` specs whose ``data``
    is a view into ``frame``."""
    view = memoryview(frame)
    header_len, payload_len = _frame_lengths(view[: _PREFIX.size])
    body = view[_PREFIX.size :]
    if len(body) != header_len + payload_len:
        raise ServeError(
            f"frame length mismatch: prefix announces "
            f"{header_len + payload_len} body bytes, got {len(body)}"
        )
    try:
        message = json.loads(str(body[:header_len], "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ServeError(f"malformed frame header: {exc}") from exc
    if not isinstance(message, dict):
        raise ServeError("protocol message must be a JSON object")
    arrays = message.get("arrays")
    if isinstance(arrays, dict):
        payload = body[header_len:]
        message["arrays"] = {
            name: _locate(name, spec, payload) for name, spec in arrays.items()
        }
    return message


def _locate(name: str, spec, payload: memoryview) -> Dict[str, Any]:
    """Swap a header entry's ``offset``/``nbytes`` for the slice of the
    payload they name."""
    try:
        offset, nbytes = spec["offset"], spec["nbytes"]
        if not (isinstance(offset, int) and isinstance(nbytes, int)):
            raise TypeError("offset and nbytes must be integers")
    except (KeyError, TypeError) as exc:
        raise ServeError(f"malformed array entry {name!r}: {exc}") from exc
    if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
        raise ServeError(
            f"array {name!r} lies outside the payload: offset {offset} + "
            f"nbytes {nbytes} of {len(payload)}"
        )
    return {
        "dtype": spec.get("dtype"),
        "shape": spec.get("shape"),
        "data": payload[offset : offset + nbytes],
    }


# -- the connection -----------------------------------------------------------


class FrameConnection(asyncio.BufferedProtocol):
    """One TCP connection that speaks frames: the package's only frame
    reader and writer, for the server's connections and the client's.

    ``on_frame(frame)`` is called on the loop thread with each whole
    frame, a writable buffer nothing else refers to: a ``bytearray``
    copied out of the staging buffer, or, for a frame larger than
    :data:`STAGING_BYTES`, the uninitialised ``np.empty`` buffer the
    socket received it into.  :attr:`ended` resolves once: with
    ``None`` at a clean end of stream between frames (or a close from
    this side), with the :class:`ServeError` of a lost framing (its
    body is never read) or with the ``OSError`` of a lost connection.
    Nothing is parsed after it.  The write side stays open after the
    peer's end of stream until :meth:`close`.
    """

    def __init__(self, on_frame: Callable[[Any], None]):
        self._on_frame = on_frame
        self.ended = asyncio.get_running_loop().create_future()
        self.transport = None
        self._staging = memoryview(bytearray(STAGING_BYTES))
        #: Unparsed bytes, at the front of the staging buffer.
        self._pending = 0
        #: A large frame being received in place, and its filled bytes.
        self._frame = None
        self._filled = 0
        self._paused = False
        self._drain_waiters: List[asyncio.Future] = []

    # -- reading (asyncio.BufferedProtocol) -------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int):
        if self.ended.done():
            return self._staging  # read and dropped
        if self._frame is not None:
            return self._frame[self._filled :]
        return self._staging[self._pending :]

    def buffer_updated(self, nbytes: int) -> None:
        if self.ended.done():
            return
        if self._frame is not None:
            self._filled += nbytes
            if self._filled == len(self._frame):
                frame, self._frame = self._frame, None
                self._on_frame(frame.obj)
            return
        self._pending += nbytes
        try:
            self._parse()
        except ServeError as exc:
            self._finish(exc)

    def _parse(self) -> None:
        view, start, end = self._staging, 0, self._pending
        while end - start >= _PREFIX.size:
            total = _PREFIX.size + sum(_frame_lengths(view[start : start + _PREFIX.size]))
            if end - start >= total:
                frame = bytearray(view[start : start + total])
                start += total
                self._on_frame(frame)
                continue
            if total > len(view):
                # Past the bound check: a buffer of the frame's own,
                # uninitialised, that the socket fills from here on.
                self._frame = memoryview(np.empty(total, dtype=np.uint8))
                self._filled = end - start
                self._frame[: self._filled] = view[start:end]
                start = end
            break
        # A partial frame moves to the front (memoryview assignment
        # handles the overlap), where it has room to complete.
        if start:
            view[: end - start] = view[start:end]
        self._pending = end - start

    def eof_received(self) -> bool:
        if self._frame is not None:
            got, body = self._filled, len(self._frame)
        else:
            got = self._pending
            body = _PREFIX.size
            if got >= _PREFIX.size:
                body += sum(_frame_lengths(self._staging[: _PREFIX.size]))
        if not got:
            self._finish(None)
        elif got < _PREFIX.size:
            self._finish(ServeError(
                f"truncated frame: {got} of {_PREFIX.size} prefix bytes"
            ))
        else:
            self._finish(ServeError(
                f"truncated frame: {got - _PREFIX.size} of "
                f"{body - _PREFIX.size} body bytes"
            ))
        return True  # the owner closes, once its replies are written

    def connection_lost(self, exc) -> None:
        self._finish(exc)
        self._paused = False
        self._wake_drainers()

    def _finish(self, end) -> None:
        if not self.ended.done():
            self.ended.set_result(end)
            self._frame = None
            self._pending = 0

    # -- writing ------------------------------------------------------------

    def write_frame(self, parts: List) -> None:
        """Write one frame from :func:`encode_frame`'s parts; dropped
        when the connection is closing (the peer went away)."""
        transport = self.transport
        if transport is None or transport.is_closing():
            return
        if len(parts) > 1 and sum(map(len, parts[1:])) >= JOIN_LIMIT:
            for part in parts:
                transport.write(part)
        else:
            transport.write(b"".join(parts))

    async def drain(self) -> None:
        """Wait while the transport has paused writing."""
        if not self._paused:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._drain_waiters.append(waiter)
        try:
            await waiter
        finally:
            self._drain_waiters.remove(waiter)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_drainers()

    def _wake_drainers(self) -> None:
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


# -- payloads -----------------------------------------------------------------


def result_payload(msg_id, result, trace=None) -> Dict[str, Any]:
    """Wire form of a :class:`~repro.serve.types.ServeResult`;
    ``trace`` (a :class:`~repro.telemetry.tracing.TraceContext`) echoes
    the request's trace ids back to the caller."""
    payload = {
        "id": msg_id,
        "ok": True,
        "arrays": encode_arrays(result.arrays),
        "latency": result.latency,
        "batch_size": result.batch_size,
        "lane": result.lane,
    }
    if trace is not None:
        payload["trace"] = trace.to_traceparent()
    return payload


def error_payload(msg_id, exc: BaseException, trace=None) -> Dict[str, Any]:
    """Wire form of a failure; RetryAfter carries its delay hint."""
    payload = {
        "id": msg_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    delay = getattr(exc, "delay", None)
    if delay is not None:
        payload["retry_after"] = delay
    if trace is not None:
        payload["trace"] = trace.to_traceparent()
    return payload
