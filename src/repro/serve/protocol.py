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

and the payload is those bytes verbatim, back to back — no text
encoding, no escaping, no padding.  The bytes are the bytes: bit-identity with
in-process launches survives the wire, for any byte order.

In memory an array travels as ``{"dtype", "shape", "data"}`` with
``data`` a bytes-like view (:func:`encode_array` makes one,
:func:`decode_array` turns one back into an ndarray that owns its
memory and is writable).  :func:`encode_message` lays the ``data`` of
every entry of ``message["arrays"]`` out in the payload and writes
``offset``/``nbytes`` in its place; :func:`decode_message` does the
reverse on one whole frame, leaving views into it.

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
  (:func:`read_frame`): wrong magic,
  announced lengths over the bound, end of stream inside a prefix or a
  body.  Nothing after that point can be trusted; the peer gets one
  error reply and the connection is closed.
* **The frame is whole but its content is not a message** — raised by
  :func:`decode_message` / :func:`decode_arrays`: header not UTF-8, not
  JSON or not an object; an array's ``offset``/``nbytes`` outside the
  payload; ``nbytes`` that is not shape × itemsize; negative extents;
  object dtypes (their bytes are pointers).  The stream is still in
  step, so the connection stays usable.

This module is the only place that packs or unpacks a prefix; the serve
server and client both go through it.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.errors import ServeError

__all__ = [
    "encode_array",
    "decode_array",
    "encode_arrays",
    "decode_arrays",
    "encode_message",
    "decode_message",
    "read_frame",
    "result_payload",
    "error_payload",
    "MAX_FRAME_BYTES",
]

#: Upper bound on one whole frame (prefix + header + payload); a 64 MiB
#: frame is a client bug, not a workload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_MAGIC = b"RPF1"
#: magic, header length, payload length.
_PREFIX = struct.Struct("!4sII")


# -- arrays -------------------------------------------------------------------


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    arr = np.asarray(arr)
    if arr.dtype.hasobject:
        raise ServeError(
            f"cannot send an array of dtype {arr.dtype}: object arrays "
            "hold pointers, not data"
        )
    # ascontiguousarray promotes 0-d to 1-d; the shape on the wire is
    # the caller's.
    flat = np.ascontiguousarray(arr).reshape(-1)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": memoryview(flat.view(np.uint8)),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    try:
        name, shape, data = payload["dtype"], payload["shape"], payload["data"]
        if not isinstance(name, str):
            raise TypeError(f"dtype must be a string, got {name!r}")
        dtype = np.dtype(name)
        shape = tuple(int(s) for s in shape)
        data = memoryview(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed array payload: {exc}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise ServeError(f"refusing dtype {dtype} from the wire")
    if any(s < 0 for s in shape):
        raise ServeError(f"array shape {shape} has a negative extent")
    expected = math.prod(shape) * dtype.itemsize
    if data.nbytes != expected:
        raise ServeError(
            f"array payload size mismatch: got {data.nbytes} bytes, "
            f"shape {shape} of {dtype} needs {expected}"
        )
    # frombuffer borrows the frame's (read-only) memory; the copy is
    # what makes the result writable and lets the frame go.
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


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


def encode_message(message: Dict[str, Any]) -> bytes:
    """One whole frame for ``message``.  Entries of
    ``message["arrays"]`` are :func:`encode_array` specs; their bytes
    become the payload."""
    chunks, offset = [], 0
    arrays = message.get("arrays")
    if arrays:
        placed = {}
        for name, spec in arrays.items():
            data = spec["data"]
            placed[name] = {
                "dtype": spec["dtype"],
                "shape": spec["shape"],
                "offset": offset,
                "nbytes": len(data),
            }
            chunks.append(data)
            offset += len(data)
        message = dict(message, arrays=placed)
    header = json.dumps(message, separators=(",", ":")).encode()
    _check_bound(len(header), offset)
    return b"".join(
        (_PREFIX.pack(_MAGIC, len(header), offset), header, *chunks)
    )


def decode_message(frame) -> Dict[str, Any]:
    """The message in one whole frame (as the readers return it).
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


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next whole frame from ``reader``; ``None`` when the stream
    ended cleanly between frames.  :class:`ServeError` when it ended
    inside one, or when the prefix is refused — the body of a refused
    frame is never read."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        prefix = exc.partial
        if not prefix:
            return None
    body_len = sum(_frame_lengths(prefix))  # a short prefix is refused here
    try:
        return prefix + await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise ServeError(
            f"truncated frame: {len(exc.partial)} of {body_len} body bytes"
        ) from exc


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
