"""Frames built and read by hand, so tests can lie in any field of one
and read a server's replies from a plain socket."""

from __future__ import annotations

import asyncio
import struct
from typing import Optional

#: The prefix layout of :mod:`repro.serve.protocol`, spelled out again
#: on purpose: these tests pin the bytes on the wire.
PREFIX = struct.Struct("!4sII")
MAGIC = b"RPF1"


def raw_frame(header: bytes, payload: bytes = b"", *, magic: bytes = MAGIC) -> bytes:
    return PREFIX.pack(magic, len(header), len(payload)) + header + payload


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next whole frame a raw test peer receives, or None once the
    server hung up between frames.  Trusts the server's prefix: it is
    the peer, not the program's reader."""
    try:
        prefix = await reader.readexactly(PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    _, header_len, payload_len = PREFIX.unpack(prefix)
    return prefix + await reader.readexactly(header_len + payload_len)
