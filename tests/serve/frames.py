"""Frames built by hand, so tests can lie in any field of one."""

from __future__ import annotations

import struct

#: The prefix layout of :mod:`repro.serve.protocol`, spelled out again
#: on purpose: these tests pin the bytes on the wire.
PREFIX = struct.Struct("!4sII")
MAGIC = b"RPF1"


def raw_frame(header: bytes, payload: bytes = b"", *, magic: bytes = MAGIC) -> bytes:
    return PREFIX.pack(magic, len(header), len(payload)) + header + payload
