"""Distributed request tracing: W3C-traceparent contexts across
processes.

A :class:`TraceContext` is the identity of one unit of work inside one
distributed request: a 32-hex ``trace_id`` shared by every span of the
request, a 16-hex ``span_id`` naming this unit, and the ``parent_id``
of the unit that caused it.  Contexts cross every boundary the library
owns:

* **threads** — :func:`use` installs a context as the calling thread's
  ambient context; :func:`current` reads it.  Spans opened while a
  context is ambient (:func:`repro.telemetry.spans.span`) become child
  spans automatically.
* **processes** — :meth:`TraceContext.to_traceparent` serialises to the
  W3C ``traceparent`` wire form (``00-<trace>-<span>-01``); the
  ``REPRO_TRACEPARENT`` environment variable seeds a child process's
  root context, and serve frame headers carry the same string
  in a ``trace`` field.
* **exports** — every span-log record carries ``trace_id`` /
  ``span_id`` / ``parent_id``, so they land in every exported trace
  event's ``args``, flight-dump event and ``/traces`` entry;
  :func:`repro.telemetry.export.stitch_traces` joins the per-process
  Chrome traces on those ids and draws the cross-process flow arrows.

**Hot-path contract**: nothing here runs unless something opts in.  An
unobserved launch never touches this module; an observed one pays one
thread-local read.  Context creation (two ``os.urandom`` reads) happens
per *request*, never per block.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, Optional

from .. import knobs

__all__ = [
    "TRACEPARENT_ENV",
    "TraceContext",
    "new_trace",
    "from_traceparent",
    "from_env",
    "current",
    "set_current",
    "use",
]

#: Environment variable carrying a W3C ``traceparent`` into child
#: processes: ``00-<32 hex trace_id>-<16 hex span_id>-01``.
TRACEPARENT_ENV = knobs.TRACEPARENT

_TRACEPARENT_RE = re.compile(
    r"^[0-9a-f]{2}-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)

_tls = threading.local()


def _hex_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


class TraceContext:
    """One span's identity within a distributed trace.  Immutable."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def child(self) -> "TraceContext":
        """A fresh child context: same trace, new span, this span as
        parent."""
        return TraceContext(self.trace_id, _hex_id(8), self.span_id)

    def to_traceparent(self) -> str:
        """The W3C wire form (``00-<trace>-<span>-01``); the parent id
        is implicit — the receiver's spans parent to ``span_id``."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    def ids(self) -> Dict[str, str]:
        """The ids as exporter-ready args (``parent_id`` only when
        set)."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id:
            out["parent_id"] = self.parent_id
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return (
            f"<TraceContext {self.trace_id[:8]}…/{self.span_id}"
            + (f" parent={self.parent_id}" if self.parent_id else "")
            + ">"
        )


def new_trace() -> TraceContext:
    """A fresh root context (new trace_id, no parent)."""
    return TraceContext(_hex_id(16), _hex_id(8))


def from_traceparent(value: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` string; None on anything malformed (a
    bad header from the wire must degrade to "untraced", never raise)."""
    if not value or not isinstance(value, str):
        return None
    m = _TRACEPARENT_RE.match(value.strip().lower())
    if m is None:
        return None
    trace_id, span_id = m.group(1), m.group(2)
    # The all-zero ids are explicitly invalid per W3C trace-context.
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    # The received span becomes the *parent* of everything this process
    # does: give the local side its own span id immediately.
    return TraceContext(trace_id, _hex_id(8), span_id)


def from_env() -> Optional[TraceContext]:
    """The context seeded by ``REPRO_TRACEPARENT``, or None."""
    return from_traceparent(knobs.get(TRACEPARENT_ENV))


def current() -> Optional[TraceContext]:
    """The calling thread's ambient context (None = untraced)."""
    return getattr(_tls, "ctx", None)


def set_current(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` as the thread's ambient context; returns the
    previous one so callers can restore it."""
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    return prev


class use:
    """Context manager installing ``ctx`` for a ``with`` block::

        with tracing.use(request.trace):
            workload.execute(...)

    Accepts None (no-op) so call sites need no branching."""

    __slots__ = ("ctx", "_prev")

    def __init__(self, ctx: Optional[TraceContext]):
        self.ctx = ctx
        self._prev: Optional[TraceContext] = None

    def __enter__(self) -> Optional[TraceContext]:
        if self.ctx is not None:
            self._prev = set_current(self.ctx)
        return self.ctx

    def __exit__(self, *exc) -> bool:
        if self.ctx is not None:
            set_current(self._prev)
        return False
