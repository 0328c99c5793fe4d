"""Span-based profiling: timed regions announced through the runtime's
observer hooks.

A *span* is one named, timed region of runtime work — a launch, a plan
build, a queue drain-wait, a copy, a tuning measurement.  Spans are
opened with :func:`span`::

    with span("launch", cat="runtime", device=dev, kernel="gemm"):
        ...

and reach every registered
:class:`~repro.runtime.instrument.ExecutionObserver` through the
``on_span_end`` hook when they close — the telemetry collector turns
them into latency histograms and Chrome ``trace_event`` entries.

**Hot-path contract**: when no observer is registered, :func:`span`
returns a shared no-op context manager after a single falsy check — no
allocation, no clock read.  This is what keeps ``REPRO_TELEMETRY``
unset launches at their uninstrumented cost (guarded by
``benchmarks/bench_launch_overhead.py``).

Spans passed a ``device`` additionally snapshot the device's simulated
clock (:attr:`~repro.dev.device.Device.sim_time_fs`) at both ends, so a
span knows its **wall** duration and its **modeled** duration — the two
quantities whose ratio is the report's modeled-vs-wall skew.
:func:`sim_interval` exposes the bare simulated-clock snapshot as a
context manager; it is the single implementation behind
``repro.bench.sim_time_of`` and the tuner's modeled measurement loop.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..runtime import instrument as _instrument
from ..runtime.instrument import notify_span_end
from . import tracing

__all__ = ["Span", "span", "record_span", "sim_interval", "NULL_SPAN"]

_ids_lock = threading.Lock()
_next_id = 0


def _new_id() -> int:
    global _next_id
    with _ids_lock:
        _next_id += 1
        return _next_id


class Span:
    """One timed region.  Context manager; re-entry is not supported."""

    __slots__ = (
        "name",
        "cat",
        "attrs",
        "device",
        "span_id",
        "thread_id",
        "t0",
        "t1",
        "sim0_fs",
        "sim1_fs",
        "error",
        "trace",
        "_prev_ctx",
    )

    def __init__(
        self,
        name: str,
        cat: str = "runtime",
        device=None,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.cat = cat
        self.device = device
        self.attrs: Dict[str, object] = attrs or {}
        self.span_id = _new_id()
        self.thread_id = 0
        self.t0 = 0.0
        self.t1 = 0.0
        self.sim0_fs = 0
        self.sim1_fs = 0
        self.error: Optional[str] = None
        #: Trace identity within a distributed request (None = the
        #: opening thread had no ambient :mod:`~repro.telemetry.tracing`
        #: context).
        self.trace: Optional[tracing.TraceContext] = None
        self._prev_ctx: Optional[tracing.TraceContext] = None

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        ctx = tracing.current()
        if ctx is not None:
            # This span becomes a child of the ambient context, and the
            # *ambient* context becomes this span for the block's
            # duration — nested spans and launches parent naturally.
            self.trace = ctx.child()
            self._prev_ctx = tracing.set_current(self.trace)
        if self.device is not None:
            self.sim0_fs = self.device.sim_time_fs
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = time.perf_counter()
        if self.device is not None:
            self.sim1_fs = self.device.sim_time_fs
        if exc_type is not None:
            self.error = exc_type.__name__
        if self.trace is not None:
            tracing.set_current(self._prev_ctx)
        notify_span_end(self)
        return False

    # -- durations ------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Wall seconds between enter and exit (0.0 while open)."""
        return max(0.0, self.t1 - self.t0)

    @property
    def sim_s(self) -> float:
        """Modeled seconds the span's device accrued (0.0 without a
        device or model)."""
        return (self.sim1_fs - self.sim0_fs) * 1e-15

    @property
    def closed(self) -> bool:
        return self.t1 > 0.0

    def __repr__(self) -> str:
        state = f"{self.wall_s * 1e6:.1f}us" if self.closed else "open"
        return f"<Span {self.cat}/{self.name} {state}>"


class _NullSpan:
    """The shared unobserved span: every method is free, nothing records."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False

    def __repr__(self) -> str:
        return "<NullSpan>"


#: The singleton no-op span returned while no observer is registered.
NULL_SPAN = _NullSpan()


def span(name: str, cat: str = "runtime", device=None, **attrs):
    """A context manager timing the enclosed region — or, when nothing
    observes, the shared :data:`NULL_SPAN` (a single falsy check).

    ``device`` opts into simulated-clock capture; remaining keyword
    arguments become span attributes (exported as ``args`` in the
    Chrome trace).
    """
    if not _instrument._observers:
        return NULL_SPAN
    return Span(name, cat, device, attrs)


def record_span(
    name: str,
    t0: float,
    t1: float,
    cat: str = "runtime",
    trace: Optional["tracing.TraceContext"] = None,
    error: Optional[str] = None,
    **attrs,
) -> Optional[Span]:
    """Announce an already-measured region as a closed span.

    For call sites that know a region's endpoints without having
    wrapped it (the gateway learns a request's span only in the
    completion callback).  ``t0``/``t1`` are ``time.perf_counter``
    readings; ``trace`` stamps an explicit trace identity (the ambient
    context is *not* consulted — pass what the request carried).

    Free when unobserved: one falsy check, returns None.
    """
    if not _instrument._observers:
        return None
    sp = Span(name, cat, None, attrs)
    sp.thread_id = threading.get_ident()
    sp.t0 = t0
    sp.t1 = t1
    sp.trace = trace
    sp.error = error
    notify_span_end(sp)
    return sp


@contextmanager
def sim_interval(device) -> Iterator[List[float]]:
    """Capture the modeled seconds ``device`` accrues in a block::

        with sim_interval(dev) as t:
            enqueue(queue, task)
        elapsed = t[0]

    Reads the exact integer-femtosecond counter, so identical modeled
    work measures identically no matter how large the clock has grown.
    This is the one simulated-clock snapshot helper: the bench
    harness's ``sim_time_of`` and the tuner's modeled measurement both
    delegate here.
    """
    out = [0.0]
    start = device.sim_time_fs
    try:
        yield out
    finally:
        out[0] = (device.sim_time_fs - start) * 1e-15
