"""Crash flight recorder: a bounded ring of recent runtime events,
dumped to disk when something dies.

Soak-harness failures hours into a run are undiagnosable from a stack
trace alone — what matters is what the process was *doing* in the
seconds before.  With ``REPRO_FLIGHT_RECORDER_DIR`` set, every process
(gateway, tuning-fleet worker, application) keeps a per-process ring
buffer of recent events — every closed span (launches, copies, fleet
lease ops ...), queue drains, sanitizer reports, serve
submissions and scheduler fallbacks — each stamped with its
:mod:`~repro.telemetry.tracing` ids, and dumps the ring as JSON when:

* a kernel launch raises (:func:`repro.runtime.execute_plan`'s error
  path calls :func:`on_kernel_crash`);
* the sanitizer reports findings (``on_sanitizer_report`` observer
  hook);
* a non-blocking queue is poisoned by an asynchronously failing task
  (:mod:`repro.queue.queue` calls :func:`on_queue_poisoned`).

Dumps land as ``flight-<pid>-<seq>.json`` in the configured directory;
each contains the trigger, the exception text, and the last
:data:`RING_CAPACITY` events — including the failing launch's
``trace_id``, so the dump joins the stitched trace.

**Hot-path contract**: with the env var unset, :func:`active` is one
module-global boolean read and every ``maybe_record`` call returns
immediately.  With it set, the recorder registers itself as an
:class:`~repro.runtime.instrument.ExecutionObserver` (so spans are
recorded through the existing hook fan-out — the process is "observed"
by definition) and each event append is one lock + deque append.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from .. import knobs
from ..core.kernel import kernel_name
from ..runtime.instrument import ExecutionObserver

__all__ = [
    "FLIGHT_ENV",
    "RING_CAPACITY",
    "FlightRecorder",
    "recorder",
    "active",
    "maybe_activate_from_env",
    "deactivate",
    "maybe_record",
    "on_kernel_crash",
    "on_queue_poisoned",
]

#: Environment variable: directory flight dumps are written to; setting
#: it activates the recorder in every process that inherits it.
FLIGHT_ENV = knobs.FLIGHT_RECORDER_DIR

#: Events kept in the ring (per process).
RING_CAPACITY = 256

#: Span attribute values a ring event keeps (anything else is dropped).
_JSON_SCALARS = (str, int, float, bool, type(None))

_lock = threading.Lock()
_recorder: Optional["FlightRecorder"] = None
#: Fast-path flag: mirrors ``_recorder is not None`` without the lock.
_active = False


class FlightRecorder(ExecutionObserver):
    """The per-process ring buffer + dump writer.

    Also an :class:`ExecutionObserver`, so span and sanitizer events
    arrive through the runtime's existing hook fan-out (block-level
    hooks stay the base class's no-ops — per-block ring churn would
    drown the events worth keeping).
    """

    def __init__(self, directory: str, capacity: int = RING_CAPACITY):
        self.directory = directory
        self._ring: deque = deque(maxlen=capacity)
        self._ring_lock = threading.Lock()
        self._seq = 0
        self.dumps: List[str] = []

    # -- recording -----------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        """Append one event; ambient trace ids are stamped in."""
        from . import tracing

        event: Dict[str, object] = {
            "kind": kind,
            "ts": time.time(),
            "pid": os.getpid(),
        }
        ctx = tracing.current()
        if ctx is not None:
            event.update(ctx.ids())
        event.update(fields)
        with self._ring_lock:
            self._ring.append(event)

    def events(self) -> List[Dict[str, object]]:
        with self._ring_lock:
            return list(self._ring)

    # -- dumping -------------------------------------------------------

    def dump(self, reason: str, error: Optional[str] = None) -> Optional[str]:
        """Write the ring to ``flight-<pid>-<seq>.json``; returns the
        path (None when the write itself failed — a crash dump must
        never raise into the crashing path)."""
        with self._ring_lock:
            events = list(self._ring)
            self._seq += 1
            seq = self._seq
        payload = {
            "reason": reason,
            "error": error,
            "pid": os.getpid(),
            "ts": time.time(),
            "event_count": len(events),
            "events": events,
            "config": knobs.effective(),
        }
        path = os.path.join(
            self.directory, f"flight-{os.getpid()}-{seq}.json"
        )
        try:
            os.makedirs(self.directory, exist_ok=True)
            tmp = f"{path}.tmp"
            with open(tmp, "w") as fh:
                json.dump(payload, fh, indent=1, default=str)
                fh.write("\n")
            os.replace(tmp, path)
        except OSError:
            return None
        self.dumps.append(path)
        return path

    # -- ExecutionObserver hooks ---------------------------------------

    def on_span_end(self, span) -> None:
        # JSON-ready attributes only: a launch span's plan memoises its
        # last argument tuple, so a ring of plans would keep device
        # buffers alive (and a graph run's stats hold every node).
        fields = {
            k: v for k, v in span.attrs.items() if isinstance(v, _JSON_SCALARS)
        }
        if span.device is not None:
            fields["device"] = span.device.name
        if span.trace is not None:
            fields.update(span.trace.ids())
        self.record(
            span.name, cat=span.cat, wall_s=span.wall_s, error=span.error,
            **fields,
        )

    def on_queue_drain(self, queue) -> None:
        self.record("queue_drain", device=queue.dev.name)

    def on_sanitizer_report(self, plan, record) -> None:
        findings = len(record.findings)
        self.record(
            "sanitizer_report",
            kernel=kernel_name(plan.kernel),
            findings=findings,
        )
        if findings:
            self.dump(
                "sanitizer_findings",
                error=f"{findings} finding(s) in {record.kernel}",
            )


# ---------------------------------------------------------------------------
# Module-level front door (what the runtime calls)
# ---------------------------------------------------------------------------


def active() -> bool:
    """Is the flight recorder on in this process?  One global read."""
    return _active


def recorder() -> Optional["FlightRecorder"]:
    """The process recorder, or None while inactive."""
    return _recorder


def maybe_activate_from_env() -> Optional["FlightRecorder"]:
    """Activate iff ``REPRO_FLIGHT_RECORDER_DIR`` is set.  Idempotent.

    Registers the recorder as an execution observer, so activating it
    makes the process "observed" — that is the deal: a flight recorder
    that sees nothing records nothing.
    """
    directory = knobs.get(FLIGHT_ENV)
    if not directory:
        return None
    return activate(directory)


def activate(directory: str) -> "FlightRecorder":
    """Install (or return) the process recorder dumping to
    ``directory``."""
    global _recorder, _active
    with _lock:
        if _recorder is not None:
            return _recorder
        from ..runtime.instrument import register_observer

        rec = FlightRecorder(directory)
        register_observer(rec)
        _recorder = rec
        _active = True
        return rec


def deactivate() -> None:
    """Unregister and drop the recorder (tests)."""
    global _recorder, _active
    with _lock:
        rec = _recorder
        if rec is None:
            return
        from ..runtime.instrument import unregister_observer

        unregister_observer(rec)
        _recorder = None
        _active = False


def maybe_record(kind: str, **fields) -> None:
    """Record one event iff the recorder is active (one boolean read
    otherwise) — the cheap entry point for events that are not a timed
    region (a serve submission, a scheduler fallback)."""
    if not _active:
        return
    rec = _recorder
    if rec is not None:
        rec.record(kind, **fields)


def on_kernel_crash(plan, exc: BaseException) -> None:
    """A launch raised: record + dump.  Called from the runtime's
    failure path; must never raise."""
    if not _active:
        return
    rec = _recorder
    if rec is None:
        return
    try:
        rec.record(
            "kernel_crash",
            kernel=kernel_name(plan.kernel),
            error=f"{type(exc).__name__}: {exc}",
        )
        rec.dump("kernel_crash", error=f"{type(exc).__name__}: {exc}")
    except Exception:  # noqa: BLE001 - runs on the launch's failure path: the kernel's error is the one to raise
        pass


def on_queue_poisoned(queue, exc: BaseException) -> None:
    """An async queue task failed (queue poisoned): record + dump.
    Must never raise — it runs on the queue's drain thread."""
    if not _active:
        return
    rec = _recorder
    if rec is None:
        return
    try:
        rec.record(
            "queue_poisoned",
            device=queue.dev.name,
            error=f"{type(exc).__name__}: {exc}",
        )
        rec.dump("queue_poisoned", error=f"{type(exc).__name__}: {exc}")
    except Exception:  # noqa: BLE001 - runs on the queue's drain thread, which must survive to report the poison
        pass
