"""Crash flight recorder: the span log's last records, dumped to disk
when something dies.

Soak-harness failures hours into a run are undiagnosable from a stack
trace alone — what matters is what the process was *doing* in the
seconds before.  With ``REPRO_FLIGHT_RECORDER_DIR`` set, every process
(gateway, tuning-fleet worker, application) arms the span log
(:mod:`repro.telemetry.spanlog`): every closed span (launches, copies,
queue drains, fleet lease ops ...) becomes a record stamped with its
:mod:`~repro.telemetry.tracing` ids, next to the recorder's own events
(serve submissions and scheduler fallbacks through
:func:`maybe_record`, crashes).  The recorder dumps the last
:data:`RING_CAPACITY` records as JSON when:

* a kernel launch raises (:func:`repro.runtime.execute_plan`'s error
  path calls :func:`on_kernel_crash`);
* a sanitized launch closes with findings (its launch span's
  ``sanitize_findings`` attribute);
* a non-blocking queue is poisoned by an asynchronously failing task
  (:mod:`repro.queue.queue` calls :func:`on_queue_poisoned`).

Dumps land as ``flight-<pid>-<seq>.json`` in the configured directory;
each contains the trigger, the exception text, and the last
:data:`RING_CAPACITY` records — including the failing launch's
``trace_id``, so the dump joins the stitched trace.

**Hot-path contract**: with the env var unset, :func:`active` is one
module-global boolean read and every ``maybe_record`` call returns
immediately.  With it set, the process is "observed" by definition:
the span log and the recorder are registered
:class:`~repro.runtime.instrument.ExecutionObserver` instances.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

from .. import knobs
from ..core.kernel import kernel_name
from ..runtime.instrument import ExecutionObserver
from . import spanlog

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

#: Records a dump writes (the span log's last ones).
RING_CAPACITY = spanlog.TAIL

_lock = threading.Lock()
_recorder: Optional["FlightRecorder"] = None
#: Fast-path flag: mirrors ``_recorder is not None`` without the lock.
_active = False


def _note(kind: str, **fields) -> None:
    """One recorder event in the span log; ambient trace ids are
    stamped in."""
    from . import tracing

    ctx = tracing.current()
    if ctx is not None:
        fields = {**ctx.ids(), **fields}
    spanlog.note(kind, "flight", **fields)


class FlightRecorder(ExecutionObserver):
    """The dump writer.

    An :class:`ExecutionObserver` only to see a sanitized launch close
    with findings; the records it dumps are the span log's.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._lock = threading.Lock()
        self._seq = 0
        self._since = spanlog.log().seq
        self.dumps: List[str] = []

    def events(self) -> List[Dict[str, object]]:
        """The records a dump would write now: the last
        :data:`RING_CAPACITY` since the recorder started, oldest first.
        Block records (a collector's ``record_blocks``) are left out:
        one block-traced grid would push every launch out of the dump."""
        records = spanlog.log().since(self._since)[0]
        return [r for r in records if r["cat"] != "block"][-RING_CAPACITY:]

    def dump(self, reason: str, error: Optional[str] = None) -> Optional[str]:
        """Write the last records to ``flight-<pid>-<seq>.json``;
        returns the path (None when the write itself failed — a crash
        dump must never raise into the crashing path)."""
        events = self.events()
        with self._lock:
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

    def on_span_end(self, span) -> None:
        findings = span.name == "launch" and span.attrs.get("sanitize_findings")
        if findings:
            self.dump(
                "sanitizer_findings",
                error=(
                    f"{findings} finding(s) in "
                    f"{kernel_name(span.attrs['plan'].kernel)}"
                ),
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

    Arms the span log, so activating the recorder makes the process
    "observed" — that is the deal: a flight recorder that sees nothing
    records nothing.
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
        # The log first: a launch's record is in the ring before the
        # recorder dumps on its findings.
        spanlog.arm()
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
        spanlog.disarm()
        _recorder = None
        _active = False


def maybe_record(kind: str, **fields) -> None:
    """Record one event iff the recorder is active (one boolean read
    otherwise) — the cheap entry point for events that are not a timed
    region (a serve submission, a scheduler fallback)."""
    if _active:
        _note(kind, **fields)


def _crash(reason: str, exc: BaseException, **fields) -> None:
    """Record the failure, then dump; never raises (it runs on a failing
    launch or on a queue's drain thread)."""
    rec = _recorder
    if rec is None:
        return
    error = f"{type(exc).__name__}: {exc}"
    try:
        _note(reason, error=error, **fields)
        rec.dump(reason, error=error)
    except Exception:  # noqa: BLE001 - the failure being recorded is the one to report, not the recorder's
        pass


def on_kernel_crash(plan, exc: BaseException) -> None:
    """A launch raised: record + dump.  Called from the runtime's
    failure path."""
    if _active:
        _crash("kernel_crash", exc, kernel=kernel_name(plan.kernel))


def on_queue_poisoned(queue, exc: BaseException) -> None:
    """An async queue task failed (queue poisoned): record + dump, on
    the queue's drain thread."""
    if _active:
        _crash("queue_poisoned", exc, device=queue.dev.name)
