"""The span log: the last :data:`CAPACITY` closed spans, as JSON-ready
records, in one process-wide ring.

Every reader of recent runtime history reads this one ring:

* :func:`repro.telemetry.export.to_chrome_trace` exports the records a
  collector saw (``dropped_events`` counts those the ring overwrote);
* the flight recorder (:mod:`repro.telemetry.flight`) dumps the last
  :data:`~repro.telemetry.flight.RING_CAPACITY` records;
* the ops listener's ``/traces`` (:mod:`repro.telemetry.http`) serves
  the last ``serve.request`` records.

A span is converted once, when it closes (:func:`to_record`): the
record keeps names and numbers, never the plan, graph stats or device
objects the span carried (a plan memoises its last argument tuple, so
a ring of plans would keep device buffers alive).  Every record has
``kind`` (the span name), ``cat``, ``ts`` (wall clock at the end),
``t0`` (``time.perf_counter`` at the start), ``wall_s``, ``tid`` and
``error``, then its attributes and trace ids.

The log observes the runtime only while a reader is armed
(:func:`arm` / :func:`disarm`, counted): with none, ``span()`` and
``record_span()`` still return after one falsy check.  The ops
listener is no such reader: it reads only ``serve.request`` records,
which the gateway adds itself while the listener runs
(:func:`listen`, :func:`announce`), so a running listener leaves the
launch path unobserved.

The ring keeps the last :data:`CAPACITY` records while a collector's
window is open (``arm(window=True)``: ``collect()``, the session
collector) and the last :data:`TAIL` otherwise, which is what the
flight dump and ``/traces`` read.  A record is about 0.4-1 KB, so a
process that only dumps flight records or serves ``/traces`` holds
hundreds of KB, not the tens of MB a full window takes.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.kernel import kernel_name
from ..runtime.instrument import (
    ExecutionObserver,
    notify_span_end,
    register_observer,
    unregister_observer,
)

__all__ = [
    "CAPACITY", "TAIL", "PLACEMENT", "SpanLog", "log", "arm", "disarm",
    "listen", "listening", "announce", "to_record", "note",
]

#: Records the ring keeps while a collector's window is open: the bound
#: the collector's event list had, so a window holds as much history
#: (the last records now, where the list kept the first).
CAPACITY = 100_000

#: Records the ring keeps while no window is open: the flight dump's
#: length, and the ``serve.request`` records ``/traces`` can serve.
TAIL = 256

#: The fields every record has that place it rather than describe it.
PLACEMENT = frozenset(("kind", "cat", "ts", "t0", "wall_s", "tid"))

#: Span attribute values a record keeps as they are (others as ``str``).
_JSON_SCALARS = (str, int, float, bool, type(None))

#: ``time.time() - time.perf_counter()``: stamps a record's wall clock
#: from the span's own end reading.
_EPOCH = time.time() - time.perf_counter()


def to_record(span) -> Dict[str, object]:
    """``span`` as a JSON-ready record (see the module docstring)."""
    attrs = span.attrs
    if span.name == "launch":
        plan = attrs["plan"]
        rec: Dict[str, object] = {
            "kernel": kernel_name(plan.kernel),
            "backend": plan.acc_type.name,
            "device": span.device.name,
            "work_div": str(plan.work_div),
            "schedule": plan.schedule,
            "modeled_s": span.sim_s,
            # Device clock at launch begin: lays the modeled timeline
            # over the wall-clock one.
            "sim_time_fs": span.sim0_fs,
        }
        for key in ("tier", "sanitize_findings"):
            if key in attrs:
                rec[key] = attrs[key]
    elif span.name == "graph.run":
        stats = attrs["stats"]
        rec = {
            "graph_id": stats.graph_id,
            "mode": stats.mode,
            "nodes": stats.node_count,
            "devices": stats.device_count,
            "replayed": stats.replayed,
            "critical_path_s": stats.critical_path_seconds,
            "overlap_ratio": round(stats.overlap_ratio, 3),
            "node_list": list(stats.nodes),
        }
    else:
        rec = {
            k: v if isinstance(v, _JSON_SCALARS) else str(v)
            for k, v in attrs.items()
        }
        if span.sim_s:
            rec["modeled_s"] = span.sim_s
        if span.device is not None:
            rec["device"] = span.device.name
    if span.trace is not None:
        rec.update(span.trace.ids())
    rec["kind"] = span.name
    rec["cat"] = span.cat
    rec["ts"] = span.t1 + _EPOCH
    rec["t0"] = span.t0
    rec["wall_s"] = span.wall_s
    rec["tid"] = span.thread_id
    rec["error"] = span.error
    return rec


class SpanLog(ExecutionObserver):
    """A bounded ring of records with a running count of every record
    ever added, so a reader that noted :attr:`seq` can ask for what
    closed since, and learn how much of it the ring overwrote."""

    def __init__(self):
        self._ring: deque = deque(maxlen=TAIL)
        self._lock = threading.Lock()
        self.seq = 0
        self._readers = 0
        self._windows = 0
        self._listeners = 0

    @property
    def capacity(self) -> int:
        """Records the ring keeps now (:data:`CAPACITY` or :data:`TAIL`)."""
        return self._ring.maxlen

    def _resize(self) -> None:
        maxlen = CAPACITY if self._windows else TAIL
        if self._ring.maxlen != maxlen:
            with self._lock:
                self._ring = deque(self._ring, maxlen=maxlen)

    def on_span_end(self, span) -> None:
        self.add(to_record(span))

    def add(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._ring.append(record)
            self.seq += 1

    def since(self, seq0: int) -> Tuple[List[Dict[str, object]], int]:
        """The records added after the ``seq0``-th, and how many of
        those the ring overwrote."""
        with self._lock:
            first = self.seq - len(self._ring)
            start = max(seq0, first)
            return list(itertools.islice(self._ring, start - first, None)), start - seq0

    def recent(
        self, limit: int = CAPACITY, kind: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The last ``limit`` records (of ``kind`` only, if given),
        oldest first."""
        with self._lock:
            records = list(self._ring)
        if kind is not None:
            records = [r for r in records if r["kind"] == kind]
        return records[-limit:] if limit > 0 else []


_log = SpanLog()
_arm_lock = threading.Lock()


def note(
    kind: str,
    cat: str,
    t0: Optional[float] = None,
    wall_s: float = 0.0,
    **fields,
) -> None:
    """Add a record that is no span — a block, a flight-recorder event —
    with the same placement fields (``t0`` defaults to now)."""
    now = time.perf_counter()
    fields.setdefault("error", None)
    fields.update(
        kind=kind,
        cat=cat,
        ts=now + _EPOCH,
        t0=now if t0 is None else t0,
        wall_s=wall_s,
        tid=threading.get_ident(),
    )
    _log.add(fields)


def log() -> SpanLog:
    """The process-wide span log."""
    return _log


def arm(window: bool = False) -> SpanLog:
    """A reader starts: the log observes while any reader is armed.  A
    collector's ``window`` keeps the ring at :data:`CAPACITY` until it
    is disarmed."""
    with _arm_lock:
        _log._readers += 1
        if _log._readers == 1:
            register_observer(_log)
        _log._windows += window
        _log._resize()
    return _log


def disarm(window: bool = False) -> None:
    """A reader stops (idempotent past zero).  The last window to close
    shrinks the ring to its last :data:`TAIL` records."""
    with _arm_lock:
        if _log._readers == 0:
            return
        _log._readers -= 1
        if _log._readers == 0:
            unregister_observer(_log)
        _log._windows = max(0, _log._windows - window)
        _log._resize()


def listen(on: bool = True) -> None:
    """The ops listener starts (``on=False``: stops): the gateway adds
    the ``serve.request`` records it serves (:func:`announce`); the log
    observes nothing for it."""
    with _arm_lock:
        _log._listeners = max(0, _log._listeners + (1 if on else -1))


def listening() -> bool:
    """Is an ops listener reading the log?  One attribute read."""
    return _log._listeners > 0


def announce(span) -> None:
    """Announce a closed span to the observers; if a listener reads the
    log while the log observes nothing, add the span's record directly."""
    notify_span_end(span)
    if _log._listeners and not _log._readers:
        _log.add(to_record(span))
