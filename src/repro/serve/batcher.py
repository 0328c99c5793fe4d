"""The batching coalescer: merge compatible small launches.

Admitted launch requests park here for **at most** ``batch_window``
seconds.  Requests whose workload reports the same batch key (same
kernel, same scalars, same dtype — and, via the router, the same
back-end) coalesce into one :class:`Batch`, launched as a single merged
grid with per-request result slicing.  A batch flushes when its
deadline passes or it reaches ``batch_max`` members; graph requests and
unbatchable workloads pass through as singleton batches immediately.

The window is paid only by keys that have company
-------------------------------------------------
Every batch gets one deadline when it opens.  It is ``now + window``
when the key — ``(batch_key, backend)`` — **has company**, and ``now``
otherwise, so a lone request is due at the pump step that admitted it
(anything else admitted in that same step still joins it).  Company is
causal, not temporal.  A request of the key brings it when

* it arrives while an unheld batch of the key is still on its lane
  (flushed, not yet reported complete through :meth:`Batcher.note_done`)
  — a hold on that batch would have merged the two; or
* it joins an open batch of the key — within its window, if that batch
  is held.

A batch opens held when its own first request brings company, or when
one did since the key's previous batch opened; opening a batch uses the
evidence up, so every batch has to earn the hold of the next.  Hence a
never-seen key is not held; a closed-loop solo client (next request
only after the reply) never looks concurrent however fast it sends,
which an inter-arrival-time rule gets wrong; concurrent traffic keeps
the full window, ``batch_max`` and ``flush_all`` unchanged; and a key
that stops being concurrent wastes one window before it is let go.

Two arrivals are deliberately *not* company, because there the hold
would be manufacturing its own evidence: a request that joins a held
batch after its deadline (a late pump collected it, not the window),
and a request that arrives while a *held* batch of its key is on a lane
(that batch is still inside only because it was parked first).
Counted, either one lets a client paced at about one window per
request, delayed once, overlap itself and pay the window on every
request from then on — a key is then slower under load than alone for
no reason but the hold.

The memory is bounded: the count of a key's unheld requests on lanes is
dropped at zero, and at most :data:`MAX_REMEMBERED_KEYS` keys with
unused company are remembered (oldest evicted first — an evicted key
merely opens its next batch unheld and is re-learned one batch later).

The batcher is pure bookkeeping — no threads, no locks, no clock of its
own.  The gateway pump drives it with explicit timestamps, which keeps
the flush logic deterministic and directly testable.  Completions
happen on lane threads, so the router does not call :meth:`note_done`
itself: it hands each finished batch to the gateway, which queues it
for the pump, and the pump notes it before its next :meth:`add`.  Only
a holder of the gateway's pump lock touches this object's state — the
pump, or a thread stepping a lone request through (it notes the queued
completions first, too, and asks :meth:`runs_alone` before it adds);
other threads only read the :meth:`stats` integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .types import GraphRequest
from .workloads import get_workload

__all__ = ["Batch", "Batcher", "MAX_REMEMBERED_KEYS"]

#: Keys remembered as having company that no batch has used up yet.
#: ``batch_key`` carries client-chosen scalars, so the memory must not
#: grow with the number of distinct keys ever seen.
MAX_REMEMBERED_KEYS = 1024


class Batch:
    """One unit of device work: 1..batch_max requests sharing a key."""

    __slots__ = (
        "key", "requests", "workload", "deadline", "backend",
        "opened_at", "flushed_at", "path",
    )

    def __init__(self, key, workload, backend: str, deadline: float):
        self.key = key
        self.workload = workload
        self.backend = backend
        self.deadline = deadline
        self.requests: List = []
        #: When the batch opened and when it left the batcher; a batch
        #: built by hand was never parked, so both are its deadline.
        self.opened_at = deadline
        self.flushed_at = deadline
        #: Where the router ran it: ``"lane"`` (the lane queue's
        #: thread) or ``"inline"`` (the submitting thread).
        self.path = "lane"

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def held(self) -> bool:
        """Whether the batch was charged the window when it opened."""
        return self.deadline > self.opened_at

    def __repr__(self) -> str:
        return (
            f"<Batch {self.workload.name} x{self.size} "
            f"backend={self.backend or 'auto'}>"
        )


class Batcher:
    """Coalescing of admitted requests, holding only keys with company."""

    def __init__(self, window: float, batch_max: int, enabled: bool = True):
        self.window = float(window)
        self.batch_max = int(batch_max)
        self.enabled = bool(enabled)
        #: Open batches by (batch_key, backend).
        self._open: Dict[Tuple, Batch] = {}
        #: Batches ready to launch (full, expired, or unbatchable).
        self._ready: List[Batch] = []
        #: Requests of unheld batches still on a lane, by key.
        self._running: Dict[Tuple, int] = {}
        #: Keys with company their next batch has yet to use, oldest first.
        self._company: Dict[Tuple, None] = {}
        self._held = 0
        self._immediate = 0

    # -- intake -----------------------------------------------------------

    def add(self, request, now: float) -> None:
        """Park ``request`` in an open batch or emit it as ready."""
        workload = get_workload(request.workload)
        key = None
        if self.enabled and not isinstance(request, GraphRequest):
            key = workload.batch_key(request)
        if key is None:
            batch = Batch(None, workload, request.backend, now)
            batch.requests.append(request)
            self._immediate += 1
            self._ready.append(batch)
            return
        slot = (key, request.backend)
        batch = self._open.get(slot)
        if slot in self._running or (
            batch is not None and (not batch.held or now <= batch.deadline)
        ):
            self._company[slot] = None
            if len(self._company) > MAX_REMEMBERED_KEYS:
                del self._company[next(iter(self._company))]
        if batch is None:
            company = slot in self._company
            if company:
                del self._company[slot]  # this batch uses it up
            deadline = now + self.window if company else now
            batch = Batch(key, workload, request.backend, deadline)
            batch.opened_at = batch.flushed_at = now
            if batch.held:
                self._held += 1
            else:
                self._immediate += 1
            self._open[slot] = batch
        batch.requests.append(request)
        if batch.size >= self.batch_max:
            del self._open[slot]
            self._flush(batch, now)

    def runs_alone(self, request) -> bool:
        """Whether :meth:`add` would give ``request`` an unheld batch of
        its own, due at once: it never batches, or its key has no open
        batch, no unheld batch on a lane and no company remembered."""
        if not self.enabled or isinstance(request, GraphRequest):
            return True
        key = get_workload(request.workload).batch_key(request)
        if key is None:
            return True
        slot = (key, request.backend)
        return not (
            slot in self._open or slot in self._running or slot in self._company
        )

    def note_done(self, batch: Batch) -> None:
        """``batch`` (flushed earlier) finished on its lane: its
        requests have left the gateway."""
        if batch.key is None or batch.held:
            return  # only unheld batches are counted while they run
        slot = (batch.key, batch.backend)
        left = self._running[slot] - batch.size
        if left:
            self._running[slot] = left
        else:
            del self._running[slot]

    # -- flush ------------------------------------------------------------

    def _flush(self, batch: Batch, now: float) -> None:
        batch.flushed_at = now
        self._ready.append(batch)
        if not batch.held:
            slot = (batch.key, batch.backend)
            self._running[slot] = self._running.get(slot, 0) + batch.size

    def pop_ready(self, now: float) -> List[Batch]:
        """Every batch due at ``now``: full/unbatchable ones plus open
        batches whose deadline passed."""
        due = [s for s, b in self._open.items() if b.deadline <= now]
        for slot in due:
            self._flush(self._open.pop(slot), now)
        ready, self._ready = self._ready, []
        return ready

    def flush_all(self, now: Optional[float] = None) -> List[Batch]:
        """Drain everything regardless of deadlines (shutdown path)."""
        for batch in self._open.values():
            self._flush(batch, batch.opened_at if now is None else now)
        self._open.clear()
        ready, self._ready = self._ready, []
        return ready

    def next_deadline(self) -> Optional[float]:
        """Earliest open-batch deadline, or ``None`` when nothing is
        parked — the pump's sleep bound."""
        if not self._open:
            return None
        return min(b.deadline for b in self._open.values())

    @property
    def parked(self) -> int:
        return sum(b.size for b in self._open.values()) + sum(
            b.size for b in self._ready
        )

    def stats(self) -> Dict[str, int]:
        """Batches opened with the window (``held``) and without
        (``immediate``), and entries the hold rule currently keeps."""
        return {
            "held": self._held,
            "immediate": self._immediate,
            "tracked_keys": len(self._running) + len(self._company),
        }
