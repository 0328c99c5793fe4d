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
otherwise, so a lone request is due at the gateway step that admitted
it (anything else admitted in that same step still joins it).  Company is
causal, not temporal.  A request of the key brings it when

* it arrives while an unheld batch of the key is flushed, not yet
  completed (not yet reported through :meth:`Batcher.note_done`) — a
  hold on that batch would have merged the two; or
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
batch after its deadline (a late step collected it, not the window),
and a request that arrives while a *held* batch of its key is flushed,
not yet completed (that batch is still inside only because it was
parked first).
Counted, either one lets a client paced at about one window per
request, delayed once, overlap itself and pay the window on every
request from then on — a key is then slower under load than alone for
no reason but the hold.

Every batch runs on the gateway's loop thread, so a flushed batch is
completed before the next step begins.  The flushed-not-completed leg
still decides holds inside one step: a batch that fills to
``batch_max`` is flushed on the spot, and the key's requests added after
it in the same step bring company, so the key's next batch opens held.

The memory is bounded: the count of a key's flushed, not yet completed
unheld requests is dropped at zero, and at most
:data:`MAX_REMEMBERED_KEYS` keys with unused company are remembered
(oldest evicted first — an evicted key merely opens its next batch
unheld and is re-learned one batch later).

The batcher is pure bookkeeping — no threads, no locks, no clock of its
own.  The gateway's loop steps drive it with explicit timestamps, which
keeps the flush logic deterministic and directly testable.  Only the
gateway's loop thread touches this object's state: its steps, a lone
request stepped through in ``submit`` (keyed once, then asked
:meth:`runs_alone` and added), and every batch completion — the router
calls :meth:`note_done` before any of the batch's replies.  Other
threads only read the :meth:`stats` integers.
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
        "opened_at", "flushed_at",
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
        #: Requests of unheld batches flushed, not yet completed, by key.
        self._running: Dict[Tuple, int] = {}
        #: Keys with company their next batch has yet to use, oldest first.
        self._company: Dict[Tuple, None] = {}
        self._held = 0
        self._immediate = 0

    # -- intake -----------------------------------------------------------

    def keyed(self, request) -> tuple:
        """``(workload, slot)`` of ``request``: its slot is ``(batch_key,
        backend)``, or ``None`` when it never batches.  Keying runs the
        workload's ``batch_key``; a caller that asks :meth:`runs_alone`
        first hands the same pair to :meth:`add`."""
        workload = get_workload(request.workload)
        if not self.enabled or isinstance(request, GraphRequest):
            return workload, None
        key = workload.batch_key(request)
        return workload, (None if key is None else (key, request.backend))

    def add(self, request, now: float, keyed: Optional[tuple] = None) -> None:
        """Park ``request`` in an open batch or emit it as ready
        (``keyed``: its :meth:`keyed` pair, when the caller has it)."""
        workload, slot = keyed or self.keyed(request)
        if slot is None:
            batch = Batch(None, workload, request.backend, now)
            batch.requests.append(request)
            self._immediate += 1
            self._ready.append(batch)
            return
        key = slot[0]
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

    def runs_alone(self, slot: Optional[tuple]) -> bool:
        """Whether :meth:`add` would give a request of ``slot`` (see
        :meth:`keyed`) an unheld batch of its own, due at once: it never
        batches, or its key has no open batch, no unheld batch flushed
        and not yet completed, and no company remembered."""
        if slot is None:
            return True
        return not (
            slot in self._open or slot in self._running or slot in self._company
        )

    def note_done(self, batch: Batch) -> None:
        """``batch`` (flushed earlier) completed: its requests have left
        the gateway."""
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
        parked — when the gateway's next timed step is due."""
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
