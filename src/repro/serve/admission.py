"""Multi-tenant fair-share admission: weighted deficit round-robin.

The gateway's front door.  Each tenant owns a bounded FIFO; the
gateway's loop steps drain them with **deficit round-robin** (Shreedhar & Varghese): every
round a tenant's deficit grows by ``quantum * weight``, and it may
release one queued request per unit of deficit.  Over any window the
released share converges to the weight ratio regardless of how fast any
single tenant submits — a flooding tenant fills its own queue and gets
:class:`~repro.serve.types.RetryAfter`, it cannot starve the others.

Two more brakes sit behind the queues:

* a **per-tenant in-flight cap** — a tenant at its cap is skipped by
  the round-robin until a completion frees a slot, so one tenant cannot
  occupy every device lane even with a deep queue;
* **backpressure at offer time** — a full tenant queue raises
  :class:`RetryAfter` with a delay derived from the tenant's observed
  service rate (clients back off instead of the gateway buffering).

The scheduler is synchronous and thread-safe; the asyncio layers wrap
it without needing any event-loop affinity.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List

from .config import ServeConfig
from .metrics import record_admission
from .types import GatewayClosed, RetryAfter

__all__ = ["FairShareAdmission", "TenantState"]

#: Deficit added per round per unit weight.  1.0 = "one request per
#: round per weight unit"; only the *ratio* between tenants matters.
QUANTUM = 1.0

#: RetryAfter delay clamp (seconds).
MIN_RETRY_DELAY = 0.001
MAX_RETRY_DELAY = 5.0

#: Fallback per-request service estimate before any completion has been
#: observed for a tenant.
DEFAULT_SERVICE_SECONDS = 0.002


class TenantState:
    """One tenant's queue, deficit counter and live accounting."""

    __slots__ = (
        "name", "weight", "queue", "deficit", "inflight",
        "admitted", "rejected", "completed", "failed",
        "service_ewma",
    )

    def __init__(self, name: str, weight: float):
        self.name = name
        self.weight = weight
        self.queue: deque = deque()
        self.deficit = 0.0
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        #: Exponentially weighted per-request service time (seconds),
        #: feeding the RetryAfter estimate.
        self.service_ewma = DEFAULT_SERVICE_SECONDS

    def observe_service(self, seconds: float) -> None:
        self.service_ewma += 0.2 * (max(0.0, seconds) - self.service_ewma)

    def retry_delay(self) -> float:
        # Time to drain the backlog at the observed service rate,
        # discounted by fair-share weight, clamped to a sane range.
        est = len(self.queue) * self.service_ewma / max(self.weight, 1e-9)
        return min(MAX_RETRY_DELAY, max(MIN_RETRY_DELAY, est))


class FairShareAdmission:
    """Weighted-DRR admission over per-tenant bounded queues."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        #: Round-robin order; rebuilt when a tenant first appears.
        self._order: List[str] = []
        self._cursor = 0
        #: True once the tenant under the cursor received this visit's
        #: deficit top-up (a visit spans several next_ready calls when a
        #: weighted tenant releases a burst).
        self._visit_topped = False
        self._closed = False
        #: Signalled whenever work may have become releasable (an offer
        #: left queued, or a completion freeing an in-flight slot of a
        #: tenant with queued work).
        self.ready = threading.Event()

    # -- tenant bookkeeping ----------------------------------------------

    def _tenant(self, name: str) -> TenantState:
        st = self._tenants.get(name)
        if st is None:
            st = TenantState(name, self.config.weight_of(name))
            self._tenants[name] = st
            self._order.append(name)
        return st

    def queued(self) -> int:
        with self._lock:
            return sum(len(st.queue) for st in self._tenants.values())

    def inflight(self) -> int:
        with self._lock:
            return sum(st.inflight for st in self._tenants.values())

    # -- offer (client side) ----------------------------------------------

    def offer(self, request, release: bool = False) -> bool:
        """Queue ``request`` for its tenant or raise :class:`RetryAfter`.

        Never blocks: backpressure is the caller's problem by design
        (bounded memory at the gateway, the client owns the retry).

        With ``release``, when no tenant has queued work and the
        request's tenant is under its in-flight cap, the same call also
        runs :meth:`next_ready` — which has nothing to arbitrate but
        this request — and returns True once it released it, without
        setting :attr:`ready`.  Otherwise (and always without
        ``release``) the request waits for the gateway's next step and
        False is returned.
        """
        with self._lock:
            if self._closed:
                raise GatewayClosed("gateway is shutting down")
            st = self._tenant(request.tenant)
            if len(st.queue) >= self.config.queue_bound:
                st.rejected += 1
                delay = st.retry_delay()
                record_admission(request.tenant, "rejected", len(st.queue))
                raise RetryAfter(request.tenant, delay, len(st.queue))
            release = (
                release
                and st.inflight < self.config.tenant_inflight
                and not any(t.queue for t in self._tenants.values())
            )
            request.submitted_at = time.perf_counter()
            st.queue.append(request)
            st.admitted += 1
            depth = len(st.queue)
            # A fractional weight may still be short of a unit: then the
            # request stays queued like any other.
            released = release and self._next_ready_locked() is request
        record_admission(request.tenant, "queued", depth)
        if not released and not self.ready.is_set():
            self.ready.set()
        return released

    # -- release (step side) ----------------------------------------------

    def next_ready(self):
        """The next request under weighted DRR, or ``None``.

        ``None`` means: every queue is empty, or every tenant with
        queued work is at its in-flight cap.
        """
        with self._lock:
            return self._next_ready_locked()

    def _next_ready_locked(self):
        n = len(self._order)
        if n == 0:
            return None
        # A tenant's deficit tops up once per *visit* (cursor arrival);
        # it then releases one request per unit of deficit before the
        # cursor moves on — the burst size is what realises the weight
        # ratio.  Fractional weights accumulate credit across visits.
        # Bound: enough visits for the smallest practical weight to
        # accumulate a unit.
        visits = 8 * n + 1
        idle = 0
        for visit in range(visits):
            if self._cursor >= n:
                self._cursor = 0
            name = self._order[self._cursor]
            st = self._tenants[name]
            if not st.queue or st.inflight >= self.config.tenant_inflight:
                # DRR rule: a flow with nothing releasable keeps no
                # credit — an idle tenant must not burst later.
                st.deficit = 0.0
                self._advance(n)
                idle += 1
                if idle == n:
                    # A whole round found nothing releasable, and nothing
                    # changes under the lock: the remaining visits would
                    # only move the cursor on.
                    self._cursor = (self._cursor + visits - visit - 1) % n
                    return None
                continue
            idle = 0
            if not self._visit_topped:
                st.deficit += QUANTUM * st.weight
                self._visit_topped = True
            if st.deficit >= 1.0:
                st.deficit -= 1.0
                req = st.queue.popleft()
                st.inflight += 1
                req.admitted_at = time.perf_counter()
                # Cursor stays: the visit continues until the deficit is
                # spent or the queue empties.
                return req
            self._advance(n)
        return None

    def _advance(self, n: int) -> None:
        self._cursor = (self._cursor + 1) % max(1, n)
        self._visit_topped = False

    def task_finished(self, tenant: str, seconds: float, ok: bool) -> None:
        """A released request completed; frees the in-flight slot."""
        self.tasks_finished(((tenant, seconds),), ok)

    def tasks_finished(self, done, ok: bool) -> None:
        """Released requests completed — ``(tenant, service seconds)``
        pairs, a batch's members — under one lock; frees their in-flight
        slots."""
        waiting = False
        with self._lock:
            for tenant, seconds in done:
                st = self._tenants.get(tenant)
                if st is None:
                    continue
                st.inflight = max(0, st.inflight - 1)
                if ok:
                    st.completed += 1
                else:
                    st.failed += 1
                st.observe_service(seconds)
                waiting = waiting or bool(st.queue)
        if waiting:
            self.ready.set()

    # -- shutdown ---------------------------------------------------------

    def close(self, drain: bool = True) -> List:
        """Reject new offers.

        ``drain=True`` (graceful): already-queued requests stay and keep
        being released — the caller waits for them to finish.
        ``drain=False`` (abort): queues are emptied and the stranded
        requests returned so the gateway can fail them explicitly.
        """
        with self._lock:
            self._closed = True
            stranded: List = []
            if not drain:
                for st in self._tenants.values():
                    stranded.extend(st.queue)
                    st.queue.clear()
        self.ready.set()
        return stranded

    def stats(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                st.name: {
                    "weight": st.weight,
                    "queued": len(st.queue),
                    "inflight": st.inflight,
                    "admitted": st.admitted,
                    "rejected": st.rejected,
                    "completed": st.completed,
                    "failed": st.failed,
                    "service_ewma": st.service_ewma,
                }
                for st in self._tenants.values()
            }
