"""Execution instrumentation: observer hooks threaded through the runtime.

Two things reach the registered :class:`ExecutionObserver` instances:
every *timed region* (a launch, a copy, a graph run, a plan build, a
queue drain ...) once, when its
:class:`~repro.telemetry.spans.Span` closes (:meth:`~ExecutionObserver.on_span_end`),
and every block of an observed launch (:meth:`~ExecutionObserver.on_block_end`).
Counts the runtime keeps for itself — plan-cache and tuning-cache
resolutions — are read, not announced (:func:`cache_resolutions`).
The bench harness and the trace layer consume these hooks instead of
wrapping user callables, so instrumentation costs nothing when nothing
is registered (each notify helper returns immediately on the
empty-observer fast path, and an unobserved region enters the shared
``NULL_SPAN``).

Observers are process-global and thread-safe to register from any
thread; notifications may arrive from scheduler worker threads, so
observer implementations must be thread-safe themselves
(:class:`CountingObserver` is).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

__all__ = [
    "ExecutionObserver",
    "CountingObserver",
    "register_observer",
    "unregister_observer",
    "observers",
    "observe",
    "notify_block_end",
    "notify_span_end",
    "cache_resolutions",
    "CACHE_KEYS",
]


class ExecutionObserver:
    """Protocol for runtime instrumentation (both hooks optional no-ops).

    Subclass and override the hooks of interest; exceptions raised by an
    observer propagate to the launch/copy/wait that triggered them, so
    observers should only raise when they *mean* to fail the run (e.g. a
    test asserting an invariant at every block).
    """

    def on_block_end(self, plan, block_idx, seconds: float) -> None:
        """One block finished; ``seconds`` is its wall duration.

        Timed only while observers are registered — the unobserved
        dispatch path never reads the clock."""

    def on_span_end(self, span) -> None:
        """A timed region closed; ``span`` carries wall and modeled
        durations, its error (if the region raised) and its attributes.

        A kernel launch is the span ``"launch"`` (cat ``"launch"``,
        ``attrs["plan"]`` the :class:`~repro.runtime.plan.LaunchPlan`;
        a sanitized launch adds ``attrs["sanitize_findings"]``, the
        finding count of its finished record); a copy/memset is
        ``"mem.copy"`` / ``"mem.memset"``; a dataflow graph submission
        is ``"graph.run"`` (``attrs["stats"]`` its
        :class:`~repro.graph.executor.GraphRunStats`); a queue whose
        pending work reached zero is ``"queue.drain"``."""


_lock = threading.Lock()
_observers: Tuple[ExecutionObserver, ...] = ()


def register_observer(obs: ExecutionObserver) -> ExecutionObserver:
    """Attach ``obs`` to the global hook chain; returns it for chaining."""
    global _observers
    with _lock:
        if obs not in _observers:
            _observers = _observers + (obs,)
    return obs


def unregister_observer(obs: ExecutionObserver) -> None:
    """Detach ``obs`` (idempotent)."""
    global _observers
    with _lock:
        _observers = tuple(o for o in _observers if o is not obs)


def observers() -> Tuple[ExecutionObserver, ...]:
    """Snapshot of the currently registered observers."""
    return _observers


@contextmanager
def observe(obs: ExecutionObserver) -> Iterator[ExecutionObserver]:
    """Register ``obs`` for the duration of a ``with`` block::

        with observe(CountingObserver()) as stats:
            enqueue(queue, task)
        assert stats.launches == 1
    """
    register_observer(obs)
    try:
        yield obs
    finally:
        unregister_observer(obs)


# ---------------------------------------------------------------------------
# Notification fan-out (hot path: first line bails when unobserved)
# ---------------------------------------------------------------------------


def notify_block_end(plan, block_idx, seconds: float) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_block_end(plan, block_idx, seconds)


def notify_span_end(span) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_span_end(span)


#: The keys of :func:`cache_resolutions`, in order.
CACHE_KEYS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "tuning_cache_hits",
    "tuning_cache_misses",
)


#: The caches' own count readers, bound on first use (importing the
#: plan and tuning modules here would be circular).
_count_readers: Tuple = ()


def cache_resolutions() -> Tuple[int, int, int, int]:
    """Plan-cache (launch and graph plans) and tuning-cache
    (``auto_divide``) hits and misses since the process started, in
    :data:`CACHE_KEYS` order — the counts the caches keep themselves.
    A scoped count is the difference of two readings."""
    global _count_readers
    if not _count_readers:
        from ..tuning import tuning_cache_resolutions
        from .plan import plan_cache_resolutions

        _count_readers = (plan_cache_resolutions, tuning_cache_resolutions)
    plan, tuning = _count_readers
    return plan() + tuning()


class CountingObserver(ExecutionObserver):
    """Thread-safe event counters — the bench harness's workhorse.

    Launches, blocks, copies and queue drains are counted as their
    spans close.  The cache counts are the resolutions since the
    observer was made, read from the caches on every read while it is
    registered and whenever a span other than a copy or a drain closes
    (a launch, graph run or plan build follows each resolution): they
    stop moving once it is unregistered.
    ``plan_cache_hit_rate`` is the fraction of plan resolutions served
    from the LRU cache, the quantity the launch-overhead bench reports.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.launches = 0
        self.blocks = 0
        self.copies = 0
        self.queue_drains = 0
        self.per_backend: Dict[str, int] = {}
        self._base = self._caches = cache_resolutions()

    def on_span_end(self, span) -> None:
        if span.cat == "mem":
            with self._lock:
                self.copies += 1
            return
        if span.name == "queue.drain":
            with self._lock:
                self.queue_drains += 1
            return
        if span.name == "launch":
            name = span.attrs["plan"].acc_type.name
            with self._lock:
                self.launches += 1
                self.per_backend[name] = self.per_backend.get(name, 0) + 1
        self._caches = cache_resolutions()

    def on_block_end(self, plan, block_idx, seconds: float) -> None:
        with self._lock:
            self.blocks += 1

    def _cache_counts(self) -> Dict[str, int]:
        if self in _observers:
            self._caches = cache_resolutions()
        return {
            key: now - base
            for key, now, base in zip(CACHE_KEYS, self._caches, self._base)
        }

    @property
    def plan_cache_hits(self) -> int:
        return self._cache_counts()["plan_cache_hits"]

    @property
    def plan_cache_misses(self) -> int:
        return self._cache_counts()["plan_cache_misses"]

    @property
    def tuning_cache_hits(self) -> int:
        return self._cache_counts()["tuning_cache_hits"]

    @property
    def tuning_cache_misses(self) -> int:
        return self._cache_counts()["tuning_cache_misses"]

    @property
    def plan_cache_hit_rate(self) -> float:
        c = self._cache_counts()
        total = c["plan_cache_hits"] + c["plan_cache_misses"]
        return c["plan_cache_hits"] / total if total else 0.0

    @property
    def tuning_cache_hit_rate(self) -> float:
        c = self._cache_counts()
        total = c["tuning_cache_hits"] + c["tuning_cache_misses"]
        return c["tuning_cache_hits"] / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "launches": self.launches,
                "blocks": self.blocks,
                "copies": self.copies,
                "queue_drains": self.queue_drains,
                **self._cache_counts(),
                # A copy: mutating the snapshot must not touch the live
                # counters.
                "per_backend": dict(self.per_backend),
            }

    def __repr__(self) -> str:
        return f"CountingObserver({self.snapshot()!r})"
