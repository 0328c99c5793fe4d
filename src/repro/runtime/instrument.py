"""Execution instrumentation: observer hooks threaded through the runtime.

Every interesting runtime transition — a block finishing, a queue
draining, a launch plan hitting or missing the cache — is announced to
the registered :class:`ExecutionObserver` instances.  A *timed region*
(a launch, a copy, a graph run, a plan build ...) is a
:class:`~repro.telemetry.spans.Span` and reaches observers once, when it
closes, through :meth:`ExecutionObserver.on_span_end`.  The bench
harness and the trace layer consume these hooks instead of wrapping
user callables, so instrumentation costs nothing when nothing is
registered (each notify helper returns immediately on the
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
    "notify_queue_drain",
    "notify_plan_cache",
    "notify_tuning_cache",
    "notify_sanitizer_report",
    "notify_span_end",
]


class ExecutionObserver:
    """Protocol for runtime instrumentation (all hooks optional no-ops).

    Subclass and override the hooks of interest; exceptions raised by an
    observer propagate to the launch/copy/wait that triggered them, so
    observers should only raise when they *mean* to fail the run (e.g. a
    test asserting an invariant at every block).
    """

    def on_block_end(self, plan, block_idx, seconds: float) -> None:
        """One block finished; ``seconds`` is its wall duration.

        Timed only while observers are registered — the unobserved
        dispatch path never reads the clock."""

    def on_queue_drain(self, queue) -> None:
        """A queue's pending work count reached zero."""

    def on_plan_cache(self, plan, hit: bool) -> None:
        """A launch plan was resolved: ``hit`` tells cached vs built."""

    def on_tuning_cache(self, kernel, acc_type, hit: bool) -> None:
        """An ``AutoWorkDiv`` consulted the tuning cache (tuned division
        served vs heuristic fallback)."""

    def on_span_end(self, span) -> None:
        """A timed region closed; ``span`` carries wall and modeled
        durations, its error (if the region raised) and its attributes.

        A kernel launch is the span ``"launch"`` (cat ``"launch"``,
        ``attrs["plan"]`` the :class:`~repro.runtime.plan.LaunchPlan`);
        a copy/memset is ``"mem.copy"`` / ``"mem.memset"``; a dataflow
        graph submission is ``"graph.run"`` (``attrs["stats"]`` its
        :class:`~repro.graph.executor.GraphRunStats`)."""

    def on_sanitizer_report(self, plan, record) -> None:
        """A sanitized launch finished; ``record`` is its
        :class:`repro.sanitize.report.LaunchRecord` (findings included,
        possibly empty)."""


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


def notify_queue_drain(queue) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_queue_drain(queue)


def notify_plan_cache(plan, hit: bool) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_plan_cache(plan, hit)


def notify_tuning_cache(kernel, acc_type, hit: bool) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_tuning_cache(kernel, acc_type, hit)


def notify_sanitizer_report(plan, record) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_sanitizer_report(plan, record)


def notify_span_end(span) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_span_end(span)


class CountingObserver(ExecutionObserver):
    """Thread-safe event counters — the bench harness's workhorse.

    ``plan_cache_hit_rate`` is the fraction of launches whose plan came
    out of the LRU cache, the quantity the launch-overhead bench
    reports.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.launches = 0
        self.blocks = 0
        self.copies = 0
        self.queue_drains = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.tuning_cache_hits = 0
        self.tuning_cache_misses = 0
        self.per_backend: Dict[str, int] = {}

    def on_span_end(self, span) -> None:
        if span.name == "launch":
            name = span.attrs["plan"].acc_type.name
            with self._lock:
                self.launches += 1
                self.per_backend[name] = self.per_backend.get(name, 0) + 1
        elif span.cat == "mem":
            with self._lock:
                self.copies += 1

    def on_block_end(self, plan, block_idx, seconds: float) -> None:
        with self._lock:
            self.blocks += 1

    def on_queue_drain(self, queue) -> None:
        with self._lock:
            self.queue_drains += 1

    def on_plan_cache(self, plan, hit: bool) -> None:
        with self._lock:
            if hit:
                self.plan_cache_hits += 1
            else:
                self.plan_cache_misses += 1

    def on_tuning_cache(self, kernel, acc_type, hit: bool) -> None:
        with self._lock:
            if hit:
                self.tuning_cache_hits += 1
            else:
                self.tuning_cache_misses += 1

    @property
    def plan_cache_hit_rate(self) -> float:
        with self._lock:
            total = self.plan_cache_hits + self.plan_cache_misses
            return self.plan_cache_hits / total if total else 0.0

    @property
    def tuning_cache_hit_rate(self) -> float:
        with self._lock:
            total = self.tuning_cache_hits + self.tuning_cache_misses
            return self.tuning_cache_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "launches": self.launches,
                "blocks": self.blocks,
                "copies": self.copies,
                "queue_drains": self.queue_drains,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                "tuning_cache_hits": self.tuning_cache_hits,
                "tuning_cache_misses": self.tuning_cache_misses,
                # A copy: mutating the snapshot must not touch the live
                # counters.
                "per_backend": dict(self.per_backend),
            }

    def __repr__(self) -> str:
        return f"CountingObserver({self.snapshot()!r})"
