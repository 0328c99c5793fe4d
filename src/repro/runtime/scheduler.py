"""Per-device block schedulers (the Plan's "Execute" stage).

A scheduler owns how a launch's blocks reach the hardware:

* :class:`SequentialScheduler` — blocks run in the caller's thread, in
  C order.  The strategy of the serial, thread-parallel and fiber
  back-ends (their parallelism, if any, lives *inside* the block), and
  the one that keeps the fiber back-end's deterministic interleaving.
* :class:`PooledScheduler` — blocks are distributed over a persistent
  per-device worker pool in **chunks** of ``ceil(blocks / workers)``,
  so a grid of 10⁴ blocks costs ``workers`` executor submissions, not
  10⁴ — the OpenMP ``schedule(static)`` strategy, replacing the old
  one-future-per-block dispatch through a module-global pool.

Pools are per *device* (keyed on ``Device.uid``), mirroring how an
OpenMP runtime pins one thread team per target: two devices launching
concurrently no longer contend for one pool's queue.  The worker cap is
``REPRO_MAX_BLOCK_WORKERS`` (default :data:`MAX_BLOCK_WORKERS`),
resolved once per pool and exposed through the back-end's device
properties (``AccDevProps.max_block_workers``).
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .. import knobs
from ..core.errors import KernelError
from ..core.kernel import kernel_name
from ..core.vec import Vec
from ..telemetry import flight
from ..telemetry.metrics import registry
from .instrument import notify_block_end, observers

__all__ = [
    "MAX_BLOCK_WORKERS",
    "MAX_BLOCK_WORKERS_ENV",
    "SCHEDULER_ENV",
    "resolve_max_block_workers",
    "resolve_scheduler_override",
    "Scheduler",
    "SequentialScheduler",
    "PooledScheduler",
    "CompiledScheduler",
    "scheduler_for",
    "shutdown_schedulers",
    "chunk_indices",
]

_log = logging.getLogger("repro.runtime.scheduler")

#: Default upper bound on concurrently scheduled block workers; beyond
#: this the host's thread-switch overhead dominates any concurrency
#: benefit.  Override per process with ``REPRO_MAX_BLOCK_WORKERS``.
MAX_BLOCK_WORKERS = 16

#: Environment variable overriding :data:`MAX_BLOCK_WORKERS`.
MAX_BLOCK_WORKERS_ENV = knobs.MAX_BLOCK_WORKERS

#: Environment variable forcing a block-scheduling strategy onto every
#: *pool-capable* back-end: ``sequential``, ``pooled`` or
#: ``compiled`` (trace-vectorized whole-grid replay,
#: falling back to the thread pool for kernels the vectorizer cannot
#: represent).  Back-ends that declare ``block_schedule="sequential"``
#: (serial, fibers, the thread-level CPU back-ends) are never remapped —
#: their block order is part of their semantics.
SCHEDULER_ENV = knobs.SCHEDULER


def resolve_scheduler_override() -> Optional[str]:
    """The canonical schedule forced by ``REPRO_SCHEDULER``, or None."""
    return knobs.get(SCHEDULER_ENV)


def resolve_max_block_workers() -> int:
    """The worker cap a new pool will use.

    ``REPRO_MAX_BLOCK_WORKERS`` is authoritative when set (clamped to
    >= 1; deliberate oversubscription is a valid experiment).  The
    default is :data:`MAX_BLOCK_WORKERS` bounded by the host's core
    count.
    """
    return knobs.get(MAX_BLOCK_WORKERS_ENV) or min(
        MAX_BLOCK_WORKERS, max(2, os.cpu_count() or 1)
    )


def chunk_indices(indices: Sequence[Vec], workers: int) -> List[Sequence[Vec]]:
    """Partition block indices into at most ``workers`` contiguous
    chunks of ``ceil(len / workers)`` blocks (OpenMP static schedule)."""
    n = len(indices)
    if n == 0:
        return []
    size = -(-n // max(1, workers))
    return [indices[i : i + size] for i in range(0, n, size)]


def _run_blocks(plan, grid, block_indices, task, observed: bool) -> None:
    """Run ``block_indices`` in order in the calling thread.

    Everything that is the same for every block — the runner, the
    kernel, the device-side arguments, whether anyone observes — is
    resolved once here, not once per block.  A kernel exception is
    wrapped with its block index; ``KeyboardInterrupt`` / ``SystemExit``
    raised while a block runs in the caller's thread are not kernel
    failures and propagate as they are (the engine's internal sibling
    unwind signal never leaves ``run_block_preemptive``).
    """
    runner, kernel, args = plan.block_runner, task.kernel, grid.args
    for bidx in block_indices:
        if observed:
            # Block latency for the telemetry histograms; timed only
            # while observed so the bare dispatch path never reads the
            # clock.
            t0 = time.perf_counter()
        try:
            runner(grid, bidx, kernel, args)
        except KernelError:
            raise
        except Exception as exc:  # noqa: BLE001 - any kernel failure gets its block
            raise KernelError(
                f"kernel {kernel_name(kernel)!r} failed in block {bidx!r}"
            ) from exc
        if observed:
            notify_block_end(plan, bidx, time.perf_counter() - t0)


class Scheduler:
    """Base block scheduler bound to one device."""

    #: Declarative key back-ends use to select this scheduler.
    schedule = "abstract"

    def __init__(self, device):
        self.device = device
        self._logged_fallbacks = set()

    @property
    def worker_count(self) -> int:
        """Concurrent block workers this scheduler drives (1 = caller)."""
        return 1

    def dispatch(self, plan, grid, block_indices: Sequence[Vec], task) -> None:
        """Run every block of the launch; returns when all completed."""
        raise NotImplementedError

    def _fall_back(
        self, plan, grid, block_indices, task, reason: str, detail: str
    ) -> None:
        """Run a launch this strategy cannot serve on the thread pool.

        ``reason`` is a classified slug, ``detail`` the explanation.
        Counted in ``repro_scheduler_fallbacks_total``, logged once per
        (kernel, reason) and flight-recorded.  Callers fall back
        strictly before any argument byte changes, so the result is
        always a correct launch, never a partial one.
        """
        kname = kernel_name(task.kernel)
        registry().counter(
            "repro_scheduler_fallbacks_total",
            "Launches a block schedule handed to the thread pool, "
            "by schedule, kernel and classified reason",
            schedule=self.schedule,
            kernel=kname,
            reason=reason,
        ).inc()
        key = (kname, reason)
        if key not in self._logged_fallbacks:
            self._logged_fallbacks.add(key)
            _log.info(
                "%s dispatch of %s falls back to the thread pool [%s]: %s",
                self.schedule,
                kname,
                reason,
                detail,
            )
        flight.maybe_record(
            "scheduler_fallback",
            schedule=self.schedule,
            kernel=kname,
            reason=reason,
        )
        scheduler_for(self.device, "pooled").dispatch(
            plan, grid, block_indices, task
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.device.name}>"


class SequentialScheduler(Scheduler):
    """Blocks execute in the caller's thread, in C index order."""

    schedule = "sequential"

    def dispatch(self, plan, grid, block_indices, task) -> None:
        _run_blocks(plan, grid, block_indices, task, bool(observers()))


class PooledScheduler(Scheduler):
    """Blocks execute on a persistent per-device pool, chunked.

    The pool outlives launches (OpenMP keeps its team alive between
    parallel regions; charging thread start-up to every launch would
    show up as false abstraction overhead in the Fig. 5 measurement)
    and is torn down with the process or via
    :func:`shutdown_schedulers`.
    """

    schedule = "pooled"

    def __init__(self, device):
        super().__init__(device)
        self._workers = resolve_max_block_workers()
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=f"alpaka-blk-{device.uid}",
        )

    @property
    def worker_count(self) -> int:
        return self._workers

    def dispatch(self, plan, grid, block_indices, task) -> None:
        observed = bool(observers())
        if block_indices is plan.block_indices:
            # The common path: chunking is pure geometry, memoised on
            # the cached plan instead of rebuilt every warm launch.
            chunks = plan.chunks_for(self._workers)
        else:
            chunks = chunk_indices(block_indices, self._workers)
        if len(chunks) <= 1:
            _run_blocks(plan, grid, block_indices, task, observed)
            return

        futures = [
            self._pool.submit(_run_blocks, plan, grid, c, task, observed)
            for c in chunks
        ]
        error = None
        for fut in futures:
            try:
                fut.result()
            except BaseException as exc:  # noqa: BLE001 - first one wins
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def shutdown(self) -> None:
        # Idempotent: the atexit sweep and explicit teardown may both
        # run; ThreadPoolExecutor.shutdown tolerates repeats.
        self._pool.shutdown(wait=True)


class CompiledScheduler(Scheduler):
    """The whole grid executes as one trace-vectorized numpy replay.

    Instead of dispatching blocks at all, the first launch of a
    (kernel, work-division, argument-shape) configuration is traced
    with batched symbolic thread coordinates (:mod:`repro.compile`) and
    warm launches replay the recorded dataflow as fused array
    operations — the closure is cached on the plan, so the steady state
    is a dict lookup plus a handful of vectorized ufunc calls.

    Launches the vectorizer cannot represent — divergent control flow,
    barriers, atomics, shared memory, per-thread RNG, sanitizer-
    instrumented grids, custom block subsets — fall back to the thread
    pool through :meth:`Scheduler._fall_back`, additionally counted in
    ``repro_compile_fallbacks_total`` and ``compile_stats()``.

    ``REPRO_COMPILE_CROSSCHECK=1`` additionally runs every compiled
    launch through the interpreter and asserts the two agree
    bit-for-bit on all store targets.

    The default ``pooled`` schedule dispatches here too, for a proven
    record whose replay entry's tier chose (or is timing) the replay
    (:func:`repro.runtime.execute_plan`); ``REPRO_SCHEDULER=compiled``
    is that tier forced.
    """

    schedule = "compiled"

    def __init__(self, device):
        super().__init__(device)
        # The vectorizer loads with the first compiled scheduler — not
        # with ``import repro``, and not again on every dispatch.
        from .. import compile as vectorizer

        self._vectorizer = vectorizer

    def _fall_back(
        self, plan, grid, block_indices, task, reason: str, detail: str
    ) -> None:
        self._vectorizer.metrics.note_fallback(kernel_name(task.kernel), reason)
        super()._fall_back(plan, grid, block_indices, task, reason, detail)

    def dispatch(self, plan, grid, block_indices, task) -> None:
        vectorizer = self._vectorizer
        if block_indices is not plan.block_indices:
            # The replay covers the whole grid; a caller-selected block
            # subset has no compiled equivalent.
            self._fall_back(
                plan, grid, block_indices, task,
                "custom-block-subset",
                "launch uses a custom block-index subset",
            )
            return
        if getattr(grid, "monitor", None) is not None:
            # Sanitizer-instrumented launches must interpret: the
            # monitor observes per-thread accesses, which a fused
            # replay by design does not perform.
            self._fall_back(
                plan, grid, block_indices, task,
                "sanitizer",
                "sanitizer-instrumented launch needs per-thread "
                "interpretation",
            )
            return
        interpret = None
        if vectorizer.crosscheck_active():
            pooled = scheduler_for(self.device, "pooled")

            def interpret():
                pooled.dispatch(plan, grid, block_indices, task)

        try:
            vectorizer.execute_compiled(plan, grid, task, interpret=interpret)
        except vectorizer.CompileFallback as cf:
            if grid.tier is not None:
                # A tier's replay that cannot run these arguments hands
                # its entry to the interpreter for good: the fallback
                # is counted and logged once, not once per launch.
                grid.tier.settle("pooled")
            self._fall_back(
                plan, grid, block_indices, task, cf.reason, cf.detail
            )


_schedulers: Dict[Tuple[int, str], Scheduler] = {}
_schedulers_lock = threading.Lock()

_SCHEDULER_TYPES: Dict[str, type] = {
    SequentialScheduler.schedule: SequentialScheduler,
    PooledScheduler.schedule: PooledScheduler,
    CompiledScheduler.schedule: CompiledScheduler,
}


def scheduler_for(device, schedule: str) -> Scheduler:
    """The cached scheduler of kind ``schedule`` for ``device``.

    One scheduler exists per (device, kind) for the life of the
    process; the pooled kind owns the device's one worker pool.
    """
    try:
        cls = _SCHEDULER_TYPES[schedule]
    except KeyError:
        raise ValueError(
            f"unknown block schedule {schedule!r}; "
            f"known: {sorted(_SCHEDULER_TYPES)}"
        ) from None
    key = (device.uid, schedule)
    sched = _schedulers.get(key)
    if sched is None:
        with _schedulers_lock:
            sched = _schedulers.get(key)
            if sched is None:
                sched = cls(device)
                _schedulers[key] = sched
    return sched


def shutdown_schedulers() -> None:
    """Tear down all cached schedulers (idempotent).

    Also registered with ``atexit``: Python's own executor teardown runs
    *after* atexit callbacks (during threading shutdown), so the pools
    are drained here first, while the rest of the library is still
    intact.  Tests call it directly between env permutations.
    """
    with _schedulers_lock:
        scheds = list(_schedulers.values())
        _schedulers.clear()
    for s in scheds:
        shutdown = getattr(s, "shutdown", None)
        if shutdown is not None:
            shutdown()


atexit.register(shutdown_schedulers)
