"""Grid execution engines shared by the back-ends.

A back-end is the composition of two choices (paper Sec. 3.3's mapping):

* how *blocks* of the grid are scheduled (sequentially, or across a
  worker pool — the OpenMP-block strategy), and
* how *threads inside a block* are executed:

  - :func:`run_block_single_thread` — the block has exactly one thread
    (serial / OpenMP-block back-ends; the element level carries SIMD),
  - :func:`run_block_preemptive` — one OS thread per block thread with a
    real barrier (C++11-threads, OpenMP-thread, CUDA-sim back-ends),
  - :func:`run_block_cooperative` — fibers: block threads share one core
    and yield to each other only at synchronisation points
    (boost::fibers back-end).  Execution is deterministic round-robin,
    which makes it the back-end of choice for debugging race-like
    behaviour — same as in alpaka.

Block-level scheduling (sequential vs. chunked worker-pool dispatch)
lives in :mod:`repro.runtime.scheduler`; this module only provides the
thread-level runners the runtime composes into launch plans.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterator, Optional, Tuple

from ..core.errors import KernelError
from ..core.kernel import kernel_name
from ..core.vec import MAX_DIM, Vec
from ..dev.device import Device
from ..mem.buf import Buffer
from ..mem.view import ViewSubView
from .base import Accelerator, BlockContext, GridContext

__all__ = [
    "unwrap_args",
    "iter_indices",
    "run_block_single_thread",
    "run_block_preemptive",
    "run_block_cooperative",
]


def unwrap_args(args: Tuple, device: Device) -> Tuple:
    """Turn host-side kernel arguments into device-side ones.

    Buffers become their numpy arrays after a residency check (the
    moral equivalent of passing the device pointer); everything else
    passes through untouched — alpaka kernels take arguments by value.
    """
    return tuple(
        a.kernel_array(device) if isinstance(a, (Buffer, ViewSubView)) else a
        for a in args
    )


def iter_indices(extent: Vec) -> Iterator[Vec]:
    """All n-dim indices inside ``extent``, C order."""
    for tup in itertools.product(*(range(e) for e in extent)):
        yield Vec(*tup)


# ---------------------------------------------------------------------------
# Block runners
# ---------------------------------------------------------------------------

#: dim -> the all-zero index, the thread index of every one-thread block.
_ZERO_IDX = {dim: Vec.zeros(dim) for dim in range(1, MAX_DIM + 1)}


def run_block_single_thread(
    grid: GridContext, block_idx: Vec, kernel: Callable, args: Tuple
) -> None:
    """Execute a one-thread block in the calling thread."""
    block = BlockContext(grid, block_idx, sync=None)
    thread_idx = _ZERO_IDX[grid.work_div.dim]
    acc = Accelerator(grid, block, thread_idx)
    monitor = grid.monitor
    if monitor is None:
        kernel(acc, *args)
        return
    monitor.thread_begin(block, thread_idx)
    try:
        kernel(acc, *args)
    finally:
        monitor.thread_end(block, thread_idx)


class _SiblingAbort(BaseException):
    """Internal unwind signal: a sibling thread of this block raised, so
    this thread must leave its barrier wait and exit quietly.

    Derives from ``BaseException`` so kernel-level ``except Exception``
    cleanup handlers never see (or swallow) it — user code previously
    observed a raw ``threading.BrokenBarrierError`` here, which leaked
    the engine's implementation and hid the sibling's real error.
    """


class _BlockBarrier:
    """Barrier over the *live* threads of one preemptive block.

    Unlike :class:`threading.Barrier` the party count adapts as threads
    exit: a generation completes when every thread that has not yet
    exited is waiting.  Divergent exits (some threads returning without
    reaching the barrier their siblings wait at) therefore release the
    waiters instead of deadlocking — the same contract the cooperative
    fiber scheduler pins in its tests, and the behaviour CUDA kernels
    in the wild rely on.  The sanitizer reports such divergence as a
    finding; the engine's job is merely never to hang.

    A kernel error (:meth:`on_error`) wakes all waiters with
    :class:`_SiblingAbort` so the original exception is what the block
    reports.
    """

    def __init__(self, n: int):
        self.cv = threading.Condition()
        self.n = n
        self.waiting = 0
        self.exited = 0
        self.generation = 0
        self.failed = False

    def _complete_locked(self) -> None:
        self.waiting = 0
        self.generation += 1
        self.cv.notify_all()

    def wait(self) -> None:
        with self.cv:
            if self.failed:
                raise _SiblingAbort()
            gen = self.generation
            self.waiting += 1
            if self.waiting + self.exited == self.n:
                self._complete_locked()
                return
            while self.generation == gen and not self.failed:
                self.cv.wait()
            if self.failed and self.generation == gen:
                raise _SiblingAbort()

    def on_exit(self) -> None:
        """A thread left the block (normally or not); if every other
        live thread sits at the barrier, release them."""
        with self.cv:
            self.exited += 1
            if (
                not self.failed
                and self.waiting
                and self.waiting + self.exited == self.n
            ):
                self._complete_locked()

    def on_error(self) -> None:
        with self.cv:
            self.failed = True
            self.cv.notify_all()


def _raise_block_errors(errors: list, kernel: Callable, block_idx: Vec) -> None:
    """Re-raise the first kernel error with thread/block context.

    The original exception is preserved as ``__cause__``; an error that
    is already a :class:`KernelError` (e.g. a nested contract violation
    that carries its own context) passes through unchanged.
    """
    if not errors:
        return
    thread_idx, exc = errors[0]
    if isinstance(exc, KernelError):
        raise exc
    raise KernelError(
        f"kernel {kernel_name(kernel)!r} failed in thread {thread_idx!r} of "
        f"block {block_idx!r}"
    ) from exc


def run_block_preemptive(
    grid: GridContext, block_idx: Vec, kernel: Callable, args: Tuple
) -> None:
    """Execute a block with one OS thread per block thread.

    ``sync_block_threads`` maps to a :class:`_BlockBarrier` across the
    block.  The first kernel exception aborts the barrier (so no
    sibling deadlocks) and is re-raised — wrapped with its thread and
    block indices — to the block scheduler; siblings unwind via the
    internal :class:`_SiblingAbort`, never a raw
    ``threading.BrokenBarrierError``.
    """
    wd = grid.work_div
    n = wd.block_thread_count
    if n == 1:
        run_block_single_thread(grid, block_idx, kernel, args)
        return

    barrier = _BlockBarrier(n)
    block = BlockContext(grid, block_idx, sync=barrier.wait)
    monitor = grid.monitor
    errors: list = []
    err_lock = threading.Lock()

    def body(thread_idx: Vec) -> None:
        acc = Accelerator(grid, block, thread_idx)
        if monitor is not None:
            monitor.thread_begin(block, thread_idx)
        try:
            kernel(acc, *args)
        except _SiblingAbort:
            pass  # a sibling failed; its error is the one to report
        except BaseException as exc:  # noqa: BLE001 - kernel code; collected per thread and re-raised by the block runner
            with err_lock:
                errors.append((thread_idx, exc))
            barrier.on_error()
        finally:
            barrier.on_exit()
            if monitor is not None:
                monitor.thread_end(block, thread_idx)

    threads = [
        threading.Thread(target=body, args=(tidx,), daemon=True)
        for tidx in iter_indices(wd.block_thread_extent)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _raise_block_errors(errors, kernel, block_idx)


class _FiberScheduler:
    """Cooperative round-robin scheduler for one block's fibers.

    Exactly one fiber runs at any time; control transfers only at
    barriers and fiber completion, giving deterministic interleaving.
    """

    READY, BARRIER, DONE = range(3)

    def __init__(self, n: int):
        self.n = n
        self.cv = threading.Condition()
        self.state = [self.READY] * n
        self.current = 0
        self._ident_to_fiber: dict = {}

    # -- identity ---------------------------------------------------------

    def register(self, fiber_id: int) -> None:
        with self.cv:
            self._ident_to_fiber[threading.get_ident()] = fiber_id

    def my_id(self) -> int:
        try:
            return self._ident_to_fiber[threading.get_ident()]
        except KeyError:
            raise KernelError(
                "sync_block_threads called from outside a fiber"
            ) from None

    # -- scheduling ---------------------------------------------------------

    def _next_ready_locked(self, after: int) -> Optional[int]:
        for k in range(1, self.n + 1):
            j = (after + k) % self.n
            if self.state[j] == self.READY:
                return j
        return None

    def _release_barrier_locked(self) -> None:
        for j, s in enumerate(self.state):
            if s == self.BARRIER:
                self.state[j] = self.READY

    def wait_turn(self, i: int) -> None:
        with self.cv:
            while not (self.current == i and self.state[i] == self.READY):
                self.cv.wait()

    def preempt(self) -> None:
        """Yield the baton to another ready fiber (if any) and wait for
        it to come back.  A no-op for the deterministic round-robin
        scheduler's users — only the sanitizer's fuzzing scheduler
        injects calls — but defined here so any scheduler can honour
        an injected yield point."""
        i = self.my_id()
        with self.cv:
            nxt = self._next_ready_locked(i)
            if nxt is None or nxt == i:
                return
            self.current = nxt
            self.cv.notify_all()
            while not (self.current == i and self.state[i] == self.READY):
                self.cv.wait()

    def barrier_wait(self) -> None:
        i = self.my_id()
        with self.cv:
            self.state[i] = self.BARRIER
            nxt = self._next_ready_locked(i)
            if nxt is None:
                # Everyone else is at the barrier or done: generation
                # complete; this fiber continues.
                self._release_barrier_locked()
                self.current = i
                return
            self.current = nxt
            self.cv.notify_all()
            while not (self.current == i and self.state[i] == self.READY):
                self.cv.wait()

    def finish(self, i: int) -> None:
        with self.cv:
            self.state[i] = self.DONE
            nxt = self._next_ready_locked(i)
            if nxt is None:
                # Remaining fibers (if any) all sit at a barrier while
                # this one exited — divergent sync, undefined on CUDA;
                # release them so the block terminates.
                self._release_barrier_locked()
                nxt = self._next_ready_locked(i)
            if nxt is not None:
                self.current = nxt
            self.cv.notify_all()


def run_block_cooperative(
    grid: GridContext,
    block_idx: Vec,
    kernel: Callable,
    args: Tuple,
    *,
    scheduler_factory: Callable[[int], _FiberScheduler] = _FiberScheduler,
) -> None:
    """Execute a block as cooperatively scheduled fibers (one at a time).

    ``scheduler_factory`` defaults to the deterministic round-robin
    :class:`_FiberScheduler`; the sanitizer's schedule fuzzer passes a
    seeded-random subclass to permute interleavings.
    """
    wd = grid.work_div
    n = wd.block_thread_count
    if n == 1:
        run_block_single_thread(grid, block_idx, kernel, args)
        return

    sched = scheduler_factory(n)
    block = BlockContext(grid, block_idx, sync=sched.barrier_wait)
    monitor = grid.monitor
    errors: list = []

    def body(fiber_id: int, thread_idx: Vec) -> None:
        sched.register(fiber_id)
        sched.wait_turn(fiber_id)
        acc = Accelerator(grid, block, thread_idx)
        if monitor is not None:
            monitor.thread_begin(block, thread_idx, scheduler=sched)
        try:
            kernel(acc, *args)
        except BaseException as exc:  # noqa: BLE001 - kernel code; collected per fiber and re-raised by the block runner
            errors.append((thread_idx, exc))
        finally:
            if monitor is not None:
                monitor.thread_end(block, thread_idx)
            sched.finish(fiber_id)

    fibers = [
        threading.Thread(target=body, args=(fid, tidx), daemon=True)
        for fid, tidx in enumerate(iter_indices(wd.block_thread_extent))
    ]
    for f in fibers:
        f.start()
    for f in fibers:
        f.join()
    _raise_block_errors(errors, kernel, block_idx)
