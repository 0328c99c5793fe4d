"""Accelerator interface: what a kernel sees (paper Sec. 3.4.1).

There are *no implicit built-in variables or functions* in alpaka — all
information flows through the accelerator object passed as the kernel's
first argument.  :class:`Accelerator` is that object: one instance per
executing thread, giving access to

* the work division and the thread's indices (via
  :func:`repro.core.index.get_idx` / ``get_work_div``),
* block synchronisation (``sync_block_threads``),
* block shared memory (``shared_mem`` / ``shared_var``),
* atomics, math, and per-thread random streams.

:class:`AcceleratorType` is the back-end descriptor host code names in
its one retargeting line (``Acc = AccCpuSerial``): it knows its
platform, its device properties, its preferred Table 2 mapping, and how
to execute a bound kernel task.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..atomic.ops import AtomicDomain
from ..core.errors import KernelError, SharedMemError
from ..core.index import Grid, Threads, get_idx, get_work_div, linearize
from ..core.properties import AccDevProps
from ..core.vec import Vec
from ..core.workdiv import MappingStrategy, WorkDivMembers
from ..dev.device import Device
from ..math.ops import DEFAULT_MATH, MathOps
from ..rand.philox import PhiloxRng

__all__ = ["GridContext", "BlockContext", "Accelerator", "AcceleratorType"]

#: :func:`repro.runtime.launch`, bound by the first launch: the runtime
#: imports this module, so the name cannot be imported here, and a
#: function-level import would be resolved again on every launch.
_launch = None

#: Serialises the first-use creation of any grid's atomic domain, so two
#: blocks racing to the first atomic of a launch share one lock table.
_atomics_init_lock = threading.Lock()


class GridContext:
    """State shared by every thread of one kernel launch."""

    def __init__(
        self,
        device: Device,
        work_div: WorkDivMembers,
        props: AccDevProps,
        args: Tuple,
        shared_mem_bytes: int = 0,
        monitor=None,
    ):
        self.device = device
        self.work_div = work_div
        self.props = props
        self.args = args
        self.shared_mem_bytes = shared_mem_bytes
        self._atomics: Optional[AtomicDomain] = None
        #: Sanitizer hook (:class:`repro.sanitize.monitor.SanitizeMonitor`)
        #: or None.  When set, the engine announces thread begin/end,
        #: barrier passage and shared allocations to it.
        self.monitor = monitor

    @property
    def atomics(self) -> AtomicDomain:
        """The grid-scope atomic domain, created by the first atomic
        operation of the launch (most kernels perform none, and a domain
        is 64 lock allocations)."""
        domain = self._atomics
        if domain is None:
            with _atomics_init_lock:
                domain = self._atomics
                if domain is None:
                    domain = self._atomics = AtomicDomain()
        return domain


class BlockContext:
    """State shared by the threads of one block: shared memory and the
    synchronisation primitive the engine installed."""

    def __init__(
        self,
        grid: GridContext,
        block_idx: Vec,
        sync: Optional[Callable[[], None]],
    ):
        self.grid = grid
        self.block_idx = block_idx
        wd = grid.work_div
        #: Grid-relative index of the block's first thread: the part of
        #: ``get_idx(acc, Grid, Threads)`` every thread of the block shares.
        self.thread_origin = (
            block_idx
            if wd.block_thread_count == 1
            else block_idx * wd.block_thread_extent
        )
        self._sync = sync
        self._shared: Dict[str, np.ndarray] = {}
        self._shared_bytes = 0
        self._shared_lock = threading.Lock()

    def sync(self) -> None:
        monitor = self.grid.monitor
        if self._sync is None:
            if self.grid.work_div.block_thread_count == 1:
                # A lone thread is trivially synchronised, but the
                # barrier still separates its accesses into epochs.
                if monitor is not None:
                    monitor.on_sync(self)
                return
            raise KernelError(
                "sync_block_threads on a back-end without thread-level "
                "parallelism support"
            )
        self._sync()
        if monitor is not None:
            monitor.on_sync(self)

    def shared_alloc(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Allocate-or-get a named shared array.

        All threads of the block calling with the same name receive the
        same array (CUDA ``__shared__`` semantics); divergent shapes or
        dtypes across threads are a programming error and raise.
        """
        dt = np.dtype(dtype)
        with self._shared_lock:
            existing = self._shared.get(name)
            if existing is not None:
                if existing.shape != tuple(shape) or existing.dtype != dt:
                    raise SharedMemError(
                        f"divergent shared allocation {name!r}: "
                        f"{existing.shape}/{existing.dtype} vs {tuple(shape)}/{dt}"
                    )
                return existing
            nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            limit = self.grid.props.shared_mem_size_bytes
            if self._shared_bytes + nbytes > limit:
                raise SharedMemError(
                    f"block shared memory exhausted: {name!r} needs {nbytes} B, "
                    f"{limit - self._shared_bytes} B free of {limit} B"
                )
            arr = np.zeros(shape, dtype=dt)
            monitor = self.grid.monitor
            if monitor is not None:
                # One shadow wrapper per allocation, cached like the
                # array itself so every thread records into one history.
                arr = monitor.wrap_shared(name, arr, self)
            self._shared[name] = arr
            self._shared_bytes += nbytes
            return arr


class Accelerator:
    """The per-thread kernel-facing facade (``T_Acc acc``)."""

    __slots__ = (
        "_grid",
        "_block",
        "work_div",
        "grid_block_idx",
        "block_thread_idx",
        "math",
    )

    def __init__(
        self,
        grid: GridContext,
        block: BlockContext,
        thread_idx: Vec,
        math: MathOps = DEFAULT_MATH,
    ):
        self._grid = grid
        self._block = block
        # Identity / geometry: plain attributes, read by every index
        # query of the kernel body.
        self.work_div = grid.work_div
        self.grid_block_idx = block.block_idx
        self.block_thread_idx = thread_idx
        self.math = math

    @property
    def grid_thread_origin(self) -> Vec:
        """Grid-relative index of this block's first thread (computed
        once per block; ``get_idx`` adds the thread's own index)."""
        return self._block.thread_origin

    @property
    def device(self) -> Device:
        return self._grid.device

    @property
    def props(self) -> AccDevProps:
        return self._grid.props

    @property
    def warp_size(self) -> int:
        return self._grid.props.warp_size

    @property
    def block_thread_linear_idx(self) -> int:
        """This thread's flat index within its block (C order)."""
        return linearize(
            self.block_thread_idx, self._grid.work_div.block_thread_extent
        )

    @property
    def warp_idx(self) -> int:
        """Index of this thread's warp within the block.

        Warps partition the block's flat thread index space in chunks
        of ``warp_size`` — CUDA's convention, degenerating to one
        thread per "warp" on CPU back-ends (warp size 1)."""
        return self.block_thread_linear_idx // self.warp_size

    @property
    def lane_idx(self) -> int:
        """This thread's lane within its warp (``%laneid``)."""
        return self.block_thread_linear_idx % self.warp_size

    # -- synchronisation ---------------------------------------------------

    def sync_block_threads(self) -> None:
        """Barrier across the threads of this block
        (``syncBlockThreads`` / ``__syncthreads``)."""
        self._block.sync()

    # -- shared memory -------------------------------------------------------

    def shared_mem(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Block shared memory allocation (``declareSharedVar`` /
        ``getBlockSharedExternMem``); see
        :meth:`BlockContext.shared_alloc`."""
        if isinstance(shape, int):
            shape = (shape,)
        return self._block.shared_alloc(name, tuple(shape), dtype)

    def shared_var(self, name: str, dtype=np.float64) -> np.ndarray:
        """A scalar shared variable, returned as a 0-d-indexable length-1
        array so assignment (``v[0] = x``) is shared across threads."""
        return self._block.shared_alloc(name, (1,), dtype)

    def shared_mem_dyn(self, dtype=np.float64) -> np.ndarray:
        """The block's dynamic shared memory, sized at launch via
        ``create_task_kernel(..., shared_mem_bytes=...)`` and viewed as
        an array of ``dtype`` (``getDynSharedMem`` / CUDA ``extern
        __shared__``)."""
        nbytes = self._grid.shared_mem_bytes
        if nbytes == 0:
            raise SharedMemError(
                "kernel requested dynamic shared memory but the task was "
                "created with shared_mem_bytes=0"
            )
        count = nbytes // np.dtype(dtype).itemsize
        return self._block.shared_alloc("__dyn__", (count,), dtype)

    # -- atomics (grid scope; see AtomicDomain) -----------------------------

    def atomic_add(self, arr, idx, value):
        return self._grid.atomics.atomic_add(arr, idx, value)

    def atomic_sub(self, arr, idx, value):
        return self._grid.atomics.atomic_sub(arr, idx, value)

    def atomic_min(self, arr, idx, value):
        return self._grid.atomics.atomic_min(arr, idx, value)

    def atomic_max(self, arr, idx, value):
        return self._grid.atomics.atomic_max(arr, idx, value)

    def atomic_exch(self, arr, idx, value):
        return self._grid.atomics.atomic_exch(arr, idx, value)

    def atomic_cas(self, arr, idx, compare, value):
        return self._grid.atomics.atomic_cas(arr, idx, compare, value)

    def atomic_inc(self, arr, idx, limit):
        return self._grid.atomics.atomic_inc(arr, idx, limit)

    def atomic_dec(self, arr, idx, limit):
        return self._grid.atomics.atomic_dec(arr, idx, limit)

    def atomic_and(self, arr, idx, value):
        return self._grid.atomics.atomic_and_(arr, idx, value)

    def atomic_or(self, arr, idx, value):
        return self._grid.atomics.atomic_or_(arr, idx, value)

    def atomic_xor(self, arr, idx, value):
        return self._grid.atomics.atomic_xor(arr, idx, value)

    # -- randomness -----------------------------------------------------------

    def rng(self, seed: int) -> PhiloxRng:
        """A random stream unique to this thread (subsequence = global
        linear thread index), reproducible across back-ends."""
        gidx = get_idx(self, Grid, Threads)
        gext = get_work_div(self, Grid, Threads)
        return PhiloxRng(seed, linearize(gidx, gext))


class AcceleratorType:
    """Base class of back-end descriptors (``AccCpuSerial`` et al.).

    Back-ends are *types*, never instantiated: they carry class-level
    metadata and a classmethod executor.  This mirrors alpaka, where the
    accelerator is a template parameter and its instances exist only
    inside kernels.

    A back-end's execution strategy is the *declarative* pair
    ``(block_schedule, thread_execute)`` (paper Sec. 3.3's mapping):
    the launch runtime (:mod:`repro.runtime`) reads it when building a
    :class:`~repro.runtime.plan.LaunchPlan`; back-ends carry no pool or
    dispatch logic of their own.
    """

    #: Human-readable back-end name, e.g. "AccCpuSerial".
    name: str = "AccAbstract"
    #: Table 2 mapping this back-end prefers.
    mapping_strategy: MappingStrategy = MappingStrategy.THREAD_LEVEL
    #: Whether block threads can synchronise (False forces 1 thread/block).
    supports_block_sync: bool = False
    #: "cpu" or "gpu" — the execution-style key the performance model uses.
    kind: str = "cpu"
    #: Which hierarchy level the back-end executes concurrently:
    #: "none" (serial, fibers), "blocks" (OpenMP-block), "threads"
    #: (OpenMP-thread, C++11 threads), or "both" (CUDA).  Consumed by
    #: the performance model to derive device utilisation.
    parallel_scope: str = "none"
    #: How the runtime schedules *blocks*: "sequential" (caller's
    #: thread, C order) or "pooled" (chunked over the per-device pool).
    block_schedule: str = "sequential"
    #: How *threads inside a block* execute: "single" (exactly one),
    #: "preemptive" (one OS thread each, real barrier) or "cooperative"
    #: (fibers, deterministic round-robin).
    thread_execute: str = "single"

    def __init__(self):  # pragma: no cover - defensive
        raise TypeError(
            f"{type(self).__name__} is a back-end descriptor; it is never "
            "instantiated (accelerator instances appear only inside kernels)"
        )

    # -- to be provided by concrete back-ends ------------------------------

    @classmethod
    def platform(cls):
        raise NotImplementedError

    @classmethod
    def get_acc_dev_props(cls, dev: Device) -> AccDevProps:
        raise NotImplementedError

    @classmethod
    def execute(cls, task, device: Device) -> None:
        """Run ``task`` on ``device`` through the unified runtime
        (Task → Plan → Execute); see :func:`repro.runtime.launch`."""
        global _launch
        if _launch is None:
            from ..runtime import launch as _launch
        _launch(task, device)
