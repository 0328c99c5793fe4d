"""The launch monitor: per-thread sanitizer context and engine hooks.

One :class:`SanitizeMonitor` exists per sanitized launch, installed on
the :class:`~repro.acc.base.GridContext` (``grid.monitor``).  The
engine's thread runners announce thread begin/end, the block context
announces barrier passage (``on_sync`` = epoch bump) and shared
allocations (wrapped into shadow arrays), and the recorder asks it for
the current thread's (block, thread, epoch, atomic) context on every
access.

Divergence detection: each thread's *final* epoch (its completed
barrier count) is collected at ``thread_end``; a block whose threads
finished at different epochs had divergent ``sync_block_threads``
behaviour — some threads exited while siblings kept syncing — which is
undefined on CUDA and reported as a ``barrier-divergence`` finding.

Schedule fuzzing: when constructed with a seeded RNG the monitor's
``on_access`` hook (called by the recorder after every recorded
access) injects cooperative preemption points, yielding the fiber
baton to a randomly chosen ready sibling.  Preemption is suppressed
inside atomic sections — suspending a fiber that holds an atomic
stripe lock would deadlock the one-runs-at-a-time scheduler.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .recorder import NONE, AccessRecorder
from .report import Finding
from .shadow import ShadowArray

__all__ = ["SanitizeMonitor", "ThreadContext"]


class ThreadContext:
    """Snapshot of one kernel thread's sanitizer coordinates."""

    __slots__ = ("block", "thread", "epoch", "atomic")

    def __init__(self, block: int, thread: int, epoch: int, atomic: int):
        self.block = block
        self.thread = thread
        self.epoch = epoch
        self.atomic = atomic


class _OutsideKernel(ThreadContext):
    def __init__(self):
        super().__init__(NONE, NONE, 0, 0)


_OUTSIDE = _OutsideKernel()


class SanitizeMonitor:
    """Engine-facing hooks + thread-local context for one launch."""

    def __init__(
        self,
        recorder: AccessRecorder,
        fuzz_rng=None,
        preempt_probability: float = 0.25,
    ):
        self.recorder = recorder
        self.fuzz_rng = fuzz_rng
        self.preempt_probability = preempt_probability
        self._tls = threading.local()
        self._lock = threading.Lock()
        # block_lin -> {thread_lin: final_epoch}
        self._final_epochs: Dict[int, Dict[int, int]] = {}
        self._aborted_blocks: set = set()
        #: The observed launch span's attributes (None unobserved): the
        #: finding count lands there before the span closes.
        self.span_attrs: Optional[dict] = None

    # -- linearisation helpers ------------------------------------------

    def _block_lin(self, block_idx) -> int:
        from ..core.index import linearize

        return linearize(block_idx, self.recorder.work_div.grid_block_extent)

    def _thread_lin(self, thread_idx) -> int:
        from ..core.index import linearize

        return linearize(thread_idx, self.recorder.work_div.block_thread_extent)

    # -- engine hooks ----------------------------------------------------

    def thread_begin(self, block, thread_idx, scheduler=None) -> None:
        tls = self._tls
        tls.ctx = ThreadContext(
            self._block_lin(block.block_idx), self._thread_lin(thread_idx), 0, 0
        )
        tls.sched = scheduler

    def thread_end(self, block, thread_idx) -> None:
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            return
        with self._lock:
            self._final_epochs.setdefault(ctx.block, {})[ctx.thread] = ctx.epoch
        self._tls.ctx = None
        self._tls.sched = None

    def on_sync(self, block_ctx) -> None:
        ctx = getattr(self._tls, "ctx", None)
        if ctx is not None:
            ctx.epoch += 1

    def wrap_shared(self, name: str, arr, block_ctx) -> ShadowArray:
        ctx = self.context()
        block = (
            self._unlin_block(ctx.block) if ctx.block != NONE else "?"
        )
        tracked = self.recorder.track(
            f"shared[{name}]@block{block}", arr, scope="shared"
        )
        return ShadowArray.wrap_root(arr, tracked)

    def _unlin_block(self, lin: int) -> Tuple[int, ...]:
        import numpy as np

        return tuple(
            int(v)
            for v in np.unravel_index(
                int(lin), tuple(self.recorder.work_div.grid_block_extent)
            )
        )

    # -- recorder-facing -------------------------------------------------

    def context(self) -> ThreadContext:
        """The calling OS thread's sanitizer coordinates (a shared
        outside-kernel sentinel when not inside a kernel thread)."""
        ctx = getattr(self._tls, "ctx", None)
        return ctx if ctx is not None else _OUTSIDE

    def atomic_section(self):
        """Context manager marking the enclosed accesses atomic."""
        return _AtomicSection(self.context())

    def on_access(self) -> None:
        """Called by the recorder after each recorded access (with its
        lock released): the schedule fuzzer's preemption point."""
        rng = self.fuzz_rng
        if rng is None:
            return
        sched = getattr(self._tls, "sched", None)
        ctx = getattr(self._tls, "ctx", None)
        if sched is None or ctx is None or ctx.atomic:
            return
        if rng.random() < self.preempt_probability:
            sched.preempt()

    # -- divergence ------------------------------------------------------

    def skip_block(self, block_lin: int) -> None:
        """Exclude a block from divergence analysis (it aborted on an
        error/finding, so unequal final epochs are expected)."""
        with self._lock:
            self._aborted_blocks.add(block_lin)

    def divergence_findings(self, seed: Optional[int] = None) -> List[Finding]:
        out: List[Finding] = []
        wd = self.recorder.work_div
        with self._lock:
            for block_lin, epochs in sorted(self._final_epochs.items()):
                if block_lin in self._aborted_blocks or len(epochs) < 2:
                    continue
                lo, hi = min(epochs.values()), max(epochs.values())
                if lo == hi:
                    continue
                lo_t = min(t for t, e in epochs.items() if e == lo)
                hi_t = min(t for t, e in epochs.items() if e == hi)
                out.append(
                    Finding(
                        kind="barrier-divergence",
                        array="sync_block_threads",
                        detail=(
                            f"threads of the block passed different numbers "
                            f"of barriers ({lo} vs {hi}): e.g. thread "
                            f"{self._unlin_thread(lo_t, wd)} exited after "
                            f"{lo} sync(s) while thread "
                            f"{self._unlin_thread(hi_t, wd)} reached {hi}"
                        ),
                        block=self._unlin_block(block_lin),
                        seed=seed,
                    )
                )
        return out

    def _unlin_thread(self, lin: int, wd) -> Tuple[int, ...]:
        import numpy as np

        return tuple(
            int(v)
            for v in np.unravel_index(int(lin), tuple(wd.block_thread_extent))
        )


class _AtomicSection:
    __slots__ = ("_ctx",)

    def __init__(self, ctx: ThreadContext):
        self._ctx = ctx

    def __enter__(self):
        self._ctx.atomic += 1
        return self

    def __exit__(self, *exc) -> bool:
        self._ctx.atomic -= 1
        return False
