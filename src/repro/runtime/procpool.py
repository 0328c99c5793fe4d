"""Process-pool block dispatch: spawn-safe workers + launch marshaling.

This module is the other half of
:class:`repro.runtime.scheduler.ProcessPoolScheduler`.  Everything that
crosses the process boundary lives here, at module top level, so the
``spawn`` start method can re-import it in workers:

* :func:`marshal_launch` — the parent-side classification.  Run once per
  (plan, args) pair and memoised on the plan, it decides whether a
  launch may run multi-process and, if so, serialises the *launch
  payload*: the kernel (by pickle), the work division, the projected
  device properties, and an argument spec in which shared-memory buffers
  are :class:`~repro.mem.shm.ShmArraySpec` descriptors instead of data.
  Ineligible launches (multi-thread blocks, private-memory buffers,
  unpicklable kernels) carry a human-readable reason; the scheduler logs
  it and falls back to the thread pool — never a silent wrong answer.
* :func:`run_chunk` — the worker-side entry point.  Rebuilds the grid
  context (cached per payload digest, so warm launches skip unpickling
  and re-attachment), maps shm arguments zero-copy, and runs its span of
  blocks with the same single-thread block runner the in-process
  schedulers use.
* :class:`ProcessSharedAtomicDomain` — global-memory atomics for
  multi-process grids.  The scheduler creates one table of
  ``multiprocessing.Lock`` stripes per pool and hands it to workers at
  spawn; atomics hash the *element index* onto a stripe (array identity
  is not stable across processes), serialising read-modify-write on the
  shared pages exactly like the striped in-process
  :class:`~repro.atomic.ops.AtomicDomain` does for threads.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .. import knobs
from ..atomic.ops import AtomicDomain
from ..core.errors import KernelError
from ..core.kernel import kernel_name

__all__ = [
    "ATOMIC_STRIPES",
    "ProcessLaunchState",
    "ProcessSharedAtomicDomain",
    "marshal_launch",
    "process_launch_state",
    "run_chunk",
    "worker_init",
    "reset_worker_state",
]

#: Stripe count of the process-shared atomic lock table (one
#: ``multiprocessing.Lock`` each, created per pool).
ATOMIC_STRIPES = 64


# ---------------------------------------------------------------------------
# Parent side: capability classification + payload marshaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessLaunchState:
    """The memoised outcome of classifying one (plan, args) launch."""

    eligible: bool
    #: Why the launch cannot run multi-process ("" when eligible).
    reason: str
    #: Classified form of ``reason`` — the fallback metric/log key.
    slug: str = ""
    #: Pickled launch payload (kernel, work-div, props, shared-mem
    #: bytes, args spec); None when ineligible.
    blob: Optional[bytes] = None
    #: Digest of ``blob`` — the workers' payload-cache key.
    digest: str = ""


def _ineligible(slug: str, reason: str) -> ProcessLaunchState:
    return ProcessLaunchState(eligible=False, reason=reason, slug=slug)


def marshal_launch(plan, task) -> ProcessLaunchState:
    """Classify ``task`` under ``plan`` for multi-process dispatch.

    The capability rules (each names its reason when violated):

    * blocks must be single-thread — preemptive/cooperative in-block
      barriers cannot span processes;
    * every ``Buffer`` / ``ViewSubView`` argument must be shm-backed —
      private numpy memory would have to be pickled per launch and
      written results would be lost;
    * the kernel and its scalar arguments must pickle under ``spawn``.

    Residency checks run here, parent-side, exactly once per launch
    configuration — workers trust the marshalled spec.
    """
    from ..acc.engine import run_block_single_thread
    from ..mem.buf import Buffer
    from ..mem.view import ViewSubView

    if (
        plan.block_runner is not run_block_single_thread
        and plan.work_div.block_thread_count != 1
    ):
        return _ineligible(
            "multi-thread-blocks",
            "multi-thread blocks need in-process barriers "
            f"(thread_execute={getattr(plan.acc_type, 'thread_execute', '?')!r})"
        )

    spec: List[Tuple[str, object]] = []
    for i, a in enumerate(task.args):
        if isinstance(a, Buffer):
            s = a.shm_spec()
            if s is None:
                return _ineligible(
                    "private-buffer",
                    f"argument {i} is a private-memory Buffer; allocate it "
                    "with mem.alloc(..., shm=True) (or REPRO_SHM_BUFFERS=1) "
                    "for zero-copy process dispatch"
                )
            plan.device.require_resident(a)
            spec.append(("shm", s))
        elif isinstance(a, ViewSubView):
            s = a.buf.shm_spec()
            if s is None:
                return _ineligible(
                    "private-buffer",
                    f"argument {i} is a view of a private-memory Buffer; "
                    "allocate the base buffer with shm=True"
                )
            plan.device.require_resident(a.buf)
            box = tuple(
                (int(o), int(e)) for o, e in zip(a.offset, a.extent)
            )
            spec.append(("shm", replace(s, box=box)))
        else:
            spec.append(("val", a))

    payload = (
        task.kernel,
        plan.work_div,
        plan.props,
        plan.shared_mem_bytes,
        tuple(spec),
    )
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - any pickling failure falls back
        return _ineligible(
            "unpicklable",
            f"kernel {kernel_name(task.kernel)!r} (or an argument) does not "
            f"pickle under the spawn start method: {exc!r}"
        )
    return ProcessLaunchState(
        eligible=True,
        reason="",
        blob=blob,
        digest=hashlib.sha1(blob).hexdigest(),
    )


def process_launch_state(plan, task) -> ProcessLaunchState:
    """``marshal_launch`` memoised on the plan per args-tuple identity —
    re-enqueueing the same frozen task re-uses the marshalled payload,
    so warm launches pay zero classification or pickling cost."""
    cached = getattr(plan, "_proc_state", None)
    if cached is not None and cached[0] is task.args:
        return cached[1]
    state = marshal_launch(plan, task)
    plan._proc_state = (task.args, state)
    return state


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class ProcessSharedAtomicDomain(AtomicDomain):
    """Striped atomics over a table of process-shared locks.

    ``id(arr)`` differs across processes for the *same* shared-memory
    array, so stripes hash the element index alone — two distinct
    arrays hitting the same stripe merely contend, they never corrupt.
    """

    def __init__(self, locks):
        if not locks:
            raise ValueError("need a non-empty process lock table")
        self._locks = tuple(locks)

    def _lock_for(self, arr, idx):
        if isinstance(idx, (tuple, list)):
            key = hash(tuple(int(i) for i in idx))
        else:
            key = hash(int(idx))
        return self._locks[key % len(self._locks)]


class _WorkerDevice:
    """Stand-in for :class:`repro.dev.device.Device` inside workers.

    Carries just enough identity for ``acc.device`` introspection;
    memory accounting and the simulated clock stay with the parent's
    real device (modeled time is advanced parent-side after dispatch).
    """

    __slots__ = ("name", "uid", "accessible_from_host")

    def __init__(self, name: str, uid: int):
        self.name = name
        self.uid = uid
        self.accessible_from_host = True

    def __repr__(self) -> str:
        return f"<WorkerDevice {self.name} (pid {os.getpid()})>"


#: Process-shared atomic lock table, installed once per worker at spawn.
_locks: Optional[tuple] = None
#: payload digest -> (kernel, GridContext, block index tuple); bounded.
_payloads: "Dict[str, tuple]" = {}
_payloads_lock = threading.Lock()
_PAYLOAD_CACHE_MAX = 32


def worker_init(locks, env: Optional[Dict[str, str]] = None) -> None:
    """Pool initializer: install the shared lock table and mirror the
    parent's repro-relevant environment (guard mode etc.)."""
    global _locks
    _locks = tuple(locks)
    if env:
        knobs.import_env(env)


def reset_worker_state() -> None:
    """Drop worker caches (tests; also safe in the parent)."""
    from ..mem.shm import release_worker_attachments

    with _payloads_lock:
        _payloads.clear()
    release_worker_attachments()


def _materialize(digest: str, blob: bytes, device_name: str, device_uid: int):
    """Payload -> (kernel, grid, block_indices), cached per digest."""
    with _payloads_lock:
        state = _payloads.get(digest)
    if state is not None:
        return state

    from ..acc.base import GridContext
    from ..acc.engine import iter_indices
    from ..mem.guard import guard
    from ..mem.shm import ShmArraySpec, attach_array

    kernel, wd, props, shared_mem_bytes, spec = pickle.loads(blob)
    args = tuple(
        guard(attach_array(payload))
        if tag == "shm" and isinstance(payload, ShmArraySpec)
        else payload
        for tag, payload in spec
    )
    grid = GridContext(
        _WorkerDevice(device_name, device_uid),
        wd,
        props,
        args,
        shared_mem_bytes=shared_mem_bytes,
    )
    if _locks is not None:
        grid.atomics = ProcessSharedAtomicDomain(_locks)
    state = (kernel, grid, tuple(iter_indices(wd.grid_block_extent)))
    with _payloads_lock:
        if len(_payloads) >= _PAYLOAD_CACHE_MAX:
            # Drop the oldest entry (insertion order); launches cycling
            # through more than _PAYLOAD_CACHE_MAX live configurations
            # merely re-unpickle, they never grow without bound.
            _payloads.pop(next(iter(_payloads)))
        _payloads[digest] = state
    return state


def run_chunk(
    digest: str,
    blob: bytes,
    start: int,
    stop: int,
    timed: bool,
    device_name: str = "device",
    device_uid: int = -1,
    trace: Optional[Dict[str, str]] = None,
):
    """Execute blocks ``start:stop`` (C order) of the payload's grid.

    Returns ``(pid, timings)`` where ``timings`` is a list of
    ``(block_linear_index, seconds)`` pairs when ``timed`` (observers
    registered parent-side) and None otherwise.  Errors are re-raised as
    plain-message :class:`~repro.core.errors.KernelError` — exception
    *causes* may hold unpicklable state and must not cross the process
    boundary.

    ``trace`` (a dict with a W3C ``"traceparent"``, sent only when the
    parent has an ambient :mod:`repro.telemetry.tracing` context)
    switches the return to ``(pid, timings, spans)``: the worker times
    the whole chunk as its own child span and ships it back as a plain
    dict — ``t0``/``t1`` are the worker's ``perf_counter`` readings,
    directly comparable with the parent's (one CLOCK_MONOTONIC
    machine-wide), which the parent replays via the ``on_worker_span``
    observer hook.  The 2-tuple shape without ``trace`` is the stable
    contract older callers rely on.
    """
    from ..acc.engine import run_block_single_thread

    ctx = None
    if trace is not None:
        from ..telemetry import tracing

        ctx = tracing.from_traceparent(trace.get("traceparent"))
        if ctx is not None:
            tracing.set_current(ctx)
    chunk_t0 = time.perf_counter() if ctx is not None else 0.0

    kernel, grid, block_indices = _materialize(
        digest, blob, device_name, device_uid
    )
    timings: Optional[List[Tuple[int, float]]] = [] if timed else None
    try:
        for k in range(start, stop):
            bidx = block_indices[k]
            t0 = time.perf_counter() if timed else 0.0
            try:
                run_block_single_thread(grid, bidx, kernel, grid.args)
            except BaseException as exc:  # noqa: BLE001 - crosses the pipe
                if isinstance(exc, KernelError):
                    msg = str(exc)
                else:
                    msg = (
                        f"kernel {kernel_name(kernel)!r} failed in block "
                        f"{bidx!r}: {exc!r}"
                    )
                # Flight recorder: workers arm themselves from the
                # mirrored REPRO_* env at import, so a worker-side crash
                # leaves a worker-side dump (trace ids included via the
                # ambient context installed above).
                from ..telemetry import flight

                if flight.active():
                    rec = flight.recorder()
                    if rec is not None:
                        rec.record("worker_block_crash", error=msg, block=k)
                        rec.dump("worker_block_crash", error=msg)
                raise KernelError(
                    f"{msg} [process worker pid {os.getpid()}]"
                ) from None
            if timed:
                timings.append((k, time.perf_counter() - t0))
    finally:
        if ctx is not None:
            from ..telemetry import tracing

            tracing.set_current(None)
    if ctx is None:
        return os.getpid(), timings
    span = dict(ctx.ids())
    span.update(
        name="chunk",
        pid=os.getpid(),
        t0=chunk_t0,
        t1=time.perf_counter(),
        blocks=stop - start,
        start=start,
        stop=stop,
    )
    return os.getpid(), timings, [span]
