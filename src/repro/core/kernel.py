"""Kernel protocol and kernel execution tasks.

A kernel is the bridge between host and accelerator code (paper
Sec. 3.4.1): any callable whose first parameter is the accelerator::

    class AxpyKernel:
        @fn_acc
        def __call__(self, acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] += alpha * x[i]

Host code never calls a kernel directly.  It *binds* an accelerator
type, a work division, the kernel and its arguments into a
:class:`KernelTask` (paper Listing 5's ``exec::create``) and enqueues
the task into a device queue; the queue hands the task to the
accelerator's executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from .errors import KernelError
from .workdiv import WorkDivMembers

__all__ = [
    "fn_acc",
    "fn_host",
    "fn_host_acc",
    "is_acc_callable",
    "KernelTask",
    "create_task_kernel",
]

_FN_KIND_ATTR = "__alpaka_fn_kind__"


def _mark(kind: str):
    def deco(fn: Callable) -> Callable:
        setattr(fn, _FN_KIND_ATTR, kind)
        return fn

    return deco


#: Marks a function as callable from accelerator code
#: (``ALPAKA_FN_ACC``).  Purely declarative in Python — there is no
#: separate device compiler — but the marker is honoured by the symbolic
#: tracer and checked by tests, preserving the source-level contract.
fn_acc = _mark("acc")

#: Marks a host-only function (``ALPAKA_FN_HOST``).
fn_host = _mark("host")

#: Marks a function callable from both sides (``ALPAKA_FN_HOST_ACC``).
fn_host_acc = _mark("host_acc")


def is_acc_callable(fn: Callable) -> bool:
    """True when ``fn`` (or its ``__call__``) is marked ``fn_acc`` or
    ``fn_host_acc``.  Unmarked callables are treated as accelerator
    callable for convenience, mirroring how alpaka only *requires* the
    macro when a device compiler is in play."""
    kind = getattr(fn, _FN_KIND_ATTR, None)
    if kind is None:
        call = getattr(type(fn), "__call__", None)
        if call is not None:
            kind = getattr(call, _FN_KIND_ATTR, None)
    return kind in (None, "acc", "host_acc")


def kernel_name(kernel: Callable) -> str:
    """The label of ``kernel`` in metrics, logs, reports and errors: a
    function's ``__name__``, a functor's class name."""
    return getattr(kernel, "__name__", type(kernel).__name__)


@dataclass(frozen=True)
class KernelTask:
    """A kernel bound to an accelerator type, work division and arguments
    (the *executor* of paper Sec. 3.4.6).

    The task is inert until enqueued; enqueuing the same task twice
    re-runs the kernel, which is well defined because tasks hold no
    execution state.
    """

    acc_type: type
    work_div: WorkDivMembers
    kernel: Callable
    args: Tuple[Any, ...] = ()
    #: Dynamic block shared memory per block, in bytes (CUDA's third
    #: launch parameter / alpaka's BlockSharedMemDyn).  Retrieved inside
    #: the kernel with ``acc.shared_mem_dyn(dtype)``.
    shared_mem_bytes: int = 0
    #: Block schedule this one task is planned under, ahead of
    #: ``REPRO_SCHEDULER`` and any tuned schedule.  Internal: the
    #: autotuner sets it on the tasks it measures, so comparing
    #: schedules never changes how other threads' launches are planned.
    schedule: Optional[str] = None
    #: The plan this task last resolved to, and under what (see
    #: :func:`repro.runtime.get_plan`): a cache the runtime sets, never
    #: part of the task's identity.
    _plan_binding: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.shared_mem_bytes < 0:
            raise KernelError("shared_mem_bytes must be non-negative")
        if not callable(self.kernel):
            raise KernelError(f"kernel must be callable, got {self.kernel!r}")
        if not is_acc_callable(self.kernel):
            raise KernelError(
                f"kernel {self.kernel!r} is marked host-only (fn_host); "
                "mark it fn_acc or fn_host_acc"
            )

    def execute(self, device) -> None:
        """Run the bound kernel on ``device`` via the accelerator's
        executor.  Called by queues; user code should enqueue instead."""
        self.acc_type.execute(self, device)

    def __repr__(self) -> str:
        return (
            f"KernelTask({self.acc_type.__name__}, {self.work_div}, "
            f"kernel={kernel_name(self.kernel)}, {len(self.args)} args)"
        )


def create_task_kernel(
    acc_type: type,
    work_div: WorkDivMembers,
    kernel: Callable,
    *args: Any,
    shared_mem_bytes: int = 0,
) -> KernelTask:
    """Bind kernel + arguments + work division for an accelerator type
    (``alpaka::exec::create`` / ``createTaskKernel``).

    ``shared_mem_bytes`` reserves dynamic block shared memory, sized at
    launch time rather than in kernel source (CUDA ``<<<g, b, smem>>>``
    semantics).  The work division is validated lazily against the
    concrete device at enqueue time, because the same task may target
    any device of the accelerator's platform.
    """
    return KernelTask(
        acc_type=acc_type,
        work_div=work_div,
        kernel=kernel,
        args=args,
        shared_mem_bytes=shared_mem_bytes,
    )
