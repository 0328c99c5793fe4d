"""The unified launch runtime: Task → Plan → Execute.

Every back-end routes kernel launches through :func:`launch`:

1. **Task** — the inert :class:`~repro.core.kernel.KernelTask` built by
   ``create_task_kernel`` (unchanged public API);
2. **Plan** — :mod:`repro.runtime.plan` resolves (or rebuilds) a
   :class:`LaunchPlan` carrying the validated work division, projected
   device properties, chosen thread-level runner and block-level
   schedule, with an LRU cache so repeated launches skip validation;
3. **Execute** — :mod:`repro.runtime.scheduler` dispatches the blocks,
   sequentially or chunked over a persistent per-device worker pool.

Instrumentation (:mod:`repro.runtime.instrument`) observes every stage;
back-ends declare their strategy pair declaratively::

    class AccCpuOmp2Blocks(AccCpu):
        block_schedule = "pooled"      # blocks over the device pool
        thread_execute = "single"      # one thread per block

and never touch pool or validation logic themselves.
"""

from __future__ import annotations

from ..acc.timing import modeled_seconds
from ..sanitize import _state as _sanitize_state
from ..telemetry import flight
from ..telemetry.spans import NULL_SPAN, Span
from . import instrument as _instrument
from .instrument import (
    CountingObserver,
    ExecutionObserver,
    notify_plan_cache,
    notify_queue_drain,
    notify_sanitizer_report,
    observe,
    observers,
    register_observer,
    unregister_observer,
)
from .plan import (
    GRAPH_PLAN_CACHE_MAXSIZE,
    PLAN_CACHE_MAXSIZE,
    ArgsRecord,
    GraphPlan,
    LaunchPlan,
    build_plan,
    clear_graph_plan_cache,
    clear_plan_cache,
    get_graph_plan,
    get_plan,
    graph_plan_cache_info,
    plan_cache_info,
)
from .scheduler import (
    MAX_BLOCK_WORKERS,
    MAX_BLOCK_WORKERS_ENV,
    SCHEDULER_ENV,
    CompiledScheduler,
    PooledScheduler,
    Scheduler,
    SequentialScheduler,
    chunk_indices,
    resolve_max_block_workers,
    resolve_scheduler_override,
    scheduler_for,
    shutdown_schedulers,
)

__all__ = [
    "launch",
    "execute_plan",
    # plan
    "LaunchPlan",
    "ArgsRecord",
    "build_plan",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "PLAN_CACHE_MAXSIZE",
    # graph plan
    "GraphPlan",
    "get_graph_plan",
    "clear_graph_plan_cache",
    "graph_plan_cache_info",
    "GRAPH_PLAN_CACHE_MAXSIZE",
    # scheduler
    "Scheduler",
    "SequentialScheduler",
    "PooledScheduler",
    "CompiledScheduler",
    "scheduler_for",
    "shutdown_schedulers",
    "chunk_indices",
    "resolve_max_block_workers",
    "resolve_scheduler_override",
    "MAX_BLOCK_WORKERS",
    "MAX_BLOCK_WORKERS_ENV",
    "SCHEDULER_ENV",
    # instrumentation
    "ExecutionObserver",
    "CountingObserver",
    "register_observer",
    "unregister_observer",
    "observers",
    "observe",
    "notify_queue_drain",
    "notify_plan_cache",
    "notify_sanitizer_report",
]


def launch(task, device) -> "LaunchPlan":
    """Run ``task``'s grid on ``device`` through the runtime pipeline.

    Returns the (possibly cached) :class:`LaunchPlan` that executed, so
    callers can inspect scheduling decisions.  This is the single entry
    point behind every back-end's ``execute``.

    When the sanitizer is active (``REPRO_SANITIZE=1`` or
    :func:`repro.sanitize.enabled`), the launch detours through the
    instrumented path — same plan, same observers, shadowed arguments —
    and findings land in the session report.
    """
    if _sanitize_state.active():
        from ..sanitize.runner import sanitized_launch

        return sanitized_launch(task, device)

    return execute_plan(get_plan(task, device), task, device)


def execute_plan(plan, task, device, grid=None, scheduler=None) -> "LaunchPlan":
    """The Execute stage: dispatch an already-resolved ``plan``.

    The only launch sequence in the package — device launch accounting,
    the launch span, dispatch, modeled-time advance and the failure path
    live here and nowhere else; the routes differ only in who supplies
    ``grid`` (an :class:`ArgsRecord`) and ``scheduler``.  :func:`launch`
    passes neither (the plan's record for the task's argument tuple,
    the plan's schedule); inline graph replay (:mod:`repro.graph`)
    binds the node's own record and scheduler, so a replayed node pays
    neither plan lookup nor grid construction; the sanitizer
    (:mod:`repro.sanitize.runner`) passes a shadow-argument record and
    its per-block triage scheduler.

    A record remembers its launch's modeled seconds, so a warm launch
    asks the kernel for its ``characteristics`` no more; the launch is
    counted and the clock advanced in one device call, inside the span.

    Observers see the launch once, as the ``"launch"`` span closing
    (``span.error`` set when the kernel raised); unobserved, the launch
    enters the shared ``NULL_SPAN`` and builds nothing.
    """
    if grid is None:
        grid = plan.record_for(task)
    sched = scheduler or scheduler_for(device, plan.schedule)
    plan.launches += 1
    region = (
        Span("launch", "launch", device, {"plan": plan})
        if _instrument._observers
        else NULL_SPAN
    )
    crashed = True
    try:
        with region:
            seconds = 0.0
            try:
                sched.dispatch(plan, grid, plan.block_indices, task)
                seconds = grid.seconds
                if seconds is None:
                    seconds = grid.seconds = modeled_seconds(
                        task, device, plan.acc_type.kind, plan.work_div,
                        plan._modeled,
                    )
            finally:
                # Counted whether or not the kernel completed; the clock
                # moves only for a launch that did.
                device.note_kernel_launch(seconds)
            crashed = False
    except BaseException as exc:  # noqa: BLE001 - re-raised; only the flight dump is added
        # The span closed first, so observers (and the flight ring) hold
        # the failed launch.  An observer raising on a clean launch
        # propagates to the caller but is no kernel crash; the dispatch
        # completed either way, so the scheduler pool stays usable.
        if crashed and flight.active():
            flight.on_kernel_crash(plan, exc)
        raise
    return plan
