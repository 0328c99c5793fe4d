"""Launch plans: the "Plan" stage of the Task→Plan→Execute pipeline.

Binding a kernel task to a device used to re-derive everything on every
launch — work-division validation, device-property projection, shared
memory checks, block-runner selection.  A :class:`LaunchPlan` captures
all of that once; an LRU cache keyed on
``(back-end, kernel, work-div, device, shared-mem)`` lets repeated
launches of the same configuration skip straight to block dispatch —
the retuning loop of Matthes et al. (arXiv:1706.10086) relaunches one
kernel across work divisions thousands of times, and the plan cache is
what makes each relaunch O(dispatch) instead of O(validation).

Cache observability: every resolution announces itself through
:func:`repro.runtime.instrument.notify_plan_cache`, and the module
keeps global hit/miss counters (:func:`plan_cache_info`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..acc.base import GridContext
from ..core.errors import SharedMemError
from ..core.kernel import kernel_name
from ..core.properties import AccDevProps
from ..core.vec import Vec
from ..core.workdiv import AutoWorkDiv, WorkDivMembers, validate_work_div
from .instrument import notify_plan_cache
from .scheduler import chunk_indices, resolve_scheduler_override

__all__ = [
    "LaunchPlan",
    "get_plan",
    "build_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "PLAN_CACHE_MAXSIZE",
    "GraphPlan",
    "get_graph_plan",
    "clear_graph_plan_cache",
    "graph_plan_cache_info",
    "GRAPH_PLAN_CACHE_MAXSIZE",
]

#: Upper bound on cached plans; least-recently-used entries evict first.
PLAN_CACHE_MAXSIZE = 512

#: Upper bound on cached whole-graph plans (each holds its nodes'
#: :class:`LaunchPlan` and grid contexts, bound into ``node_ops``).
GRAPH_PLAN_CACHE_MAXSIZE = 64


def _thread_runners() -> Dict[str, Callable]:
    # Imported lazily: engine imports nothing from runtime, but keeping
    # the import out of module scope lets `repro.acc` load first.
    from ..acc.engine import (
        run_block_cooperative,
        run_block_preemptive,
        run_block_single_thread,
    )

    return {
        "single": run_block_single_thread,
        "preemptive": run_block_preemptive,
        "cooperative": run_block_cooperative,
    }


@dataclass
class LaunchPlan:
    """Everything about a launch that does not change between launches.

    Built once per ``(back-end, kernel, work-div, device, shared-mem)``
    configuration and reused; holds no per-launch state except counters.
    """

    acc_type: type
    kernel: Callable
    work_div: WorkDivMembers
    device: object
    #: Device properties already projected onto the work-div's dim.
    props: AccDevProps
    #: Thread-level executor (single / preemptive / cooperative).
    block_runner: Callable
    #: Block-level strategy key ("sequential" / "pooled" / "compiled").
    schedule: str
    shared_mem_bytes: int
    #: Materialised block index list (C order), shared by all launches.
    block_indices: Tuple[Vec, ...] = ()
    #: How many launches have executed through this plan.
    launches: int = 0
    #: Whether this plan instance was served from the cache at least once.
    served_from_cache: bool = False
    _args_src: Optional[tuple] = field(default=None, repr=False)
    _args_unwrapped: Optional[tuple] = field(default=None, repr=False)
    #: worker count -> chunked block_indices; see :meth:`chunks_for`.
    _chunks: Dict[int, list] = field(default_factory=dict, repr=False)
    #: argument signature -> compiled replay closure (or a cached
    #: fallback verdict); owned by :mod:`repro.compile.replay`.  Lives
    #: on the plan so the cache shares the plan's LRU lifetime and the
    #: trace happens once per (kernel, work-div, arg-shape), not per
    #: launch.
    _compiled: Dict = field(default_factory=dict, repr=False)
    #: (spec, kind, work-div, characteristics, scope) -> modeled seconds;
    #: owned and bounded by :func:`repro.acc.timing.advance_modeled_time`.
    _modeled: Dict = field(default_factory=dict, repr=False)

    def chunks_for(self, workers: int) -> list:
        """``chunk_indices(block_indices, workers)``, memoised.

        Chunking is pure geometry — same plan, same worker count, same
        chunks — so the pooled schedulers read it here instead of
        re-partitioning every warm launch.  (Benign race: two threads
        may compute the same value once each.)
        """
        chunks = self._chunks.get(workers)
        if chunks is None:
            chunks = chunk_indices(self.block_indices, workers)
            self._chunks[workers] = chunks
        return chunks

    def unwrap_args(self, args: tuple) -> tuple:
        """Device-side argument tuple for ``args``.

        Memoised on the identity of the host-side tuple: re-enqueueing
        the same (frozen) :class:`~repro.core.kernel.KernelTask` reuses
        the unwrapped arguments and their residency checks.
        """
        if args is self._args_src:
            return self._args_unwrapped  # type: ignore[return-value]
        from ..acc.engine import unwrap_args

        unwrapped = unwrap_args(args, self.device)
        self._args_src = args
        self._args_unwrapped = unwrapped
        return unwrapped

    def grid_for(self, task, args=None, monitor=None) -> GridContext:
        """The grid context of one launch of ``task`` under this plan.

        ``args`` replaces the task's unwrapped arguments (the sanitizer
        passes shadow arrays, with its ``monitor``)."""
        return GridContext(
            self.device,
            self.work_div,
            self.props,
            self.unwrap_args(task.args) if args is None else args,
            shared_mem_bytes=self.shared_mem_bytes,
            monitor=monitor,
        )

    def describe(self) -> str:
        return (
            f"LaunchPlan({self.acc_type.__name__}, "
            f"kernel={kernel_name(self.kernel)}, "
            f"{self.work_div}, dev={self.device!r}, "
            f"schedule={self.schedule}, launches={self.launches})"
        )


def _forced_schedule(task) -> Optional[str]:
    """The schedule ``task`` must be planned under regardless of
    tuning: its own, else the ``REPRO_SCHEDULER`` override, else None."""
    return getattr(task, "schedule", None) or resolve_scheduler_override()


def build_plan(task, device) -> LaunchPlan:
    """Validate and assemble a fresh plan for ``task`` on ``device``.

    A task carrying an :class:`~repro.core.workdiv.AutoWorkDiv` is
    resolved here against the autotuning cache (tuned division when one
    is known for this kernel/device/extent, the back-end's heuristic
    otherwise) — plan-time resolution never measures.  The deferred
    division is hashable, so the plan cache distinguishes AUTO launches
    of different extents and each resolves exactly once.
    """
    from ..telemetry.spans import span

    with span("plan.build", cat="runtime"):
        return _build_plan(task, device)


def _build_plan(task, device) -> LaunchPlan:
    acc_type = task.acc_type
    wd = task.work_div
    tuned_sched = None
    if isinstance(wd, AutoWorkDiv):
        from ..tuning import resolve_work_div, tuned_schedule

        auto_extent = wd.extent
        wd = resolve_work_div(task, device)
        # A tuning run may have stored a winning block schedule next to
        # the winning division; AUTO launches pick it up here.
        tuned_sched = tuned_schedule(
            task.kernel, acc_type, device, auto_extent
        )
    props = acc_type.get_acc_dev_props(device)
    validate_work_div(wd, props)
    shared_dyn = getattr(task, "shared_mem_bytes", 0)
    if shared_dyn > props.shared_mem_size_bytes:
        raise SharedMemError(
            f"dynamic shared memory request of {shared_dyn} B exceeds the "
            f"device limit of {props.shared_mem_size_bytes} B"
        )
    runners = _thread_runners()
    thread_execute = getattr(acc_type, "thread_execute", "single")
    try:
        block_runner = runners[thread_execute]
    except KeyError:
        raise ValueError(
            f"{acc_type.__name__}.thread_execute={thread_execute!r} "
            f"unknown; known: {sorted(runners)}"
        ) from None
    schedule = getattr(acc_type, "block_schedule", "sequential")
    if schedule == "pooled":
        # Only pool-capable back-ends accept a different strategy:
        # sequential back-ends' block order is semantic (fibers'
        # determinism) and must survive any override.  Precedence:
        # the task's own schedule (a tuner measurement) >
        # REPRO_SCHEDULER > tuned schedule > back-end default.
        override = _forced_schedule(task)
        if override is not None:
            schedule = override
        elif tuned_sched is not None:
            schedule = tuned_sched
    # A one-block grid gains nothing from pool dispatch; plan it out.
    # (The compiled strategy replays the whole grid regardless of block
    # count, so it is exempt from the demotion.)
    if wd.block_count == 1 and schedule != "compiled":
        schedule = "sequential"
    from ..acc.engine import iter_indices

    return LaunchPlan(
        acc_type=acc_type,
        kernel=task.kernel,
        work_div=wd,
        device=device,
        props=props.for_dim(wd.dim),
        block_runner=block_runner,
        schedule=schedule,
        shared_mem_bytes=shared_dyn,
        block_indices=tuple(iter_indices(wd.grid_block_extent)),
    )


# ---------------------------------------------------------------------------
# Whole-graph plans
# ---------------------------------------------------------------------------


@dataclass
class GraphPlan:
    """Everything about one dataflow graph that survives re-submission.

    Built once per graph *structure* — the node identity tuple the graph
    layer derives from kernels, work divisions, buffer ids and edges —
    and cached LRU under that key, a :class:`GraphPlan` snapshots, in
    each kernel node's replay op, the node's resolved
    :class:`LaunchPlan`, its grid context (validated, unwrapped
    arguments included) and its scheduler, plus the resolved dependency
    edges and the topological order.  A warm pipeline
    therefore re-dispatches with **one** cache hit instead of one plan
    resolution per node (ROADMAP item 3: a graph warm-launches as
    cheaply as one kernel).
    """

    key: tuple
    #: Node indices in one valid topological execution order.
    order: Tuple[int, ...]
    #: Per-node resolved dependency indices (explicit + inferred).
    deps: Tuple[Tuple[int, ...], ...]
    #: node index -> zero-argument replay callable.  A kernel node's is
    #: :func:`repro.runtime.execute_plan` bound to its resolved
    #: :class:`LaunchPlan`, grid context and scheduler.
    node_ops: Dict[int, object] = field(default_factory=dict)
    #: node index -> device uid the node executes on.
    device_uids: Tuple[int, ...] = ()
    #: How many times this plan has been re-dispatched warm.
    replays: int = 0
    #: Whether this graph plan instance was served from the cache.
    served_from_cache: bool = False

    @property
    def node_count(self) -> int:
        return len(self.order)

    def describe(self) -> str:
        return (
            f"GraphPlan({self.node_count} nodes, "
            f"{sum(len(d) for d in self.deps)} edges, "
            f"replays={self.replays})"
        )


# ---------------------------------------------------------------------------
# Plan caches
# ---------------------------------------------------------------------------


class _PlanLRU:
    """A bounded LRU of plans with hit/miss counters.

    ``get`` builds outside the lock on a miss (validation and tuning
    lookups are slow, and a build may itself resolve plans), so two
    racing misses may both build and the later insert wins.  Every
    resolution is announced to ``on_plan_cache`` observers.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: tuple, build: Callable, *build_args):
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                plan.served_from_cache = True
        if plan is not None:
            notify_plan_cache(plan, True)
            return plan
        plan = build(*build_args)
        with self._lock:
            self._misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        notify_plan_cache(plan, False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._plans),
                "maxsize": self.maxsize,
            }


_launch_plans = _PlanLRU(PLAN_CACHE_MAXSIZE)
_graph_plans = _PlanLRU(GRAPH_PLAN_CACHE_MAXSIZE)


def get_graph_plan(key: tuple, build: Callable[[], GraphPlan]) -> GraphPlan:
    """The cached-or-built :class:`GraphPlan` for ``key``.

    Announced through ``on_plan_cache`` observers like per-launch
    plans, so the telemetry hit-rate counters cover graphs.
    """
    plan = _graph_plans.get(key, build)
    plan.key = key
    return plan


def clear_graph_plan_cache() -> None:
    """Drop every cached graph plan and zero its hit/miss counters."""
    _graph_plans.clear()


def graph_plan_cache_info() -> Dict[str, int]:
    """``{"hits": ..., "misses": ..., "size": ..., "maxsize": ...}``."""
    return _graph_plans.info()


def _key(task, device) -> tuple:
    # Kernel identity, not equality: the plan holds a strong reference
    # to the kernel, so the id stays valid while the entry lives.
    wd = task.work_div
    if isinstance(wd, AutoWorkDiv):
        # An AutoWorkDiv hashes by extent only, but what it resolves to
        # depends on the tuning cache's contents; folding the cache
        # generation into the key invalidates plans resolved before a
        # tuning run stored (or dropped) a result.
        from ..tuning.cache import tuning_generation

        wd = (wd, tuning_generation())
    return (
        task.acc_type,
        id(task.kernel),
        wd,
        device.uid,
        getattr(task, "shared_mem_bytes", 0),
        # The forced schedule changes what _build_plan resolves, so it
        # is part of plan identity — a tuner measurement under another
        # schedule, or flipping REPRO_SCHEDULER mid-process, must miss,
        # not poison.
        _forced_schedule(task),
    )


def get_plan(task, device) -> LaunchPlan:
    """The cached-or-built plan for ``task`` on ``device``.

    Announces the resolution to observers (``on_plan_cache``) and keeps
    the global hit/miss counters current.  Validation errors raise here
    — a plan that would fail at dispatch is never cached.
    """
    return _launch_plans.get(_key(task, device), build_plan, task, device)


def clear_plan_cache() -> None:
    """Drop every cached plan and zero the hit/miss counters.

    Graph plans embed per-node launch plans, so they are dropped too —
    a stale graph must never outlive the plans it snapshot."""
    _launch_plans.clear()
    _graph_plans.clear()


def plan_cache_info() -> Dict[str, int]:
    """``{"hits": ..., "misses": ..., "size": ..., "maxsize": ...}``."""
    return _launch_plans.info()
