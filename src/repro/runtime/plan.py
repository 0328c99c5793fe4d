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

A task that resolved before skips even the key: it is *bound* to its
plan (by a weak reference, valid until the cache is cleared or evicts a
plan, the forced schedule changes, or — for an ``AutoWorkDiv`` — the
tuning generation moves).  What a launch derives from its argument
tuple lives in an :class:`ArgsRecord` on the plan, reused while the
same tuple comes back.

A record of an interpreting schedule starts on ``GuardedArray`` views
(:mod:`repro.mem.guard`).  From the plan's second launch on, the compile
trace of its argument signature proves which arrays only slice-form
keys reach — keys that can never trip the guard — and the record hands
the kernel plain ``ndarray`` views of those (:meth:`ArgsRecord.prove`).

The default schedule tiers: a plan planned at its back-end's default
``pooled`` (no task schedule, no ``REPRO_SCHEDULER``, no tuned
schedule, more than one block) is :attr:`LaunchPlan.tiered`, and a
record of it proven ``"proven"`` holds the proof's
:class:`~repro.compile.CompiledReplay` as its ``tier``.  The launch
runs that replay wherever the host clock measured it faster than the
interpreter (:func:`repro.runtime.execute_plan`); ``compiled`` is the
same replay forced on every launch.

Cache observability: the caches count their own hits and misses
(:func:`plan_cache_info`; :func:`plan_cache_resolutions` since the
process started), and telemetry reads the counts instead of being told
of each resolution.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..acc.base import GridContext
from ..core.errors import SharedMemError
from ..core.kernel import kernel_name
from ..core.properties import AccDevProps
from ..core.vec import Vec
from ..core.workdiv import AutoWorkDiv, WorkDivMembers, validate_work_div
from ..mem.guard import GuardedArray
from .scheduler import chunk_indices, resolve_scheduler_override

__all__ = [
    "LaunchPlan",
    "ArgsRecord",
    "UNTRACED",
    "get_plan",
    "build_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "plan_cache_resolutions",
    "PLAN_CACHE_MAXSIZE",
    "GraphPlan",
    "get_graph_plan",
    "clear_graph_plan_cache",
    "graph_plan_cache_info",
    "GRAPH_PLAN_CACHE_MAXSIZE",
]

#: Guard verdict of an interpreted record its plan has not proven yet.
UNTRACED = "untraced"

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


class ArgsRecord(GridContext):
    """A grid context kept for every launch of one host-args tuple.

    Everything a launch derives from its arguments alone, derived once:
    the device-side (unwrapped, residency-checked) arguments as
    ``args``, the modeled ``seconds`` (``None`` until a launch
    completed) and, under the compiled schedule or a tier, the
    ``replay`` entry the arguments resolved to (``None`` until
    resolved).  ``host_args`` is the tuple the record was built from;
    a record is reused only for that very tuple, which it holds — so it
    keeps no buffer alive that the argument tuple does not.

    ``guard`` is the record's guard verdict: ``None`` where nothing is
    to be proven (the compiled schedule, sanitizer shadow arguments, no
    ``GuardedArray`` among the arguments), :data:`UNTRACED` until
    :meth:`prove` ran, then ``"proven"`` or ``"kept: <why>"``.
    ``tier`` is the replay entry whose tier decides how a proven
    record of a :attr:`LaunchPlan.tiered` plan runs, else ``None``.
    """

    def __init__(self, plan, host_args: tuple, args: tuple, monitor=None,
                 provable: bool = False):
        super().__init__(
            plan.device,
            plan.work_div,
            plan.props,
            args,
            shared_mem_bytes=plan.shared_mem_bytes,
            monitor=monitor,
        )
        self.host_args = host_args
        self.seconds: Optional[float] = None
        self.replay = None
        self.guard: Optional[str] = UNTRACED if provable else None
        self.tier = None

    def prove(self, plan) -> None:
        """Settle the guard verdict: re-view every ``GuardedArray``
        argument the compile trace proves only slice-form keys reach as
        a plain ``ndarray`` (same memory), and keep the rest guarded.

        Runs at most once per record, and never at the plan's first
        launch (:func:`repro.runtime.execute_plan`): a one-shot launch
        cannot pay back a trace.  The trace runs the kernel body once
        under :class:`~repro.compile.CompileAcc`.  A proven record of a
        tiered plan keeps the traced replay as its ``tier`` (and as the
        ``replay`` a compiled dispatch resolves to).
        """
        from ..compile.replay import guard_verdict

        entry, kept, verdict = guard_verdict(plan, self.args)
        self.guard = plan.guard = verdict
        if verdict == "proven" and plan.tiered:
            self.replay = self.tier = plan.tier = entry
        if kept is not None:
            self.args = tuple(
                a.view(np.ndarray)
                if type(a) is GuardedArray and pos not in kept else a
                for pos, a in enumerate(self.args)
            )


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
    #: The guard verdict of the last record proven on this plan (see
    #: :class:`ArgsRecord`).
    guard: str = UNTRACED
    #: Whether proven records may run the compiled replay (the back-end
    #: default ``pooled``, neither forced nor tuned; see the module doc).
    tiered: bool = False
    #: The replay entry of the last record that tiered on this plan.
    tier: object = field(default=None, repr=False)
    #: The plan's key in the plan cache (set when it is cached).
    key: tuple = field(default=(), repr=False)
    #: The :class:`ArgsRecord` of the last argument tuple launched
    #: through :meth:`record_for`.
    _record: Optional[ArgsRecord] = field(default=None, repr=False)
    #: worker count -> chunked block_indices; see :meth:`chunks_for`.
    _chunks: Dict[int, list] = field(default_factory=dict, repr=False)
    #: argument signature -> compiled replay closure (or a cached
    #: fallback verdict); owned by :mod:`repro.compile.replay`.  Lives
    #: on the plan so the cache shares the plan's LRU lifetime and the
    #: trace happens once per (kernel, work-div, arg-shape), not per
    #: launch.
    _compiled: Dict = field(default_factory=dict, repr=False)
    #: (spec, kind, work-div, characteristics, scope) -> modeled seconds;
    #: owned and bounded by :func:`repro.acc.timing.modeled_seconds`.
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

    def record_for(self, task) -> ArgsRecord:
        """The record of ``task``'s argument tuple: the one the last
        launch used when the tuple is the same object (re-enqueueing a
        :class:`~repro.core.kernel.KernelTask` hands over the same
        tuple), else a new one that replaces it."""
        record = self._record
        if record is None or record.host_args is not task.args:
            record = self._record = self.grid_for(task)
        return record

    def drop_record(self) -> None:
        """Forget the last argument tuple (and the device arrays its
        record holds)."""
        self._record = None

    def grid_for(self, task, args=None, monitor=None) -> ArgsRecord:
        """A new record of ``task``'s arguments under this plan, owned
        by the caller (a graph node keeps its own).

        ``args`` replaces the task's unwrapped arguments (the sanitizer
        passes shadow arrays, with its ``monitor``); such a record, and
        every record of the compiled schedule, is never proven."""
        provable = False
        if args is None:
            from ..acc.engine import unwrap_args

            args = unwrap_args(task.args, self.device)
            provable = self.schedule != "compiled" and any(
                type(a) is GuardedArray for a in args
            )
        return ArgsRecord(self, task.args, args, monitor, provable)

    def describe(self) -> str:
        guard = "" if self.schedule == "compiled" else f", guard={self.guard}"
        if self.tier is not None:
            guard += f", tier={self.tier.tier_state()}"
        return (
            f"LaunchPlan({self.acc_type.__name__}, "
            f"kernel={kernel_name(self.kernel)}, "
            f"{self.work_div}, dev={self.device!r}, "
            f"schedule={self.schedule}, launches={self.launches}{guard})"
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
    tiered = False
    if schedule == "pooled":
        # Only pool-capable back-ends accept a different strategy:
        # sequential back-ends' block order is semantic (fibers'
        # determinism) and must survive any override.  Precedence:
        # the task's own schedule (a tuner measurement) >
        # REPRO_SCHEDULER > tuned schedule > back-end default, and
        # only the back-end default tiers.
        override = _forced_schedule(task)
        if override is not None:
            schedule = override
        elif tuned_sched is not None:
            schedule = tuned_sched
        else:
            tiered = wd.block_count > 1
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
        tiered=tiered,
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
    :class:`LaunchPlan`, its :class:`ArgsRecord` (validated, unwrapped
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
    #: :class:`LaunchPlan`, its own :class:`ArgsRecord` and scheduler.
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
    racing misses may both build and the later insert wins.  The
    counters only grow; :meth:`clear` moves the zero :meth:`info`
    counts from.  ``epoch`` moves whenever a plan leaves the cache
    (eviction or :meth:`clear`), which is what invalidates task
    bindings.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._cleared_at = (0, 0)
        self.epoch = 0

    def get(self, key: tuple, build: Callable, *build_args):
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                plan.served_from_cache = True
        if plan is not None:
            return plan
        plan = build(*build_args)
        plan.key = key
        with self._lock:
            self._misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.epoch += 1
        return plan

    def hit(self, plan):
        """Count a hit on ``plan``, resolved without a lookup, and
        refresh its LRU position (a plan only bound tasks launch is as
        recently used as any other)."""
        with self._lock:
            self._hits += 1
            if self._plans.get(plan.key) is plan:
                self._plans.move_to_end(plan.key)
        plan.served_from_cache = True
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._cleared_at = (self._hits, self._misses)
            self.epoch += 1

    def info(self) -> Dict[str, int]:
        with self._lock:
            hits0, misses0 = self._cleared_at
            return {
                "hits": self._hits - hits0,
                "misses": self._misses - misses0,
                "size": len(self._plans),
                "maxsize": self.maxsize,
            }


_launch_plans = _PlanLRU(PLAN_CACHE_MAXSIZE)
_graph_plans = _PlanLRU(GRAPH_PLAN_CACHE_MAXSIZE)


def get_graph_plan(key: tuple, build: Callable[[], GraphPlan]) -> GraphPlan:
    """The cached-or-built :class:`GraphPlan` for ``key``.

    Counted in :func:`plan_cache_resolutions` like per-launch plans, so
    the telemetry hit-rate counters cover graphs.
    """
    return _graph_plans.get(key, build)


def clear_graph_plan_cache() -> None:
    """Drop every cached graph plan and zero its hit/miss counters."""
    _graph_plans.clear()


def graph_plan_cache_info() -> Dict[str, int]:
    """``{"hits": ..., "misses": ..., "size": ..., "maxsize": ...}``."""
    return _graph_plans.info()


def _generation(task) -> Optional[int]:
    """The tuning generation an ``AutoWorkDiv`` task resolves under
    (what it resolves to depends on the tuning cache's contents), or
    None for a concrete division."""
    if isinstance(task.work_div, AutoWorkDiv):
        from ..tuning.cache import tuning_generation

        return tuning_generation()
    return None


def _key(task, device, forced: Optional[str], generation: Optional[int]) -> tuple:
    # Kernel identity, not equality: the plan holds a strong reference
    # to the kernel, so the id stays valid while the entry lives.
    return (
        task.acc_type,
        id(task.kernel),
        # An AutoWorkDiv hashes by extent only; folding the tuning
        # generation in invalidates plans resolved before a tuning run
        # stored (or dropped) a result.
        task.work_div if generation is None else (task.work_div, generation),
        device.uid,
        getattr(task, "shared_mem_bytes", 0),
        # The forced schedule changes what _build_plan resolves, so it
        # is part of plan identity — a tuner measurement under another
        # schedule, or flipping REPRO_SCHEDULER mid-process, must miss,
        # not poison.
        forced,
    )


def get_plan(task, device) -> LaunchPlan:
    """The cached-or-built plan for ``task`` on ``device``.

    Counts the resolution as a hit or a miss (:func:`plan_cache_info`,
    :func:`plan_cache_resolutions`).  Validation errors raise here
    — a plan that would fail at dispatch is never cached.

    The task remembers the plan it resolved to (a weak reference on
    ``task._plan_binding``, with the device, cache epoch, forced
    schedule and tuning generation it was resolved under), so resolving
    it again while all four still hold is a counted hit without a key.
    """
    forced = _forced_schedule(task)
    generation = _generation(task)
    state = (device.uid, _launch_plans.epoch, forced, generation)
    binding = getattr(task, "_plan_binding", None)
    if binding is not None and binding[1] == state:
        plan = binding[0]()
        if plan is not None:
            return _launch_plans.hit(plan)
    plan = _launch_plans.get(
        _key(task, device, forced, generation), build_plan, task, device
    )
    # ``state`` carries the epoch from before the lookup: a plan that
    # left the cache since then invalidates this binding at once.
    object.__setattr__(task, "_plan_binding", (weakref.ref(plan), state))
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and zero the hit/miss counters.

    Graph plans embed per-node launch plans, so they are dropped too —
    a stale graph must never outlive the plans it snapshot."""
    _launch_plans.clear()
    _graph_plans.clear()


def plan_cache_info() -> Dict[str, int]:
    """``{"hits": ..., "misses": ..., "size": ..., "maxsize": ...}``
    since the last :func:`clear_plan_cache`."""
    return _launch_plans.info()


def plan_cache_resolutions() -> Tuple[int, int]:
    """``(hits, misses)`` of launch and graph plans since the process
    started (a clear does not reset them)."""
    return (
        _launch_plans._hits + _graph_plans._hits,
        _launch_plans._misses + _graph_plans._misses,
    )
