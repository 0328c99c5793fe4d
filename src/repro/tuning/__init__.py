"""repro.tuning — work-division autotuning with a persistent cache.

Matthes, Widera, Zenker et al. (arXiv:1706.10086) show that the best
work division for a kernel is a property of the *(kernel, architecture,
problem-shape)* triple, found empirically once and reused.  This
subsystem reproduces that workflow on the simulated back-ends:

* :func:`autotune` — search the valid division space of a kernel on an
  accelerator/device for a problem extent, measure candidates through
  the real Task→Plan→Execute runtime, persist the winner in a JSON
  cache keyed on kernel identity, back-end, device fingerprint and
  bucketed extent.
* ``divide_work(extent, props, MappingStrategy.AUTO, ...)`` — the
  transparent entry point: returns the cached tuned division when one
  exists, else the Table 2 heuristic preferred by the back-end.
* :class:`~repro.core.workdiv.AutoWorkDiv` — a deferred division that a
  :class:`~repro.core.kernel.KernelTask` may carry instead of concrete
  extents; the launch runtime resolves it against the cache at plan
  time (:func:`resolve_work_div`), so applications can opt into tuned
  divisions without restructuring their launch code.

Resolution never measures: plan-time lookups are cache-or-heuristic
only.  Measurement happens only inside an explicit :func:`autotune`
call, which is where the cost is paid once.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.errors import InvalidWorkDiv
from ..core.properties import AccDevProps
from ..core.vec import Vec, as_vec
from ..core.workdiv import (
    AutoWorkDiv,
    MappingStrategy,
    WorkDivMembers,
    divide_work,
    validate_work_div,
)
from ..telemetry.metrics import registry
from .cache import (
    CachedResult,
    TuningCache,
    default_cache,
    default_cache_path,
    device_fingerprint,
    kernel_id,
    reset_default_cache,
    TUNING_CACHE_ENV,
)
from .measure import MeasuredTime, measure_division, measure_task
from .search import (
    SEARCH_STRATEGIES,
    SearchResult,
    Trial,
    run_search,
)
from .space import (
    MAX_TOTAL_ELEMS,
    candidate_divisions,
    default_division,
    seed_divisions,
)

__all__ = [
    "autotune",
    "auto_divide",
    "tuning_cache_resolutions",
    "resolve_work_div",
    "tuned_schedule",
    "TuningResult",
    "AutoWorkDiv",
    # space
    "candidate_divisions",
    "default_division",
    "seed_divisions",
    "MAX_TOTAL_ELEMS",
    # search
    "run_search",
    "SEARCH_STRATEGIES",
    "SearchResult",
    "Trial",
    # measure
    "measure_division",
    "measure_task",
    "MeasuredTime",
    # cache
    "TuningCache",
    "CachedResult",
    "default_cache",
    "reset_default_cache",
    "default_cache_path",
    "device_fingerprint",
    "kernel_id",
    "TUNING_CACHE_ENV",
]


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one :func:`autotune` call."""

    work_div: WorkDivMembers
    seconds: float
    #: True when the result came from the cache (zero launches spent).
    from_cache: bool
    #: "modeled" or "wall" — which clock produced ``seconds``.
    source: str
    #: Search strategy used ("cache" for a hit).
    strategy: str
    #: How many candidate divisions were measured.
    measurements: int
    #: Total kernel launches the tuning run spent.
    launches: int
    #: Candidates skipped via performance-model pruning.
    pruned: int
    #: The cache key the result is stored under.
    cache_key: str
    #: Every measured (division, seconds) pair, in measurement order.
    trials: Tuple[Trial, ...] = field(default_factory=tuple)
    #: Winning block schedule when ``tune_schedule=True`` compared
    #: schedulers for the winning division; None otherwise.
    schedule: Optional[str] = None
    #: Wall seconds per compared schedule (empty unless tuned).
    schedule_trials: Dict[str, float] = field(default_factory=dict)


def _refit_for_extent(
    wd: WorkDivMembers, ext: Vec, props: AccDevProps
) -> Optional[WorkDivMembers]:
    """Rebuild a cached division's grid so it covers ``ext``.

    Cache keys bucket extents to the next power of two, so a hit may
    have been tuned at a *smaller* extent in the same bucket — its
    block-thread and thread-element extents transfer (they are what was
    tuned), but its grid was sized with ``ceil_div`` against the
    tuning-time extent and would under-cover the request.  Returns
    ``None`` when the refitted division violates ``props`` (caller falls
    back to the heuristic or re-measures).
    """
    if wd.dim != ext.dim:
        return None
    per_block = wd.block_thread_extent * wd.thread_elem_extent
    grid = ext.ceil_div(per_block).max(1)
    refit = WorkDivMembers(grid, wd.block_thread_extent, wd.thread_elem_extent)
    try:
        validate_work_div(refit, props.for_dim(ext.dim))
    except InvalidWorkDiv:
        return None
    return refit


def autotune(
    kernel,
    acc_type,
    extent: Union[int, Sequence[int], Vec],
    args: Tuple = (),
    *,
    device=None,
    strategy: str = "exhaustive",
    budget: Optional[int] = None,
    warmup: int = 1,
    repeat: int = 3,
    cache: Optional[TuningCache] = None,
    save: bool = True,
    force: bool = False,
    shared_mem_bytes: int = 0,
    max_total_elems: int = MAX_TOTAL_ELEMS,
    max_block_threads: Optional[int] = None,
    seed: int = 0,
    tune_schedule: bool = False,
) -> TuningResult:
    """Find (or recall) the fastest work division for ``kernel`` on
    ``acc_type`` covering ``extent``.

    A cache hit returns immediately with zero kernel launches (observe
    it via ``from_cache`` or the runtime's ``CountingObserver``); pass
    ``force=True`` to re-measure regardless.  Otherwise every strategy
    measures the Table 2 seed divisions plus its share of the candidate
    space, so the result can only tie or beat the default heuristic.

    ``budget`` caps the number of measured candidates (``strategy=
    "random"`` plus a small budget is the cheap CI configuration);
    ``max_block_threads`` shrinks the *generated* space — useful on the
    functionally simulated GPU where every modeled thread is a host
    thread — while the seeds stay exempt.  ``args`` must be the real
    kernel arguments: candidates are executed, not just validated.

    ``tune_schedule=True`` adds the block-scheduling strategy to the
    candidate space: after the division search, the winning division is
    wall-clock-measured under every strategy its back-end can run
    (sequential, the thread pool and the trace-vectorized ``compiled``
    replay), and the winner is persisted with the entry —
    AUTO launches then pick it up at plan time.  With
    ``strategy="evolve"`` the schedule is part of the genome instead:
    the joint (division, schedule) space evolves in one run and no
    post-search sweep happens.

    A call that misses and will save (``save=True``, ``force=False``)
    measures once across every process sharing the cache file: it holds
    the key's lease (:meth:`~repro.tuning.cache.TuningCache.acquire`, an
    ``flock`` the kernel frees when the holder finishes or dies) while
    it measures and saves.  A caller that finds the lease held waits
    for the holder's entry and adopts it as a cache hit, takes the lease
    itself once it is free and nothing usable was saved, or — when the
    holder takes longer than
    :data:`~repro.tuning.cache.LEASE_WAIT_SECONDS` — returns the Table 2
    heuristic (``strategy="heuristic"``, zero measurements) and picks
    the holder's result up on the next tuning-generation bump.  A
    cached entry is usable when it refits to ``extent`` and, for
    ``tune_schedule=True``, carries a schedule.
    """
    ext = as_vec(extent)
    if device is None:
        from ..dev.manager import get_dev_by_idx

        device = get_dev_by_idx(acc_type)
    if cache is None:
        cache = default_cache()

    props = acc_type.get_acc_dev_props(device).for_dim(ext.dim)
    key = TuningCache.key(kernel, acc_type, device, ext)

    def fit(entry: Optional[CachedResult]) -> Optional[WorkDivMembers]:
        """``entry``'s division refit to ``ext``, or None when the entry
        cannot answer this call (a ``tune_schedule`` request needs a
        stored schedule)."""
        if entry is None or (tune_schedule and entry.schedule is None):
            return None
        return _refit_for_extent(entry.work_div, ext, props)

    def cached(entry: CachedResult) -> TuningResult:
        return TuningResult(
            work_div=fit(entry),
            seconds=entry.seconds,
            from_cache=True,
            source=entry.source,
            strategy="cache",
            measurements=0,
            launches=0,
            pruned=0,
            cache_key=key,
            schedule=entry.schedule,
        )

    lease = contextlib.nullcontext()
    if not force:
        hit = cache.get_key(key)
        if fit(hit) is not None:
            return cached(hit)
        if save:
            adopted, lease = cache.acquire(key, lambda e: fit(e) is not None)
            if adopted is not None:
                return cached(adopted)
            if lease is None:
                # Waited the holder out: answer *now* with the Table 2
                # heuristic (zero measurements) — the holder's result
                # arrives later through the tuning-generation bump.
                return TuningResult(
                    work_div=divide_work(ext, props, acc_type.mapping_strategy),
                    seconds=float("nan"),
                    from_cache=False,
                    source="heuristic",
                    strategy="heuristic",
                    measurements=0,
                    launches=0,
                    pruned=0,
                    cache_key=key,
                )

    with lease:
        candidates = candidate_divisions(
            ext,
            props,
            max_total_elems=max_total_elems,
            max_block_threads=max_block_threads,
        )
        n_seeds = len(seed_divisions(ext, props))

        from ..perfmodel import predict_launch_seconds

        predicted: Dict[WorkDivMembers, float] = {}
        for wd in candidates:
            p = predict_launch_seconds(kernel, acc_type, device, wd, args)
            if p is not None:
                predicted[wd] = p

        measured: Dict[WorkDivMembers, MeasuredTime] = {}

        def objective(wd: WorkDivMembers) -> float:
            try:
                mt = measure_division(
                    kernel,
                    acc_type,
                    device,
                    wd,
                    args,
                    shared_mem_bytes=shared_mem_bytes,
                    warmup=warmup,
                    repeat=repeat,
                )
            except Exception:  # noqa: BLE001 - kernel code may raise anything; a rejected division loses
                # A division the kernel itself rejects (shared memory
                # overflow, shape assumptions...) scores infinitely slow
                # rather than aborting the search.
                return float("inf")
            measured[wd] = mt
            return mt.seconds

        def measure_schedule(
            wd: WorkDivMembers, sched: str
        ) -> Optional[MeasuredTime]:
            """``wd`` timed under ``sched``, or None when the launch failed
            or fell back: a fallen-back launch ran on the thread pool, so its
            time is another schedule's, and storing ``sched`` would make
            every AUTO launch fall back again."""
            before = _fallback_count(kernel, sched)
            try:
                mt = measure_division(
                    kernel,
                    acc_type,
                    device,
                    wd,
                    args,
                    shared_mem_bytes=shared_mem_bytes,
                    warmup=warmup,
                    repeat=repeat,
                    schedule=sched,
                    clock="wall",
                )
            except Exception:  # noqa: BLE001 - kernel code may raise anything; a rejected schedule loses
                return None
            return mt if _fallback_count(kernel, sched) == before else None

        extra = {"hof_label": key} if strategy == "evolve" else {}
        if strategy == "evolve" and tune_schedule:
            # Evolve searches the joint (division, schedule) space in one
            # run: the compiled replay, the pools and sequential dispatch
            # compete as genome values instead of a post-search sweep.
            candidates_sched = _schedule_candidates(acc_type)
            if candidates_sched:

                def schedule_objective(wd: WorkDivMembers, sched: str) -> float:
                    mt = measure_schedule(wd, sched)
                    if mt is None:
                        return float("inf")
                    measured[wd] = mt
                    return mt.seconds

                extra["schedules"] = candidates_sched
                extra["schedule_objective"] = schedule_objective

        result = run_search(
            strategy,
            candidates,
            objective,
            seeds=n_seeds,
            budget=budget,
            seed=seed,
            predicted=predicted or None,
            **extra,
        )
        best = result.best
        best_mt = measured[best.work_div]

        best_schedule: Optional[str] = getattr(result, "best_schedule", None)
        schedule_trials: Dict[str, float] = dict(
            getattr(result, "schedule_trials", {}) or {}
        )
        schedule_launches = 0
        if tune_schedule and best_schedule is None:
            for sched in _schedule_candidates(acc_type):
                mt = measure_schedule(best.work_div, sched)
                if mt is not None:
                    schedule_trials[sched] = mt.seconds
                    schedule_launches += mt.launches
            if schedule_trials:
                best_schedule = min(schedule_trials, key=schedule_trials.get)

        entry = CachedResult(
            work_div=best.work_div,
            seconds=best.seconds,
            strategy=result.strategy,
            source=best_mt.source,
            schedule=best_schedule,
            measured_at=time.time(),
        )
        cache.put_key(key, entry)
        if save:
            # Saved while the lease is held: whoever takes it next (or a
            # process polling the file) finds the entry and adopts it.
            cache.save()

    return TuningResult(
        work_div=best.work_div,
        seconds=best.seconds,
        from_cache=False,
        source=best_mt.source,
        strategy=result.strategy,
        measurements=result.measurements + len(schedule_trials),
        launches=sum(mt.launches for mt in measured.values())
        + schedule_launches,
        pruned=result.pruned,
        cache_key=key,
        trials=tuple(result.trials),
        schedule=best_schedule,
        schedule_trials=schedule_trials,
    )


def _schedule_candidates(acc_type) -> Tuple[str, ...]:
    """Block schedules ``acc_type`` can legally run.

    Sequential back-ends (serial, fibers, the thread-level CPU
    back-ends) offer no choice — their block order is semantic.  Pooled
    back-ends choose between the caller's thread, the thread pool and
    the trace-vectorized compiled replay.  The last may fall back to the
    thread pool for a given launch (a kernel that does not compile); the
    tuner drops a schedule whose measurement fell back.
    """
    if getattr(acc_type, "block_schedule", "sequential") != "pooled":
        return ()
    return ("sequential", "pooled", "compiled")


def _fallback_count(kernel, schedule: str) -> float:
    """Launches of ``kernel`` that ``schedule`` handed to the thread
    pool so far: ``repro_scheduler_fallbacks_total{schedule,kernel}``
    summed over reasons."""
    from ..core.kernel import kernel_name

    labels = {("schedule", schedule), ("kernel", kernel_name(kernel))}
    return sum(
        c.value
        for c in registry().instruments("repro_scheduler_fallbacks_total")
        if labels <= set(c.labels)
    )


#: ``auto_divide`` consultations of the tuning cache since the process
#: started: ``[served tuned, fell back to the heuristic]``.
_resolutions = [0, 0]
_resolutions_lock = threading.Lock()


def tuning_cache_resolutions() -> Tuple[int, int]:
    """``(hits, misses)``: the :func:`auto_divide` calls a tuning-cache
    entry served, and those the heuristic served, since the process
    started."""
    return tuple(_resolutions)


def auto_divide(
    extent: Union[int, Sequence[int], Vec],
    props: AccDevProps,
    *,
    kernel=None,
    acc_type=None,
    device=None,
    block_threads=None,
    thread_elems=None,
    cache: Optional[TuningCache] = None,
) -> WorkDivMembers:
    """The division behind ``MappingStrategy.AUTO``: tuned when known,
    heuristic otherwise — never a measurement.

    When ``kernel`` and ``acc_type`` identify a cache entry for this
    device (default device of ``acc_type`` when omitted), its tuned
    block/element extents win, with the grid rebuilt to cover *this*
    extent (hits serve a whole power-of-two bucket, so the stored grid
    may have been sized for a smaller problem).  Otherwise the back-end's
    preferred Table 2 mapping is used (falling back to thread-level when
    the device supports multi-thread blocks, block-level when not), with
    explicit ``block_threads`` / ``thread_elems`` overrides honoured.
    """
    ext = as_vec(extent)
    if kernel is not None and acc_type is not None:
        if device is None:
            from ..dev.manager import get_dev_by_idx

            device = get_dev_by_idx(acc_type)
        store = cache if cache is not None else default_cache()
        hit = store.get(kernel, acc_type, device, ext)
        refit = None
        if hit is not None:
            refit = _refit_for_extent(hit.work_div, ext, props)
        # A stored winner whose division cannot be refit to this
        # extent counts as a miss: the heuristic serves the launch.
        with _resolutions_lock:
            _resolutions[refit is None] += 1
        if refit is not None:
            return refit

    if acc_type is not None:
        mapping = acc_type.mapping_strategy
    elif props.for_dim(ext.dim).block_thread_count_max > 1:
        mapping = MappingStrategy.THREAD_LEVEL
    else:
        mapping = MappingStrategy.BLOCK_LEVEL
    return divide_work(
        ext,
        props,
        mapping,
        block_threads=block_threads,
        thread_elems=thread_elems,
    )


def resolve_work_div(task, device) -> WorkDivMembers:
    """Resolve a task's :class:`~repro.core.workdiv.AutoWorkDiv` into a
    concrete division at plan time (cache-or-heuristic, never measuring).

    Called by :func:`repro.runtime.plan.build_plan`; tasks carrying a
    concrete :class:`~repro.core.workdiv.WorkDivMembers` pass through
    untouched.
    """
    wd = task.work_div
    if not isinstance(wd, AutoWorkDiv):
        return wd
    props = task.acc_type.get_acc_dev_props(device)
    return auto_divide(
        wd.extent,
        props,
        kernel=task.kernel,
        acc_type=task.acc_type,
        device=device,
    )


def tuned_schedule(
    kernel,
    acc_type,
    device,
    extent,
    cache: Optional[TuningCache] = None,
) -> Optional[str]:
    """The block schedule a tuning run stored for this configuration,
    or None (back-end default).  A cache-only lookup — the plan layer
    calls it when resolving AUTO launches, so it must never measure."""
    store = cache if cache is not None else default_cache()
    hit = store.get(kernel, acc_type, device, extent)
    return hit.schedule if hit is not None else None
