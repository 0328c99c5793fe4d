"""Extension: per-launch library overhead, measured per back-end.

The paper attributes part of its <6 % overhead to "a small number of
additional CUDA runtime calls" per launch.  This bench measures *this*
library's per-launch cost (empty kernel, one-thread grid) on every
back-end — the quantity an adopter budgeting many small launches needs.

Since the Task→Plan→Execute refactor the cost splits in two: a **cold**
launch builds a `LaunchPlan` (work-div validation, device properties,
runner selection) while a **warm** launch serves it from the LRU plan
cache.  Both are reported, together with the cache hit rate the
`CountingObserver` instrumentation sees — the acceptance check that
repeated launches really do bypass planning.

Two more rows give the launch path's remaining cost an owner: an
*indexed* warm launch (one block of element-level AXPY over 256
elements — a kernel that asks for its indices) split into stages that
are each timed by calling the stage's own function, and the per-block
cost of a 1024-block AXPY as a ratio to the bare per-span numpy loop
over the same arrays.  All rows of this module land in one
``BENCH_launch_overhead.json``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    WorkDivMembers,
    accelerator,
    accelerator_names,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.bench import (
    launch_stats,
    measure_wall,
    write_bench_json,
    write_report,
)
from repro.comparison import render_table

LAUNCHES = 100

#: Every metric this module has measured so far in the process; each
#: test adds its rows and rewrites ``BENCH_launch_overhead.json`` whole.
_METRICS = {}


def _publish(rows):
    _METRICS.update(rows)
    write_bench_json("launch_overhead", _METRICS)


def _best_of_rounds(fns, rounds=9, calls=200):
    """Per-call seconds of each function in ``fns``: the minimum over
    ``rounds`` interleaved rounds of ``calls`` calls.  Interleaving
    means a slow phase of a shared host hits every function alike, and
    the minimum of each is taken from a quiet one."""
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / calls)
    return best


@fn_acc
def _empty(acc):
    pass


def _setup(acc_name):
    acc = accelerator(acc_name)
    dev = get_dev_by_idx(acc, 0)
    queue = QueueBlocking(dev)
    task = create_task_kernel(acc, WorkDivMembers.make(1, 1, 1), _empty)
    return queue, task


def _warm_cost(acc_name):
    """Per-launch cost with the plan served from the cache."""
    queue, task = _setup(acc_name)

    def launch():
        for _ in range(LAUNCHES):
            queue.enqueue(task)

    return measure_wall(launch, repeat=3) / LAUNCHES


def _cold_cost(acc_name):
    """Per-launch cost when every launch must rebuild its plan."""
    queue, task = _setup(acc_name)

    def launch():
        for _ in range(LAUNCHES):
            clear_plan_cache()
            queue.enqueue(task)

    return measure_wall(launch, repeat=3) / LAUNCHES


def _hit_rate(acc_name):
    """Observed plan-cache hit rate over a fresh repeated-launch run."""
    queue, task = _setup(acc_name)
    clear_plan_cache()
    with launch_stats() as stats:
        for _ in range(LAUNCHES):
            queue.enqueue(task)
    return stats.plan_cache_hit_rate


def test_launch_overhead(benchmark):
    names = accelerator_names()

    def run():
        return {
            name: {
                "cold": _cold_cost(name),
                "warm": _warm_cost(name),
                "hit_rate": _hit_rate(name),
            }
            for name in names
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "Back-end": name,
            "cold [us]": f"{c['cold'] * 1e6:8.1f}",
            "warm [us]": f"{c['warm'] * 1e6:8.1f}",
            "saved": f"{(1 - c['warm'] / c['cold']) * 100:5.1f} %",
            "cache hits": f"{c['hit_rate'] * 100:5.1f} %",
        }
        for name, c in sorted(costs.items(), key=lambda kv: kv[1]["warm"])
    ]
    text = render_table(
        rows,
        "Extension: per-launch overhead (empty kernel), "
        "cold plan build vs. warm plan-cache hit",
    )
    print("\n" + text)
    write_report("launch_overhead.txt", text)
    metrics = {}
    for name, c in costs.items():
        metrics[f"{name}_cold_launch"] = (c["cold"], "s")
        metrics[f"{name}_warm_launch"] = (c["warm"], "s")
        metrics[f"{name}_cache_hit_rate"] = c["hit_rate"]
    _publish(metrics)

    # Repeated launches of an identical task must be served by the plan
    # cache: 1 miss, LAUNCHES-1 hits.
    for name, c in costs.items():
        assert c["hit_rate"] == pytest.approx((LAUNCHES - 1) / LAUNCHES), name

    # The cache must pay for itself where it matters most: the
    # OpenMP-block back-end (pooled scheduler, paper Fig. 5's CPU case)
    # launches no slower warm than cold.
    assert costs["AccCpuOmp2Blocks"]["warm"] <= costs["AccCpuOmp2Blocks"]["cold"]

    # Sanity bands (generous: 1-core CI container): the single-threaded
    # back-ends launch in tens of microseconds; thread-spawning
    # back-ends stay under ~10 ms per launch.
    assert costs["AccCpuSerial"]["warm"] < 2e-3, costs
    for name, c in costs.items():
        assert c["warm"] < 2e-2, (name, c)
    # Serial launches are not slower than thread-spawning ones.
    assert (
        costs["AccCpuSerial"]["warm"] <= costs["AccCpuThreads"]["warm"] * 3
    )


#: An indexed launch may leave this share of itself unattributed to a
#: stage (interpreter frames between the stage functions).
STAGE_SUM_TOLERANCE = 0.10

#: Ceiling on (per-block cost of the interpreted 1024 x 256 AXPY) /
#: (one span of the bare numpy loop): 13x before the index algebra
#: became per-division constants, ~4-6x after, ~3x once proven records
#: run the kernel on plain views instead of ``GuardedArray``.
PER_BLOCK_RATIO_MAX = 6.0


def test_indexed_launch_stages_sum_to_the_launch():
    """What an indexed warm launch costs, by stage.

    The launch is the end-to-end benchmark's ``tiny`` item: one block of
    ``AxpyElementsKernel`` over 256 elements on ``AccCpuOmp2Blocks``
    through ``QueueBlocking.enqueue``.  The hot path carries no timers:
    the bench replays one launch stage by stage, calling the functions
    the launch path calls, in its order and with its arguments, and
    reads the clock between stages.  (Timing each stage alone in a tight
    loop reads ~25 % low — a whole launch does not fit the caches a
    micro-loop enjoys.)  The stages must add up to the real ``enqueue``
    within ``STAGE_SUM_TOLERANCE``, so no part of a launch is without
    an owner.
    """
    from repro.acc.base import Accelerator, BlockContext
    from repro.kernels import AxpyElementsKernel
    from repro.runtime import (
        get_plan,
        instrument,
        observers,
        scheduler_for,
    )
    from repro.sanitize import _state as sanitize_state
    from repro.telemetry.spans import NULL_SPAN, Span, record_span

    n = 256
    acc_type = accelerator("AccCpuOmp2Blocks")
    dev = get_dev_by_idx(acc_type, 0)
    queue = QueueBlocking(dev)
    x = mem.alloc(dev, n, pitched=False)
    y = mem.alloc(dev, n, pitched=False)
    mem.copy(queue, x, np.linspace(0.0, 1.0, n))
    kernel = AxpyElementsKernel()
    task = create_task_kernel(
        acc_type, WorkDivMembers.make(1, 1, n), kernel, n, 0.5, x, y
    )
    empty_queue, empty_task = _setup("AccCpuOmp2Blocks")
    queue.enqueue(task)
    first_plan = get_plan(task, dev)
    assert first_plan.schedule == "sequential"
    assert len(first_plan.block_indices) == 1
    thread_idx = first_plan.block_indices[0] * 0

    stage_names = (
        "plan_lookup", "grid_context", "runner_setup", "kernel_body",
        "modeled_time", "bookkeeping",
    )
    clock = time.perf_counter

    def staged_launch(spent):
        """One launch, unrolled: ``QueueBlocking.enqueue`` ->
        ``runtime.launch`` -> ``execute_plan`` -> sequential dispatch ->
        ``run_block_single_thread``, flattened into its stage calls.
        Warm, the plan lookup is the task's binding, the grid context is
        the plan's record of the task's argument tuple, and the modeled
        time is the record's seconds, counted with the launch in one
        device call."""
        t0 = clock()
        getattr(task, "execute", None)
        sanitize_state.active()
        t1 = clock()
        plan = get_plan(task, dev)
        t2 = clock()
        grid = plan.record_for(task)
        t3 = clock()
        scheduler_for(dev, plan.schedule)
        plan.launches += 1
        region = (
            Span("launch", "launch", dev, {"plan": plan})
            if instrument._observers
            else NULL_SPAN
        )
        region.__enter__()
        bool(observers())
        t4 = clock()
        bidx = plan.block_indices[0]
        acc = Accelerator(grid, BlockContext(grid, bidx, sync=None), thread_idx)
        t5 = clock()
        kernel(acc, *grid.args)
        t6 = clock()
        dev.note_kernel_launch(grid.seconds)
        t7 = clock()
        region.__exit__(None, None, None)
        record_span("queue.drain", cat="queue", device=queue.dev)
        t8 = clock()
        spent["plan_lookup"] += t2 - t1
        spent["grid_context"] += t3 - t2
        spent["runner_setup"] += t5 - t4
        spent["kernel_body"] += t6 - t5
        spent["modeled_time"] += t7 - t6
        spent["bookkeeping"] += (t1 - t0) + (t4 - t3) + (t8 - t7)

    rounds, calls = 9, 200
    cost = {name: float("inf") for name in stage_names}
    whole = {"launch": float("inf"), "empty_launch": float("inf")}
    for _ in range(rounds):
        for name, q, t in (
            ("launch", queue, task), ("empty_launch", empty_queue, empty_task)
        ):
            t0 = clock()
            for _ in range(calls):
                q.enqueue(t)
            whole[name] = min(whole[name], (clock() - t0) / calls)
        spent = dict.fromkeys(stage_names, 0.0)
        for _ in range(calls):
            staged_launch(spent)
        for name in stage_names:
            cost[name] = min(cost[name], spent[name] / calls)
    x.free()
    y.free()

    launch = whole["launch"]
    attributed = sum(cost.values())
    rows = [
        {"Stage": name, "[us]": f"{cost[name] * 1e6:7.2f}",
         "share": f"{cost[name] / launch * 100:5.1f} %"}
        for name in stage_names
    ]
    for label, value in (
        ("sum of stages", attributed),
        ("indexed launch (enqueue)", launch),
        ("empty launch (enqueue)", whole["empty_launch"]),
    ):
        rows.append({"Stage": label, "[us]": f"{value * 1e6:7.2f}",
                     "share": f"{value / launch * 100:5.1f} %"})
    text = render_table(
        rows,
        "Extension: one warm indexed launch (AxpyElementsKernel, n=256, "
        "one block, AccCpuOmp2Blocks) by stage",
    )
    print("\n" + text)
    write_report("launch_overhead_stages.txt", text)
    metrics = {
        f"indexed_stage_{name}": (cost[name], "s") for name in stage_names
    }
    metrics["indexed_warm_launch"] = (launch, "s")
    metrics["indexed_empty_launch"] = (whole["empty_launch"], "s")
    metrics["indexed_stage_sum_over_launch"] = attributed / launch
    _publish(metrics)

    assert abs(attributed / launch - 1.0) <= STAGE_SUM_TOLERANCE, (cost, whole)


def test_per_block_cost_against_bare_span_loop():
    """Per-block cost of the interpreted path as a ratio to the numpy
    floor of the same work in the same process: 1024 blocks of 256
    elements of ``AxpyElementsKernel`` on ``AccCpuOmp2Blocks`` (the
    back-end's default ``pooled`` schedule, pinned) against a bare Python loop of the same 1024 span
    expressions over the same arrays.  A ratio, because raw microseconds
    drift 1.5-2x between hosts and between minutes on a shared one."""
    from repro.kernels import AxpyElementsKernel

    blocks, span = 1024, 256
    n = blocks * span
    acc_type = accelerator("AccCpuOmp2Blocks")
    dev = get_dev_by_idx(acc_type, 0)
    queue = QueueBlocking(dev)
    x = mem.alloc(dev, n, pitched=False)
    y = mem.alloc(dev, n, pitched=False)
    mem.copy(queue, x, np.linspace(0.0, 1.0, n))
    alpha = 1e-3
    # Pinned: the default schedule tiers, and a tiered launch of this
    # plan replays compiled instead of dispatching its blocks.
    task = replace(
        create_task_kernel(
            acc_type, WorkDivMembers.make(blocks, 1, span),
            AxpyElementsKernel(), n, alpha, x, y,
        ),
        schedule="pooled",
    )
    queue.enqueue(task)
    xa, ya = x.as_numpy(), y.as_numpy()

    def bare():
        for b in range(blocks):
            s = slice(b * span, (b + 1) * span)
            ya[s] = alpha * xa[s] + ya[s]

    cost = _best_of_rounds(
        {"launch": lambda: queue.enqueue(task), "bare": bare}, rounds=9, calls=3
    )
    x.free()
    y.free()
    ratio = cost["launch"] / cost["bare"]
    text = render_table(
        [{
            "interpreted [us/block]": f"{cost['launch'] / blocks * 1e6:6.2f}",
            "bare numpy [us/span]": f"{cost['bare'] / blocks * 1e6:6.2f}",
            "ratio": f"{ratio:5.2f}x",
            "gate": f"<= {PER_BLOCK_RATIO_MAX:.0f}x",
        }],
        "Extension: per-block cost, 1024 x 256 AXPY on AccCpuOmp2Blocks "
        "vs. the bare per-span numpy loop",
    )
    print("\n" + text)
    write_report("launch_overhead_per_block.txt", text)
    _publish({
        "axpy_1024_blocks_per_block": (cost["launch"] / blocks, "s"),
        "axpy_1024_blocks_bare_span": (cost["bare"] / blocks, "s"),
        "axpy_1024_blocks_per_block_ratio": (ratio, "x"),
    })

    assert ratio <= PER_BLOCK_RATIO_MAX, cost


def test_compiled_replay_launch_overhead():
    """The `compiled` strategy's warm-launch cost: after the cold trace,
    every launch is one cached-replay dispatch — no re-trace, and a
    per-launch cost in the same band as the other single-dispatch
    back-ends (a replay that secretly re-traced would sit orders of
    magnitude above it)."""
    import os

    from repro.compile import compile_stats, reset_compile_stats
    from repro.runtime.scheduler import SCHEDULER_ENV

    prev = os.environ.get(SCHEDULER_ENV)
    os.environ[SCHEDULER_ENV] = "compiled"
    clear_plan_cache()
    reset_compile_stats()
    try:
        import numpy as np

        from repro import mem
        from repro.kernels import AxpyKernel

        acc = accelerator("AccCpuOmp2Blocks")
        dev = get_dev_by_idx(acc, 0)
        queue = QueueBlocking(dev)
        n = 64
        x = mem.alloc(dev, n)
        y = mem.alloc(dev, n)
        x.as_numpy()[:] = np.arange(float(n))
        task = create_task_kernel(
            acc, WorkDivMembers.make(n, 1, 1), AxpyKernel(), n, 1.5, x, y
        )
        queue.enqueue(task)  # cold: trace + compile

        def launch():
            for _ in range(LAUNCHES):
                queue.enqueue(task)

        warm = measure_wall(launch, repeat=3) / LAUNCHES
        stats = compile_stats()
        x.free()
        y.free()
    finally:
        if prev is None:
            os.environ.pop(SCHEDULER_ENV, None)
        else:
            os.environ[SCHEDULER_ENV] = prev
        clear_plan_cache()

    text = render_table(
        [{
            "Strategy": "compiled (warm replay)",
            "warm [us]": f"{warm * 1e6:8.1f}",
            "traces": str(stats["traces"]),
            "retraces": str(stats["retraces"]),
        }],
        "Extension: compiled-replay launch overhead (64-thread AXPY)",
    )
    print("\n" + text)
    write_report("launch_overhead_compiled.txt", text)
    write_bench_json(
        "launch_overhead_compiled",
        {
            "compiled_warm_launch": (warm, "s"),
            "compiled_traces": stats["traces"],
            "compiled_retraces": stats["retraces"],
        },
    )

    # Warm compiled replay must never re-trace.
    assert stats["traces"] == 1, stats
    assert stats["retraces"] == 0, stats
    assert stats["fallbacks"] == {}, stats
    # Same order-of-magnitude band as the other warm launches.
    assert warm < 2e-2, warm


def test_chunking_precomputed_in_plan():
    """Warm launches must not re-partition block indices: the chunked
    dispatch geometry is memoised on the cached ``LaunchPlan``
    (``chunks_for``), and the pooled scheduler consults it rather than
    re-running ``chunk_indices`` per dispatch."""
    from repro.runtime import get_plan, resolve_max_block_workers

    acc = accelerator("AccCpuOmp2Blocks")
    dev = get_dev_by_idx(acc, 0)
    queue = QueueBlocking(dev)
    task = create_task_kernel(acc, WorkDivMembers.make(32, 1, 1), _empty)
    queue.enqueue(task)
    plan = get_plan(task, dev)
    assert plan.schedule == "pooled"

    workers = resolve_max_block_workers()
    chunks = plan.chunks_for(workers)
    # Memoised: the same object on every consultation.
    assert plan.chunks_for(workers) is chunks
    assert sum(len(c) for c in chunks) == 32

    # And dispatch actually reads the memoised geometry: intercept the
    # plan's accessor and relaunch.
    consulted = []
    orig = plan.chunks_for
    plan.chunks_for = lambda w: (consulted.append(w), orig(w))[1]
    try:
        queue.enqueue(task)
    finally:
        plan.chunks_for = orig
    assert consulted == [workers]


def test_telemetry_fast_path_when_unobserved():
    """The telemetry guard, structural half: with no observer registered
    the span helper must return the shared no-op singleton — one falsy
    check, no allocation, no clock read — so an unobserved launch pays
    nothing for the telemetry layer's existence."""
    from repro.runtime.instrument import observers
    from repro.telemetry.spans import NULL_SPAN, span

    assert observers() == ()
    assert span("launch") is NULL_SPAN
    assert span("mem.copy", cat="mem") is NULL_SPAN
    assert span("plan.build", cat="runtime", extra="attr") is NULL_SPAN


def test_telemetry_overhead_bounded():
    """The telemetry guard, measured half: warm launches with a
    collector registered must stay within an order of magnitude of the
    bare path (block timing + histogram updates cost something, but a
    collector must never turn microsecond launches into millisecond
    ones).  The unobserved band itself is asserted by
    ``test_launch_overhead``."""
    from repro import telemetry

    bare = _warm_cost("AccCpuSerial")
    with telemetry.collect():
        observed = _warm_cost("AccCpuSerial")
    assert observed < max(bare * 10, 2e-3), (bare, observed)
