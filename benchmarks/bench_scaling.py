"""Extension: real multi-core scaling of block dispatch.

The paper's central claim is that one kernel source maps onto genuinely
parallel back-ends with zero abstraction overhead (Sec. 3.3, Figs. 8-9).
On the OMP2-blocks back-end the blocks of a launch run on the device's
thread pool; an element-level kernel spends its time in numpy span
operations, which release the interpreter lock, so the pool's threads
genuinely overlap.

This bench runs element-level AXPY and GEMM — the two kernels the
paper's CPU evaluation leans on — under every block-scheduling strategy
and reports wall-clock speedups over sequential dispatch.  Two
properties are asserted:

* **identity** — results are bit-identical across all schedulers,
  always (a scheduler that changes answers is wrong, not fast);
* **scaling** — the schedule ``autotune(..., tune_schedule=True)``
  stores for the AXPY launch (2^22 elements, 16 blocks) runs it >= 1.5x
  faster than sequential dispatch on hosts with two or more cores
  (skipped on single-core hosts, where no wall-clock win is possible).
  ``REPRO_REQUIRE_SCALING`` sets the required factor explicitly — CI's
  2-core job sets it so the assertion can never silently self-disable.
"""

import contextlib
import os
import tempfile

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.acc.cpu import AccCpuOmp2Blocks
from repro.bench import measure_wall, write_bench_json, write_report
from repro.comparison import render_table
from repro.kernels.axpy import AxpyElementsKernel, axpy_reference
from repro.kernels.gemm import GemmOmpStyleKernel, dgemm_reference
from repro.runtime import get_plan, shutdown_schedulers
from repro.runtime.scheduler import SCHEDULER_ENV
from repro.tuning import SEARCH_STRATEGIES, SearchResult, Trial, TuningCache, autotune

#: The REPRO_SCHEDULER values; each is the plan schedule it resolves to.
SCHEDULES = ("sequential", "pooled", "compiled")

AXPY_N = 1 << 22
AXPY_BLOCKS = 16
AXPY_LAUNCHES = 4
#: Best-of rounds per AXPY timing: the gated ratio divides two timings
#: taken seconds apart, so each must shed a neighbour's burst on a
#: shared host.
AXPY_REPEAT = 7

#: Work division for the trace-vectorization gate: GPU-style block-heavy
#: decomposition where per-block interpretation overhead dominates —
#: the regime the compiled replay exists to eliminate.
COMPILED_BLOCKS = 16384
COMPILED_SPEEDUP_ENV = "REPRO_REQUIRE_COMPILED_SPEEDUP"

GEMM_N = 384
GEMM_ROWS_PER_BLOCK = 24
GEMM_LAUNCHES = 2


def _required_speedup():
    """The tuned-vs-sequential factor this host must reach, or None
    when the host cannot parallelise at all (single core)."""
    env = os.environ.get("REPRO_REQUIRE_SCALING")
    if env:
        return float(env)
    return 1.5 if (os.cpu_count() or 1) >= 2 else None


class _ForcedSchedule:
    def __init__(self, value):
        self.value = value

    def __enter__(self):
        self.prev = os.environ.get(SCHEDULER_ENV)
        os.environ[SCHEDULER_ENV] = self.value
        return self

    def __exit__(self, *exc):
        if self.prev is None:
            os.environ.pop(SCHEDULER_ENV, None)
        else:
            os.environ[SCHEDULER_ENV] = self.prev


def _run_axpy(schedule_env):
    """(wall seconds per launch, final y array) under one strategy."""
    dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
    queue = QueueBlocking(dev)
    n = AXPY_N
    x = mem.alloc(dev, n)
    y = mem.alloc(dev, n)
    rng = np.random.default_rng(7)
    x0 = rng.random(n)
    y0 = rng.random(n)
    x.as_numpy()[:] = x0
    wd = WorkDivMembers.make(
        (AXPY_BLOCKS,), (1,), (-(-n // AXPY_BLOCKS),)
    )
    task = create_task_kernel(
        AccCpuOmp2Blocks, wd, AxpyElementsKernel(), n, 1.5, x, y
    )
    with _ForcedSchedule(schedule_env):
        plan = get_plan(task, dev)
        assert plan.schedule == schedule_env, (
            schedule_env,
            plan.schedule,
        )
        y.as_numpy()[:] = y0
        queue.enqueue(task)  # warm: plan cached, pool started
        result = y.as_numpy().copy()
        assert np.array_equal(result, axpy_reference(1.5, x0, y0))

        def launches():
            for _ in range(AXPY_LAUNCHES):
                queue.enqueue(task)

        seconds = measure_wall(launches, repeat=AXPY_REPEAT) / AXPY_LAUNCHES
    x.free()
    y.free()
    return seconds, result


def _run_gemm(schedule_env):
    """(wall seconds per launch, final C array) under one strategy."""
    dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
    queue = QueueBlocking(dev)
    n = GEMM_N
    rng = np.random.default_rng(11)
    a0 = rng.random((n, n))
    b0 = rng.random((n, n))
    c0 = rng.random((n, n))
    A = mem.alloc(dev, (n, n))
    B = mem.alloc(dev, (n, n))
    C = mem.alloc(dev, (n, n))
    A.as_numpy()[:] = a0
    B.as_numpy()[:] = b0
    blocks = -(-n // GEMM_ROWS_PER_BLOCK)
    wd = WorkDivMembers.make((blocks,), (1,), (GEMM_ROWS_PER_BLOCK,))
    task = create_task_kernel(
        AccCpuOmp2Blocks, wd, GemmOmpStyleKernel(), n, 1.0, A, B, 1.0, C
    )
    with _ForcedSchedule(schedule_env):
        plan = get_plan(task, dev)
        assert plan.schedule == schedule_env
        C.as_numpy()[:] = c0
        queue.enqueue(task)
        result = C.as_numpy().copy()
        assert np.allclose(result, dgemm_reference(1.0, a0, b0, 1.0, c0))

        def launches():
            for _ in range(GEMM_LAUNCHES):
                queue.enqueue(task)

        seconds = measure_wall(launches, repeat=3) / GEMM_LAUNCHES
    A.free()
    B.free()
    C.free()
    return seconds, result


@contextlib.contextmanager
def _search_pinned_to(block_count):
    """A search strategy, ``"pinned"``, that measures only the candidate
    division with ``block_count`` blocks.

    The tuner's own strategies always measure the Table 2 seed first;
    for AXPY 2^22 on this back-end that seed has 2^22 one-element
    blocks, and a search that measures it runs for minutes.  Pinning the
    division keeps every other step of ``autotune`` — the schedule
    sweep, dropping a schedule that fell back, storing the winner —
    exactly as it runs.
    """

    def pinned(candidates, objective, **_):
        wd = next(c for c in candidates if c.block_count == block_count)
        trial = Trial(wd, objective(wd))
        return SearchResult(best=trial, trials=[trial], strategy="pinned")

    SEARCH_STRATEGIES["pinned"] = pinned
    try:
        yield "pinned"
    finally:
        del SEARCH_STRATEGIES["pinned"]


def _tuned_axpy_schedule():
    """The schedule ``autotune(..., tune_schedule=True)`` stores for the
    bench's AXPY launch (2^22 elements, 16 blocks)."""
    dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
    n = AXPY_N
    x = mem.alloc(dev, n)
    y = mem.alloc(dev, n)
    x.as_numpy()[:] = np.random.default_rng(7).random(n)
    kernel = AxpyElementsKernel()
    with tempfile.TemporaryDirectory() as tmp:
        cache = TuningCache(os.path.join(tmp, "tuning-cache.json"))
        with _search_pinned_to(AXPY_BLOCKS) as strategy:
            autotune(
                kernel, AccCpuOmp2Blocks, n, (n, 1.5, x, y), device=dev,
                strategy=strategy, cache=cache, force=True,
                max_total_elems=-(-n // AXPY_BLOCKS), tune_schedule=True,
            )
        entry = cache.get(kernel, AccCpuOmp2Blocks, dev, n)
    x.free()
    y.free()
    assert entry.work_div.block_count == AXPY_BLOCKS, entry
    return entry.schedule


def test_scaling():
    clear_plan_cache()
    axpy = {}
    gemm = {}
    axpy_results = {}
    gemm_results = {}
    try:
        for env_value in SCHEDULES:
            axpy[env_value], axpy_results[env_value] = _run_axpy(env_value)
            gemm[env_value], gemm_results[env_value] = _run_gemm(env_value)
        tuned = _tuned_axpy_schedule()
    finally:
        shutdown_schedulers()

    # Identity first: a fast wrong answer is a wrong answer.  The
    # kernels are pure numpy expressions over disjoint spans, so every
    # strategy must be *bit*-identical, not merely close.
    for env_value in SCHEDULES:
        assert np.array_equal(
            axpy_results[env_value], axpy_results["sequential"]
        ), f"AXPY result differs under {env_value}"
        assert np.array_equal(
            gemm_results[env_value], gemm_results["sequential"]
        ), f"GEMM result differs under {env_value}"

    speedup = axpy["sequential"] / axpy[tuned]
    rows = [
        {
            "Strategy": env_value + (" (tuned)" if env_value == tuned else ""),
            "AXPY [ms]": f"{axpy[env_value] * 1e3:8.2f}",
            "AXPY speedup": f"{axpy['sequential'] / axpy[env_value]:5.2f}x",
            "GEMM [ms]": f"{gemm[env_value] * 1e3:8.2f}",
            "GEMM speedup": f"{gemm['sequential'] / gemm[env_value]:5.2f}x",
        }
        for env_value in SCHEDULES
    ]
    text = render_table(
        rows,
        "Extension: block-dispatch scaling, element-level AXPY "
        f"(n=2^22, {AXPY_BLOCKS} blocks) and GEMM (n={GEMM_N}) on "
        f"{os.cpu_count()} cores",
    )
    print("\n" + text)
    write_report("scaling.txt", text)
    metrics = {}
    for env_value in SCHEDULES:
        metrics[f"axpy_{env_value}"] = (axpy[env_value], "s")
        metrics[f"gemm_{env_value}"] = (gemm[env_value], "s")
    metrics["axpy_tuned_speedup"] = (speedup, "x")
    write_bench_json("scaling", metrics)

    required = _required_speedup()
    if required is not None:
        assert speedup >= required, (
            f"tuned AXPY schedule {tuned!r} runs {speedup:.2f}x sequential, "
            f"below the required {required:.1f}x on {os.cpu_count()} cores"
        )


def test_compiled_vectorization_gate():
    """The trace-vectorizer's acceptance gate: element AXPY at n=2^22
    under a block-heavy work division runs >= 5x faster compiled than
    interpreted sequential, bit-identically, and warm replays never
    re-trace.  ``REPRO_REQUIRE_COMPILED_SPEEDUP`` overrides the factor
    (CI sets it explicitly so the gate cannot silently relax)."""
    from repro.compile import compile_stats, reset_compile_stats

    n = AXPY_N
    blocks = COMPILED_BLOCKS
    rng = np.random.default_rng(7)
    x0 = rng.random(n)
    y0 = rng.random(n)
    expected = axpy_reference(1.5, x0, y0)

    def run(schedule_env):
        clear_plan_cache()
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        queue = QueueBlocking(dev)
        x = mem.alloc(dev, n)
        y = mem.alloc(dev, n)
        x.as_numpy()[:] = x0
        y.as_numpy()[:] = y0
        wd = WorkDivMembers.make((blocks,), (1,), (-(-n // blocks),))
        task = create_task_kernel(
            AccCpuOmp2Blocks, wd, AxpyElementsKernel(), n, 1.5, x, y
        )
        with _ForcedSchedule(schedule_env):
            plan = get_plan(task, dev)
            assert plan.schedule == schedule_env
            queue.enqueue(task)  # warm: trace once, cache the replay
            result = y.as_numpy().copy()
            y.as_numpy()[:] = y0

            def launches():
                for _ in range(AXPY_LAUNCHES):
                    queue.enqueue(task)

            seconds = measure_wall(launches, repeat=3) / AXPY_LAUNCHES
        x.free()
        y.free()
        return seconds, result

    seq_s, seq_result = run("sequential")
    reset_compile_stats()
    comp_s, comp_result = run("compiled")
    stats = compile_stats()

    # Identity: the vectorised replay is the same numpy ops in the same
    # order, so bytes must match — not merely be close.
    assert np.array_equal(comp_result, expected)
    assert np.array_equal(comp_result, seq_result)

    # Warm replay: one trace on the cold launch, zero re-traces over
    # every warm launch (1 explicit + (warmup+repeat) timing rounds of
    # AXPY_LAUNCHES each), no fallbacks.
    assert stats["traces"] == 1, stats
    assert stats["retraces"] == 0, stats
    assert stats["fallbacks"] == {}, stats
    assert stats["compiled_launches"] == 1 + 4 * AXPY_LAUNCHES, stats

    speedup = seq_s / comp_s
    required = float(os.environ.get(COMPILED_SPEEDUP_ENV, "5.0"))
    text = render_table(
        [
            {
                "Strategy": name,
                "AXPY [ms]": f"{sec * 1e3:8.2f}",
                "speedup": f"{seq_s / sec:5.2f}x",
            }
            for name, sec in (
                ("sequential", seq_s),
                ("compiled", comp_s),
            )
        ],
        "Extension: trace-vectorized replay, element-level AXPY "
        f"(n=2^22, {blocks} blocks) on {os.cpu_count()} cores",
    )
    print("\n" + text)
    write_report("compiled.txt", text)
    write_bench_json(
        "compiled",
        {
            "axpy_sequential": (seq_s, "s"),
            "axpy_compiled": (comp_s, "s"),
            "speedup": speedup,
            "traces": stats["traces"],
            "retraces": stats["retraces"],
        },
    )
    assert speedup >= required, (
        f"compiled AXPY speedup {speedup:.2f}x below the required "
        f"{required:.1f}x ({blocks} blocks, {os.cpu_count()} cores)"
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
