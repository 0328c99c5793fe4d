"""Concurrent ``launch()`` from many threads sharing one device.

The serving gateway runs one lane thread per device queue, and user
code may call ``launch()`` from its own threads at the same time — the
plan cache (keyed task lookups with an LRU lock), the tuning
generation, and the device's launch accounting must all hold up under
contention without corrupting results or counts.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    accelerator,
    create_task_kernel,
    divide_work,
    get_dev_by_idx,
    mem,
)
from repro.kernels import AxpyElementsKernel, ScaleKernel
from repro.queue.queue import QueueBlocking
from repro.runtime import clear_plan_cache, launch, plan_cache_info

THREADS = 16
LAUNCHES_PER_THREAD = 8
N = 512


@pytest.fixture
def acc():
    return accelerator("AccCpuSerial")


@pytest.fixture
def device(acc):
    return get_dev_by_idx(acc, 0)


def _axpy_once(acc, device, rng):
    x_host = rng.standard_normal(N)
    y_host = rng.standard_normal(N)
    queue = QueueBlocking(device)
    x = mem.alloc(device, (N,), pitched=False)
    y = mem.alloc(device, (N,), pitched=False)
    mem.copy(queue, x, x_host)
    mem.copy(queue, y, y_host)
    props = acc.get_acc_dev_props(device)
    work_div = divide_work(
        N, props, acc.mapping_strategy, thread_elems=256
    )
    task = create_task_kernel(
        acc, work_div, AxpyElementsKernel(), N, 2.0, x, y
    )
    try:
        launch(task, device)
        out = np.empty(N)
        mem.copy(queue, out, y)
    finally:
        x.free()
        y.free()
    return x_host, y_host, out


class TestConcurrentLaunch:
    def test_sixteen_thread_hammer(self, acc, device):
        """16 threads x 8 launches on one device: every result correct,
        no exception, launch accounting exact."""
        clear_plan_cache()
        count_before = device.kernel_launch_count
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait(timeout=30)
                for _ in range(LAUNCHES_PER_THREAD):
                    x, y, out = _axpy_once(acc, device, rng)
                    if not np.array_equal(out, 2.0 * x + y):
                        raise AssertionError("wrong result under contention")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(1000 + i,))
            for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors[:3]
        # The unsynchronized += this guards against loses updates; the
        # count must be exact, not merely close.
        assert (
            device.kernel_launch_count - count_before
            == THREADS * LAUNCHES_PER_THREAD
        )

    def test_plan_cache_hits_under_contention(self, acc, device):
        """Identical tasks from many threads must share one cached plan
        (no duplicate inserts, no corrupted stats)."""
        clear_plan_cache()
        rng = np.random.default_rng(0)
        x_host = rng.standard_normal(N)
        y_host = rng.standard_normal(N)
        barrier = threading.Barrier(8)
        errors = []
        # One shared kernel instance: the plan key includes kernel
        # identity, and sharing it is exactly what the serving
        # workloads (and any long-lived launcher) do.
        kernel = ScaleKernel()

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(10):
                    queue = QueueBlocking(device)
                    x = mem.alloc(device, (N,), pitched=False)
                    y = mem.alloc(device, (N,), pitched=False)
                    mem.copy(queue, x, x_host)
                    mem.copy(queue, y, y_host)
                    props = acc.get_acc_dev_props(device)
                    work_div = divide_work(
                        N, props, acc.mapping_strategy, thread_elems=256
                    )
                    task = create_task_kernel(
                        acc, work_div, kernel, N, 3.0, x, y
                    )
                    try:
                        launch(task, device)
                    finally:
                        x.free()
                        y.free()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors[:3]
        info = plan_cache_info()
        total = info["hits"] + info["misses"]
        assert total >= 80
        # One plan serves everyone after the first resolution: hit rate
        # must dominate (a tiny miss burst at the start is fine).
        assert info["hits"] >= total - 8

    def test_one_task_from_many_threads_keeps_counts_exact(self, monkeypatch):
        """One task launched from more threads than cores at once shares
        one plan binding, one argument record and one compiled replay;
        every count that reads them stays exact."""
        import sys

        from repro import AccCpuOmp2Blocks, WorkDivMembers
        from repro.acc.timing import modeled_seconds
        from repro.compile import compile_stats, reset_compile_stats
        from repro.runtime import get_plan

        monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
        clear_plan_cache()
        reset_compile_stats()
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        x = mem.alloc(dev, (N,), pitched=False)
        y = mem.alloc(dev, (N,), pitched=False)
        task = create_task_kernel(
            AccCpuOmp2Blocks, WorkDivMembers.make(4, 1, N // 4),
            AxpyElementsKernel(), N, 0.5, x, y,
        )
        launch(task, dev)  # cold: plan build, trace
        dev.reset_sim_time()
        count0 = dev.kernel_launch_count
        workers, per_thread = 4, 150
        barrier = threading.Barrier(workers)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(per_thread):
                    launch(task, dev)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        warm = workers * per_thread
        plan = get_plan(task, dev)
        assert plan_cache_info()["misses"] == 1
        assert plan_cache_info()["hits"] == warm + 1  # + get_plan above
        stats = compile_stats()
        assert stats["cache_hits"] == warm
        assert stats["compiled_launches"] == warm + 1
        assert dev.kernel_launch_count - count0 == warm
        one = modeled_seconds(task, dev, plan.acc_type.kind, plan.work_div)
        assert dev.sim_time_fs == warm * round(one * 1e15)
        x.free()
        y.free()
        clear_plan_cache()

    def test_concurrent_distinct_kernels(self, acc, device):
        """Different tasks interleaved from different threads: distinct
        plans coexist without cross-talk."""
        clear_plan_cache()
        errors = []

        def axpy_worker():
            rng = np.random.default_rng(42)
            try:
                for _ in range(6):
                    x, y, out = _axpy_once(acc, device, rng)
                    assert np.array_equal(out, 2.0 * x + y)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def gemm_worker():
            from repro.serve import LaunchRequest, get_workload

            rng = np.random.default_rng(43)
            try:
                for _ in range(3):
                    A = rng.standard_normal((24, 24))
                    B = rng.standard_normal((24, 24))
                    req = LaunchRequest(
                        workload="gemm",
                        params={"alpha": 1.0, "beta": 0.0},
                        arrays={"A": A, "B": B},
                    )
                    out = get_workload("gemm").execute(
                        [req], acc, device
                    )[0]
                    assert out["C"].shape == (24, 24)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=axpy_worker) for _ in range(4)]
        threads += [threading.Thread(target=gemm_worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors[:3]
