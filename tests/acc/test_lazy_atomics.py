"""The grid-scope atomic domain is created by the first atomic of a
launch, once."""

import sys
import threading

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    WorkDivMembers,
    accelerator,
    accelerator_names,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.acc.engine import run_block_single_thread
from repro.atomic.ops import AtomicDomain
from repro.core.vec import Vec
from repro.kernels import (
    AxpyElementsKernel,
    HistogramKernel,
    histogram_reference,
)
from repro.runtime import get_plan


def _grid(n=64, blocks=4):
    acc = accelerator("AccCpuSerial")
    dev = get_dev_by_idx(acc, 0)
    x, y = mem.alloc(dev, n), mem.alloc(dev, n)
    task = create_task_kernel(
        acc, WorkDivMembers.make(blocks, 1, n // blocks),
        AxpyElementsKernel(), n, 2.0, x, y,
    )
    plan = get_plan(task, dev)
    grid = plan.grid_for(task)
    return grid, task, (x, y)


class TestLazyAtomicDomain:
    def test_a_launch_without_atomics_allocates_no_domain(self):
        grid, task, bufs = _grid()
        for b in range(4):
            run_block_single_thread(grid, Vec(b), task.kernel, grid.args)
        assert grid._atomics is None
        for buf in bufs:
            buf.free()

    def test_first_use_creates_it_once(self):
        grid, _task, bufs = _grid()
        dom = grid.atomics
        assert isinstance(dom, AtomicDomain)
        assert grid.atomics is dom
        for buf in bufs:
            buf.free()

    def test_32_threads_racing_to_the_first_atomic_share_one_domain(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # widen the first-use race window
        try:
            for _ in range(20):
                grid, _task, bufs = _grid()
                start = threading.Barrier(32)
                seen = []

                def first_atomic(grid=grid, start=start, seen=seen):
                    start.wait(timeout=30)
                    seen.append(grid.atomics)

                threads = [threading.Thread(target=first_atomic) for _ in range(32)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 32
                assert len({id(d) for d in seen}) == 1
                assert grid.atomics is seen[0]
                for buf in bufs:
                    buf.free()
        finally:
            sys.setswitchinterval(interval)

    def test_racing_atomic_adds_lose_no_update(self):
        """The same race through the kernel-facing call: concurrent
        blocks whose very first atomic hits one cell."""
        acc = accelerator("AccCpuOmp2Blocks")
        dev = get_dev_by_idx(acc, 0)
        total = mem.alloc(dev, 1)
        total.as_numpy()[:] = 0.0

        @fn_acc
        def bump(acc, out):
            for _ in range(50):
                acc.atomic_add(out, 0, 1.0)

        q = QueueBlocking(dev)
        for _ in range(5):
            q.enqueue(create_task_kernel(acc, WorkDivMembers.make(64, 1, 1), bump, total))
        assert total.as_numpy()[0] == 5 * 64 * 50
        total.free()


@pytest.mark.parametrize("backend", accelerator_names())
def test_histogram_correct_on_every_backend(backend):
    """An atomics kernel (shared-memory bins merged with global atomic
    adds) end to end on each back-end."""
    acc = accelerator(backend)
    dev = get_dev_by_idx(acc, 0)
    q = QueueBlocking(dev)
    n, bins = 1500, 12
    data = np.random.default_rng(11).random(n) * 0.999
    x, hist = mem.alloc(dev, n), mem.alloc(dev, bins)
    mem.copy(q, x, data)
    mem.memset(q, hist, 0.0)
    if acc.supports_block_sync:
        wd = WorkDivMembers.make(4, 4, -(-n // 16))
    else:
        wd = WorkDivMembers.make(8, 1, -(-n // 8))
    q.enqueue(
        create_task_kernel(acc, wd, HistogramKernel(), n, 0.0, 1.0, bins, x, hist)
    )
    got = np.zeros(bins)
    mem.copy(q, got, hist)
    np.testing.assert_array_equal(got, histogram_reference(data, bins, 0.0, 1.0))
    x.free()
    hist.free()
