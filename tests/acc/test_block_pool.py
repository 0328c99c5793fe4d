"""Per-device block-worker pools under concurrent launches."""

import threading

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    QueueBlocking,
    QueueNonBlocking,
    WorkDivMembers,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.core.element import grid_strided_spans
from repro.runtime.scheduler import PooledScheduler, scheduler_for


class TestPerDevicePool:
    def test_scheduler_is_cached_per_device(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        a = scheduler_for(dev, "pooled")
        b = scheduler_for(dev, "pooled")
        assert a is b
        assert isinstance(a, PooledScheduler)
        assert a.worker_count >= 1

    def test_sequential_and_pooled_are_distinct(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        assert scheduler_for(dev, "pooled") is not scheduler_for(
            dev, "sequential"
        )

    def test_concurrent_launches_share_pool_safely(self):
        """Two non-blocking queues launching block-parallel kernels at
        the same time: no deadlock, both results correct."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        n = 4096

        @fn_acc
        def double(acc, m, data):
            for span in grid_strided_spans(acc, m):
                data[span] *= 2.0

        queues, bufs = [], []
        for _ in range(3):
            q = QueueNonBlocking(dev)
            buf = mem.alloc(dev, n)
            mem.copy(q, buf, np.ones(n))
            wd = WorkDivMembers.make(64, 1, 64)
            for _ in range(4):
                q.enqueue(create_task_kernel(AccCpuOmp2Blocks, wd, double, n, buf))
            queues.append(q)
            bufs.append(buf)
        for q in queues:
            q.wait()
            q.destroy()
        for buf in bufs:
            assert np.all(buf.as_numpy() == 16.0)
            buf.free()

    def test_pool_exception_does_not_poison_pool(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)

        @fn_acc
        def bad(acc):
            raise RuntimeError("block failure")

        @fn_acc
        def good(acc, out):
            acc.atomic_add(out, 0, 1.0)

        from repro.core.errors import KernelError

        q = QueueBlocking(dev)
        wd = WorkDivMembers.make(8, 1, 1)
        with pytest.raises(KernelError):
            q.enqueue(create_task_kernel(AccCpuOmp2Blocks, wd, bad))
        out = mem.alloc(dev, 1)
        q.enqueue(create_task_kernel(AccCpuOmp2Blocks, wd, good, out))
        assert out.as_numpy()[0] == 8.0
        out.free()

    def test_many_blocks_complete_through_bounded_pool(self):
        """More blocks than pool workers: all still execute exactly
        once (chunked dispatch covers the whole grid)."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        from repro.core import Blocks, Grid, get_idx

        @fn_acc
        def mark(acc, data):
            bi = get_idx(acc, Grid, Blocks)[0]
            acc.atomic_add(data, bi, 1.0)

        q = QueueBlocking(dev)
        buf = mem.alloc(dev, 500)
        wd = WorkDivMembers.make(500, 1, 1)
        q.enqueue(create_task_kernel(AccCpuOmp2Blocks, wd, mark, buf))
        assert np.all(buf.as_numpy() == 1.0)
        buf.free()

    def test_chunked_dispatch_uses_multiple_workers(self):
        """A large grid actually spreads over more than one pool
        thread (not serialised through a single chunk)."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        if scheduler_for(dev, "pooled").worker_count < 2:
            pytest.skip("one block worker: nothing to spread over")
        threads_seen = set()
        lock = threading.Lock()
        # The first block on each of two workers waits for the other, so
        # the launch completes only if two chunks run at the same time.
        meet = threading.Barrier(2, timeout=30)

        @fn_acc
        def snoop(acc):
            me = threading.get_ident()
            with lock:
                first = me not in threads_seen and len(threads_seen) < 2
                threads_seen.add(me)
            if first:
                meet.wait()

        q = QueueBlocking(dev)
        wd = WorkDivMembers.make(32, 1, 1)
        q.enqueue(create_task_kernel(AccCpuOmp2Blocks, wd, snoop))
        assert len(threads_seen) > 1
