"""LaunchPlan construction and the LRU plan cache."""

import numpy as np
import pytest

from repro import (
    AccCpuFibers,
    AccCpuOmp2Blocks,
    AccCpuSerial,
    AccGpuCudaSim,
    QueueBlocking,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
    plan_cache_info,
)
from repro.core.errors import InvalidWorkDiv, SharedMemError
from repro.runtime import build_plan, get_plan
from repro.acc.engine import (
    run_block_cooperative,
    run_block_single_thread,
)


@fn_acc
def _noop(acc):
    pass


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestBuildPlan:
    def test_captures_strategy_pair(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        task = create_task_kernel(
            AccCpuOmp2Blocks, WorkDivMembers.make(8, 1, 1), _noop
        )
        plan = build_plan(task, dev)
        assert plan.schedule == "pooled"
        assert plan.block_runner is run_block_single_thread
        assert len(plan.block_indices) == 8
        assert plan.props.dim == 1

    def test_fiber_backend_stays_sequential_and_cooperative(self):
        dev = get_dev_by_idx(AccCpuFibers, 0)
        task = create_task_kernel(
            AccCpuFibers, WorkDivMembers.make(4, 2, 1), _noop
        )
        plan = build_plan(task, dev)
        assert plan.schedule == "sequential"
        assert plan.block_runner is run_block_cooperative

    def test_one_block_grid_plans_sequential(self):
        """Pool dispatch of a single block is pure overhead; the plan
        removes it."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        task = create_task_kernel(
            AccCpuOmp2Blocks, WorkDivMembers.make(1, 1, 64), _noop
        )
        assert build_plan(task, dev).schedule == "sequential"

    def test_invalid_work_div_raises_at_plan_time(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        task = create_task_kernel(
            AccCpuSerial, WorkDivMembers.make(1, 64, 1), _noop
        )
        with pytest.raises(InvalidWorkDiv):
            build_plan(task, dev)
        # Nothing was cached for the failing configuration.
        get_plan_raises = pytest.raises(InvalidWorkDiv)
        with get_plan_raises:
            get_plan(task, dev)
        assert plan_cache_info()["size"] == 0

    def test_oversized_shared_mem_rejected(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        task = create_task_kernel(
            AccGpuCudaSim,
            WorkDivMembers.make(1, 1, 1),
            _noop,
            shared_mem_bytes=1 << 32,
        )
        with pytest.raises(SharedMemError):
            build_plan(task, dev)


class TestPlanCache:
    def test_repeated_launch_hits_cache(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(
            AccCpuSerial, WorkDivMembers.make(4, 1, 1), _noop
        )
        for _ in range(5):
            q.enqueue(task)
        info = plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 4

    def test_distinct_work_divs_get_distinct_plans(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        t1 = create_task_kernel(AccCpuSerial, WorkDivMembers.make(4, 1, 1), _noop)
        t2 = create_task_kernel(AccCpuSerial, WorkDivMembers.make(8, 1, 1), _noop)
        p1, p2 = get_plan(t1, dev), get_plan(t2, dev)
        assert p1 is not p2
        assert plan_cache_info()["size"] == 2

    def test_equal_work_div_same_kernel_shares_plan(self):
        """Two distinct task objects with the same (kernel, work-div,
        device) share one plan — the cache keys on configuration, not
        task identity."""
        dev = get_dev_by_idx(AccCpuSerial, 0)
        t1 = create_task_kernel(AccCpuSerial, WorkDivMembers.make(4, 1, 1), _noop)
        t2 = create_task_kernel(AccCpuSerial, WorkDivMembers.make(4, 1, 1), _noop)
        assert get_plan(t1, dev) is get_plan(t2, dev)

    def test_per_device_keying(self):
        d0 = get_dev_by_idx(AccGpuCudaSim, 0)
        d1 = get_dev_by_idx(AccGpuCudaSim, 1)
        task = create_task_kernel(
            AccGpuCudaSim, WorkDivMembers.make(2, 2, 1), _noop
        )
        assert get_plan(task, d0) is not get_plan(task, d1)

    def test_clear_resets_counters(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(2, 1, 1), _noop)
        get_plan(task, dev)
        get_plan(task, dev)
        clear_plan_cache()
        info = plan_cache_info()
        assert info == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "maxsize": info["maxsize"],
        }

    @pytest.mark.parametrize("which", ["launch", "graph"])
    def test_least_recently_used_plan_evicts_first(self, which, monkeypatch):
        """Both caches are one LRU: a hit refreshes an entry, the
        stalest one goes when the bound is exceeded."""
        from repro.runtime import (
            GraphPlan,
            get_graph_plan,
            graph_plan_cache_info,
            plan as plan_mod,
        )

        dev = get_dev_by_idx(AccCpuSerial, 0)
        if which == "launch":
            cache, info = plan_mod._launch_plans, plan_cache_info

            def lookup(i):
                wd = WorkDivMembers.make(i + 1, 1, 1)
                return get_plan(create_task_kernel(AccCpuSerial, wd, _noop), dev)
        else:
            cache, info = plan_mod._graph_plans, graph_plan_cache_info

            def lookup(i):
                key = ("graph", i)
                return get_graph_plan(
                    key, lambda: GraphPlan(key=key, order=(), deps=())
                )

        monkeypatch.setattr(cache, "maxsize", 3)
        a, b, c = lookup(0), lookup(1), lookup(2)
        assert lookup(0) is a  # refresh: b is now the stalest
        lookup(3)  # evicts b
        assert info() == {"hits": 1, "misses": 4, "size": 3, "maxsize": 3}
        assert lookup(0) is a and lookup(2) is c
        assert a.served_from_cache and c.served_from_cache
        assert lookup(1) is not b  # rebuilt: a miss, and it evicts plan 3
        assert info() == {"hits": 3, "misses": 5, "size": 3, "maxsize": 3}

    @pytest.mark.parametrize("change", ["clear", "scheduler", "eviction"])
    def test_a_bound_task_resolves_again_after(self, change, monkeypatch):
        """A task remembers the plan it resolved to and skips the key on
        the next launch; whatever would change the lookup's answer
        makes it look up again."""
        import gc
        import weakref

        from repro.runtime import PLAN_CACHE_MAXSIZE

        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        acc = AccCpuOmp2Blocks
        dev = get_dev_by_idx(acc, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(acc, WorkDivMembers.make(4, 1, 1), _noop)
        q.enqueue(task)
        q.enqueue(task)
        first = get_plan(task, dev)
        assert first.schedule == "pooled"
        assert plan_cache_info()["hits"] == 2  # bound hits still count
        if change == "clear":
            clear_plan_cache()
            # The binding holds nothing: the dropped plan is garbage
            # while the task lives on.
            gone = weakref.ref(first)
            del first
            gc.collect()
            assert gone() is None
            q.enqueue(task)
            assert plan_cache_info()["misses"] == 1
        elif change == "scheduler":
            for raw, want in (("compiled", "compiled"), ("sequential", "sequential")):
                monkeypatch.setenv("REPRO_SCHEDULER", raw)
                q.enqueue(task)
                assert get_plan(task, dev).schedule == want
            monkeypatch.delenv("REPRO_SCHEDULER")
            assert get_plan(task, dev) is first  # still cached
        else:
            for i in range(PLAN_CACHE_MAXSIZE + 1):
                q.enqueue(create_task_kernel(acc, WorkDivMembers.make(1, 1, i + 2), _noop))
            q.enqueue(task)
            assert get_plan(task, dev) is not first
            assert plan_cache_info()["misses"] == PLAN_CACHE_MAXSIZE + 3
        assert get_plan(task, dev) is get_plan(task, dev)

    def test_cached_plan_still_checks_residency_on_new_args(self):
        """The plan keeps a record of the last argument tuple; a second
        task with a wrong-device buffer must still be rejected."""
        from repro.core.errors import KernelError, MemorySpaceError

        @fn_acc
        def write(acc, buf):
            buf[0] = 1.0

        cpu = get_dev_by_idx(AccCpuSerial, 0)
        gpu = get_dev_by_idx(AccGpuCudaSim, 0)
        gpu_q = QueueBlocking(gpu)
        wd = WorkDivMembers.make(1, 1, 1)
        ok = mem.alloc(gpu, 4)
        gpu_q.enqueue(create_task_kernel(AccGpuCudaSim, wd, write, ok))
        with pytest.raises((KernelError, MemorySpaceError)):
            gpu_q.enqueue(
                create_task_kernel(AccGpuCudaSim, wd, write, mem.alloc(cpu, 4))
            )

    def test_launch_results_identical_through_cache(self):
        """Correctness invariant: the Nth cached launch computes the
        same result as the 1st."""

        @fn_acc
        def accumulate(acc, out):
            acc.atomic_add(out, 0, 1.0)

        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        out = mem.alloc(dev, 1)
        mem.memset(q, out, 0.0)
        task = create_task_kernel(
            AccCpuOmp2Blocks, WorkDivMembers.make(32, 1, 1), accumulate, out
        )
        for _ in range(4):
            q.enqueue(task)
        assert np.all(out.as_numpy() == 128.0)
        out.free()
