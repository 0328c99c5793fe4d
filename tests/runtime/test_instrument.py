"""ExecutionObserver hooks: registration, notification, counters."""

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    AccCpuSerial,
    AccGpuCudaSim,
    CountingObserver,
    ExecutionObserver,
    QueueBlocking,
    QueueNonBlocking,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
    observe,
    register_observer,
    unregister_observer,
)
from repro.kernels.axpy import AxpyElementsKernel
from repro.runtime import get_plan
from repro.runtime.instrument import observers
from tests.runtime.routes import ROUTES, launch_via


@fn_acc
def _noop(acc):
    pass


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestRegistration:
    def test_observe_context_registers_and_removes(self):
        obs = CountingObserver()
        assert obs not in observers()
        with observe(obs):
            assert obs in observers()
        assert obs not in observers()

    def test_register_is_idempotent(self):
        obs = CountingObserver()
        register_observer(obs)
        register_observer(obs)
        try:
            assert observers().count(obs) == 1
        finally:
            unregister_observer(obs)
        assert obs not in observers()


class TestLaunchHooks:
    def test_launch_and_block_counts(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(6, 1, 1), _noop)
        with observe(CountingObserver()) as stats:
            q.enqueue(task)
            q.enqueue(task)
        assert stats.launches == 2
        assert stats.blocks == 12
        assert stats.per_backend == {"AccCpuSerial": 2}

    def test_plan_cache_counters_via_observer(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(2, 1, 1), _noop)
        with observe(CountingObserver()) as stats:
            for _ in range(5):
                q.enqueue(task)
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits == 4
        assert stats.plan_cache_hit_rate == pytest.approx(0.8)

    def test_launch_end_fires_even_on_kernel_failure(self):
        from repro.core.errors import KernelError

        @fn_acc
        def bad(acc):
            raise RuntimeError("boom")

        ends = []

        class EndWatcher(ExecutionObserver):
            def on_launch_end(self, plan, task, device):
                ends.append(plan.acc_type.name)

        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        with observe(EndWatcher()):
            with pytest.raises(KernelError):
                q.enqueue(
                    create_task_kernel(
                        AccCpuSerial, WorkDivMembers.make(1, 1, 1), bad
                    )
                )
        assert ends == ["AccCpuSerial"]

    def test_block_hook_sees_every_block_of_pooled_launch(self):
        seen = []

        class BlockWatcher(ExecutionObserver):
            def on_block(self, plan, block_idx):
                seen.append(block_idx)

        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        with observe(BlockWatcher()):
            q.enqueue(
                create_task_kernel(
                    AccCpuOmp2Blocks, WorkDivMembers.make(40, 1, 1), _noop
                )
            )
        assert len(seen) == 40
        assert len(set(tuple(b) for b in seen)) == 40


class _HookLog(ExecutionObserver):
    """Every launch-scoped hook, in arrival order."""

    def __init__(self):
        self.events = []

    def on_launch_begin(self, plan, task, device):
        self.events.append("launch_begin")

    def on_launch_end(self, plan, task, device):
        self.events.append("launch_end")

    def on_block(self, plan, block_idx):
        self.events.append("block")

    def on_block_end(self, plan, block_idx, seconds):
        self.events.append("block_end")

    def on_sanitizer_report(self, plan, record):
        self.events.append("sanitizer_report")


class _RaisingAxpy(AxpyElementsKernel):
    """Describes itself to the performance model, then fails."""

    def __call__(self, acc, n, alpha, x, y):
        raise RuntimeError("boom")


@pytest.mark.parametrize("route", ROUTES)
class TestRouteEquivalence:
    """Queue, inline graph replay, queued graph and the sanitizer all
    reach one Execute stage: same hook pairing, same accounting."""

    BLOCKS = 4

    def _axpy(self, dev, route):
        n = 64
        x, y = mem.alloc(dev, n), mem.alloc(dev, n)
        x.as_numpy()[:] = 1.0
        y.as_numpy()[:] = 0.0
        wd = WorkDivMembers.make(self.BLOCKS, 1, n // self.BLOCKS)
        kernel = AxpyElementsKernel()
        plan = get_plan(create_task_kernel(AccCpuSerial, wd, kernel, n, 2.0, x, y), dev)
        before = (dev.kernel_launch_count, plan.launches, dev.sim_time_fs)
        with observe(_HookLog()) as log:
            launch_via(route, dev, AccCpuSerial, wd, kernel, n, 2.0, x, y)
        after = (dev.kernel_launch_count, plan.launches, dev.sim_time_fs)
        assert np.array_equal(y.as_numpy(), np.full(n, 2.0))
        x.free()
        y.free()
        return log.events, tuple(a - b for a, b in zip(after, before))

    def test_one_begin_end_pair_around_the_route_s_hooks(self, route):
        events, _ = self._axpy(get_dev_by_idx(AccCpuSerial, 0), route)
        assert events[0] == "launch_begin" and events[-1] == "launch_end"
        inner = events[1:-1]
        if route == "sanitized":
            # The triage loop announces no blocks; its report precedes
            # on_launch_end.
            assert inner == ["sanitizer_report"]
        else:
            assert inner == ["block", "block_end"] * self.BLOCKS

    def test_counters_and_modeled_clock_advance_as_on_the_queue(self, route):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        _, reference = self._axpy(dev, "queue")
        _, delta = self._axpy(dev, route)
        launches, plan_launches, sim_fs = delta
        assert (launches, plan_launches) == (1, 1)
        assert sim_fs > 0
        assert delta == reference

    def test_launch_end_fires_once_when_the_kernel_raises(self, route):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        x = mem.alloc(dev, 8)
        sim_before = dev.sim_time_fs
        with observe(_HookLog()) as log:
            with pytest.raises(Exception, match="_RaisingAxpy|boom"):
                launch_via(
                    route, dev, AccCpuSerial, WorkDivMembers.make(1, 1, 8),
                    _RaisingAxpy(), 8, 2.0, x, x,
                )
        assert log.events.count("launch_begin") == 1
        assert log.events.count("launch_end") == 1
        assert log.events[-1] == "launch_end"
        # A failed launch did no modeled work, on any route.
        assert dev.sim_time_fs == sim_before
        x.free()


class TestCopyAndQueueHooks:
    def test_copy_and_memset_notify(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueBlocking(dev)
        buf = mem.alloc(dev, 16)
        with observe(CountingObserver()) as stats:
            mem.memset(q, buf, 0.0)
            mem.copy(q, buf, np.ones(16))
            out = np.zeros(16)
            mem.copy(q, out, buf)
        assert stats.copies == 3
        buf.free()

    def test_nonblocking_queue_drain_notifies(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        with observe(CountingObserver()) as stats:
            for _ in range(3):
                q.enqueue(lambda: None)
            q.wait()
        assert stats.queue_drains >= 1
        q.destroy()

    def test_bench_harness_launch_stats(self):
        from repro.bench import launch_stats

        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(3, 1, 1), _noop)
        with launch_stats() as stats:
            q.enqueue(task)
            q.enqueue(task)
        assert stats.launches == 2
        assert stats.plan_cache_hits == 1

    def test_counting_snapshot_includes_per_backend(self):
        """Regression: snapshot() used to omit the per_backend split."""
        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(2, 1, 1), _noop)
        with observe(CountingObserver()) as stats:
            q.enqueue(task)
            q.enqueue(task)
        snap = stats.snapshot()
        assert snap["per_backend"] == {"AccCpuSerial": 2}
        assert snap["launches"] == 2
        assert snap["tuning_cache_hits"] == 0
        assert snap["tuning_cache_misses"] == 0
        # The snapshot is a copy: mutating it must not touch the live
        # counters.
        snap["per_backend"]["AccCpuSerial"] = 99
        assert stats.per_backend["AccCpuSerial"] == 2

    def test_timeline_observer_records_ordered_events(self):
        # The telemetry collector's Chrome-trace buffer is the timeline.
        from repro import telemetry

        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(2, 1, 1), _noop)
        buf = mem.alloc(dev, 4)
        with telemetry.collect(record_blocks=True) as t:
            q.enqueue(task)
            mem.memset(q, buf, 1.0)
        (launch,) = [e for e in t.events if e.cat == "launch"]
        blocks = [e for e in t.events if e.cat == "block"]
        assert len(blocks) == 2
        # Launch begin precedes its blocks; they finish before its end.
        assert launch.dur >= 0.0
        for b in blocks:
            assert launch.ts <= b.ts
            assert b.ts + b.dur <= launch.ts + launch.dur
        assert launch.args["backend"] == "AccCpuSerial"
        assert "AccCpuSerial" in t.render()
        copies = t.registry.instruments("repro_copies_total")
        assert sum(c.value for c in copies) == 1
        buf.free()
