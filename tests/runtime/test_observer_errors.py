"""Observer exceptions: propagation ordering and scheduler-pool health."""

import pytest

from repro import (
    AccCpuOmp2Blocks,
    AccCpuSerial,
    CountingObserver,
    ExecutionObserver,
    QueueBlocking,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    observe,
)
from repro.core.errors import KernelError


@fn_acc
def _noop(acc):
    pass


@fn_acc
def _failing(acc):
    raise RuntimeError("kernel boom")


class _RaisingEndObserver(ExecutionObserver):
    def on_span_end(self, span):
        if span.name == "launch":
            raise ValueError("observer boom")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _task(acc_type, kernel, blocks=8):
    return create_task_kernel(
        acc_type, WorkDivMembers.make(blocks, 1, 1), kernel
    )


class TestObserverExceptionOrdering:
    def test_observer_error_on_clean_launch_propagates(self):
        q = QueueBlocking(get_dev_by_idx(AccCpuSerial, 0))
        with observe(_RaisingEndObserver()):
            with pytest.raises(ValueError, match="observer boom"):
                q.enqueue(_task(AccCpuSerial, _noop))

    def test_kernel_error_wins_over_observer_error(self):
        """A failing kernel's error must reach the caller even when an
        observer also raises from on_span_end for the launch."""
        q = QueueBlocking(get_dev_by_idx(AccCpuSerial, 0))
        with observe(_RaisingEndObserver()):
            with pytest.raises(KernelError, match="_failing") as exc:
                q.enqueue(_task(AccCpuSerial, _failing))
        assert "kernel boom" in str(exc.value.__cause__)

    def test_launch_end_reaches_later_observers_after_kernel_failure(self):
        """Counting continues for observers behind the failing launch."""
        stats = CountingObserver()
        q = QueueBlocking(get_dev_by_idx(AccCpuSerial, 0))
        with observe(stats):
            with pytest.raises(KernelError):
                q.enqueue(_task(AccCpuSerial, _failing))
        assert stats.launches == 1


class TestPoolStaysUsable:
    def test_pool_not_wedged_by_observer_error(self):
        """An observer raising at the launch span's end on a pooled back-end must
        not leave the per-device worker pool unusable (the regression the
        issue names)."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        task = _task(AccCpuOmp2Blocks, _noop, blocks=32)
        with observe(_RaisingEndObserver()):
            for _ in range(3):
                with pytest.raises(ValueError, match="observer boom"):
                    q.enqueue(task)
        # Observer gone: the same pool must run launches to completion.
        with observe(CountingObserver()) as stats:
            q.enqueue(task)
        assert stats.launches == 1
        assert stats.blocks == 32

    def test_pool_survives_kernel_failure_with_raising_observer(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        with observe(_RaisingEndObserver()):
            with pytest.raises(KernelError, match="_failing"):
                q.enqueue(_task(AccCpuOmp2Blocks, _failing, blocks=16))
        with observe(CountingObserver()) as stats:
            q.enqueue(_task(AccCpuOmp2Blocks, _noop, blocks=16))
        assert stats.launches == 1
        assert stats.blocks == 16
