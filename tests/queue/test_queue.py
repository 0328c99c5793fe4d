"""Queues: in-order execution, blocking vs non-blocking, errors."""

import threading

import pytest

from repro import AccCpuSerial, get_dev_by_idx
from repro.core.errors import KernelError, QueueError
from repro.queue import QueueBlocking, QueueNonBlocking, enqueue, wait


@pytest.fixture
def dev():
    return get_dev_by_idx(AccCpuSerial, 0)


class Recorder:
    def __init__(self):
        self.events = []
        self.lock = threading.Lock()

    def task(self, tag, gate=None):
        """A task appending ``tag``; with a ``gate`` (threading.Event) it
        first blocks until the test sets it."""

        def run():
            if gate is not None:
                gate.wait(5.0)
            with self.lock:
                self.events.append(tag)

        return run


class TestBlockingQueue:
    def test_executes_immediately(self, dev):
        rec = Recorder()
        q = QueueBlocking(dev)
        q.enqueue(rec.task("a"))
        assert rec.events == ["a"]

    def test_wait_is_noop(self, dev):
        q = QueueBlocking(dev)
        q.wait()

    def test_task_objects_with_execute(self, dev):
        class T:
            ran_on = None

            def execute(self, device):
                T.ran_on = device

        q = QueueBlocking(dev)
        q.enqueue(T())
        assert T.ran_on is dev

    def test_bad_task_rejected(self, dev):
        q = QueueBlocking(dev)
        with pytest.raises(QueueError):
            q.enqueue(42)

    def test_destroyed_queue_rejects(self, dev):
        q = QueueBlocking(dev)
        q.destroy()
        with pytest.raises(QueueError):
            q.enqueue(lambda: None)


class TestNonBlockingQueue:
    def test_in_order_execution(self, dev):
        """Paper 3.4.5: no operation begins before all previously
        issued operations completed."""
        rec = Recorder()
        q = QueueNonBlocking(dev)
        slow = threading.Event()
        q.enqueue(rec.task("slow", gate=slow))
        q.enqueue(rec.task("fast"))
        slow.set()
        q.wait()
        assert rec.events == ["slow", "fast"]
        q.destroy()

    def test_enqueue_does_not_block_host(self, dev):
        rec = Recorder()
        q = QueueNonBlocking(dev)
        gate = threading.Event()
        q.enqueue(rec.task("x", gate=gate))
        assert rec.events == []  # host resumed while the task is held
        gate.set()
        q.wait()
        assert rec.events == ["x"]
        q.destroy()

    def test_async_error_reported_on_wait(self, dev):
        q = QueueNonBlocking(dev)

        def boom():
            raise RuntimeError("async failure")

        q.enqueue(boom)
        with pytest.raises(KernelError) as exc:
            q.wait()
        assert isinstance(exc.value.__cause__, RuntimeError)
        q.destroy()

    def test_error_skips_later_tasks(self, dev):
        rec = Recorder()
        q = QueueNonBlocking(dev)

        def boom():
            raise RuntimeError("x")

        q.enqueue(rec.task("before"))
        q.enqueue(boom)
        q.enqueue(rec.task("after"))
        with pytest.raises(KernelError):
            q.wait()
        assert rec.events == ["before"]
        q.destroy()

    def test_queue_usable_after_error(self, dev):
        rec = Recorder()
        q = QueueNonBlocking(dev)
        q.enqueue(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        with pytest.raises(KernelError):
            q.wait()
        q.enqueue(rec.task("recovered"))
        q.wait()
        assert rec.events == ["recovered"]
        q.destroy()

    def test_many_tasks_ordered(self, dev):
        rec = Recorder()
        q = QueueNonBlocking(dev)
        for i in range(200):
            q.enqueue(rec.task(i))
        q.wait()
        assert rec.events == list(range(200))
        q.destroy()

    def test_destroy_drains(self, dev):
        rec = Recorder()
        q = QueueNonBlocking(dev)
        gate = threading.Event()
        q.enqueue(rec.task("t", gate=gate))
        destroyer = threading.Thread(target=q.destroy)
        destroyer.start()
        gate.set()
        destroyer.join(timeout=10.0)
        assert not destroyer.is_alive()
        assert rec.events == ["t"]

    def test_context_manager(self, dev):
        rec = Recorder()
        with QueueNonBlocking(dev) as q:
            q.enqueue(rec.task("cm"))
        assert rec.events == ["cm"]


class TestFreeFunctions:
    def test_enqueue_and_wait(self, dev):
        rec = Recorder()
        q = QueueNonBlocking(dev)
        enqueue(q, rec.task("f"))
        wait(q)
        assert rec.events == ["f"]
        q.destroy()
