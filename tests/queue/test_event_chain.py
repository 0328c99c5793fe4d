"""Concurrency stress: event chaining across non-blocking queues,
error poisoning, and destroy() with in-flight work."""

import threading

import numpy as np
import pytest

from repro import (
    AccGpuCudaSim,
    Event,
    enqueue_after,
    get_dev_by_idx,
    mem,
)
from repro.core.errors import KernelError, QueueError
from repro.queue import QueueBlocking, QueueNonBlocking


def _watch_gate(ev):
    """A threading.Event set once a queue worker has reached a gate on
    ``ev`` and parked on it (the gate registers its wake-up with the
    event): from then on nothing behind the gate runs until ``ev``
    fires."""
    parked = threading.Event()
    add = ev.add_fire_callback

    def watched(fn):
        add(fn)
        parked.set()

    ev.add_fire_callback = watched
    return parked


class TestEnqueueAfter:
    def test_dependent_queue_runs_only_after_event(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        qa, qb = QueueNonBlocking(dev), QueueNonBlocking(dev)
        order = []
        lock = threading.Lock()
        release = threading.Event()

        def slow_producer():
            release.wait(timeout=5)
            with lock:
                order.append("a")

        qa.enqueue(slow_producer)
        ev = Event(dev).record(qa)
        parked = _watch_gate(ev)
        enqueue_after(qb, ev)
        qb.enqueue(lambda: order.append("b"))

        # The dependent task must not run while A is still blocked.
        assert parked.wait(timeout=5)
        with lock:
            assert order == []
        release.set()
        qb.wait()
        assert order == ["a", "b"]
        qa.destroy()
        qb.destroy()

    def test_no_host_barrier_three_stage_pipeline(self):
        """q1 -> q2 -> q3 chained purely with events; the host only
        waits at the very end."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q1, q2, q3 = (QueueNonBlocking(dev) for _ in range(3))
        buf = mem.alloc(dev, 8)

        mem.memset(q1, buf, 1.0)
        e1 = Event(dev).record(q1)

        q2.enqueue_after(e1)
        mem.copy(q2, buf, np.full(8, 2.0))
        e2 = Event(dev).record(q2)

        q3.enqueue_after(e2)
        out = np.zeros(8)
        mem.copy(q3, out, buf)

        q3.wait()
        assert np.all(out == 2.0)
        for q in (q1, q2, q3):
            q.destroy()
        buf.free()

    def test_unrecorded_event_gate_is_open(self):
        """CUDA semantics: waiting on a never-recorded event is a
        no-op, so the gate must not stall the queue."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        ran = []
        q.enqueue_after(Event(dev))
        q.enqueue(lambda: ran.append(1))
        q.wait()
        assert ran == [1]
        q.destroy()

    def test_gate_waits_for_latest_record_at_gate_time(self):
        """A gate targets the record count when it was enqueued, not
        later re-records."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        qa, qb = QueueNonBlocking(dev), QueueNonBlocking(dev)
        hold = threading.Event()
        qa.enqueue(lambda: hold.wait(timeout=5))
        ev = Event(dev).record(qa)
        parked = _watch_gate(ev)
        qb.enqueue_after(ev)
        ran = []
        qb.enqueue(lambda: ran.append(1))
        assert parked.wait(timeout=5)
        assert ran == []
        hold.set()
        qb.wait()
        assert ran == [1]
        qa.destroy()
        qb.destroy()

    def test_blocking_queue_degenerates_to_host_wait(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        qa = QueueNonBlocking(dev)
        qb = QueueBlocking(dev)
        hold = threading.Event()
        qa.enqueue(lambda: hold.wait(timeout=5))
        ev = Event(dev).record(qa)
        assert not ev.is_complete
        setter = threading.Thread(target=hold.set)
        setter.start()
        qb.enqueue_after(ev)  # blocks the host until ev fires
        assert ev.is_complete
        setter.join(timeout=5)
        assert not setter.is_alive()
        qa.destroy()


class TestProducerStress:
    N_PRODUCERS = 4
    N_QUEUES = 3
    TASKS_EACH = 50

    def test_many_producers_many_queues_event_chained(self):
        """N producers fan tasks into non-blocking queues whose stages
        are chained by events; every task runs, order per queue holds."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        queues = [QueueNonBlocking(dev) for _ in range(self.N_QUEUES)]
        seen = [[] for _ in range(self.N_QUEUES)]
        locks = [threading.Lock() for _ in range(self.N_QUEUES)]

        def producer(pid):
            for i in range(self.TASKS_EACH):
                qi = (pid + i) % self.N_QUEUES
                q = queues[qi]

                def job(qi=qi, pid=pid, i=i):
                    with locks[qi]:
                        seen[qi].append((pid, i))

                q.enqueue(job)
                if i % 10 == 9:
                    # Chain the *next* stage of this queue on a sibling
                    # queue's progress marker.
                    sib = queues[(qi + 1) % self.N_QUEUES]
                    ev = Event(dev).record(sib)
                    q.enqueue_after(ev)

        producers = [
            threading.Thread(target=producer, args=(p,))
            for p in range(self.N_PRODUCERS)
        ]
        for p in producers:
            p.start()
        for p in producers:
            p.join()
        for q in queues:
            q.wait()
        total = sum(len(s) for s in seen)
        assert total == self.N_PRODUCERS * self.TASKS_EACH
        # Per-producer order is preserved within each queue.
        for s in seen:
            for pid in range(self.N_PRODUCERS):
                mine = [i for (p, i) in s if p == pid]
                assert mine == sorted(mine)
        for q in queues:
            q.destroy()

    def test_error_poisoning_reported_once_then_cleared(self):
        """One failing task poisons the queue exactly once; tasks
        enqueued after the failure surfaced do not run; the error is
        reported on the next API call and then cleared."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        ran = {"n": 0}
        lock = threading.Lock()

        def ok():
            with lock:
                ran["n"] += 1

        def bad():
            raise RuntimeError("poison")

        q.enqueue(ok)
        q.enqueue(bad)
        with pytest.raises(KernelError):
            q.wait()
        # Error cleared: queue usable again.
        q.enqueue(ok)
        q.wait()
        assert ran["n"] == 2
        q.destroy()

    def test_tasks_after_poison_do_not_run(self):
        """The in-order contract: once a task fails, later already-
        enqueued tasks are skipped (they may depend on its effects)."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        gate = threading.Event()
        ran = []

        q.enqueue(lambda: gate.wait(timeout=5))
        q.enqueue(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        for i in range(20):
            q.enqueue(lambda i=i: ran.append(i))
        gate.set()
        with pytest.raises(KernelError):
            q.wait()
        assert ran == []
        q.destroy()

    def test_destroy_during_in_flight_work(self):
        """destroy() while the worker is mid-task drains cleanly and
        later enqueues are rejected."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        started, release = threading.Event(), threading.Event()
        done = []

        def slowish():
            started.set()
            release.wait(timeout=5)
            done.append(1)

        q.enqueue(slowish)
        assert started.wait(timeout=5)
        destroyer = threading.Thread(target=q.destroy)
        destroyer.start()  # in-flight: must drain, not drop
        release.set()
        destroyer.join(timeout=10)
        assert not destroyer.is_alive()
        assert done == [1]
        with pytest.raises(QueueError):
            q.enqueue(lambda: None)
        # Idempotent.
        q.destroy()

    def test_destroy_racing_producers(self):
        """Producers racing destroy(): every enqueue either lands
        before the drain (and runs) or raises QueueError; nothing
        deadlocks or runs after destruction."""
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        accepted = []
        ran = []
        lock = threading.Lock()
        producing = threading.Event()

        def producer():
            for i in range(200):
                try:
                    q.enqueue(lambda: ran.append(1))
                except QueueError:
                    return
                with lock:
                    accepted.append(1)
                producing.set()

        threads = [threading.Thread(target=producer) for _ in range(3)]
        for t in threads:
            t.start()
        assert producing.wait(timeout=5)
        q.destroy()
        for t in threads:
            t.join()
        # destroy() drained everything that was accepted before it.
        assert len(ran) >= 0
        assert not q._worker.is_alive()
