"""``enqueue_after`` x the pooled block scheduler.

The wait-gate is a host-side primitive; the pooled scheduler runs
kernel blocks on the device's worker threads.  These tests pin the
contract at their intersection: a launch gated on an event observes
every write of the predecessor launch, whichever queue ran it.
"""

import numpy as np
import pytest

from repro import mem
from repro.acc.cpu import AccCpuOmp2Blocks
from repro.core.index import Blocks, Grid, get_idx
from repro.core.kernel import create_task_kernel, fn_acc
from repro.core.workdiv import WorkDivMembers
from repro.dev.manager import get_dev_by_idx
from repro.queue import Event, QueueNonBlocking, enqueue_after
from repro.runtime import clear_plan_cache, get_plan, shutdown_schedulers
from repro.runtime.scheduler import SCHEDULER_ENV

N = 1024
BLOCKS = 4
SPAN = N // BLOCKS


@fn_acc
def _produce(acc, out):
    blk = get_idx(acc, Grid, Blocks)[0]
    lo = blk * SPAN
    out[lo : lo + SPAN] = np.arange(lo, lo + SPAN, dtype=np.float64)


@fn_acc
def _consume(acc, src, dst):
    blk = get_idx(acc, Grid, Blocks)[0]
    lo = blk * SPAN
    dst[lo : lo + SPAN] = 2.0 * src[lo : lo + SPAN] + 1.0


@fn_acc
def _bump_blocks(acc, b):
    blk = get_idx(acc, Grid, Blocks)[0]
    lo = blk * SPAN
    b[lo : lo + SPAN] += 1.0


@pytest.fixture(autouse=True)
def _pooled_env(monkeypatch):
    monkeypatch.setenv(SCHEDULER_ENV, "pooled")
    clear_plan_cache()
    yield
    clear_plan_cache()
    shutdown_schedulers()


def _wd():
    return WorkDivMembers.make(BLOCKS, 1, SPAN)


class TestGatedVisibility:
    def test_pool_writes_visible_to_gated_consumer(self):
        """Producer on queue A, consumer on queue B gated via an event:
        any producer write the consumer missed shows up as a ``-1``
        surviving into ``dst``."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks)
        src, dst = mem.alloc(dev, N), mem.alloc(dev, N)
        src.as_numpy()[:] = -1.0
        dst.as_numpy()[:] = -1.0
        produce = create_task_kernel(AccCpuOmp2Blocks, _wd(), _produce, src)
        consume = create_task_kernel(AccCpuOmp2Blocks, _wd(), _consume, src, dst)
        assert get_plan(produce, dev).schedule == "pooled" == get_plan(consume, dev).schedule

        qa, qb = QueueNonBlocking(dev), QueueNonBlocking(dev)
        ev = Event(dev)
        qa.enqueue(produce)
        ev.record(qa)
        enqueue_after(qb, ev)
        qb.enqueue(consume)
        qb.wait()
        qa.wait()
        np.testing.assert_array_equal(dst.as_numpy(), 2.0 * np.arange(float(N)) + 1.0)
        qa.destroy()
        qb.destroy()
        src.free()
        dst.free()

    def test_chain_of_gated_rounds(self):
        """A multi-round pipeline (produce -> gated bump -> gated bump)
        re-using one event, every stage on the pool."""
        dev = get_dev_by_idx(AccCpuOmp2Blocks)
        buf = mem.alloc(dev, N)
        buf.as_numpy()[:] = 0.0
        bump = create_task_kernel(AccCpuOmp2Blocks, _wd(), _bump_blocks, buf)
        assert get_plan(bump, dev).schedule == "pooled"

        qa, qb = QueueNonBlocking(dev), QueueNonBlocking(dev)
        ev = Event(dev)
        queues = [qa, qb]
        rounds = 6
        for i in range(rounds):
            q = queues[i % 2]
            if i:
                enqueue_after(q, ev)  # gate on the previous round
            q.enqueue(bump)
            ev.record(q)
        for q in queues:
            q.wait()
        # Every round observed the previous one: no lost increments.
        assert np.all(buf.as_numpy() == float(rounds))
        qa.destroy()
        qb.destroy()
        buf.free()
