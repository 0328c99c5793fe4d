"""A new argument tuple of a known signature is rebound, not re-derived.

``LaunchPlan.record_for`` keeps what a record derived from its argument
signature (guard verdict, plain-view positions, tier entry, modeled
seconds) once the record is replaced or dropped; the next tuple of that
signature gets a record bound to its own arrays from that state.  These
tests pin what a rebound record must still do: check residency, keep
unproven positions guarded, re-prove a scalar that flips a guard, and
leave the sanitizer and the ``compiled`` schedule per tuple.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import compile_stats, reset_compile_stats
from repro.core.errors import ExtentError, KernelError, MemorySpaceError
from repro.core.index import Grid, Threads, get_idx
from repro.core.kernel import fn_acc
from repro.kernels import AxpyElementsKernel
from repro.mem import UNGUARDED_ENV, GuardedArray
from repro.runtime import clear_plan_cache, get_plan
from repro.runtime.plan import SIGNATURES_MAX

Acc = accelerator("AccCpuOmp2Blocks")
N = 64


@pytest.fixture(autouse=True)
def interpreted(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    monkeypatch.delenv(UNGUARDED_ENV, raising=False)
    clear_plan_cache()
    reset_compile_stats()
    yield
    clear_plan_cache()


@pytest.fixture
def dev():
    return get_dev_by_idx(Acc, 0)


def _buffers(dev, *hosts):
    q = QueueBlocking(dev)
    bufs = []
    for host in hosts:
        buf = mem.alloc(dev, host.shape, dtype=host.dtype, pitched=False)
        mem.copy(q, buf, host)
        bufs.append(buf)
    return bufs


def _read(dev, buf):
    out = np.empty(tuple(buf.extent), dtype=buf.dtype)
    mem.copy(QueueBlocking(dev), out, buf)
    return out


def _array_types(record):
    return [type(a) for a in record.args if isinstance(a, np.ndarray)]


class Reverse:
    """``x`` is read at a computed integer index (kept guarded); ``y``
    only ever stored at the lane index (proven plain)."""

    @fn_acc
    def __call__(self, acc, n, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            y[i] = x[n - 1 - i]


class OffByOne:
    @fn_acc
    def __call__(self, acc, n, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            y[i] = x[i - 1]


class GatedAxpy:
    """AXPY behind a uniform branch on ``alpha``."""

    @fn_acc
    def __call__(self, acc, n, alpha, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if alpha != 0.0:
            if i < n:
                y[i] = alpha * x[i] + y[i]


def _axpy_task(dev, kernel, alpha, blocks=2, schedule="pooled"):
    """A fresh task on fresh buffers, as a server builds per request;
    ``schedule`` pins the interpreter (a tier would replay instead)."""
    x, y = _buffers(dev, np.arange(float(N)), np.ones(N))
    task = create_task_kernel(
        Acc, WorkDivMembers.make(blocks, 1, N // blocks), kernel, N, alpha, x, y
    )
    if schedule is not None:
        task = replace(task, schedule=schedule)
    return task, x, y


def test_a_fresh_tuple_of_a_known_signature_is_rebound(dev):
    kernel = AxpyElementsKernel()
    q = QueueBlocking(dev)
    for i in range(4):
        task, x, y = _axpy_task(dev, kernel, 0.5)
        q.enqueue(task)
        record = get_plan(task, dev)._record
        assert record.host_args is task.args
        if i >= 1:
            # Proven on the second tuple, rebound from then on: plain
            # views of this tuple's own arrays, no new proof.
            assert record.guard == "proven"
            assert _array_types(record) == [np.ndarray, np.ndarray]
            assert np.shares_memory(record.args[3], y.unsafe_backing())
        np.testing.assert_array_equal(_read(dev, y), 0.5 * np.arange(float(N)) + 1.0)
    stats = compile_stats()
    assert stats["traces"] == 1
    assert stats["guard"]["AxpyElementsKernel"]["proven"] == 1


def test_residency_is_checked_for_every_tuple(dev):
    kernel = AxpyElementsKernel()
    q = QueueBlocking(dev)
    for _ in range(3):
        task, _x, _y = _axpy_task(dev, kernel, 0.5)
        q.enqueue(task)
    gpu_acc = accelerator("AccGpuCudaSim")
    gpu = get_dev_by_idx(gpu_acc, 0)
    x, _ = _buffers(dev, np.zeros(N), np.zeros(N))
    stray = mem.alloc(gpu, N, pitched=False)
    task = create_task_kernel(
        Acc, WorkDivMembers.make(2, 1, N // 2), kernel, N, 0.5, x, stray
    )
    with pytest.raises(MemorySpaceError):
        q.enqueue(task)
    stray.free()


def test_unproven_positions_stay_guarded_across_rebinds(dev):
    q = QueueBlocking(dev)
    kernel = OffByOne()
    for request in range(3):
        x, y = _buffers(dev, np.arange(float(N)), np.zeros(N))
        task = create_task_kernel(Acc, WorkDivMembers.make(N, 1, 1), kernel, N, x, y)
        with pytest.raises(KernelError) as info:
            q.enqueue(task)
        cause = info.value
        while cause is not None and not isinstance(cause, ExtentError):
            cause = cause.__cause__
        assert cause is not None, request
        record = get_plan(task, dev)._record
        if request:
            assert record.guard == "kept: integer-subscript (1,)"
            assert _array_types(record) == [GuardedArray, np.ndarray]


def test_a_kept_position_is_guarded_and_the_rest_plain_when_rebound(dev):
    q = QueueBlocking(dev)
    kernel = Reverse()
    for _ in range(3):
        x, y = _buffers(dev, np.arange(float(N)), np.zeros(N))
        task = create_task_kernel(Acc, WorkDivMembers.make(N, 1, 1), kernel, N, x, y)
        q.enqueue(task)
        np.testing.assert_array_equal(_read(dev, y), np.arange(float(N))[::-1])
    record = get_plan(task, dev)._record
    assert record.guard == "kept: integer-subscript (1,)"
    assert _array_types(record) == [GuardedArray, np.ndarray]
    assert compile_stats()["guard"]["Reverse"]["why"] == {
        "kept: integer-subscript (1,)": 1,
    }


def test_a_scalar_that_flips_a_guard_is_reproven_not_rebound(dev):
    q = QueueBlocking(dev)
    kernel = GatedAxpy()
    for _ in range(3):
        task, _x, y = _axpy_task(dev, kernel, 0.5, blocks=N)
        q.enqueue(task)
    assert compile_stats()["retraces"] == 0
    off, _x, y = _axpy_task(dev, kernel, 0.0, blocks=N)
    q.enqueue(off)
    # alpha == 0 takes the other branch: a signature of its own, proven
    # against its own arguments (the trace's guard fails, so it retraces).
    assert compile_stats()["retraces"] == 1
    assert get_plan(off, dev)._record.guard == "proven"
    np.testing.assert_array_equal(_read(dev, y), np.ones(N))
    back, _x, y = _axpy_task(dev, kernel, 0.5, blocks=N)
    q.enqueue(back)
    np.testing.assert_array_equal(_read(dev, y), 0.5 * np.arange(float(N)) + 1.0)
    assert compile_stats()["retraces"] == 1


def test_an_array_extent_is_part_of_the_signature(dev):
    """Same scalars, arrays of two lengths: two signatures."""
    q = QueueBlocking(dev)
    kernel = AxpyElementsKernel()
    n = N // 2
    wd = WorkDivMembers.make(1, 1, n)
    for size in (N, n, N, n):
        x, y = _buffers(dev, np.ones(size), np.zeros(size))
        q.enqueue(create_task_kernel(Acc, wd, kernel, n, 2.0, x, y))
        want = np.zeros(size)
        want[:n] = 2.0
        np.testing.assert_array_equal(_read(dev, y), want)
    plan = get_plan(create_task_kernel(Acc, wd, kernel, n, 2.0, x, y), dev)
    assert len(plan._signatures) == 2


def test_modeled_seconds_are_kept_per_signature(dev, monkeypatch):
    kernel = AxpyElementsKernel()
    describes = []
    real = kernel.characteristics

    def counted(*args):
        describes.append(args[1])
        return real(*args)

    monkeypatch.setattr(kernel, "characteristics", counted)
    q = QueueBlocking(dev)
    dev.reset_sim_time()
    for alpha in (0.5, 0.5, 0.25, 0.5, 0.25):
        task, _x, _y = _axpy_task(dev, kernel, alpha)
        q.enqueue(task)
    assert describes == [N, N]  # one per (alpha) signature
    plan = get_plan(task, dev)
    assert dev.sim_time_fs == 5 * round(plan._record.seconds * 1e15)


def test_compiled_schedule_keeps_per_tuple_records(dev, monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
    q = QueueBlocking(dev)
    kernel = AxpyElementsKernel()
    for _ in range(3):
        task, _x, _y = _axpy_task(dev, kernel, 0.5, schedule=None)
        q.enqueue(task)
        record = get_plan(task, dev)._record
        assert record.key is None and record.guard is None
    assert get_plan(task, dev)._signatures == {}


def test_sanitized_launches_keep_per_tuple_records(dev):
    from repro.sanitize import enabled

    q = QueueBlocking(dev)
    kernel = AxpyElementsKernel()
    with enabled():
        for _ in range(3):
            task, _x, _y = _axpy_task(dev, kernel, 0.5)
            q.enqueue(task)
    plan = get_plan(task, dev)
    assert plan._record is None and plan._signatures == {}
    assert compile_stats()["traces"] == 0


def test_the_signature_table_is_bounded(dev):
    q = QueueBlocking(dev)
    kernel = AxpyElementsKernel()
    for alpha in range(SIGNATURES_MAX + 3):
        task, _x, _y = _axpy_task(dev, kernel, float(alpha))
        q.enqueue(task)
    plan = get_plan(task, dev)
    plan.drop_record()
    assert plan._record is None
    assert 0 < len(plan._signatures) <= SIGNATURES_MAX
