"""Proven plans run on plain views.

An interpreted launch record starts on ``GuardedArray`` views.  From
its plan's second launch on, the compile trace of the argument
signature proves which arrays only slice-form keys reach, and the
record hands the kernel plain ``ndarray`` views of those; every other
array keeps the guard (``ArgsRecord.prove``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    Graph,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import CompileAcc, compile_stats, reset_compile_stats
from repro.core.errors import ExtentError, KernelError
from repro.core.index import Grid, Threads, get_idx
from repro.core.kernel import fn_acc
from repro.kernels import AxpyElementsKernel, GemmOmpStyleKernel, Jacobi2DKernel
from repro.mem import UNGUARDED_ENV, GuardedArray
from repro.runtime import PLAN_CACHE_MAXSIZE, clear_plan_cache, get_plan

Acc = accelerator("AccCpuOmp2Blocks")
LAUNCHES = 4


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


def _axpy():
    n = 1024
    rng = np.random.default_rng(1)
    return (
        AxpyElementsKernel(), WorkDivMembers.make(8, 1, n // 8),
        lambda b: (n, 0.5, b[0], b[1]),
        [rng.standard_normal(n), rng.standard_normal(n)],
    )


def _jacobi():
    hw = 24
    rng = np.random.default_rng(2)
    elems = Vec(4, 8)
    return (
        Jacobi2DKernel(),
        WorkDivMembers.make(Vec(hw, hw).ceil_div(elems), Vec(1, 1), elems),
        lambda b: (hw, hw, 0.1, b[0], b[1]),
        [rng.standard_normal((hw, hw)), np.zeros((hw, hw))],
    )


def _gemm():
    n = 48
    rng = np.random.default_rng(3)
    return (
        GemmOmpStyleKernel(), WorkDivMembers.make(n // 8, 1, 8),
        lambda b: (n, 1.5, b[0], b[1], 0.5, b[2]),
        [rng.standard_normal((n, n)) for _ in range(3)],
    )


KERNELS = {"axpy": _axpy, "jacobi": _jacobi, "gemm": _gemm}


def _stage(dev, q, hosts):
    bufs = []
    for host in hosts:
        buf = mem.alloc(dev, host.shape, dtype=host.dtype, pitched=False)
        mem.copy(q, buf, host)
        bufs.append(buf)
    return bufs


def _read(q, bufs):
    out = []
    for buf in bufs:
        host = np.empty(tuple(buf.extent), dtype=buf.dtype)
        mem.copy(q, host, buf)
        out.append(host)
        buf.free()
    return out


def _array_types(record):
    return [type(a) for a in record.args if isinstance(a, np.ndarray)]


def _launch_all(dev, setup, guarded_only: bool):
    """``LAUNCHES`` launches of one task; ``guarded_only`` rebuilds the
    plan before each, so every launch is its plan's first (guarded).
    Returns the outputs and, per launch, the record's array types."""
    kernel, wd, layout, hosts = setup
    q = QueueBlocking(dev)
    bufs = _stage(dev, q, hosts)
    task = create_task_kernel(Acc, wd, kernel, *layout(bufs))
    seen = []
    for _ in range(LAUNCHES):
        if guarded_only:
            clear_plan_cache()
        q.enqueue(task)
        seen.append(_array_types(get_plan(task, dev)._record))
    return _read(q, bufs), seen


@pytest.mark.parametrize("name", KERNELS)
def test_later_launches_run_on_plain_views(dev, name):
    setup = KERNELS[name]()
    q = QueueBlocking(dev)
    bufs = _stage(dev, q, setup[3])
    task = create_task_kernel(Acc, setup[1], setup[0], *setup[2](bufs))

    q.enqueue(task)
    plan = get_plan(task, dev)
    assert set(_array_types(plan._record)) == {GuardedArray}
    assert compile_stats()["traces"] == 0
    assert plan._record.guard == "untraced"

    for _ in range(LAUNCHES - 1):
        q.enqueue(task)
        assert set(_array_types(plan._record)) == {np.ndarray}
    assert plan._record.guard == "proven"
    assert "guard=proven" in plan.describe()
    stats = compile_stats()
    assert stats["traces"] == 1
    assert stats["guard"][type(setup[0]).__name__] == {
        "proven": 1, "kept": 0, "why": {},
    }
    _read(q, bufs)


@pytest.mark.parametrize("name", KERNELS)
def test_proven_outputs_equal_a_guarded_run(dev, name):
    proven, seen = _launch_all(dev, KERNELS[name](), guarded_only=False)
    guarded, seen_guarded = _launch_all(dev, KERNELS[name](), guarded_only=True)
    assert all(set(s) == {GuardedArray} for s in seen_guarded)
    assert all(set(s) == {np.ndarray} for s in seen[1:])
    for a, b in zip(proven, guarded):
        assert np.array_equal(a, b)


class OffByOne:
    @fn_acc
    def __call__(self, acc, n, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            y[i] = x[i - 1]


class DeadLoad:
    """The off-by-one read feeds nothing the replay would compute; the
    interpreter still performs it."""

    @fn_acc
    def __call__(self, acc, n, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            _unused = x[i - 1]
            y[i] = x[i]


class Reverse:
    """A non-identity integer load: ``x`` keeps the guard, ``y`` (only
    ever stored at the lane index) does not."""

    @fn_acc
    def __call__(self, acc, n, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            y[i] = x[n - 1 - i]


class FlagGated:
    """A uniform branch on an array element."""

    @fn_acc
    def __call__(self, acc, n, flag, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if flag[0] > 0.0:
            if i < n:
                y[i] = x[i]


def _cause(exc, kind):
    while exc is not None and not isinstance(exc, kind):
        exc = exc.__cause__
    return exc


@pytest.mark.parametrize(
    "kernel, schedule",
    [(OffByOne, None), (DeadLoad, None),
     (OffByOne, "compiled"), (DeadLoad, "compiled")],
    ids=["OffByOne", "DeadLoad", "OffByOne-compiled", "DeadLoad-compiled"],
)
def test_off_by_one_keeps_its_guard_on_every_launch(dev, kernel, schedule, monkeypatch):
    """Interpreted, the off-by-one read faults on every launch; the
    compiled replay gathers the same read through the guarded argument
    (a dead one too), so it faults and hands the launch over."""
    if schedule is not None:
        monkeypatch.setenv("REPRO_SCHEDULER", schedule)
    n = 16
    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.arange(float(n)), np.zeros(n)])
    task = create_task_kernel(Acc, WorkDivMembers.make(n, 1, 1), kernel(), n, x, y)
    for _ in range(3):
        with pytest.raises(KernelError) as info:
            q.enqueue(task)
        assert _cause(info.value, ExtentError) is not None
    record = get_plan(task, dev)._record
    stats = compile_stats()
    if schedule == "compiled":
        assert record.guard is None
        assert stats["compiled_launches"] == 0
        assert stats["fallbacks"] == {"replay-error": 3}
    else:
        assert record.guard == "kept: integer-subscript (1,)"
        assert _array_types(record) == [GuardedArray, np.ndarray]
        assert stats["guard"][kernel.__name__]["why"] == {
            "kept: integer-subscript (1,)": 1,
        }
    _read(q, [x, y])


def test_integer_subscript_position_alone_keeps_the_guard(dev):
    n = 16
    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.arange(float(n)), np.zeros(n)])
    task = create_task_kernel(Acc, WorkDivMembers.make(n, 1, 1), Reverse(), n, x, y)
    for _ in range(3):
        q.enqueue(task)
    record = get_plan(task, dev)._record
    assert _array_types(record) == [GuardedArray, np.ndarray]
    assert "guard=kept: integer-subscript (1,)" in get_plan(task, dev).describe()
    _, out = _read(q, [x, y])
    assert np.array_equal(out, np.arange(float(n))[::-1])


def test_guard_reading_memory_stays_guarded(dev):
    n = 16
    q = QueueBlocking(dev)
    flag, x, y = _stage(dev, q, [np.ones(1), np.arange(float(n)), np.zeros(n)])
    task = create_task_kernel(
        Acc, WorkDivMembers.make(n, 1, 1), FlagGated(), n, flag, x, y
    )
    for _ in range(3):
        q.enqueue(task)
    record = get_plan(task, dev)._record
    assert record.guard == "kept: guard-reads-memory"
    assert set(_array_types(record)) == {GuardedArray}
    _read(q, [flag, x, y])


class Spy(AxpyElementsKernel):
    """AXPY that notes the array types an interpreted run hands it."""

    def __init__(self):
        self.seen = []

    def __call__(self, acc, n, alpha, x, y):
        if not isinstance(acc, CompileAcc):
            self.seen.append((type(x).__name__, type(y).__name__))
        super().__call__(acc, n, alpha, x, y)


def test_sanitized_launch_still_sees_shadow_arrays(dev):
    from repro.sanitize import enabled

    n = 64
    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.ones(n), np.zeros(n)])
    spy = Spy()
    task = create_task_kernel(Acc, WorkDivMembers.make(2, 1, n // 2), spy, n, 2.0, x, y)
    with enabled():
        for _ in range(3):
            q.enqueue(task)
    assert spy.seen and set(spy.seen) == {("ShadowArray", "ShadowArray")}
    assert compile_stats()["traces"] == 0
    _read(q, [x, y])


def test_kernel_body_sees_plain_views_after_the_first_launch(dev):
    n = 64
    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.ones(n), np.zeros(n)])
    spy = Spy()
    # Pinned: a tiered launch runs the compiled replay, not the body.
    task = replace(
        create_task_kernel(Acc, WorkDivMembers.make(2, 1, n // 2), spy, n, 2.0, x, y),
        schedule="pooled",
    )
    for _ in range(3):
        q.enqueue(task)
    guarded = ("GuardedArray", "GuardedArray")
    plain = ("ndarray", "ndarray")
    assert spy.seen == [guarded] * 2 + [plain] * 4
    _read(q, [x, y])


def test_graph_node_records_are_proven_on_replay(dev):
    hw = 16
    q = QueueBlocking(dev)
    src, dst = _stage(dev, q, [np.ones((hw, hw)), np.zeros((hw, hw))])
    elems = Vec(4, 8)
    wd = WorkDivMembers.make(Vec(hw, hw).ceil_div(elems), Vec(1, 1), elems)
    kernel = Jacobi2DKernel()
    g = Graph()
    g.launch(Acc, wd, kernel, hw, hw, 0.1, src, dst, reads=[src], writes=[dst])
    for _ in range(3):
        ran = g.submit()
    (record,) = [op.args[3] for op in ran.plan.node_ops.values()]
    assert record.guard == "proven"
    assert set(_array_types(record)) == {np.ndarray}
    _read(q, [src, dst])


def test_unguarded_knob_and_compiled_schedule_trace_nothing(dev, monkeypatch):
    n = 64
    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.ones(n), np.zeros(n)])
    task = create_task_kernel(
        Acc, WorkDivMembers.make(2, 1, n // 2), AxpyElementsKernel(), n, 2.0, x, y
    )
    monkeypatch.setenv(UNGUARDED_ENV, "1")
    for _ in range(3):
        q.enqueue(task)
    assert get_plan(task, dev)._record.guard is None
    monkeypatch.delenv(UNGUARDED_ENV)
    monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
    clear_plan_cache()
    for _ in range(3):
        q.enqueue(task)
    record = get_plan(task, dev)._record
    assert record.guard is None
    assert set(_array_types(record)) == {GuardedArray}
    assert compile_stats()["guard"] == {}
    _read(q, [x, y])


def test_bound_plan_survives_newer_plans(dev):
    """A plan resolved only through its task's binding stays the most
    recently used: it outlives ``PLAN_CACHE_MAXSIZE`` newer plans."""
    q = QueueBlocking(dev)
    (y,) = _stage(dev, q, [np.zeros(4)])
    wd = WorkDivMembers.make(1, 1, 4)
    bound = create_task_kernel(Acc, wd, AxpyElementsKernel(), 4, 1.0, y, y)
    plan = get_plan(bound, dev)
    for _ in range(PLAN_CACHE_MAXSIZE):
        get_plan(create_task_kernel(Acc, wd, AxpyElementsKernel(), 4, 1.0, y, y), dev)
        assert get_plan(bound, dev) is plan
    _read(q, [y])
