"""Tiered launches: a proven record of a default-``pooled`` plan runs the
compiled replay its proof traced wherever the host clock measured it
faster than the interpreter.

The decision lives on the replay entry (plan x argument signature).
These tests rig the clock the trial dispatches are timed with, so every
decision here is the one the rigged times dictate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.runtime as runtime
from repro import (
    AccCpuSerial,
    AutoWorkDiv,
    Graph,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import compile_stats, reset_compile_stats
from repro.compile.replay import TIER_TRIALS
from repro.core.errors import KernelError
from repro.core.index import Grid, Threads, get_idx
from repro.core.kernel import KernelTask, fn_acc
from repro.kernels import AxpyElementsKernel, Jacobi2DKernel
from repro.mem import UNGUARDED_ENV
from repro.sanitize.sweep import KERNEL_SWEEP
from repro.runtime import (
    ExecutionObserver,
    clear_plan_cache,
    get_plan,
    observe,
    scheduler_for,
)

from .test_guard_proof import DeadLoad, Reverse

Acc = accelerator("AccCpuOmp2Blocks")
TRIALS = 2 * TIER_TRIALS
N = 256


@pytest.fixture(autouse=True)
def default_schedule(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    monkeypatch.delenv(UNGUARDED_ENV, raising=False)
    monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "tuning.json"))
    clear_plan_cache()
    reset_compile_stats()
    yield
    clear_plan_cache()


@pytest.fixture
def dev():
    return get_dev_by_idx(Acc, 0)


class _Clock:
    """A clock that moves only when a rigged dispatch says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def rig(monkeypatch, dev):
    """``rig(compiled=s, pooled=s)``: every dispatch of that schedule on
    ``dev`` takes ``s`` seconds on the tier's clock."""

    def rigged(compiled: float, pooled: float) -> _Clock:
        clock = _Clock()
        monkeypatch.setattr(runtime, "_clock", clock)
        for schedule, cost in (("compiled", compiled), ("pooled", pooled)):
            sched = scheduler_for(dev, schedule)

            def dispatch(*args, _real=sched.dispatch, _cost=cost):
                _real(*args)
                clock.now += _cost

            monkeypatch.setattr(sched, "dispatch", dispatch)
        return clock

    return rigged


class TierSpans(ExecutionObserver):
    """The ``tier`` attribute of every launch span (None when absent)."""

    def __init__(self):
        self.tiers = []

    def on_span_end(self, span) -> None:
        if span.name == "launch":
            self.tiers.append(span.attrs.get("tier"))


def _stage(dev, q, hosts):
    bufs = []
    for host in hosts:
        buf = mem.alloc(dev, host.shape, dtype=host.dtype, pitched=False)
        mem.copy(q, buf, host)
        bufs.append(buf)
    return bufs


def _read(q, buf) -> np.ndarray:
    host = np.empty(tuple(buf.extent), dtype=buf.dtype)
    mem.copy(q, host, buf)
    return host


def _axpy(dev, q, blocks=8, acc=Acc, kernel=None):
    rng = np.random.default_rng(5)
    x, y = _stage(dev, q, [rng.standard_normal(N), rng.standard_normal(N)])
    task = create_task_kernel(
        acc, WorkDivMembers.make(blocks, 1, -(-N // blocks)),
        kernel or AxpyElementsKernel(), N, 0.5, x, y,
    )
    return task, y


def _launch(q, task, times):
    for _ in range(times):
        q.enqueue(task)


# -- the decision -------------------------------------------------------


@pytest.mark.parametrize(
    "compiled, pooled, want",
    [(1.0, 3.0, "compiled"), (3.0, 1.0, "pooled")],
    ids=["replay-faster", "interpreter-faster"],
)
def test_the_clock_decides(dev, rig, compiled, pooled, want):
    rig(compiled=compiled, pooled=pooled)
    q = QueueBlocking(dev)
    task, _y = _axpy(dev, q)
    spans = TierSpans()
    with observe(spans):
        q.enqueue(task)  # the plan's first launch proves nothing
        record = get_plan(task, dev)._record
        assert record.tier is None
        for k in range(TRIALS):
            q.enqueue(task)
            entry = record.tier
            assert entry is not None
            if k < TRIALS - 1:
                assert entry.tier is None, k
        assert entry.tier == want
        _launch(q, task, 3)
    assert spans.tiers == (
        [None] + ["trial:pooled", "trial:compiled"] * TIER_TRIALS + [want] * 3
    )
    assert entry.trials == {
        "pooled": [pooled] * TIER_TRIALS, "compiled": [compiled] * TIER_TRIALS,
    }
    stats = compile_stats()
    ran_compiled = TIER_TRIALS + (3 if want == "compiled" else 0)
    assert stats["compiled_launches"] == ran_compiled
    assert stats["tier"] == {
        "AxpyElementsKernel": {
            "compiled": int(want == "compiled"),
            "pooled": int(want == "pooled"),
            "launches": ran_compiled,
        },
    }
    text = get_plan(task, dev).describe()
    assert "schedule=pooled" in text and "guard=proven" in text
    assert f"tier={entry.tier_state()}" in text
    assert entry.tier_state().startswith(want + " (compiled ")


def test_the_decision_is_shared_by_fresh_tasks(dev, rig):
    """A task per launch (Fig. 5's loop) builds a record per launch;
    they all resolve to one entry, so they share one decision."""
    rig(compiled=1.0, pooled=2.0)
    q = QueueBlocking(dev)
    task, _y = _axpy(dev, q)
    entries = set()
    for _ in range(1 + TRIALS + 2):
        fresh = create_task_kernel(Acc, task.work_div, task.kernel, *task.args)
        q.enqueue(fresh)
        entries.add(get_plan(fresh, dev)._record.tier)
    entries.discard(None)
    (entry,) = entries
    assert entry.tier == "compiled"
    assert compile_stats()["tier"]["AxpyElementsKernel"]["compiled"] == 1


def test_unobserved_launches_build_no_span(dev, monkeypatch):
    q = QueueBlocking(dev)
    task, _y = _axpy(dev, q)

    def no_span(*args, **kwargs):
        raise AssertionError("an unobserved launch built a span")

    monkeypatch.setattr(runtime, "Span", no_span)
    _launch(q, task, 1 + TRIALS + 2)
    assert get_plan(task, dev)._record.tier.tier is not None


# -- who is never tiered -------------------------------------------------


def _never_tiered(q, task, dev, launches=1 + TRIALS + 2):
    _launch(q, task, launches)
    plan = get_plan(task, dev)
    assert plan._record is None or plan._record.tier is None
    assert plan.tier is None
    assert "tier=" not in plan.describe()
    stats = compile_stats()
    assert stats["compiled_launches"] == 0
    assert stats["tier"] == {}
    return plan


def test_forced_pooled_is_not_tiered(dev, monkeypatch):
    q = QueueBlocking(dev)
    monkeypatch.setenv("REPRO_SCHEDULER", "pooled")
    task, _y = _axpy(dev, q)
    plan = _never_tiered(q, task, dev)
    assert not plan.tiered and plan._record.guard == "proven"


def test_task_schedule_is_not_tiered(dev):
    q = QueueBlocking(dev)
    task, _y = _axpy(dev, q)
    plan = _never_tiered(q, replace(task, schedule="pooled"), dev)
    assert not plan.tiered and plan._record.guard == "proven"


def test_tuned_schedule_is_not_tiered(dev, monkeypatch):
    import repro.tuning

    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.ones(N), np.zeros(N)])
    auto = create_task_kernel(Acc, AutoWorkDiv(N), AxpyElementsKernel(), N, 0.5, x, y)
    assert get_plan(auto, dev).tiered  # untuned: the back-end default
    assert get_plan(auto, dev).work_div.block_count > 1
    clear_plan_cache()
    monkeypatch.setattr(repro.tuning, "tuned_schedule", lambda *a, **k: "pooled")
    plan = _never_tiered(q, auto, dev)
    assert plan.schedule == "pooled" and not plan.tiered


def test_sequential_back_end_is_not_tiered():
    acc_dev = get_dev_by_idx(AccCpuSerial, 0)
    q = QueueBlocking(acc_dev)
    task, _y = _axpy(acc_dev, q, acc=AccCpuSerial)
    plan = _never_tiered(q, task, acc_dev)
    assert plan.schedule == "sequential" and not plan.tiered


def test_one_block_grid_is_not_tiered(dev):
    q = QueueBlocking(dev)
    task, _y = _axpy(dev, q, blocks=1)
    plan = _never_tiered(q, task, dev)
    assert plan.schedule == "sequential" and not plan.tiered


def test_kept_verdicts_are_not_tiered(dev):
    n = 16
    q = QueueBlocking(dev)
    x, y = _stage(dev, q, [np.arange(float(n)), np.zeros(n)])
    wd = WorkDivMembers.make(n, 1, 1)
    reverse = create_task_kernel(Acc, wd, Reverse(), n, x, y)
    plan = _never_tiered(q, reverse, dev)
    assert plan.tiered and plan._record.guard.startswith("kept: ")
    assert np.array_equal(_read(q, y), np.arange(float(n))[::-1])

    dead = create_task_kernel(Acc, wd, DeadLoad(), n, x, y)
    for _ in range(1 + TRIALS):
        with pytest.raises(KernelError):
            q.enqueue(dead)
    record = get_plan(dead, dev)._record
    assert record.guard.startswith("kept: ") and record.tier is None
    assert compile_stats()["compiled_launches"] == 0


def test_sanitized_launches_are_not_tiered(dev):
    from repro.sanitize import enabled

    q = QueueBlocking(dev)
    task, _y = _axpy(dev, q)
    with enabled():
        _never_tiered(q, task, dev)
    assert compile_stats()["traces"] == 0


# -- graph nodes, fallback, retrace ---------------------------------------


def _jacobi_graph(dev, q, sweeps=3, hw=16):
    rng = np.random.default_rng(6)
    src, dst = _stage(dev, q, [rng.standard_normal((hw, hw)), np.zeros((hw, hw))])
    elems = Vec(4, 8)
    wd = WorkDivMembers.make(Vec(hw, hw).ceil_div(elems), Vec(1, 1), elems)
    kernel = Jacobi2DKernel()
    g = Graph()
    a, b = src, dst
    for _ in range(sweeps):
        g.launch(Acc, wd, kernel, hw, hw, 0.1, a, b, reads=[a], writes=[b])
        a, b = b, a
    return g, (src, dst)


def test_graph_nodes_tier_through_their_bound_scheduler(dev, rig, monkeypatch):
    q = QueueBlocking(dev)
    monkeypatch.setenv("REPRO_SCHEDULER", "pooled")
    g, bufs = _jacobi_graph(dev, q)
    for _ in range(4):
        g.submit()
    want = [_read(q, b) for b in bufs]
    monkeypatch.delenv("REPRO_SCHEDULER")
    clear_plan_cache()
    reset_compile_stats()

    rig(compiled=1.0, pooled=2.0)
    g, bufs = _jacobi_graph(dev, q)
    for _ in range(4):
        ran = g.submit()
    records = [op.args[3] for op in ran.plan.node_ops.values()]
    entries = {r.tier for r in records if r.guard == "proven"}
    (entry,) = entries
    assert entry.tier == "compiled"
    assert compile_stats()["tier"]["Jacobi2DKernel"]["launches"] > TIER_TRIALS
    for got, expect in zip((_read(q, b) for b in bufs), want):
        assert np.array_equal(got, expect)


def test_a_fallback_drops_the_entry_to_the_interpreter(dev, rig):
    """Arguments the replay cannot serve (a source sharing memory with
    the destination it writes through a shifted box) fall back once;
    the entry interprets from then on, for every record holding it."""
    rig(compiled=1.0, pooled=2.0)
    hw = 16
    q = QueueBlocking(dev)
    a, b = _stage(dev, q, [np.ones((hw, hw)), np.zeros((hw, hw))])
    elems = Vec(4, 8)
    wd = WorkDivMembers.make(Vec(hw, hw).ceil_div(elems), Vec(1, 1), elems)
    kernel = Jacobi2DKernel()
    apart = create_task_kernel(Acc, wd, kernel, hw, hw, 0.1, a, b)
    _launch(q, apart, 1 + TRIALS)
    entry = get_plan(apart, dev)._record.tier
    assert entry.tier == "compiled"

    aliased = create_task_kernel(Acc, wd, kernel, hw, hw, 0.1, b, b)
    _launch(q, aliased, 4)
    assert get_plan(aliased, dev)._record.tier is entry
    assert entry.tier == "pooled"
    _launch(q, apart, 2)
    stats = compile_stats()
    assert stats["fallbacks"] == {"load-after-store": 1}
    assert stats["tier"]["Jacobi2DKernel"] == {
        "compiled": 1, "pooled": 1, "launches": TIER_TRIALS,
    }


class GatedAxpy:
    """AXPY behind a uniform branch on ``alpha``."""

    @fn_acc
    def __call__(self, acc, n, alpha, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if alpha != 0.0:
            if i < n:
                y[i] = alpha * x[i] + y[i]


def test_a_retrace_restarts_the_decision(dev, rig):
    rig(compiled=1.0, pooled=2.0)
    q = QueueBlocking(dev)
    task, y = _axpy(dev, q, blocks=N, kernel=GatedAxpy())
    _launch(q, task, 1 + TRIALS)
    first = get_plan(task, dev)._record.tier
    assert first.tier == "compiled"

    off = create_task_kernel(
        Acc, task.work_div, task.kernel, N, 0.0, *task.args[2:]
    )
    before = _read(q, y)
    q.enqueue(off)
    assert compile_stats()["retraces"] == 1
    second = get_plan(off, dev)._record.tier
    assert second is not first and second.tier is None
    _launch(q, off, TRIALS)
    assert second.tier == "compiled" and first.tier == "compiled"
    assert np.array_equal(_read(q, y), before)


# -- bit identity -----------------------------------------------------------


class _Repeating:
    """A queue that runs every kernel task it is handed ``launches``
    times (optionally pinned to a schedule) and remembers it."""

    def __init__(self, queue, launches: int, schedule=None):
        self.queue, self.launches, self.schedule = queue, launches, schedule
        self.tasks = []

    def enqueue(self, task):
        if not isinstance(task, KernelTask):
            return self.queue.enqueue(task)
        if self.schedule is not None:
            task = replace(task, schedule=self.schedule)
        self.tasks.append(task)
        for _ in range(self.launches):
            self.queue.enqueue(task)

    def __getattr__(self, name):
        return getattr(self.queue, name)


def _family_outputs(dev, fn, schedule):
    clear_plan_cache()
    q = QueueBlocking(dev)
    rq = _Repeating(q, 1 + TRIALS + 2, schedule)
    fn(Acc, dev, rq)
    out = []
    for task in rq.tasks:
        for arg in task.args:
            if hasattr(arg, "extent") and not arg.freed:
                out.append(_read(q, arg))
    return out


#: The KERNEL_SWEEP families with a proven kernel that compiles on
#: ``AccCpuOmp2Blocks`` (the rest keep a fallback verdict).
COMPILING = {"axpy", "gemm", "stencil", "stencil3d", "transform"}


@pytest.mark.parametrize(
    "name, fn", KERNEL_SWEEP, ids=[name for name, _fn in KERNEL_SWEEP]
)
def test_tiered_outputs_equal_pooled_bit_for_bit(dev, rig, name, fn):
    rig(compiled=1.0, pooled=2.0)
    got = _family_outputs(dev, fn, None)
    tiered = compile_stats()["tier"]
    assert bool(tiered) == (name in COMPILING), tiered
    if not tiered:
        return
    assert all(k["launches"] >= TIER_TRIALS for k in tiered.values())
    want = _family_outputs(dev, fn, "pooled")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
