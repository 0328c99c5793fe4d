"""The per-plan memo of predicted launch seconds: invisible in the
simulated clock, and bounded."""

import itertools

import numpy as np

from repro import (
    AccCpuOmp2Blocks,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.acc.timing import MODEL_MEMO_MAX, advance_modeled_time
from repro.kernels import AxpyElementsKernel, Jacobi2DKernel
from repro.runtime import clear_plan_cache, get_plan

ACC = AccCpuOmp2Blocks


def test_clock_after_mixed_launches_equals_the_unmemoised_clock():
    """100 launches over two kernels, three divisions each and a scalar
    ``n`` that keeps changing: the device clock must read, to the
    femtosecond, what it reads when every launch is predicted afresh."""
    dev = get_dev_by_idx(ACC, 0)
    q = QueueBlocking(dev)
    clear_plan_cache()
    size = 4096
    x, y = mem.alloc(dev, size), mem.alloc(dev, size)
    hw = 32
    src, dst = mem.alloc(dev, (hw, hw)), mem.alloc(dev, (hw, hw))
    mem.copy(q, x, np.ones(size))
    axpy, jacobi = AxpyElementsKernel(), Jacobi2DKernel()
    axpy_divs = [WorkDivMembers.make(b, 1, size // b) for b in (1, 4, 64)]
    jacobi_divs = [
        WorkDivMembers.make(Vec(hw, hw).ceil_div(e), Vec(1, 1), e)
        for e in (Vec(8, 8), Vec(4, 16), Vec(32, 32))
    ]
    ns = itertools.cycle([size, 17, size // 2, 1000, 17, size])
    tasks = []
    for i in range(100):
        if i % 3 == 2:
            tasks.append(create_task_kernel(
                ACC, jacobi_divs[(i // 3) % 3], jacobi, hw, hw, 0.1 + (i % 2), src, dst
            ))
        else:
            tasks.append(create_task_kernel(
                ACC, axpy_divs[(i // 2) % 3], axpy, next(ns), 0.5, x, y
            ))

    dev.reset_sim_time()
    for task in tasks:
        q.enqueue(task)
    memoised = dev.sim_time_fs
    assert memoised > 0
    plans = {id(p): p for p in (get_plan(t, dev) for t in tasks)}.values()
    assert len(plans) == 6
    assert all(0 < len(p._modeled) <= MODEL_MEMO_MAX for p in plans)
    # Fewer predictions than launches: the memo was really consulted.
    assert sum(len(p._modeled) for p in plans) < len(tasks)

    dev.reset_sim_time()
    for task in tasks:
        plan = get_plan(task, dev)
        advance_modeled_time(task, dev, plan.acc_type.kind, plan.work_div)
    assert dev.sim_time_fs == memoised

    for buf in (x, y, src, dst):
        buf.free()
    clear_plan_cache()


def test_memo_stays_bounded_under_10000_distinct_scalars():
    dev = get_dev_by_idx(ACC, 0)
    clear_plan_cache()
    size = 10_000
    x, y = mem.alloc(dev, size), mem.alloc(dev, size)
    axpy = AxpyElementsKernel()
    wd = WorkDivMembers.make(1, 1, size)
    plan = get_plan(create_task_kernel(ACC, wd, axpy, size, 0.5, x, y), dev)
    high_water = 0
    dev.reset_sim_time()
    expected_fs = 0
    for n in range(1, size + 1):
        task = create_task_kernel(ACC, wd, axpy, n, 0.5, x, y)
        before = dev.sim_time_fs
        advance_modeled_time(
            task, dev, plan.acc_type.kind, plan.work_div, plan._modeled
        )
        expected_fs += dev.sim_time_fs - before
        high_water = max(high_water, len(plan._modeled))
    assert 0 < high_water <= MODEL_MEMO_MAX
    assert len(plan._modeled) <= MODEL_MEMO_MAX
    assert dev.sim_time_fs == expected_fs
    x.free()
    y.free()
    clear_plan_cache()
