"""A warm re-launch pays for its kernel, not its bookkeeping.

Enqueueing one task N times derives everything that depends only on its
argument tuple once: the kernel describes itself once, one grid context
is built, no knob is parsed after the first launch, and the compile
counts advance by one event per launch — with the modeled clock exactly
where N separate predictions put it.
"""

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    QueueBlocking,
    WorkDivMembers,
    create_task_kernel,
    get_dev_by_idx,
    knobs,
    mem,
)
from repro.acc.base import GridContext
from repro.acc.timing import modeled_seconds
from repro.kernels import AxpyElementsKernel
from repro.runtime import clear_plan_cache, get_plan, plan_cache_info

LAUNCHES = 20
N = 256


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("schedule", ["compiled", None])
def test_warm_relaunch_derives_once(schedule, monkeypatch):
    from repro.compile import compile_stats, reset_compile_stats
    from repro.telemetry.metrics import registry

    for env in knobs.export_env():
        monkeypatch.delenv(env)
    if schedule is not None:
        monkeypatch.setenv(knobs.SCHEDULER, schedule)
    clear_plan_cache()
    reset_compile_stats()
    dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
    q = QueueBlocking(dev)
    x, y = mem.alloc(dev, N, pitched=False), mem.alloc(dev, N, pitched=False)
    mem.copy(q, x, np.linspace(0.0, 1.0, N))
    mem.memset(q, y, 0.0)
    kernel = AxpyElementsKernel()
    task = create_task_kernel(
        AccCpuOmp2Blocks, WorkDivMembers.make(1, 1, N), kernel, N, 0.5, x, y
    )
    describes = _counting(monkeypatch, kernel, "characteristics")
    grids = _counting(monkeypatch, GridContext, "__init__")
    dev.reset_sim_time()
    launches0 = dev.kernel_launch_count

    q.enqueue(task)
    parses = _counting(monkeypatch, knobs, "parse")
    for _ in range(LAUNCHES - 1):
        q.enqueue(task)

    assert len(describes) == 1
    assert len(grids) == 1
    assert parses == []
    plan = get_plan(task, dev)
    assert plan.schedule == (schedule or "sequential")
    assert dev.kernel_launch_count - launches0 == LAUNCHES
    one = modeled_seconds(task, dev, plan.acc_type.kind, plan.work_div)
    assert one > 0
    assert dev.sim_time_fs == LAUNCHES * round(one * 1e15)
    assert plan_cache_info()["misses"] == 1
    out = np.empty(N)
    mem.copy(q, out, y)
    np.testing.assert_allclose(out, LAUNCHES * 0.5 * np.linspace(0.0, 1.0, N))

    stats = compile_stats()
    if schedule == "compiled":
        assert stats["traces"] == 1
        assert stats["cache_hits"] == LAUNCHES - 1
        assert stats["compiled_launches"] == LAUNCHES
    else:
        assert stats["compiled_launches"] == 0
    for metric, key in (
        ("repro_compile_traces_total", "traces"),
        ("repro_compile_cache_hits_total", "cache_hits"),
        ("repro_compile_launches_total", "compiled_launches"),
    ):
        exported = sum(i.value for i in registry().instruments(metric))
        assert exported == stats[key], metric
    x.free()
    y.free()
    clear_plan_cache()
