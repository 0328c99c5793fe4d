"""Launch one kernel under a named schedule and compare the results."""

import os

import numpy as np

from repro import (
    QueueBlocking,
    accelerator,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import compile_stats, reset_compile_stats
from repro.runtime import clear_plan_cache


Acc = accelerator("AccCpuOmp2Blocks")


def _scalars_first(scalars, bufs):
    return (*scalars, *bufs)


def run_with_scheduler(schedule, kernel, wd, scalars, arrays,
                       layout=_scalars_first):
    """Launch once under REPRO_SCHEDULER=schedule; return output bytes.
    ``layout(scalars, buffers)`` orders the kernel's arguments (and may
    pass one buffer twice)."""
    prev = os.environ.get("REPRO_SCHEDULER")
    os.environ["REPRO_SCHEDULER"] = schedule
    clear_plan_cache()
    try:
        dev = get_dev_by_idx(Acc, 0)
        q = QueueBlocking(dev)
        bufs = []
        for host in arrays:
            buf = mem.alloc(dev, host.shape, dtype=host.dtype)
            mem.copy(q, buf, host)
            bufs.append(buf)
        q.enqueue(create_task_kernel(Acc, wd, kernel, *layout(scalars, bufs)))
        out = []
        for host, buf in zip(arrays, bufs):
            res = np.empty_like(host)
            mem.copy(q, res, buf)
            out.append(res.tobytes())
            buf.free()
        return out
    finally:
        if prev is None:
            del os.environ["REPRO_SCHEDULER"]
        else:
            os.environ["REPRO_SCHEDULER"] = prev
        clear_plan_cache()


def assert_bit_identical(kernel, wd, scalars, arrays, layout=_scalars_first):
    """Compiled and interpreted launches leave the same bytes; returns
    the compiled leg's :func:`compile_stats`."""
    reset_compile_stats()
    compiled = run_with_scheduler(
        "compiled", kernel, wd, scalars, arrays, layout
    )
    stats = compile_stats()
    interpreted = run_with_scheduler(
        "sequential", kernel, wd, scalars, arrays, layout
    )
    assert compiled == interpreted
    return stats
