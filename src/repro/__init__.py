"""pyalpaka — a Python reproduction of *Alpaka: An Abstraction Library
for Parallel Kernel Acceleration* (Zenker et al., 2016).

One kernel source, many back-ends::

    import numpy as np
    from repro import (
        AccCpuSerial, Grid, Threads, QueueBlocking, WorkDivMembers,
        create_task_kernel, enqueue, fn_acc, get_dev_by_idx, get_idx, mem,
    )

    class AxpyKernel:
        @fn_acc
        def __call__(self, acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] += alpha * x[i]

    Acc = AccCpuSerial                      # the one retargeting line
    dev = get_dev_by_idx(Acc, 0)
    queue = QueueBlocking(dev)
    x = mem.alloc(dev, 1024)
    y = mem.alloc(dev, 1024)
    wd = WorkDivMembers.make(1024, 1, 1)
    enqueue(queue, create_task_kernel(Acc, wd, AxpyKernel(), 1024, 2.0, x, y))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from . import acc, atomic, core, dev, graph, hardware, math, mem
from . import perfmodel, queue, rand, runtime, sanitize, telemetry, testing
from . import trace, tuning
from .acc import (
    AccCpuFibers,
    AccOmp4TargetSim,
    AccCpuOmp2Blocks,
    AccCpuOmp2Threads,
    AccCpuSerial,
    AccCpuThreads,
    AccGpuCudaSim,
    accelerator,
    accelerator_names,
    all_accelerators,
    execution_strategies,
    mapping_strategies,
)
from .core import (
    AccDevProps,
    AlpakaError,
    AutoWorkDiv,
    Block,
    Blocks,
    Elems,
    Grid,
    InvalidWorkDiv,
    KernelTask,
    MappingStrategy,
    MemorySpaceError,
    Thread,
    Threads,
    Vec,
    WorkDivMembers,
    create_task_kernel,
    divide_work,
    clip_box,
    element_box,
    element_slice,
    fn_acc,
    fn_host,
    fn_host_acc,
    get_idx,
    get_work_div,
    grid_strided_spans,
    independent_elements,
    map_idx,
)
from .dev import PlatformCpu, PlatformCudaSim, get_dev_by_idx, get_dev_count
from .graph import Graph, GraphError, Node
from .mem import alloc, alloc_like, copy, memset
from .queue import (
    Event,
    QueueBlocking,
    QueueNonBlocking,
    enqueue,
    enqueue_after,
    wait,
)
from .runtime import (
    CountingObserver,
    ExecutionObserver,
    LaunchPlan,
    clear_plan_cache,
    observe,
    plan_cache_info,
    register_observer,
    unregister_observer,
)
from .tuning import TuningCache, TuningResult, autotune, default_cache

# Zero-code observability: REPRO_TELEMETRY=1 installs the session
# collector the moment the library is imported (no-op otherwise).
telemetry.maybe_activate_from_env()
# Crash flight recorder: REPRO_FLIGHT_RECORDER_DIR=<dir> arms a
# bounded ring of recent runtime events, dumped on kernel crashes /
# sanitizer findings / queue poisonings.  The process-pool scheduler
# mirrors REPRO_* env into workers, so workers arm themselves too.
telemetry.flight.maybe_activate_from_env()

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "acc", "atomic", "core", "dev", "graph", "hardware", "math", "mem",
    "perfmodel", "queue", "rand", "runtime", "sanitize", "telemetry",
    "testing", "trace", "tuning",
    # accelerators
    "AccCpuSerial", "AccCpuOmp2Blocks", "AccCpuOmp2Threads", "AccCpuThreads",
    "AccCpuFibers", "AccGpuCudaSim", "AccOmp4TargetSim",
    "accelerator", "accelerator_names",
    "all_accelerators", "execution_strategies", "mapping_strategies",
    # core
    "Vec", "WorkDivMembers", "AutoWorkDiv", "MappingStrategy",
    "divide_work", "AccDevProps",
    "Grid", "Block", "Thread", "Blocks", "Threads", "Elems",
    "get_idx", "get_work_div", "map_idx",
    "element_box", "clip_box", "element_slice", "independent_elements",
    "grid_strided_spans",
    "create_task_kernel", "KernelTask", "fn_acc", "fn_host", "fn_host_acc",
    "AlpakaError", "InvalidWorkDiv", "MemorySpaceError",
    # devices
    "PlatformCpu", "PlatformCudaSim", "get_dev_by_idx", "get_dev_count",
    # memory
    "alloc", "alloc_like", "copy", "memset",
    # queues
    "QueueBlocking", "QueueNonBlocking", "Event", "enqueue", "wait",
    "enqueue_after",
    # dataflow graphs
    "Graph", "Node", "GraphError",
    # launch runtime
    "LaunchPlan", "clear_plan_cache", "plan_cache_info",
    "ExecutionObserver", "CountingObserver",
    "register_observer", "unregister_observer", "observe",
    # autotuning
    "autotune", "TuningResult", "TuningCache", "default_cache",
]
