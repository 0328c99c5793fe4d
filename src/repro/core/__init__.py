"""Core abstractions: vectors, work division, index spaces, kernels.

This package is the Python rendering of Alpaka's abstract hierarchical
redundant parallelism model (paper Sec. 3.2): a grid of blocks of
threads of elements, each level n-dimensional, with explicit work
division and index retrieval.
"""

from .element import (
    clip_box,
    element_box,
    element_slice,
    grid_strided_spans,
    independent_elements,
)
from .errors import (
    AlpakaError,
    DeviceError,
    DimensionError,
    ExtentError,
    GraphError,
    InvalidWorkDiv,
    KernelError,
    MemorySpaceError,
    ModelError,
    QueueError,
    SharedMemError,
    TraceError,
)
from .index import (
    Block,
    Blocks,
    Elems,
    Grid,
    Origin,
    Thread,
    Threads,
    Unit,
    delinearize,
    get_idx,
    get_work_div,
    linearize,
    map_idx,
)
from .kernel import (
    KernelTask,
    create_task_kernel,
    fn_acc,
    fn_host,
    fn_host_acc,
    is_acc_callable,
)
from .properties import AccDevProps
from .vec import Dim1, Dim2, Dim3, Dim4, Vec, as_vec, vec1, vec2, vec3
from .workdiv import (
    AutoWorkDiv,
    MappingStrategy,
    WorkDivMembers,
    divide_work,
    validate_work_div,
)

__all__ = [
    # vec
    "Vec", "as_vec", "vec1", "vec2", "vec3", "Dim1", "Dim2", "Dim3", "Dim4",
    # index
    "Origin", "Unit", "Grid", "Block", "Thread", "Blocks", "Threads", "Elems",
    "get_idx", "get_work_div", "map_idx", "linearize", "delinearize",
    # workdiv
    "WorkDivMembers", "AutoWorkDiv", "MappingStrategy", "divide_work",
    "validate_work_div",
    # kernel
    "KernelTask", "create_task_kernel", "fn_acc", "fn_host", "fn_host_acc",
    "is_acc_callable",
    # element
    "element_box", "clip_box", "element_slice", "independent_elements", "grid_strided_spans",
    # properties
    "AccDevProps",
    # errors
    "AlpakaError", "DimensionError", "InvalidWorkDiv", "MemorySpaceError",
    "ExtentError", "DeviceError", "QueueError", "GraphError", "KernelError",
    "SharedMemError", "TraceError", "ModelError",
]
