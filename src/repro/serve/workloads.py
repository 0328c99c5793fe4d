"""Named server-side workloads: what a gateway request can run.

A remote client cannot ship arbitrary Python callables, so the gateway
executes **registered workloads** — named adapters that validate a
request's payload, build the kernel task (or dataflow graph) against
the executing lane's device, and slice batched results back per
request.  The built-ins cover the serving benchmark's traffic mix:

* ``axpy``  — ``y <- alpha*x + y``; batches by concatenation;
* ``scale`` — ``out <- factor*x``; batches by concatenation;
* ``gemm``  — ``C <- alpha*A@B + beta*C``; batches by stacking into a
  ``(batch, n, n)`` grid run by
  :class:`~repro.kernels.batched.BatchedGemmKernel`;
* ``heat_equation`` — a ``steps``-deep Jacobi pipeline recorded and
  submitted as one :class:`repro.graph.Graph` (graphs are a unit of
  admission, never merged into launch batches).

**Bit-identity contract**: every batchable workload merges so that the
per-request arithmetic is exactly the solo path's — elementwise kernels
by construction, GEMM by fixed row-chunk shapes — so a client cannot
tell (bitwise) whether its launch was coalesced.

**How a lane divides a request.**  An interpreted block costs the
lane ~10 µs of dispatch, while numpy updates 256 elements in ~1 µs
(both on a 2-vCPU x86 host), so block count, not element count,
prices a CPU request.  A lane whose
back-end maps Table 2's block-level row (one thread per block:
``AccCpuSerial``, ``AccCpuOmp2Blocks``) therefore runs one span per
block worker — ``V = ceil(n / max_block_workers)`` elements per block,
the heat plate's rows split the same way — instead of one block per
256 elements; thread-level lanes keep 256-element threads.  Axpy,
scale and Jacobi compute every element with the same expression
whatever the tiling, so the result bits do not depend on the split.
A tuned cache entry still wins (:func:`~repro.tuning.auto_divide`),
and the elementwise division is resolved once per (back-end, device,
kernel, n, tuning generation): a tuning store bumps the generation, so
the next request resolves again and hot-swap keeps working.

**Where a request computes.**  On a host-addressable lane (every CPU
back-end) the host arrays are the kernel's arguments: each is wrapped
as a plain view (:func:`repro.mem.view_plain`), with no allocation and
no copy in or out, and the reply is the array the kernel wrote.  On a
lane the host cannot address (``AccGpuCudaSim``, ``AccOmp4TargetSim``)
arrays are allocated there and copied in and out.  Writes go only to
memory the request owns: a request decoded from its own wire frame
(:attr:`~repro.serve.types.LaunchRequest.owns_arrays`) is computed in
place, an in-process caller's output array (axpy's ``y``, gemm's ``C``)
is copied once first, and a batch computes in its merged arrays.

Register custom workloads with :func:`register_workload`; the protocol
layer exposes whatever the registry holds.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ServeError
from ..core.kernel import create_task_kernel
from ..core.vec import Vec
from ..core.workdiv import MappingStrategy, WorkDivMembers
from ..graph import Graph
from ..kernels import (
    DEFAULT_ROWS_PER_CHUNK,
    AxpyElementsKernel,
    BatchedGemmKernel,
    Jacobi2DKernel,
    ScaleKernel,
)
from ..mem import ViewPlainPtr, alloc, copy, view_plain
from ..queue.queue import QueueBlocking
from ..runtime import launch
from .. import tuning
from ..tuning.cache import tuning_generation
from .protocol import dtype_name

__all__ = [
    "Workload",
    "AxpyWorkload",
    "ScaleWorkload",
    "GemmWorkload",
    "HeatEquationWorkload",
    "register_workload",
    "get_workload",
    "workload_names",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ServeError(msg)


def _array(req, name: str, ndim: int) -> np.ndarray:
    arr = req.arrays.get(name)
    if arr is None or arr.ndim != ndim:
        _require(arr is not None, f"{req.workload}: missing array {name!r}")
        raise ServeError(
            f"{req.workload}: array {name!r} must be {ndim}-d, got {arr.ndim}-d"
        )
    return arr


#: One blocking queue per lane device: a request's staging copies and
#: its launch run in the calling thread, so lanes share nothing through
#: it and a request builds no queue.
_queues: Dict[object, QueueBlocking] = {}


def _queue(device) -> QueueBlocking:
    return _queues.get(device) or _queues.setdefault(device, QueueBlocking(device))


class Workload:
    """Adapter protocol between wire requests and the runtime."""

    #: Registry key and the ``workload`` field requests use.
    name: str = ""
    #: ``"launch"`` workloads may batch; ``"graph"`` workloads are
    #: admitted whole.
    kind: str = "launch"

    def validate(self, req) -> None:
        """Raise :class:`ServeError` when the payload is malformed.
        Runs at submit time, before admission — a bad request must not
        consume fair-share credit."""
        raise NotImplementedError

    def batch_key(self, req) -> Optional[Tuple]:
        """Requests with equal keys may merge into one launch; ``None``
        means this request never batches.  The gateway adds the lane
        back-end to the key — kernels never batch across back-ends."""
        return None

    def execute(self, requests: List, acc_type, device) -> List[Dict[str, np.ndarray]]:
        """Run ``requests`` (length 1 = solo) merged on ``device``;
        returns one output-array dict per request, in order."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Elementwise family: batch by concatenation
# ---------------------------------------------------------------------------


def _stage(queue, device, host: np.ndarray, *, copy_in: bool = True):
    """``host`` as kernel memory on ``device``: the array itself as a
    plain view when the host can address ``device``, else an allocation
    (filled from ``host`` when ``copy_in``).  ``host`` is aligned and
    C-contiguous (see :func:`_host`)."""
    if device.accessible_from_host:
        return view_plain(device, host)
    buf = alloc(device, host.shape, dtype=host.dtype, pitched=False)
    if copy_in:
        copy(queue, buf, host)
    return buf


def _fetch(queue, buf, host: np.ndarray) -> np.ndarray:
    """The kernel's result in ``buf``, in ``host``: a plain view of
    ``host`` already holds it, device memory is copied back."""
    if not isinstance(buf, ViewPlainPtr):
        copy(queue, host, buf)
    return host


def _host(arr: np.ndarray) -> np.ndarray:
    """``arr`` as an array a plain view may wrap (itself when it
    already is one)."""
    if arr.flags.c_contiguous and arr.flags.aligned:  # np.require costs ~2 us
        return arr
    return np.require(arr, requirements=("C", "A"))


def _output(requests, name: str) -> np.ndarray:
    """The merged host array the kernel updates in place: a batch's
    concatenation, a request's own array, or one copy of an in-process
    caller's."""
    if len(requests) > 1:
        return np.concatenate([r.arrays[name] for r in requests])
    arr = requests[0].arrays[name]
    if not requests[0].owns_arrays:
        return np.array(arr, order="C")
    if arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable:
        return arr
    return np.require(arr, requirements=("C", "A", "W"))


def _split(requests, merged: np.ndarray, name: str, out_name: str):
    """Per-request slices of a merged 1-d result.  A solo request gets
    ``merged`` itself (its own memory); batched replies are copies, so
    no reply pins the merged array."""
    if len(requests) == 1:
        return [{out_name: merged}]
    out, offset = [], 0
    for r in requests:
        size = r.arrays[name].size
        out.append({out_name: merged[offset : offset + size].copy()})
        offset += size
    return out


def _launch(queue, task) -> None:
    """Run ``task`` on the blocking ``queue``, then let go of its
    arguments.

    A workload holds one kernel instance, so every same-shape request
    resolves to one cached :class:`~repro.runtime.plan.LaunchPlan` (the
    plan cache keys on kernel identity).  That plan keeps the record of
    the last argument tuple; dropping it — whether the kernel returned
    or raised — keeps a finished request's device arrays from outliving
    ``Buffer.free()``.
    """
    ran = []
    try:
        queue.enqueue(lambda: ran.append(launch(task, queue.dev)))
    finally:
        if ran:
            ran[0].drop_record()
        else:
            # The launch raised: the plan it resolved is the task's binding.
            binding = getattr(task, "_plan_binding", None)
            plan = binding[0]() if binding is not None else None
            if plan is not None:
                plan.drop_record()


def _span_workers(acc_type, props) -> Optional[int]:
    """Block workers a request is split over on a block-level lane
    (Table 2's one-thread-per-block row), or None on a thread-level
    lane, whose division keeps 256-element threads."""
    if acc_type.mapping_strategy is MappingStrategy.BLOCK_LEVEL:
        return props.max_block_workers
    return None


def _elementwise_workdiv(acc_type, device, n: int, kernel) -> WorkDivMembers:
    """Division for an n-element elementwise launch of ``kernel``.

    On a block-level lane each block worker gets one span of
    ``V = ceil(n / max_block_workers)`` elements — one block on the
    serial lane, W on a pooled one — because an interpreted block costs
    ~10 µs of dispatch against ~1 µs of numpy per 256 elements (2-vCPU
    x86 host); a thread-level lane keeps ``V = min(n, 256)``.  One
    span's temporaries are ``2 x 8n`` bytes — the numpy twin of the
    request allocates the same — and
    :data:`~repro.serve.protocol.MAX_FRAME_BYTES` bounds ``n``.

    The *tuned* division wins when the tuning cache knows this
    (kernel, back-end, device, extent-bucket): routing through
    :func:`~repro.tuning.auto_divide` is what lets an offline
    :func:`~repro.tuning.autotune` store (or a cache file it shares)
    hot-swap serving launches.  An entry tuned on the performance model
    rather than on the host can be slower than the fixed division.  The
    answer is memoised per
    (back-end, device, kernel, n, :func:`tuning_generation`); a tuning
    store bumps the generation, so the next request resolves again.
    """
    return _resolve_workdiv(acc_type, device, kernel, n, tuning_generation())


@functools.lru_cache(maxsize=256)
def _resolve_workdiv(acc_type, device, kernel, n: int, generation: int) -> WorkDivMembers:
    props = acc_type.get_acc_dev_props(device)
    workers = _span_workers(acc_type, props)
    # Looked up here, on a miss: a patched ``repro.tuning.auto_divide``
    # counts resolutions.
    return tuning.auto_divide(
        n,
        props,
        kernel=kernel,
        acc_type=acc_type,
        device=device,
        thread_elems=min(n, 256) if workers is None else -(-n // workers),
    )


class AxpyWorkload(Workload):
    """``y <- alpha * x + y`` (params: ``alpha``; arrays: ``x``, ``y``)."""

    name = "axpy"
    kernel = AxpyElementsKernel()

    def validate(self, req) -> None:
        x = _array(req, "x", 1)
        y = _array(req, "y", 1)
        if x.shape != y.shape or not x.size or x.dtype != y.dtype:
            _require(x.shape == y.shape, "axpy: x and y extents differ")
            _require(x.size > 0, "axpy: empty extent")
            raise ServeError("axpy: x and y dtypes differ")
        float(req.params.get("alpha", 1.0))

    def batch_key(self, req) -> Tuple:
        return (
            "axpy",
            float(req.params.get("alpha", 1.0)),
            dtype_name(req.arrays["x"].dtype),
        )

    def execute(self, requests, acc_type, device):
        alpha = float(requests[0].params.get("alpha", 1.0))
        xs = [r.arrays["x"] for r in requests]
        x_host = _host(np.concatenate(xs) if len(xs) > 1 else xs[0])
        y_host = _output(requests, "y")
        n = x_host.size
        queue = _queue(device)
        x = _stage(queue, device, x_host)
        y = _stage(queue, device, y_host)
        try:
            task = create_task_kernel(
                acc_type,
                _elementwise_workdiv(acc_type, device, n, self.kernel),
                self.kernel, n, alpha, x, y,
            )
            _launch(queue, task)
            merged = _fetch(queue, y, y_host)
        finally:
            x.free()
            y.free()
        return _split(requests, merged, "y", "y")


class ScaleWorkload(Workload):
    """``out <- factor * x`` (params: ``factor``; arrays: ``x``)."""

    name = "scale"
    kernel = ScaleKernel()

    def validate(self, req) -> None:
        x = _array(req, "x", 1)
        _require(x.size > 0, "scale: empty extent")
        float(req.params.get("factor", 1.0))

    def batch_key(self, req) -> Tuple:
        return (
            "scale",
            float(req.params.get("factor", 1.0)),
            dtype_name(req.arrays["x"].dtype),
        )

    def execute(self, requests, acc_type, device):
        factor = float(requests[0].params.get("factor", 1.0))
        xs = [r.arrays["x"] for r in requests]
        x_host = _host(np.concatenate(xs) if len(xs) > 1 else xs[0])
        out_host = np.empty_like(x_host)
        n = x_host.size
        queue = _queue(device)
        x = _stage(queue, device, x_host)
        # The kernel writes every element: nothing to stage.
        result = _stage(queue, device, out_host, copy_in=False)
        try:
            task = create_task_kernel(
                acc_type,
                _elementwise_workdiv(acc_type, device, n, self.kernel),
                self.kernel, n, factor, x, result,
            )
            _launch(queue, task)
            merged = _fetch(queue, result, out_host)
        finally:
            x.free()
            result.free()
        return _split(requests, merged, "x", "out")


# ---------------------------------------------------------------------------
# GEMM: batch by stacking
# ---------------------------------------------------------------------------


def _stacked(requests, name: str) -> np.ndarray:
    """A ``(batch, n, n)`` input the kernel only reads: a solo request's
    own array as a view, else the stack."""
    if len(requests) == 1:
        return _host(requests[0].arrays[name][np.newaxis])
    return np.stack([r.arrays[name] for r in requests])


class GemmWorkload(Workload):
    """``C <- alpha*A@B + beta*C`` on square matrices.

    Params: ``alpha`` (default 1), ``beta`` (default 0); arrays: ``A``,
    ``B`` and optionally ``C`` (defaults to zeros).  Compatible requests
    (same ``n``, scalars and dtype) stack into one
    :class:`BatchedGemmKernel` grid; the fixed
    :data:`DEFAULT_ROWS_PER_CHUNK` chunking keeps solo and batched
    results bit-identical.
    """

    name = "gemm"
    kernel = BatchedGemmKernel()

    def validate(self, req) -> None:
        A = _array(req, "A", 2)
        B = _array(req, "B", 2)
        _require(
            A.shape == B.shape and A.shape[0] == A.shape[1],
            f"gemm: A and B must be equal square matrices, got "
            f"{A.shape} and {B.shape}",
        )
        C = req.arrays.get("C")
        if C is not None:
            _require(C.shape == A.shape, "gemm: C extent differs from A")
        float(req.params.get("alpha", 1.0))
        float(req.params.get("beta", 0.0))

    def batch_key(self, req) -> Tuple:
        return (
            "gemm",
            req.arrays["A"].shape[0],
            float(req.params.get("alpha", 1.0)),
            float(req.params.get("beta", 0.0)),
            dtype_name(req.arrays["A"].dtype),
        )

    def execute(self, requests, acc_type, device):
        alpha = float(requests[0].params.get("alpha", 1.0))
        beta = float(requests[0].params.get("beta", 0.0))
        n = requests[0].arrays["A"].shape[0]
        batch = len(requests)
        A_host = _stacked(requests, "A")
        B_host = _stacked(requests, "B")
        if all("C" in r.arrays for r in requests):
            C_host = _output(requests, "C").reshape(batch, n, n)
        else:
            C_host = np.stack([
                r.arrays.get("C", np.zeros((n, n), dtype=A_host.dtype))
                for r in requests
            ])
        queue = _queue(device)
        A = _stage(queue, device, A_host)
        B = _stage(queue, device, B_host)
        C = _stage(queue, device, C_host)
        try:
            chunks = batch * -(-n // DEFAULT_ROWS_PER_CHUNK)
            task = create_task_kernel(
                acc_type,
                WorkDivMembers.make(chunks, 1, 1),
                self.kernel,
                batch, n, DEFAULT_ROWS_PER_CHUNK, alpha, beta, A, B, C,
            )
            _launch(queue, task)
            merged = _fetch(queue, C, C_host)
        finally:
            A.free()
            B.free()
            C.free()
        if batch == 1:
            return [{"C": merged[0]}]
        return [{"C": merged[i].copy()} for i in range(batch)]


# ---------------------------------------------------------------------------
# Heat equation: a dataflow graph as the unit of admission
# ---------------------------------------------------------------------------


def _plate_workdiv(acc_type, device, h: int, w: int) -> WorkDivMembers:
    """Jacobi division of an (h, w) plate: on a block-level lane one box
    of ``(ceil(h / W), w)`` rows per block worker (the elementwise rule
    on axis 0), else 8x16 tiles."""
    workers = _span_workers(acc_type, acc_type.get_acc_dev_props(device))
    if workers is None:
        elems = Vec(min(h, 8), min(w, 16))
    else:
        elems = Vec(-(-h // workers), w)
    return WorkDivMembers.make(Vec(h, w).ceil_div(elems), Vec(1, 1), elems)


class HeatEquationWorkload(Workload):
    """``steps`` Jacobi sweeps over a 2-d plate, as one dataflow graph.

    Params: ``steps`` (default 10), ``c`` (default 0.2); arrays:
    ``plate`` (2-d).  Records staging copy, double-buffered sweeps and
    the gather copy into a :class:`repro.graph.Graph` and submits it —
    dependency inference, overlap and whole-graph replay caching all
    come from the graph layer for free.
    """

    name = "heat_equation"
    kind = "graph"
    kernel = Jacobi2DKernel()

    def validate(self, req) -> None:
        plate = _array(req, "plate", 2)
        _require(
            plate.shape[0] >= 3 and plate.shape[1] >= 3,
            "heat_equation: plate must be at least 3x3",
        )
        steps = int(req.params.get("steps", 10))
        _require(steps >= 1, "heat_equation: steps must be >= 1")
        float(req.params.get("c", 0.2))

    def execute(self, requests, acc_type, device):
        out = []
        for req in requests:
            plate = np.ascontiguousarray(
                req.arrays["plate"], dtype=np.float64
            )
            h, w = plate.shape
            steps = int(req.params.get("steps", 10))
            c = float(req.params.get("c", 0.2))

            src = alloc(device, (h, w))
            dst = alloc(device, (h, w))
            work_div = _plate_workdiv(acc_type, device, h, w)
            result = np.empty((h, w))
            try:
                g = Graph()
                g.copy(src, plate, label="stage")
                for step in range(steps):
                    g.launch(
                        acc_type, work_div, self.kernel, h, w, c, src, dst,
                        reads=[src], writes=[dst], label=f"sweep{step}",
                    )
                    src, dst = dst, src
                g.copy(result, src, label="gather")
                g.submit()
            finally:
                src.free()
                dst.free()
            out.append({"plate": result})
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_registry: Dict[str, Workload] = {}
_registry_lock = threading.Lock()


def register_workload(workload: Workload) -> Workload:
    """Add ``workload`` to the registry (name collisions raise)."""
    _require(bool(workload.name), "workload has no name")
    with _registry_lock:
        if workload.name in _registry:
            raise ServeError(
                f"workload {workload.name!r} is already registered"
            )
        _registry[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    # A read needs no lock: registration only ever adds whole entries.
    wl = _registry.get(name)
    if wl is None:
        raise ServeError(
            f"unknown workload {name!r}; registered: {workload_names()}"
        )
    return wl


def workload_names() -> List[str]:
    with _registry_lock:
        return sorted(_registry)


for _wl in (
    AxpyWorkload(),
    ScaleWorkload(),
    GemmWorkload(),
    HeatEquationWorkload(),
):
    register_workload(_wl)
