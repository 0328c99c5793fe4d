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
from ..kernels import (
    DEFAULT_ROWS_PER_CHUNK,
    AxpyElementsKernel,
    BatchedGemmKernel,
    Jacobi2DKernel,
    ScaleKernel,
)
from ..queue.queue import QueueBlocking
from ..tuning.cache import tuning_generation

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
    _require(arr is not None, f"{req.workload}: missing array {name!r}")
    _require(
        arr.ndim == ndim,
        f"{req.workload}: array {name!r} must be {ndim}-d, got {arr.ndim}-d",
    )
    return arr


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


def _stage(queue, device, host: np.ndarray):
    from .. import mem

    buf = mem.alloc(device, host.shape, dtype=host.dtype, pitched=False)
    mem.copy(queue, buf, np.ascontiguousarray(host))
    return buf


def _split(requests, merged: np.ndarray, name: str, out_name: str):
    """Per-request slices of a merged 1-d result.  A solo request gets
    ``merged`` itself (just fetched, nobody else holds it); batched
    replies are copies, so no reply pins the merged array."""
    if len(requests) == 1:
        return [{out_name: merged}]
    out, offset = [], 0
    for r in requests:
        size = r.arrays[name].size
        out.append({out_name: merged[offset : offset + size].copy()})
        offset += size
    return out


def _fetch(queue, buf, shape, dtype) -> np.ndarray:
    from .. import mem

    out = np.empty(shape, dtype=dtype)
    mem.copy(queue, out, buf)
    return out


def _launch(queue, task) -> None:
    """Run ``task`` on the blocking ``queue``, then let go of its
    arguments.

    A workload holds one kernel instance, so every same-shape request
    resolves to one cached :class:`~repro.runtime.plan.LaunchPlan` (the
    plan cache keys on kernel identity).  That plan keeps the record of
    the last argument tuple; dropping it keeps a finished request's
    device arrays from outliving ``Buffer.free()``.
    """
    from ..runtime import launch

    ran = []
    queue.enqueue(lambda: ran.append(launch(task, queue.dev)))
    ran[0].drop_record()


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
    :func:`~repro.tuning.autotune` store (or a fleet cache it shares)
    hot-swap serving launches.  An entry tuned on the performance model
    rather than on the host can be slower than the fixed division.  The
    answer is memoised per
    (back-end, device, kernel, n, :func:`tuning_generation`); a tuning
    store bumps the generation, so the next request resolves again.
    """
    return _resolve_workdiv(acc_type, device, kernel, n, tuning_generation())


@functools.lru_cache(maxsize=256)
def _resolve_workdiv(acc_type, device, kernel, n: int, generation: int) -> WorkDivMembers:
    from ..tuning import auto_divide

    props = acc_type.get_acc_dev_props(device)
    workers = _span_workers(acc_type, props)
    return auto_divide(
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
        _require(x.shape == y.shape, "axpy: x and y extents differ")
        _require(x.size > 0, "axpy: empty extent")
        _require(x.dtype == y.dtype, "axpy: x and y dtypes differ")
        float(req.params.get("alpha", 1.0))

    def batch_key(self, req) -> Tuple:
        return (
            "axpy",
            float(req.params.get("alpha", 1.0)),
            str(req.arrays["x"].dtype),
        )

    def execute(self, requests, acc_type, device):
        alpha = float(requests[0].params.get("alpha", 1.0))
        xs = [r.arrays["x"] for r in requests]
        ys = [r.arrays["y"] for r in requests]
        x_host = np.concatenate(xs) if len(xs) > 1 else xs[0]
        y_host = np.concatenate(ys) if len(ys) > 1 else ys[0]
        n = x_host.size
        queue = QueueBlocking(device)
        x = _stage(queue, device, x_host)
        y = _stage(queue, device, y_host)
        try:
            task = create_task_kernel(
                acc_type,
                _elementwise_workdiv(acc_type, device, n, self.kernel),
                self.kernel, n, alpha, x, y,
            )
            _launch(queue, task)
            merged = _fetch(queue, y, y_host.shape, y_host.dtype)
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
            str(req.arrays["x"].dtype),
        )

    def execute(self, requests, acc_type, device):
        from .. import mem

        factor = float(requests[0].params.get("factor", 1.0))
        xs = [r.arrays["x"] for r in requests]
        x_host = np.concatenate(xs) if len(xs) > 1 else xs[0]
        n = x_host.size
        queue = QueueBlocking(device)
        x = _stage(queue, device, x_host)
        # The kernel writes every element: no staged zeros.
        result = mem.alloc(device, x_host.shape, dtype=x_host.dtype, pitched=False)
        try:
            task = create_task_kernel(
                acc_type,
                _elementwise_workdiv(acc_type, device, n, self.kernel),
                self.kernel, n, factor, x, result,
            )
            _launch(queue, task)
            merged = _fetch(queue, result, x_host.shape, x_host.dtype)
        finally:
            x.free()
            result.free()
        return _split(requests, merged, "x", "out")


# ---------------------------------------------------------------------------
# GEMM: batch by stacking
# ---------------------------------------------------------------------------


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
            str(req.arrays["A"].dtype),
        )

    def execute(self, requests, acc_type, device):
        alpha = float(requests[0].params.get("alpha", 1.0))
        beta = float(requests[0].params.get("beta", 0.0))
        n = requests[0].arrays["A"].shape[0]
        batch = len(requests)
        A_host = np.ascontiguousarray(
            np.stack([r.arrays["A"] for r in requests])
        )
        B_host = np.ascontiguousarray(
            np.stack([r.arrays["B"] for r in requests])
        )
        C_host = np.ascontiguousarray(
            np.stack(
                [
                    r.arrays.get("C", np.zeros((n, n), dtype=A_host.dtype))
                    for r in requests
                ]
            )
        )
        queue = QueueBlocking(device)
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
            merged = _fetch(queue, C, C_host.shape, C_host.dtype)
        finally:
            A.free()
            B.free()
            C.free()
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
        from .. import mem
        from ..graph import Graph

        out = []
        for req in requests:
            plate = np.ascontiguousarray(
                req.arrays["plate"], dtype=np.float64
            )
            h, w = plate.shape
            steps = int(req.params.get("steps", 10))
            c = float(req.params.get("c", 0.2))

            src = mem.alloc(device, (h, w))
            dst = mem.alloc(device, (h, w))
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
    with _registry_lock:
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
