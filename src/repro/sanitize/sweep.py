"""Canned sanitizer sweep over every shipped kernel.

One small, representative, *correct* launch per kernel family — the
kernels the paper evaluates plus the app kernels.  The sweep is the
sanitizer's false-positive regression: every run here must come back
clean (races between atomic accesses, barrier-separated shared-memory
phases, element-level vector slices... all idioms the detector must
not mis-flag).  The CLI (``python -m repro.sanitize kernels``) and CI
run it; a finding is a bug in either the kernel or the sanitizer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.vec import Vec
from ..core.workdiv import WorkDivMembers
from ..dev.manager import get_dev_by_idx
from ..queue.queue import QueueBlocking
from ._state import enabled, pinned_seed
from .report import SanitizerReport

__all__ = ["KERNEL_SWEEP", "sweep_kernels", "DEFAULT_SWEEP_BACKENDS"]

#: Back-ends the sweep exercises by default: the serial baseline, a
#: preemptively threaded CPU back-end and the CUDA simulator — the
#: three distinct engine paths.
DEFAULT_SWEEP_BACKENDS = ("AccCpuSerial", "AccCpuThreads", "AccGpuCudaSim")


def _staged(mem, queue, device, host):
    buf = mem.alloc(device, host.shape, dtype=host.dtype)
    mem.copy(queue, buf, np.ascontiguousarray(host))
    return buf


def _run_axpy(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import AxpyElementsKernel, AxpyKernel

    n = 64
    rng = np.random.default_rng(2)
    x = _staged(mem, queue, device, rng.random(n))
    y = _staged(mem, queue, device, rng.random(n))
    queue.enqueue(
        create_task_kernel(
            acc, WorkDivMembers.make(n, 1, 1), AxpyKernel(), n, 2.0, x, y
        )
    )
    queue.enqueue(
        create_task_kernel(
            acc, WorkDivMembers.make(4, 1, 16), AxpyElementsKernel(), n, 2.0, x, y
        )
    )


def _run_gemm(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import (
        GemmCudaStyleKernel,
        GemmOmpStyleKernel,
        GemmTilingKernel,
        gemm_workdiv_cuda,
        gemm_workdiv_omp,
        gemm_workdiv_tiling,
    )

    n = 8
    rng = np.random.default_rng(3)
    A = _staged(mem, queue, device, rng.random((n, n)))
    B = _staged(mem, queue, device, rng.random((n, n)))
    C = _staged(mem, queue, device, rng.random((n, n)))
    queue.enqueue(
        create_task_kernel(
            acc, gemm_workdiv_omp(n, 4), GemmOmpStyleKernel(),
            n, 1.5, A, B, 0.5, C,
        )
    )
    if acc.supports_block_sync:
        bt = 4 if acc.get_acc_dev_props(device).block_thread_count_max >= 16 else 2
        queue.enqueue(
            create_task_kernel(
                acc, gemm_workdiv_cuda(n, bt), GemmCudaStyleKernel(),
                n, 1.0, A, B, 0.0, C,
            )
        )
        queue.enqueue(
            create_task_kernel(
                acc, gemm_workdiv_tiling(n, 2, 2), GemmTilingKernel(),
                n, 1.0, A, B, 1.0, C,
            )
        )


def _run_histogram(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import HistogramKernel

    n, bins = 128, 8
    rng = np.random.default_rng(4)
    x = _staged(mem, queue, device, rng.random(n) * 0.999)
    hist = mem.alloc(device, bins)
    mem.memset(queue, hist, 0.0)
    if acc.supports_block_sync:
        wd = WorkDivMembers.make(4, 4, -(-n // 16))
    else:
        wd = WorkDivMembers.make(8, 1, -(-n // 8))
    queue.enqueue(
        create_task_kernel(acc, wd, HistogramKernel(), n, 0.0, 1.0, bins, x, hist)
    )


def _run_reduce(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import DotKernel, SumReduceKernel

    n = 64
    rng = np.random.default_rng(5)
    x = _staged(mem, queue, device, rng.random(n))
    y = _staged(mem, queue, device, rng.random(n))
    out = mem.alloc(device, 1)
    mem.memset(queue, out, 0.0)
    if acc.supports_block_sync:
        bt = min(8, acc.get_acc_dev_props(device).block_thread_count_max)
        wd = WorkDivMembers.make(2, bt, -(-n // (2 * bt)))
    else:
        wd = WorkDivMembers.make(4, 1, 16)
    queue.enqueue(create_task_kernel(acc, wd, SumReduceKernel(), n, x, out))
    mem.memset(queue, out, 0.0)
    queue.enqueue(create_task_kernel(acc, wd, DotKernel(), n, x, y, out))


def _run_scan(acc, device, queue):
    from .. import mem
    from ..kernels import scan_exclusive

    n, chunk = 64, 8
    rng = np.random.default_rng(6)
    x = _staged(mem, queue, device, rng.random(n))
    out = mem.alloc(device, n)
    scan_exclusive(acc, queue, x, out, n, chunk=chunk)


def _run_sort(acc, device, queue):
    from .. import mem
    from ..kernels import sort_chunks

    n = 32
    rng = np.random.default_rng(7)
    data = _staged(mem, queue, device, rng.random(n))
    sort_chunks(acc, queue, data, n, chunk=16)


def _run_spmv(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import CsrSpmvKernel, csr_from_dense

    n = 16
    rng = np.random.default_rng(8)
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    values, col_idx, row_ptr = csr_from_dense(dense)
    vb = _staged(mem, queue, device, values)
    cb = _staged(mem, queue, device, col_idx)
    rb = _staged(mem, queue, device, row_ptr)
    x = _staged(mem, queue, device, rng.random(n))
    y = mem.alloc(device, n)
    mem.memset(queue, y, 0.0)
    wd = WorkDivMembers.make(4, 1, 4)
    queue.enqueue(
        create_task_kernel(acc, wd, CsrSpmvKernel(), n, vb, cb, rb, x, y)
    )


def _run_stencil(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import Jacobi2DKernel

    h = w = 8
    rng = np.random.default_rng(9)
    src = _staged(mem, queue, device, rng.random((h, w)))
    dst = mem.alloc(device, (h, w))
    wd = WorkDivMembers.make((2, 2), Vec(1, 1), Vec(4, 4))
    queue.enqueue(
        create_task_kernel(acc, wd, Jacobi2DKernel(), h, w, 0.1, src, dst)
    )


def _run_stencil3d(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import Jacobi3DKernel

    d, h, w = 4, 6, 5
    rng = np.random.default_rng(10)
    src = _staged(mem, queue, device, rng.random((d, h, w)))
    dst = mem.alloc(device, (d, h, w))
    wd = WorkDivMembers.make((2, 2, 1), Vec(1, 1, 1), Vec(2, 3, 5))
    queue.enqueue(
        create_task_kernel(acc, wd, Jacobi3DKernel(), d, h, w, 0.1, src, dst)
    )


def _run_transform(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import FillKernel, IotaKernel, MapKernel, ScaleKernel

    n = 64
    out = mem.alloc(device, n)
    x = mem.alloc(device, n)
    wd = WorkDivMembers.make(4, 1, 16)
    queue.enqueue(create_task_kernel(acc, wd, FillKernel(), n, 1.25, out))
    queue.enqueue(create_task_kernel(acc, wd, IotaKernel(), n, 0.0, x))
    queue.enqueue(create_task_kernel(acc, wd, ScaleKernel(), n, 3.0, x, out))
    queue.enqueue(
        create_task_kernel(acc, wd, MapKernel(np.sqrt), n, x, out)
    )


def _run_transpose(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import (
        TransposeNaiveKernel,
        TransposeTiledKernel,
        transpose_workdiv,
    )

    n = 8
    rng = np.random.default_rng(11)
    inp = _staged(mem, queue, device, rng.random((n, n)))
    out = mem.alloc(device, (n, n))
    wd = transpose_workdiv(n, tile=4)
    queue.enqueue(create_task_kernel(acc, wd, TransposeNaiveKernel(), n, inp, out))
    queue.enqueue(create_task_kernel(acc, wd, TransposeTiledKernel(), n, inp, out))


def _run_batched(acc, device, queue):
    from .. import mem
    from ..core.kernel import create_task_kernel
    from ..kernels import DEFAULT_ROWS_PER_CHUNK, BatchedGemmKernel

    batch, n = 3, 8
    rng = np.random.default_rng(11)
    A = _staged(mem, queue, device, rng.random((batch, n, n)))
    B = _staged(mem, queue, device, rng.random((batch, n, n)))
    C = _staged(mem, queue, device, rng.random((batch, n, n)))
    queue.enqueue(
        create_task_kernel(
            acc, WorkDivMembers.make(batch, 1, 1), BatchedGemmKernel(),
            batch, n, DEFAULT_ROWS_PER_CHUNK, 1.5, 0.5, A, B, C,
        )
    )


#: name -> launch function; every shipped kernel family appears once.
KERNEL_SWEEP: Tuple[Tuple[str, object], ...] = (
    ("axpy", _run_axpy),
    ("batched", _run_batched),
    ("gemm", _run_gemm),
    ("histogram", _run_histogram),
    ("reduce", _run_reduce),
    ("scan", _run_scan),
    ("sort", _run_sort),
    ("spmv", _run_spmv),
    ("stencil", _run_stencil),
    ("stencil3d", _run_stencil3d),
    ("transform", _run_transform),
    ("transpose", _run_transpose),
)


def sweep_kernels(
    backends: Optional[Iterable[str]] = None,
    *,
    seed: Optional[int] = None,
    only: Optional[Iterable[str]] = None,
) -> SanitizerReport:
    """Run every shipped kernel under the sanitizer on ``backends``.

    Returns the combined report; :attr:`SanitizerReport.clean` must be
    true — any finding is a regression.  ``seed`` forces the fuzzed
    cooperative schedule on back-ends that support it.
    """
    from ..acc.registry import accelerator

    names = set(only) if only is not None else None
    report = SanitizerReport(label="kernel sweep")
    with pinned_seed(seed):
        for backend in backends or DEFAULT_SWEEP_BACKENDS:
            acc = accelerator(backend)
            device = get_dev_by_idx(acc, 0)
            queue = QueueBlocking(device)
            for kernel_name, fn in KERNEL_SWEEP:
                if names is not None and kernel_name not in names:
                    continue
                with enabled(label=f"{kernel_name}@{backend}") as rep:
                    fn(acc, device, queue)
                report.launches.extend(rep.launches)
    return report

