"""Native-CUDA tracing surface.

Paper Fig. 4 compares Alpaka-generated PTX with PTX from a *natively
written* CUDA kernel.  The reproduction needs both sides of that
comparison, so this module provides a miniature CUDA-C-like API —
``cu.block_idx_x()``, ``cu.block_dim_x()``, ``cu.thread_idx_x()`` —
whose use records exactly the special-register reads nvcc would emit.
A "native" kernel is a Python function written against this API, not
against the alpaka accelerator::

    def daxpy_cuda(cu, n, alpha, x, y):
        i = cu.block_dim_x() * cu.block_idx_x() + cu.thread_idx_x()
        if i < n:
            y[i] = alpha * x[i] + y[i]

It is traced by the same tracer as the alpaka kernel, but its index is
*hand-written arithmetic* on the built-ins where the alpaka side asks
``get_idx(acc, Grid, Threads)`` — so "identical streams" compares the
abstraction with what it abstracts, not a routine with itself.

``x`` is traced as ``const double* __restrict__`` (pass
``("const_array", "x")``), which produces the ``ld.global.nc.f64``
non-coherent load — the single difference the paper reports between the
two PTX listings.
"""

from __future__ import annotations

from typing import Sequence

from .ir import IRBuilder
from .ptx import ArgSpec, trace_alpaka_kernel

__all__ = ["CudaSurface", "trace_cuda_kernel"]

_AXES = ("x", "y", "z")


class CudaSurface:
    """The built-in variables of CUDA C, as operands of the tracer's
    accelerator stand-in: indices are lane coordinates, dimensions are
    extents.

    CUDA grids are always three-dimensional with ``x`` the fastest
    axis: the library's last component.
    """

    def __init__(self, acc):
        self.acc = acc

    @staticmethod
    def _component(axis: str) -> int:
        return 2 - _AXES.index(axis)

    # blockIdx / blockDim / threadIdx / gridDim, per axis ---------------

    def block_idx(self, axis: str = "x"):
        return self.acc.lane("block", self._component(axis))

    def block_dim(self, axis: str = "x"):
        return self.acc.extent("thread", self._component(axis))

    def thread_idx(self, axis: str = "x"):
        return self.acc.lane("thread", self._component(axis))

    def grid_dim(self, axis: str = "x"):
        return self.acc.extent("block", self._component(axis))

    # convenience x-axis spellings ------------------------------------------

    def block_idx_x(self):
        return self.block_idx("x")

    def block_dim_x(self):
        return self.block_dim("x")

    def thread_idx_x(self):
        return self.thread_idx("x")

    def global_thread_idx_x(self):
        """``blockDim.x * blockIdx.x + threadIdx.x`` as nvcc emits it:
        the special registers are read in ``%ctaid``, ``%ntid``,
        ``%tid`` order and the arithmetic contracts into one
        ``mad.lo.s32`` — exactly the four-instruction prologue of both
        listings in paper Fig. 4."""
        ctaid = self.block_idx_x()
        ntid = self.block_dim_x()
        tid = self.thread_idx_x()
        return ntid * ctaid + tid


def trace_cuda_kernel(
    kernel,
    arg_specs: Sequence[ArgSpec],
    *,
    name: str = "cuda_kernel",
) -> IRBuilder:
    """Symbolically compile a native CUDA-style kernel."""
    return trace_alpaka_kernel(
        lambda acc, *args: kernel(CudaSurface(acc), *args), arg_specs,
        dim=3, name=name,
    )
