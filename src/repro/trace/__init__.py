"""Paper Fig. 4 as two printers over the one kernel trace, plus the
stream comparator.

A kernel is run under symbolic operands by :mod:`repro.compile.tracer`
and nowhere else; :mod:`~repro.trace.ptx` and
:mod:`~repro.trace.cpu_asm` print what it recorded as a PTX-like and an
x86 listing, :mod:`~repro.trace.compare` tells two listings apart.
"""

from .compare import ComparisonResult, compare_streams, normalize
from .cpu_asm import (
    CpuTraceContext,
    classify_fp_instructions,
    trace_cpu_kernel_scalar,
    trace_cpu_kernel_spans,
)
from .ir import Instruction, IRBuilder
from .native_cuda import CudaSurface, trace_cuda_kernel
from .ptx import ArgSpec, trace_alpaka_kernel

__all__ = [
    "IRBuilder",
    "Instruction",
    "ArgSpec",
    "trace_alpaka_kernel",
    "CudaSurface",
    "trace_cuda_kernel",
    "ComparisonResult",
    "compare_streams",
    "normalize",
    "CpuTraceContext",
    "trace_cpu_kernel_scalar",
    "trace_cpu_kernel_spans",
    "classify_fp_instructions",
]
