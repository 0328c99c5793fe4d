"""Symbolic kernel tracing and the PTX-like mini-IR (paper Fig. 4)."""

from .acc import ArgSpec, TraceAcc, trace_alpaka_kernel
from .compare import ComparisonResult, compare_streams, normalize
from .cpu_asm import (
    CpuArray,
    CpuTraceContext,
    classify_fp_instructions,
    trace_cpu_kernel_scalar,
    trace_cpu_kernel_spans,
)
from .ir import Instruction, IRBuilder
from .native_cuda import CudaSurface, trace_cuda_kernel
from .symbolic import Product, SymArray, SymBool, SymFloat, SymInt, TraceContext

__all__ = [
    "IRBuilder",
    "Instruction",
    "TraceContext",
    "SymInt",
    "SymFloat",
    "SymBool",
    "SymArray",
    "Product",
    "TraceAcc",
    "ArgSpec",
    "trace_alpaka_kernel",
    "CudaSurface",
    "trace_cuda_kernel",
    "ComparisonResult",
    "compare_streams",
    "normalize",
    "CpuTraceContext",
    "CpuArray",
    "trace_cpu_kernel_scalar",
    "trace_cpu_kernel_spans",
    "classify_fp_instructions",
]
