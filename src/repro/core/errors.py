"""Exception hierarchy for the pyalpaka reproduction.

Alpaka itself reports most contract violations at compile time through
template machinery; a Python port has to surface the same contracts at
runtime.  Every error raised by the library derives from
:class:`AlpakaError` so applications can catch the whole family with one
handler.
"""

from __future__ import annotations

__all__ = [
    "AlpakaError",
    "DimensionError",
    "InvalidWorkDiv",
    "MemorySpaceError",
    "ExtentError",
    "DeviceError",
    "QueueError",
    "GraphError",
    "KernelError",
    "BarrierDivergenceError",
    "SharedMemError",
    "TraceError",
    "ModelError",
    "SanitizerError",
    "ServeError",
    "CompileCrossCheckError",
]


class AlpakaError(Exception):
    """Base class for all errors raised by the library."""


class DimensionError(AlpakaError, ValueError):
    """Operands of a :class:`~repro.core.vec.Vec` operation disagree in
    dimensionality, or a dimensionality is out of the supported range."""


class InvalidWorkDiv(AlpakaError, ValueError):
    """A work division violates the constraints of the accelerator it is
    mapped to (e.g. more than one thread per block on a serial
    accelerator, or a block larger than the device limit)."""


class MemorySpaceError(AlpakaError, RuntimeError):
    """Host code touched device-resident memory (or vice versa) without
    an explicit deep copy.

    The paper's memory model is *pointer based with explicit deep
    copies*; this error is how the reproduction enforces that model even
    though all bytes physically live in host RAM.
    """


class ExtentError(AlpakaError, ValueError):
    """A copy/set/view extent does not fit inside the source or
    destination buffer."""


class DeviceError(AlpakaError, RuntimeError):
    """Device enumeration or selection failed."""


class QueueError(AlpakaError, RuntimeError):
    """Illegal queue operation (e.g. enqueuing into a destroyed queue)."""


class GraphError(AlpakaError, RuntimeError):
    """Illegal dataflow-graph construction or submission: a dependency
    cycle, a kernel whose buffer arguments live on different devices, or
    a node added to an already-submitted graph mid-flight."""


class KernelError(AlpakaError, RuntimeError):
    """A kernel raised, or violated an execution contract.

    The original exception (if any) is preserved as ``__cause__``.
    """


class BarrierDivergenceError(KernelError):
    """Threads of one block diverged around ``sync_block_threads``: some
    reached the barrier while siblings already exited (or took a
    different number of barriers).  CUDA leaves this undefined; the
    reproduction detects it instead of deadlocking."""


class SharedMemError(AlpakaError, RuntimeError):
    """Block shared memory misuse: allocation outside a kernel, divergent
    allocation shapes between threads of one block, or exceeding the
    device's shared-memory capacity."""


class TraceError(AlpakaError, RuntimeError):
    """The symbolic kernel tracer met a construct it cannot represent."""


class ModelError(AlpakaError, ValueError):
    """The performance model was given inconsistent characteristics."""


class SanitizerError(AlpakaError, RuntimeError):
    """The kernel sanitizer (:mod:`repro.sanitize`) found defects and was
    asked to fail loudly (``SanitizerReport.raise_if_findings``)."""


class ServeError(AlpakaError, RuntimeError):
    """The serving gateway (:mod:`repro.serve`) rejected or failed a
    request for a reason other than the kernel itself failing."""


class CompileCrossCheckError(KernelError):
    """Compiled replay and interpreted execution disagreed bit-for-bit
    on a store target (``REPRO_COMPILE_CROSSCHECK=1`` or the
    ``python -m repro.sanitize crosscheck`` sweep).  Either the
    trace-vectorizer mis-compiled the kernel or the kernel's result
    depends on cross-thread execution order — both are findings."""

