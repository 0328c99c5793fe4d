"""CPU back-ends (paper Table 2, CPU and MIC rows).

Five back-ends share the host platform and differ only in how they map
the block and thread levels:

===================  ======================  =========================
back-end             blocks                  threads in a block
===================  ======================  =========================
AccCpuSerial         sequential              exactly 1
AccCpuOmp2Blocks     worker pool             exactly 1
AccCpuOmp2Threads    sequential              one OS thread each
AccCpuThreads        sequential              one OS thread each
AccCpuFibers         sequential              cooperative fibers
===================  ======================  =========================

``AccCpuOmp2Threads`` and ``AccCpuThreads`` execute identically here
(Python has no OpenMP runtime); they are kept distinct because the
paper's evaluation names them separately and because their device
properties differ (the OpenMP back-end caps block size at the OpenMP
thread limit, the C++11-threads back-end at a memory-bound constant).

Retarget a machine model with ``for_machine``::

    Acc = AccCpuOmp2Blocks.for_machine("intel-xeon-e5-2630v3")
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..core.properties import AccDevProps
from ..core.vec import Vec
from ..core.workdiv import MappingStrategy
from ..dev.device import Device
from ..dev.platform import PlatformCpu
from ..runtime.scheduler import resolve_max_block_workers
from .base import AcceleratorType

__all__ = [
    "AccCpu",
    "AccCpuSerial",
    "AccCpuOmp2Blocks",
    "AccCpuOmp2Threads",
    "AccCpuThreads",
    "AccCpuFibers",
]

_HUGE = 1 << 30


class AccCpu(AcceleratorType):
    """Common behaviour of the CPU back-ends."""

    kind = "cpu"
    #: machine registry key; None = the real host.
    machine_key: Optional[str] = None
    #: subclass cache for for_machine()
    _machine_variants: Dict[str, Type["AccCpu"]] = {}

    # execution strategy declared per concrete back-end; the runtime
    # composes (block_schedule, thread_execute) into the launch plan
    block_schedule = "sequential"
    thread_execute = "single"
    block_thread_limit = 1

    @classmethod
    def platform(cls) -> PlatformCpu:
        return PlatformCpu(cls.machine_key)

    @classmethod
    def get_acc_dev_props(cls, dev: Device) -> AccDevProps:
        spec = dev.spec
        workers = (
            resolve_max_block_workers()
            if cls.block_schedule == "pooled"
            else 1
        )
        return AccDevProps(
            multi_processor_count=spec.cores_per_device,
            grid_block_extent_max=Vec.all(3, _HUGE),
            block_thread_extent_max=Vec.all(3, cls.block_thread_limit),
            thread_elem_extent_max=Vec.all(3, _HUGE),
            block_thread_count_max=cls.block_thread_limit,
            shared_mem_size_bytes=spec.shared_mem_per_block_bytes,
            warp_size=1,
            global_mem_size_bytes=spec.global_mem_bytes,
            max_block_workers=workers,
        )

    @classmethod
    def for_machine(cls, machine_key: str) -> Type["AccCpu"]:
        """A variant of this back-end whose platform is a modeled
        machine from the hardware registry (the paper's Xeons/Opteron).
        Variants are cached so they compare identical across calls."""
        cache_key = f"{cls.__name__}@{machine_key}"
        variant = cls._machine_variants.get(cache_key)
        if variant is None:
            variant = type(
                cache_key.replace("-", "_").replace("@", "_on_"),
                (cls,),
                {"machine_key": machine_key, "name": cache_key},
            )
            cls._machine_variants[cache_key] = variant
        return variant


class AccCpuSerial(AccCpu):
    """Sequential back-end: one thread per block, blocks in order.

    Table 2 row "Sequential": grid = N/V, block = 1, element = V.
    The baseline back-end and the reference for differential testing.
    """

    name = "AccCpuSerial"
    mapping_strategy = MappingStrategy.BLOCK_LEVEL
    supports_block_sync = False
    parallel_scope = "none"
    block_schedule = "sequential"
    thread_execute = "single"
    block_thread_limit = 1


class AccCpuOmp2Blocks(AccCpu):
    """OpenMP-2-over-blocks: blocks are scheduled onto a worker pool,
    each block runs its single thread to completion.

    Table 2 row "OpenMP block": grid = N/V, block = 1, element = V.
    This is the back-end the paper uses for all CPU measurements
    ("Alpaka(OMP2)").
    """

    name = "AccCpuOmp2Blocks"
    mapping_strategy = MappingStrategy.BLOCK_LEVEL
    supports_block_sync = False
    parallel_scope = "blocks"
    block_schedule = "pooled"
    thread_execute = "single"
    block_thread_limit = 1


class AccCpuOmp2Threads(AccCpu):
    """OpenMP-2-over-threads: blocks sequential, block threads parallel.

    Table 2 row "OpenMP thread": grid = N/(B*V), block = B, element = V.
    """

    name = "AccCpuOmp2Threads"
    mapping_strategy = MappingStrategy.THREAD_LEVEL
    supports_block_sync = True
    parallel_scope = "threads"
    block_schedule = "sequential"
    thread_execute = "preemptive"
    block_thread_limit = 64


class AccCpuThreads(AccCpu):
    """C++11-threads analogue: one preemptive thread per block thread."""

    name = "AccCpuThreads"
    mapping_strategy = MappingStrategy.THREAD_LEVEL
    supports_block_sync = True
    parallel_scope = "threads"
    block_schedule = "sequential"
    thread_execute = "preemptive"
    block_thread_limit = 128


class AccCpuFibers(AccCpu):
    """boost::fibers analogue: block threads are cooperative fibers,
    exactly one runnable at a time, switching only at sync points.

    Deterministic round-robin interleaving makes this the debugging
    back-end: a kernel that is correct only under preemptive timing
    behaves reproducibly here.
    """

    name = "AccCpuFibers"
    mapping_strategy = MappingStrategy.THREAD_LEVEL
    supports_block_sync = True
    parallel_scope = "none"
    #: Sequential block order + cooperative fibers = fully deterministic
    #: interleaving; the runtime must never pool-schedule this back-end.
    block_schedule = "sequential"
    thread_execute = "cooperative"
    block_thread_limit = 128
