"""Devices: the concrete hardware a level hierarchy is mapped onto.

A :class:`Device` owns memory (with capacity accounting), queues and —
for the simulated GPU — a simulated clock that accumulates modeled
execution time.  Devices are handed out by platforms
(:mod:`repro.dev.platform`); user code obtains them through
:func:`repro.dev.manager.get_dev_by_idx`, mirroring paper Listing 5's
``dev::DevMan<Acc>::getDevByIdx(0)``.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Optional

from ..core.errors import DeviceError, MemorySpaceError
from ..hardware.specs import HardwareSpec

if TYPE_CHECKING:  # pragma: no cover
    from .platform import Platform

__all__ = ["Device", "MemorySpace"]

_device_ids = itertools.count()


class MemorySpace:
    """Accounting for one device's global memory.

    All bytes physically live in host RAM; the space tracks logical
    residency so the library can enforce the paper's explicit-deep-copy
    memory model and reject over-allocation against the modeled
    device's capacity.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self.allocated_bytes = 0
        self._lock = threading.Lock()

    def reserve(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        with self._lock:
            if self.allocated_bytes + nbytes > self.capacity_bytes:
                raise MemoryError(
                    f"device memory exhausted: requested {nbytes} B, "
                    f"{self.capacity_bytes - self.allocated_bytes} B free "
                    f"of {self.capacity_bytes} B"
                )
            self.allocated_bytes += nbytes

    def release(self, nbytes: int) -> None:
        with self._lock:
            self.allocated_bytes = max(0, self.allocated_bytes - nbytes)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes


class Device:
    """One execution device of a platform.

    Attributes
    ----------
    platform:
        The owning :class:`~repro.dev.platform.Platform`.
    spec:
        Hardware model (core counts, clocks, caches) of the machine this
        device belongs to.
    idx:
        Index within the platform (``getDevByIdx`` argument).
    accessible_from_host:
        True for CPU devices: host numpy views of buffers are legal.
        False for the simulated GPU: host access without an explicit
        copy raises :class:`~repro.core.errors.MemorySpaceError`,
        enforcing the paper's memory model.
    """

    def __init__(
        self,
        platform: "Platform",
        spec: HardwareSpec,
        idx: int,
        accessible_from_host: bool,
    ):
        self.platform = platform
        self.spec = spec
        self.idx = idx
        self.accessible_from_host = accessible_from_host
        self.uid = next(_device_ids)
        self.mem = MemorySpace(
            spec.global_mem_bytes // max(1, spec.device_count)
        )
        # Simulated wall clock, advanced by executors that model time
        # (the CUDA-sim back-end); CPU back-ends measure real time.
        # Kept as integer femtoseconds so accumulation is exact: a
        # float running sum would make `t1 - t0` deltas depend on the
        # clock's magnitude (the same modeled launch measuring a
        # last-bit-different time late in a long process).
        self._sim_time_fs = 0
        self._sim_lock = threading.Lock()
        self.kernel_launch_count = 0

    # -- identity -------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.spec.architecture} #{self.idx} ({self.platform.kind})"

    def __repr__(self) -> str:
        return f"<Device {self.name}>"

    # -- simulated time ---------------------------------------------------

    def advance_sim_time(self, seconds: float) -> None:
        if seconds < 0:
            raise DeviceError("cannot advance simulated time backwards")
        with self._sim_lock:
            self._sim_time_fs += round(seconds * 1e15)

    @property
    def sim_time_s(self) -> float:
        return self._sim_time_fs * 1e-15

    @property
    def sim_time_fs(self) -> int:
        """The clock in integer femtoseconds — subtract two readings
        for an exact interval (``sim_time_s`` floats lose the last bit
        once the clock is large)."""
        return self._sim_time_fs

    def reset_sim_time(self) -> None:
        with self._sim_lock:
            self._sim_time_fs = 0

    # -- bookkeeping ------------------------------------------------------

    def note_kernel_launch(self, seconds: float = 0.0) -> None:
        """Count one kernel launch and advance the simulated clock by
        its modeled ``seconds`` (0 for a launch that failed), under one
        lock acquisition."""
        if seconds < 0:
            raise DeviceError("cannot advance simulated time backwards")
        fs = round(seconds * 1e15)
        # Many threads launch on one device concurrently (the serving
        # gateway's lanes, user threads sharing a device); a bare += is
        # a lost-update race under free threading.
        with self._sim_lock:
            self.kernel_launch_count += 1
            self._sim_time_fs += fs

    def require_resident(self, buf) -> None:
        """Assert that ``buf`` lives on this device (kernel-argument
        residency check; alpaka would dereference a wild pointer
        here)."""
        if buf.dev is not self:
            raise MemorySpaceError(
                f"buffer resides on {buf.dev!r}, kernel runs on {self!r}; "
                "copy it first (mem.copy)"
            )
