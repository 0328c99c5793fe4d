"""Memory buffers (paper Sec. 3.4.4).

A buffer is *"the plain pointer to memory of the particular device plus
residing device, extent, pitch and dimension"*.  Buffers are uniform
across devices, which is what makes :func:`repro.mem.copy.copy` able to
move data between any two devices.

Residency is enforced: ``as_numpy()`` on a buffer of a non-host device
raises :class:`~repro.core.errors.MemorySpaceError`.  Kernels receive
the underlying array only after the executor has checked the buffer
lives on the device the kernel runs on — the reproduction's analogue of
"dereferencing a device pointer on the host segfaults".
"""

from __future__ import annotations

import itertools
import threading
from typing import Sequence, Union

import numpy as np

from ..core.errors import ExtentError, MemorySpaceError
from ..core.vec import Vec, as_vec
from ..dev.device import Device
from .alignment import OPTIMAL_ALIGNMENT_BYTES, pitch_elements

__all__ = ["Buffer", "alloc", "alloc_like"]

#: Monotonic allocation ids: the stable identity the dataflow-graph
#: dependency-inference pass keys buffer accesses on.  Ids are never
#: reused, so a freed-and-reallocated buffer can never alias a cached
#: graph's dependency structure.
_buf_ids = itertools.count(1)
_buf_ids_lock = threading.Lock()


def _next_buf_id() -> int:
    with _buf_ids_lock:
        return next(_buf_ids)


class Buffer:
    """Device memory with extent, pitch and residency.

    Do not construct directly; use :func:`alloc`.
    """

    def __init__(
        self,
        dev: Device,
        extent: Vec,
        dtype,
        pitched: bool,
    ):
        extent.assert_non_negative("buffer extent")
        self.dev = dev
        self.extent = extent
        self.dtype = np.dtype(dtype)
        if pitched and extent.dim >= 2:
            self.pitch_elems = pitch_elements(extent[-1], self.dtype)
        else:
            self.pitch_elems = extent[-1]
        padded_shape = extent.as_tuple()[:-1] + (self.pitch_elems,)
        nbytes = int(np.prod(padded_shape, dtype=np.int64)) * self.dtype.itemsize
        dev.mem.reserve(nbytes)
        self._nbytes = nbytes
        self._padded = np.zeros(padded_shape, dtype=self.dtype)
        self._freed = False
        self._buf_id = _next_buf_id()

    # -- identity / access metadata (dataflow-graph protocol) -----------

    @property
    def buf_id(self) -> int:
        """Process-stable allocation id (monotonic, never reused).

        The dataflow graph's dependency inference keys accesses on this
        id rather than object identity, so views and their base buffer
        resolve to the same memory."""
        return self._buf_id

    @property
    def base_buffer(self) -> "Buffer":
        """The owning allocation (a buffer is its own base; views
        delegate to theirs)."""
        return self

    def access_box(self) -> tuple:
        """The ``((offset, extent), ...)`` region this endpoint touches
        within its base allocation — the whole buffer."""
        return tuple((0, int(e)) for e in self.extent)

    # -- geometry -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.extent.dim

    @property
    def pitch_bytes(self) -> int:
        return self.pitch_elems * self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Allocated size including row padding."""
        return self._nbytes

    @property
    def logical_nbytes(self) -> int:
        """Payload size excluding padding."""
        return self.extent.prod() * self.dtype.itemsize

    # -- access ----------------------------------------------------------

    def _logical(self) -> np.ndarray:
        if self._freed:
            raise MemorySpaceError("buffer used after free")
        if self.pitch_elems == self.extent[-1]:
            return self._padded
        return self._padded[..., : self.extent[-1]]

    def as_numpy(self) -> np.ndarray:
        """Host view of the buffer's logical contents.

        Only legal for buffers on host-accessible devices; the simulated
        GPU's memory must be copied to a host buffer first (explicit
        deep copies, paper Sec. 1.1 / 3.1).
        """
        if not self.dev.accessible_from_host:
            raise MemorySpaceError(
                f"host access to memory of {self.dev!r}; "
                "copy to a host buffer first (mem.copy)"
            )
        return self._logical()

    def kernel_array(self, device: Device) -> np.ndarray:
        """The array a kernel executing on ``device`` works on.

        Executors call this while unwrapping kernel arguments; it is the
        residency check of the offloading model.
        """
        device.require_resident(self)
        from .guard import guard

        return guard(self._logical())

    def unsafe_backing(self) -> np.ndarray:
        """The padded backing array regardless of residency.

        Exists for the copy engine and for tests that need to inspect
        device memory without modeling a transfer; never use it in
        application code.
        """
        if self._freed:
            raise MemorySpaceError("buffer used after free")
        return self._padded

    # -- lifetime ---------------------------------------------------------

    def free(self) -> None:
        """Release the allocation (idempotent).  Further access raises."""
        if not self._freed:
            self._freed = True
            self.dev.mem.release(self._nbytes)
            self._padded = np.empty(0, dtype=self.dtype)

    @property
    def freed(self) -> bool:
        return self._freed

    def __enter__(self) -> "Buffer":
        return self

    def __exit__(self, *exc) -> None:
        self.free()

    def __repr__(self) -> str:
        state = "freed" if self._freed else f"pitch={self.pitch_elems}"
        return (
            f"<Buffer {self.dtype} {self.extent!r} on {self.dev.name}, {state}>"
        )

    # -- in/out of bounds helpers -----------------------------------------

    def check_extent_fits(self, extent: Vec, what: str) -> None:
        if extent.dim != self.dim:
            raise ExtentError(
                f"{what}: extent dim {extent.dim} != buffer dim {self.dim}"
            )
        if not extent.elementwise_le(self.extent):
            raise ExtentError(
                f"{what}: extent {extent!r} exceeds buffer extent {self.extent!r}"
            )


def alloc(
    dev: Device,
    extent: Union[int, Sequence[int], Vec],
    dtype=np.float64,
    *,
    pitched: bool = True,
) -> Buffer:
    """Allocate a buffer on ``dev`` (paper Listing 4's
    ``mem::buf::alloc<Data, Size>(dev, extents)``).

    ``pitched`` pads rows of >=2-d buffers to
    :data:`~repro.mem.alignment.OPTIMAL_ALIGNMENT_BYTES`.
    """
    return Buffer(dev, as_vec(extent), dtype, pitched)


def alloc_like(dev: Device, other: Buffer) -> Buffer:
    """Allocate a buffer with the extent/dtype of ``other`` on ``dev`` —
    the idiom for staging a device copy of a host buffer."""
    return Buffer(dev, other.extent, other.dtype, pitched=True)
