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

:func:`view_plain` is alpaka's ``ViewPlainPtr``: a buffer over memory the
host already holds, on a device the host can address.  It is the same
pointer plus residing device, extent and pitch, so kernels, copies and
the dataflow graph take it like any allocation — but nothing is
allocated, reserved, zero-filled or copied, and ``free()`` releases
nothing.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Sequence, Union

import numpy as np

from ..core.errors import ExtentError, MemorySpaceError
from ..core.vec import MAX_DIM, Vec, _adopt, as_vec
from ..dev.device import Device
from .alignment import pitch_elements
from .guard import guard

__all__ = ["Buffer", "ViewPlainPtr", "alloc", "alloc_like", "view_plain"]

#: Monotonic allocation ids: the stable identity the dataflow-graph
#: dependency-inference pass keys buffer accesses on.  Ids are never
#: reused, so a freed-and-reallocated buffer can never alias a cached
#: graph's dependency structure.
_buf_ids = itertools.count(1)
_buf_ids_lock = threading.Lock()


def _next_buf_id() -> int:
    with _buf_ids_lock:
        return next(_buf_ids)


#: ``id(root) -> (weakref to root, buf_id)`` for the host arrays plain
#: views were made of: views of one array share its id.
_host_ids: dict = {}


def _host_buf_id(host: np.ndarray) -> int:
    """The id of the numpy array ``host`` is, or is a view of: every
    plain view of memory one array owns shares it, so the dataflow graph
    orders a write through one view before a read through another.  A
    fresh id for an array the table does not hold; an entry leaves the
    table when its array dies, and its id is never handed out again."""
    root = host
    while isinstance(root.base, np.ndarray):
        root = root.base
    key = id(root)
    with _buf_ids_lock:
        entry = _host_ids.get(key)
        if entry is not None and entry[0]() is root:
            return entry[1]
        buf_id = next(_buf_ids)

        def forget(ref, key=key):
            # Runs as the array dies, maybe inside the locked section
            # (a collection there): dict operations only, no lock.
            if _host_ids.get(key, (None,))[0] is ref:
                del _host_ids[key]

        _host_ids[key] = (weakref.ref(root, forget), buf_id)
        return buf_id


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

    def kernel_array(self, device: Device, guarded: bool = True) -> np.ndarray:
        """The array a kernel executing on ``device`` works on.

        Executors call this while unwrapping kernel arguments; it is the
        residency check of the offloading model.  ``guarded=False``
        skips the negative-index guard (:mod:`repro.mem.guard`): a launch
        record asks for that where a proof dropped the guard.
        """
        device.require_resident(self)
        if guarded:
            return guard(self._logical())
        return self._logical()

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
            f"<{type(self).__name__} {self.dtype} {self.extent!r} on "
            f"{self.dev.name}, {state}>"
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


class ViewPlainPtr(Buffer):
    """A :class:`Buffer` over a host array the caller keeps owning.

    Do not construct directly; use :func:`view_plain`.
    """

    def __init__(self, dev: Device, host: np.ndarray):
        if not dev.accessible_from_host:
            raise MemorySpaceError(
                f"a plain view of host memory on {dev!r}, which the host "
                "cannot address; allocate there and copy (mem.copy)"
            )
        if host.ndim == 0 or not (host.flags.c_contiguous and host.flags.aligned):
            raise MemorySpaceError(
                "a plain view needs an aligned, C-contiguous array of at "
                "least one dimension"
            )
        self.dev = dev
        # A shape is a tuple of non-negative ints: it needs no validation
        # beyond the dimension bound.
        self.extent = (
            _adopt(host.shape) if host.ndim <= MAX_DIM else as_vec(host.shape)
        )
        self.dtype = host.dtype
        self.pitch_elems = host.shape[-1]
        self._nbytes = host.nbytes
        self._padded = host
        self._freed = False
        self._buf_id = None

    @property
    def buf_id(self) -> int:
        """The id of the array the view is of (see :func:`view_plain`),
        looked up on first use — a request's views on a serving lane
        never are.  A view freed before that aliases nothing any more
        and gets a fresh id."""
        buf_id = self._buf_id
        if buf_id is None:
            buf_id = self._buf_id = (
                _next_buf_id() if self._freed else _host_buf_id(self._padded)
            )
        return buf_id

    def _logical(self) -> np.ndarray:
        if self._freed:
            raise MemorySpaceError("buffer used after free")
        return self._padded

    def free(self) -> None:
        """Drop the view (idempotent); the memory stays the caller's."""
        if not self._freed:
            self._freed = True
            self._padded = np.empty(0, dtype=self.dtype)


def view_plain(dev: Device, host: np.ndarray) -> ViewPlainPtr:
    """``host`` as a buffer on ``dev`` (alpaka's ``ViewPlainPtr``):
    kernels on ``dev`` compute in the array itself.  ``dev`` must be
    host-addressable (else :class:`MemorySpaceError`) and ``host`` an
    aligned, C-contiguous array.

    Views of one numpy array (``host`` itself or any array whose
    ``.base`` chain leads to it) share one :attr:`~Buffer.buf_id`, so
    the dataflow graph orders their accesses as accesses to one
    allocation.  Arrays that share memory only through some other
    object (two ``np.frombuffer`` calls on one ``bytes``) get distinct
    ids, and the graph cannot order them."""
    return ViewPlainPtr(dev, host)


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
