"""Sub-views: rectangular windows into buffers (alpaka ``ViewSubView``).

A sub-view selects an offset box of a buffer without copying.  Views are
legal copy endpoints, which is what multi-device decompositions need:
halo exchange and tile scatter/gather become ``copy(queue, view_a,
view_b)`` between windows of larger buffers.

Views hold a reference to their buffer; residency and lifetime checks
delegate to it, so a view of a freed buffer fails exactly like the
buffer would.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..core.errors import ExtentError
from ..core.vec import Vec, as_vec
from .buf import Buffer

__all__ = ["ViewSubView", "sub_view"]


class ViewSubView:
    """A rectangular window ``[offset, offset + extent)`` of a buffer."""

    def __init__(self, buf: Buffer, offset, extent):
        self.buf = buf
        self.offset = as_vec(offset, buf.dim)
        self.extent = as_vec(extent, buf.dim)
        self.offset.assert_non_negative("view offset")
        self.extent.assert_positive("view extent")
        end = self.offset + self.extent
        if not end.elementwise_le(buf.extent):
            raise ExtentError(
                f"sub-view [{self.offset!r}, {end!r}) exceeds buffer "
                f"extent {buf.extent!r}"
            )

    # -- identity / access metadata (dataflow-graph protocol) -----------

    @property
    def buf_id(self) -> int:
        """The base allocation's stable id (dependency inference treats
        a view as an access to a region of its base buffer)."""
        return self.buf.buf_id

    @property
    def base_buffer(self) -> Buffer:
        return self.buf

    def access_box(self) -> tuple:
        """The ``((offset, extent), ...)`` window this view touches
        within its base allocation; disjoint windows of one buffer do
        not conflict in the dataflow graph."""
        return tuple(
            (int(o), int(e)) for o, e in zip(self.offset, self.extent)
        )

    # -- geometry (copy-endpoint protocol) ------------------------------

    @property
    def dev(self):
        return self.buf.dev

    @property
    def dim(self) -> int:
        return self.buf.dim

    @property
    def dtype(self):
        return self.buf.dtype

    @property
    def _box(self) -> tuple:
        return tuple(
            slice(o, o + e) for o, e in zip(self.offset, self.extent)
        )

    # -- access -----------------------------------------------------------

    def as_numpy(self) -> np.ndarray:
        """Host view of the window (host-resident buffers only)."""
        return self.buf.as_numpy()[self._box]

    def kernel_array(self, device, guarded: bool = True) -> np.ndarray:
        """The window a kernel on ``device`` works on (residency
        checked); kernels may therefore take sub-views as arguments.
        The window inherits the buffer's negative-index guard
        (:mod:`repro.mem.guard`): slicing a
        :class:`~repro.mem.guard.GuardedArray` stays guarded."""
        return self.buf.kernel_array(device, guarded)[self._box]

    def unsafe_backing(self) -> np.ndarray:
        """Window of the backing array (copy-engine privilege)."""
        arr = self.buf.unsafe_backing()
        if self.buf.pitch_elems != self.buf.extent[-1]:
            arr = arr[..., : self.buf.extent[-1]]
        return arr[self._box]

    def sub_view(self, offset, extent) -> "ViewSubView":
        """A view of a view: offsets compose."""
        off = as_vec(offset, self.dim)
        return ViewSubView(self.buf, self.offset + off, extent)

    def __repr__(self) -> str:
        return (
            f"<ViewSubView {self.offset!r}+{self.extent!r} of {self.buf!r}>"
        )


def sub_view(
    buf: Union[Buffer, ViewSubView],
    offset: Union[int, Sequence[int], Vec],
    extent: Union[int, Sequence[int], Vec],
) -> ViewSubView:
    """Create a sub-view of a buffer (or narrow an existing view)."""
    if isinstance(buf, ViewSubView):
        return buf.sub_view(offset, extent)
    return ViewSubView(buf, offset, extent)
