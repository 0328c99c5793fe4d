"""Explicit deep copies and memset between memory spaces.

``mem::view::copy(stream, devBuf, hostBuf, extents)`` (paper Listing 4)
is the *only* way data crosses a memory-space boundary — there is no
implicit migration anywhere in the library.  Copies are *tasks*: they
are enqueued into a queue and execute in stream order.

Host numpy arrays are accepted as copy endpoints and treated as memory
of the host device, which is how applications stage initial data.
Cross-space copies advance the simulated clock of the GPU device by a
modeled PCIe transfer time (the paper excludes transfers from its
timings; benches that follow the paper call ``reset_sim_time`` after
staging).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.errors import ExtentError, MemorySpaceError
from ..core.vec import Vec, as_vec
from ..telemetry.spans import span
from .buf import Buffer
from .view import ViewSubView

__all__ = ["copy", "memset", "TaskCopy", "TaskMemset", "PCIE_BANDWIDTH_GBS"]

#: Modeled host<->device interconnect bandwidth (PCIe 3.0 x16 effective).
PCIE_BANDWIDTH_GBS = 8.0

_Endpoint = Union[Buffer, ViewSubView, np.ndarray]


def _endpoint_extent(ep: _Endpoint) -> Vec:
    if isinstance(ep, (Buffer, ViewSubView)):
        return ep.extent
    return Vec.from_iterable(ep.shape)


def _endpoint_dtype(ep: _Endpoint):
    return ep.dtype


def _endpoint_array(ep: _Endpoint) -> np.ndarray:
    """Backing array of a copy endpoint.

    The copy engine is the privileged component that may touch any
    memory space — it *is* the DMA engine.
    """
    if isinstance(ep, ViewSubView):
        return ep.unsafe_backing()
    if isinstance(ep, Buffer):
        logical = ep.unsafe_backing()
        if ep.pitch_elems != ep.extent[-1]:
            logical = logical[..., : ep.extent[-1]]
        return logical
    return ep


def _endpoint_device(ep: _Endpoint):
    return ep.dev if isinstance(ep, (Buffer, ViewSubView)) else None


def _box(extent: Vec) -> tuple:
    return tuple(slice(0, e) for e in extent)


@dataclass(frozen=True)
class TaskCopy:
    """An enqueued deep copy of ``extent`` elements from ``src`` to
    ``dst`` (leading corner to leading corner)."""

    dst: _Endpoint
    src: _Endpoint
    extent: Vec

    def execute(self, device) -> None:
        with span("mem.copy", cat="mem", device=device):
            dst_arr = _endpoint_array(self.dst)
            src_arr = _endpoint_array(self.src)
            box = _box(self.extent)
            dst_arr[box] = src_arr[box]
            self._advance_sim_clocks()

    def _advance_sim_clocks(self) -> None:
        nbytes = self.extent.prod() * np.dtype(_endpoint_dtype(self.src)).itemsize
        d_dst, d_src = _endpoint_device(self.dst), _endpoint_device(self.src)
        spaces = {
            d.accessible_from_host for d in (d_dst, d_src) if d is not None
        }
        crosses = (None in (d_dst, d_src) and False in spaces) or spaces == {
            True,
            False,
        }
        if not crosses:
            return
        seconds = nbytes / (PCIE_BANDWIDTH_GBS * 1e9)
        for d in (d_dst, d_src):
            if d is not None and not d.accessible_from_host:
                d.advance_sim_time(seconds)

    def __repr__(self) -> str:
        return f"TaskCopy(extent={self.extent!r})"


@dataclass(frozen=True)
class TaskMemset:
    """Fill ``extent`` elements of ``dst`` with a scalar."""

    dst: Buffer
    value: float
    extent: Vec

    def execute(self, device) -> None:
        with span("mem.memset", cat="mem", device=device):
            arr = _endpoint_array(self.dst)
            arr[_box(self.extent)] = self.value


def _validate(dst: _Endpoint, src: _Endpoint, extent: Optional[Vec]) -> Vec:
    de, se = _endpoint_extent(dst), _endpoint_extent(src)
    if de.dim != se.dim:
        raise ExtentError(f"copy endpoints disagree in dim: {de.dim} vs {se.dim}")
    ext = as_vec(extent, de.dim) if extent is not None else de.min(se)
    for name, ep_ext in (("dst", de), ("src", se)):
        if not ext.elementwise_le(ep_ext):
            raise ExtentError(
                f"copy extent {ext!r} exceeds {name} extent {ep_ext!r}"
            )
    ddt, sdt = np.dtype(_endpoint_dtype(dst)), np.dtype(_endpoint_dtype(src))
    if ddt != sdt:
        raise ExtentError(f"copy dtype mismatch: dst {ddt} vs src {sdt}")
    if not isinstance(dst, (Buffer, ViewSubView)) and not isinstance(
        src, (Buffer, ViewSubView)
    ):
        raise MemorySpaceError(
            "at least one copy endpoint must be a Buffer or view; use "
            "numpy directly for host-to-host array copies"
        )
    return ext


def copy(
    queue,
    dst: _Endpoint,
    src: _Endpoint,
    extent: Union[int, tuple, Vec, None] = None,
) -> TaskCopy:
    """Enqueue a deep copy (paper Listing 4 line 14).

    ``extent`` defaults to the overlap of both endpoints' extents.
    Returns the task (useful for re-enqueuing in tests).
    """
    ext = _validate(dst, src, as_vec(extent) if extent is not None else None)
    task = TaskCopy(dst=dst, src=src, extent=ext)
    queue.enqueue(task)
    return task


def memset(
    queue,
    dst: Buffer,
    value: float,
    extent: Union[int, tuple, Vec, None] = None,
) -> TaskMemset:
    """Enqueue a scalar fill of ``dst``."""
    ext = as_vec(extent, dst.dim) if extent is not None else dst.extent
    dst.check_extent_fits(ext, "memset")
    task = TaskMemset(dst=dst, value=value, extent=ext)
    queue.enqueue(task)
    return task
