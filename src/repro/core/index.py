"""Index origins, units, and index-space mapping.

Alpaka kernels never see built-in variables like ``threadIdx``; they ask
the accelerator for an index *relative to an origin and in a unit*::

    idx.get_idx(acc, Grid, Threads)     # global n-dim thread index
    workdiv.get_work_div(acc, Grid, Threads)  # total n-dim thread extent

This module defines the origin/unit vocabulary and the pure functions
that derive any origin/unit combination from the primitive triple the
back-end maintains (block index in grid, thread index in block, work
division), plus :func:`map_idx` which linearises / delinearises indices
between dimensionalities (paper Listing 3).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from .errors import DimensionError
from .vec import Vec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..acc.base import Accelerator

__all__ = [
    "Origin",
    "Unit",
    "Grid",
    "Block",
    "Thread",
    "Blocks",
    "Threads",
    "Elems",
    "get_idx",
    "get_work_div",
    "map_idx",
    "linearize",
    "delinearize",
]


class Origin(enum.Enum):
    """Where an index/extent query is anchored."""

    GRID = "grid"
    BLOCK = "block"
    THREAD = "thread"


class Unit(enum.Enum):
    """What an index/extent query counts."""

    BLOCKS = "blocks"
    THREADS = "threads"
    ELEMS = "elems"


# Short aliases used in kernel code, mirroring alpaka's tag types.  The
# queries below compare against them too: a module global is a tenth
# the cost of an enum member looked up through its class.
Grid = Origin.GRID
Block = Origin.BLOCK
Thread = Origin.THREAD
Blocks = Unit.BLOCKS
Threads = Unit.THREADS
Elems = Unit.ELEMS


def get_idx(acc: "Accelerator", origin: Origin, unit: Unit) -> Vec:
    """The current thread's index, in ``unit`` steps, relative to ``origin``.

    Supported combinations (matching alpaka):

    ===========  =========  ==========================================
    origin       unit       meaning
    ===========  =========  ==========================================
    ``Grid``     ``Blocks``   block index within the grid
    ``Grid``     ``Threads``  global thread index
    ``Grid``     ``Elems``    index of the thread's first element
    ``Block``    ``Threads``  thread index within its block
    ``Block``    ``Elems``    first element of this thread within block
    ===========  =========  ==========================================

    The tracing accelerator (:mod:`repro.compile.tracer`) intercepts the
    query via a ``trace_get_idx`` hook, so the *same kernel source* can
    be executed and symbolically compiled.
    """
    hook = getattr(acc, "trace_get_idx", None)
    if hook is not None:
        return hook(origin, unit)
    if origin is Grid:
        if unit is Blocks:
            return acc.grid_block_idx
        wd = acc.work_div
        if wd.block_thread_count == 1:
            # The lone thread of a block sits at the block's index.
            first = acc.grid_block_idx
        else:
            # The block-constant part: the accelerator facade carries it
            # precomputed per block; stand-ins need not.
            first = getattr(acc, "grid_thread_origin", None)
            if first is None:
                first = acc.grid_block_idx * wd.block_thread_extent
            first = first + acc.block_thread_idx
        if unit is Threads:
            return first
        if unit is Elems:
            return first * wd.thread_elem_extent
    elif origin is Block:
        if unit is Threads:
            return acc.block_thread_idx
        if unit is Elems:
            return acc.block_thread_idx * acc.work_div.thread_elem_extent
    raise DimensionError(f"unsupported index query: origin={origin}, unit={unit}")


def get_work_div(acc_or_workdiv, origin: Origin, unit: Unit) -> Vec:
    """The extent of ``origin`` counted in ``unit`` steps.

    Accepts either an accelerator (inside a kernel) or a work division
    object (host side), since the answer depends only on the work
    division.

    ===========  =========  ==========================================
    origin       unit       meaning
    ===========  =========  ==========================================
    ``Grid``     ``Blocks``   blocks per grid
    ``Grid``     ``Threads``  threads per grid
    ``Grid``     ``Elems``    elements per grid (the problem extent)
    ``Block``    ``Threads``  threads per block
    ``Block``    ``Elems``    elements per block
    ``Thread``   ``Elems``    elements per thread
    ===========  =========  ==========================================
    """
    hook = getattr(acc_or_workdiv, "trace_get_work_div", None)
    if hook is not None:
        return hook(origin, unit)
    wd = getattr(acc_or_workdiv, "work_div", acc_or_workdiv)
    # Every answer is a constant of the (immutable) division, computed
    # when it was built — nothing is multiplied per query.
    if origin is Grid:
        if unit is Blocks:
            return wd.grid_block_extent
        if unit is Threads:
            return wd.grid_thread_extent
        if unit is Elems:
            return wd.grid_elem_extent
    elif origin is Block:
        if unit is Threads:
            return wd.block_thread_extent
        if unit is Elems:
            return wd.block_elem_extent
    elif origin is Thread:
        if unit is Elems:
            return wd.thread_elem_extent
    raise DimensionError(f"unsupported extent query: origin={origin}, unit={unit}")


def linearize(idx: Vec, extent: Vec) -> int:
    """C-order linearisation of an n-dim index inside an n-dim extent.

    Component 0 is the slowest varying dimension (numpy shape order)::

        >>> linearize(Vec(1, 2), Vec(4, 8))
        10
    """
    if idx.dim != extent.dim:
        raise DimensionError(f"index dim {idx.dim} != extent dim {extent.dim}")
    lin = 0
    for i, e in zip(idx, extent):
        if not 0 <= i < e:
            raise DimensionError(f"index {idx!r} out of extent {extent!r}")
        lin = lin * e + i
    return lin


def delinearize(lin: int, extent: Vec) -> Vec:
    """Inverse of :func:`linearize`."""
    total = extent.prod()
    if not 0 <= lin < total:
        raise DimensionError(f"linear index {lin} out of extent {extent!r}")
    comps = []
    for e in reversed(extent.as_tuple()):
        comps.append(lin % e)
        lin //= e
    return Vec(*reversed(comps))


def map_idx(target_dim: int, idx: Vec, extent: Vec) -> Vec:
    """Map an index between dimensionalities (alpaka ``mapIdx<N>``).

    ``map_idx(1, idx, extent)`` linearises; ``map_idx(n, Vec(lin), extent)``
    with an n-dim ``extent`` delinearises; same-dimensionality mapping is
    the identity.  This is the function kernels use to turn an n-dim
    global thread index into a flat data offset (paper Listing 3).
    """
    if target_dim == idx.dim:
        return idx
    if target_dim == 1:
        return Vec(linearize(idx, extent))
    if idx.dim == 1:
        if extent.dim != target_dim:
            raise DimensionError(
                f"extent dim {extent.dim} must equal target dim {target_dim}"
            )
        return delinearize(idx[0], extent)
    raise DimensionError(
        f"map_idx supports n->1, 1->n and n->n mappings, not {idx.dim}->{target_dim}"
    )
