"""Lane-expression IR: the one dataflow every consumer of a trace reads.

One expression node per operation the kernel performed while
:mod:`repro.compile.tracer` ran it over batched thread coordinates.
Three consumers read the recording: :mod:`repro.compile.codegen` lowers
it once, at trace time, to a straight-line numpy function, and the two
Fig. 4 printers (:mod:`repro.trace.ptx`, :mod:`repro.trace.cpu_asm`)
render it as a PTX or an x86 listing.  Nothing in this module runs on a
warm launch, and nothing in it knows a target.

The node set is deliberately tiny:

* :class:`Const` / :class:`Arg` — uniform scalars (literals and scalar
  kernel arguments, re-read from the live argument tuple on replay);
* :class:`LaneIndex` — a per-thread coordinate (global thread index,
  block index or in-block thread index along one axis);
* :class:`Ufunc` — any numpy universal function applied to evaluated
  operands.  The node stores the *actual ufunc object* the kernel
  invoked, so replay performs bit-for-bit the operation interpretation
  would have performed (``np.sqrt`` compiles to ``np.sqrt``);
* :class:`Load` / :class:`SpanLoad` / :class:`TileLoad` — global-memory
  reads: by lane index expression, as the whole grid-strided element
  span (over the leading axis: ``x[span]`` or the row span
  ``X[span, :]``), or as the union of every thread's n-d element box
  (:class:`Tile`) shifted by a constant offset per axis;
* :class:`SpanMatMul` — ``X[span, :] @ B``: the row-span value times a
  whole array argument, one product per chunk of the grid-strided loop;
* :class:`Extent`, :class:`SharedLoad` / :class:`SharedStore` /
  :class:`Barrier` — block-level nodes, recorded only for a consumer
  that asked (``trace_kernel(..., block_level=True)``): a grid or block
  extent with its provenance instead of the literal it folds to, and
  accesses to a block-shared array (:class:`Shared`) between barriers.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = [
    "Const",
    "Arg",
    "LaneIndex",
    "Extent",
    "Ufunc",
    "Load",
    "SpanLoad",
    "SpanMatMul",
    "Tile",
    "TileLoad",
    "Store",
    "SpanStore",
    "TileStore",
    "Shared",
    "SharedLoad",
    "SharedStore",
    "Barrier",
    "LaneGeometry",
    "describe_expr",
]


class Expr:
    """Base class of all lane-expression nodes."""

    __slots__ = ()


class Const(Expr):
    """A literal scalar captured at trace time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Arg(Expr):
    """A uniform scalar kernel argument, read from the live argument
    tuple at every replay (so ``alpha`` may change without re-tracing)."""

    __slots__ = ("pos",)

    def __init__(self, pos: int):
        self.pos = pos


class LaneIndex(Expr):
    """A per-thread coordinate along one axis.

    ``kind``: ``"grid_thread"`` (global thread index), ``"block"``
    (block index in grid) or ``"thread"`` (thread index in block).
    Axis 0 is the slowest dimension (library convention).
    """

    __slots__ = ("kind", "axis")

    def __init__(self, kind: str, axis: int):
        self.kind = kind
        self.axis = axis


class Extent(Expr):
    """How many blocks the grid has (``kind="block"``) or threads a
    block has (``"thread"``) along one axis: the range of the
    :class:`LaneIndex` of the same kind, uniform across the grid."""

    __slots__ = ("kind", "axis")

    def __init__(self, kind: str, axis: int):
        self.kind = kind
        self.axis = axis


class Ufunc(Expr):
    """``fn(*args)`` where ``fn`` is the very callable the traced kernel
    invoked (a numpy/scipy ufunc or an operator's ufunc equivalent)."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: Tuple[Expr, ...]):
        self.fn = fn
        self.args = args


class Load(Expr):
    """``array_arg[pos][index...]`` — a global-memory gather."""

    __slots__ = ("pos", "index")

    def __init__(self, pos: int, index: Tuple[Expr, ...]):
        self.pos = pos
        self.index = index


class SpanLoad(Expr):
    """The whole grid-strided element span ``array_arg[pos][0:extent]``
    (the union over threads and iterations of their clipped spans),
    over the leading axis: of a 2-d array, the rows ``0:extent``."""

    __slots__ = ("pos", "extent")

    def __init__(self, pos: int, extent: Expr):
        self.pos = pos
        self.extent = extent


class SpanMatMul(Expr):
    """``value @ array_arg[pos]`` where ``value`` ranges over the rows of
    a grid-strided span and the right operand is a whole 2-d array.

    The interpreted loop multiplies chunk by chunk, and the chunks are
    cut at the multiples of ``chunk`` (the thread element extent along
    axis 0), whichever thread runs them; the replay keeps that cut
    unless the layout is certified to give the same bits as one whole
    product (:func:`repro.compile.codegen._span_matmul`).
    """

    __slots__ = ("value", "pos", "chunk")

    def __init__(self, value: Expr, pos: int, chunk: int):
        self.value = value
        self.pos = pos
        self.chunk = chunk


class Tile:
    """The region every thread's element box covers together.

    :func:`repro.core.element.element_box` guarantees the boxes of
    distinct threads are disjoint and their union is
    ``[0, min(extent, grid_elem_extent))`` per axis; clipped to an
    interior of ``halo`` cells (:func:`~repro.core.element.clip_box`)
    the union is ``[halo, min(extent, grid_elem_extent, extent - halo))``.
    ``bounds`` holds that union as concrete ``(lo, hi)`` pairs — the
    extent is concretised (and guarded) at trace time — with
    ``lo == hi == 0`` on every axis when any axis is empty.  Tiles
    clipped from one box share the ``family`` token.
    """

    __slots__ = ("family", "halo", "bounds")

    def __init__(self, family: object, halo: int,
                 bounds: Tuple[Tuple[int, int], ...]):
        self.family = family
        self.halo = halo
        self.bounds = bounds

    def index(self, shifts: Tuple[int, ...]) -> Tuple[slice, ...]:
        """The whole-array subscript of the region moved by ``shifts``."""
        return tuple(
            slice(lo + s, hi + s) for (lo, hi), s in zip(self.bounds, shifts)
        )


class TileLoad(Expr):
    """``array_arg[pos][tile + shifts]`` — every thread's read of its
    element box at a constant per-axis offset, as one shifted slice."""

    __slots__ = ("pos", "tile", "shifts")

    def __init__(self, pos: int, tile: Tile, shifts: Tuple[int, ...]):
        self.pos = pos
        self.tile = tile
        self.shifts = shifts


class Store:
    """One recorded global-memory write (not an Expr: stores are the
    trace's roots, applied in order during the commit phase)."""

    __slots__ = ("pos", "index", "value", "mask_count")

    def __init__(
        self, pos: int, index: Tuple[Expr, ...], value: Expr, mask_count: int
    ):
        self.pos = pos
        self.index = index
        self.value = value
        self.mask_count = mask_count


class SpanStore:
    """One recorded whole-span write ``array_arg[pos][0:extent] = value``
    (rows ``0:extent`` of a 2-d array)."""

    __slots__ = ("pos", "extent", "value", "mask_count")

    def __init__(self, pos: int, extent: Expr, value: Expr, mask_count: int):
        self.pos = pos
        self.extent = extent
        self.value = value
        self.mask_count = mask_count


class TileStore:
    """One recorded write of every thread's element box:
    ``array_arg[pos][tile] = value``."""

    __slots__ = ("pos", "tile", "value")

    def __init__(self, pos: int, tile: Tile, value: Expr):
        self.pos = pos
        self.tile = tile
        self.value = value


class Shared:
    """A block-shared array as the kernel declared it."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: np.dtype):
        self.name = name
        self.shape = shape
        self.dtype = dtype


class SharedLoad(Expr):
    """``shared[index...]`` — one value per thread."""

    __slots__ = ("shared", "index")

    def __init__(self, shared: Shared, index: Tuple[Expr, ...]):
        self.shared = shared
        self.index = index


class SharedStore:
    """One recorded write ``shared[index...] = value`` (program order
    against the :class:`Barrier` nodes is the trace's creation order)."""

    __slots__ = ("shared", "index", "value", "mask_count")

    def __init__(self, shared: Shared, index: Tuple[Expr, ...], value: Expr,
                 mask_count: int):
        self.shared = shared
        self.index = index
        self.value = value
        self.mask_count = mask_count


class Barrier:
    """One ``sync_block_threads()`` call."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Lane geometry
# ---------------------------------------------------------------------------


class LaneGeometry:
    """Per-axis coordinate arrays for every thread of one work division.

    Lane ``l`` is the C-order global thread: block ``l // tpb`` (linear,
    C order over the grid-block extent), thread ``l % tpb`` (linear, C
    order over the block-thread extent).  Arrays are built lazily and
    cached — they depend only on the work division, never on arguments.
    """

    def __init__(self, work_div):
        self.work_div = work_div
        self.lanes = int(work_div.block_count) * int(
            work_div.block_thread_count
        )
        self._cache = {}

    def axis_array(self, kind: str, axis: int) -> np.ndarray:
        key = (kind, axis)
        arr = self._cache.get(key)
        if arr is not None:
            return arr
        wd = self.work_div
        tpb = int(wd.block_thread_count)
        lane = np.arange(self.lanes, dtype=np.int64)
        block_lin = lane // tpb
        thread_lin = lane % tpb
        if kind == "block":
            arr = self._delin(block_lin, tuple(wd.grid_block_extent), axis)
        elif kind == "thread":
            arr = self._delin(thread_lin, tuple(wd.block_thread_extent), axis)
        elif kind == "grid_thread":
            b = self._delin(block_lin, tuple(wd.grid_block_extent), axis)
            t = self._delin(thread_lin, tuple(wd.block_thread_extent), axis)
            arr = b * int(wd.block_thread_extent[axis]) + t
        else:  # pragma: no cover - tracer only emits the kinds above
            raise ValueError(f"unknown lane-index kind {kind!r}")
        self._cache[key] = arr
        return arr

    @staticmethod
    def _delin(lin: np.ndarray, extent: Tuple[int, ...], axis: int) -> np.ndarray:
        """C-order component ``axis`` of linear indices over ``extent``."""
        trailing = 1
        for e in extent[axis + 1 :]:
            trailing *= int(e)
        return (lin // trailing) % int(extent[axis])


def describe_expr(node) -> str:
    """Compact human-readable rendering (tests and debug dumps)."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Arg):
        return f"arg{node.pos}"
    if isinstance(node, LaneIndex):
        return f"{node.kind}[{node.axis}]"
    if isinstance(node, Ufunc):
        name = getattr(node.fn, "__name__", str(node.fn))
        return f"{name}({', '.join(describe_expr(a) for a in node.args)})"
    if isinstance(node, Load):
        idx = ", ".join(describe_expr(i) for i in node.index)
        return f"load(arg{node.pos}[{idx}])"
    if isinstance(node, SpanLoad):
        return f"span(arg{node.pos}[:{describe_expr(node.extent)}])"
    if isinstance(node, SpanMatMul):
        return (
            f"matmul({describe_expr(node.value)}, arg{node.pos}, "
            f"chunk={node.chunk})"
        )
    if isinstance(node, TileLoad):
        return f"tile(arg{node.pos}[{_describe_tile(node.tile, node.shifts)}])"
    if isinstance(node, Store):
        idx = ", ".join(describe_expr(i) for i in node.index)
        return f"arg{node.pos}[{idx}] = {describe_expr(node.value)}"
    if isinstance(node, SpanStore):
        return (
            f"arg{node.pos}[:{describe_expr(node.extent)}] = "
            f"{describe_expr(node.value)}"
        )
    if isinstance(node, TileStore):
        zero = (0,) * len(node.tile.bounds)
        return (
            f"arg{node.pos}[{_describe_tile(node.tile, zero)}] = "
            f"{describe_expr(node.value)}"
        )
    return repr(node)


def _describe_tile(tile: Tile, shifts: Tuple[int, ...]) -> str:
    return ", ".join(
        f"{s.start}:{s.stop}" for s in tile.index(shifts)
    )
