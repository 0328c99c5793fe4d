"""Work division: how a problem extent is split over the hierarchy.

A work division fixes the extents of the three nested levels below the
grid: blocks per grid, threads per block and elements per thread
(paper Listing 2).  The division is *the* tuning knob that the paper's
evaluation turns — the same kernel with a CUDA-shaped division
(many threads, few elements) or a CPU-shaped division (one thread per
block, many elements) differs by an order of magnitude in performance.

Besides the explicit :class:`WorkDivMembers`, this module implements the
automatic divider :func:`divide_work` realising the predefined mappings
of paper Table 2, and :func:`validate_work_div` which enforces device
limits (:class:`~repro.core.properties.AccDevProps`).

The third strategy, :attr:`MappingStrategy.AUTO`, defers the choice to
the work-division autotuner (:mod:`repro.tuning`): a previously measured
winner is served from the persistent tuning cache, and the Table 2
heuristic is the fallback when nothing has been tuned yet.
:class:`AutoWorkDiv` is the task-level spelling of the same deferral —
a placeholder the launch runtime resolves at plan time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import InvalidWorkDiv
from .properties import AccDevProps
from .vec import Vec, as_vec

__all__ = [
    "WorkDivMembers",
    "AutoWorkDiv",
    "MappingStrategy",
    "divide_work",
    "validate_work_div",
]


def _derived():
    """A field computed in ``__post_init__``: not an ``__init__``
    parameter, invisible to ``==``, ``hash`` and ``repr``."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class WorkDivMembers:
    """Extents of the block, thread and element levels (paper Listing 2).

    All three extents must share one dimensionality.  The grid level
    itself always spans the whole device (paper Sec. 3.3), so it has no
    extent of its own.

    The derived extents and counts below are launch constants — alpaka's
    compiler folds them; here they are computed once, eagerly in
    ``__post_init__``, and read as plain attributes by every block of
    every launch.  Eager rather than lazy because the division is
    immutable (nothing can go stale), the cost is three small products
    next to the validation already done here, and a lazy memo would be a
    first-use write to a frozen object raced by the block workers.  They
    are excluded from equality, hash and ``repr`` (the hash is the three
    members' hash, kept rather than recomputed), and the pickle holds
    the three members only (``__reduce__``), so a division hashes and
    serialises the same however often it was launched.
    """

    grid_block_extent: Vec
    block_thread_extent: Vec
    thread_elem_extent: Vec

    #: Dimensionality shared by the three levels.
    dim: int = _derived()
    #: Threads per grid, ``grid_block_extent * block_thread_extent``.
    grid_thread_extent: Vec = _derived()
    #: The total n-dim element extent the division covers — the problem
    #: extent a caller sized the division for (or slightly more, when
    #: the extents do not divide evenly).
    grid_elem_extent: Vec = _derived()
    #: Elements per block, ``block_thread_extent * thread_elem_extent``.
    block_elem_extent: Vec = _derived()
    block_count: int = _derived()
    block_thread_count: int = _derived()
    thread_elem_count: int = _derived()
    _hash: int = _derived()

    def __post_init__(self):
        g, b, t = (
            self.grid_block_extent,
            self.block_thread_extent,
            self.thread_elem_extent,
        )
        if not (g.dim == b.dim == t.dim):
            raise InvalidWorkDiv(
                f"work division levels disagree in dimensionality: "
                f"{g.dim}/{b.dim}/{t.dim}"
            )
        for name, v in (
            ("grid block extent", g),
            ("block thread extent", b),
            ("thread element extent", t),
        ):
            if any(c <= 0 for c in v):
                raise InvalidWorkDiv(f"{name} must be positive, got {v!r}")
        gt = g * b
        for name, value in (
            ("dim", g.dim),
            ("grid_thread_extent", gt),
            ("grid_elem_extent", gt * t),
            ("block_elem_extent", b * t),
            ("block_count", g.prod()),
            ("block_thread_count", b.prod()),
            ("thread_elem_count", t.prod()),
            ("_hash", hash((g, b, t))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        # The members' hash, taken once: a division is hashed several
        # times per launch (plan-cache key, modeled-time memo key).
        return self._hash

    def __reduce__(self):
        return (
            type(self),
            (self.grid_block_extent, self.block_thread_extent, self.thread_elem_extent),
        )

    @classmethod
    def make(
        cls,
        grid_blocks: Union[int, Sequence[int], Vec],
        block_threads: Union[int, Sequence[int], Vec],
        thread_elems: Union[int, Sequence[int], Vec],
        dim: int | None = None,
    ) -> "WorkDivMembers":
        """Convenience constructor accepting ints / sequences / Vecs.

        When ``dim`` is given, plain ints broadcast to that
        dimensionality; otherwise the dimensionality is inferred from
        the first non-int argument (defaulting to 1-d).
        """
        if dim is None:
            for v in (grid_blocks, block_threads, thread_elems):
                if isinstance(v, Vec):
                    dim = v.dim
                    break
                if isinstance(v, (tuple, list)):
                    dim = len(v)
                    break
            else:
                dim = 1
        return cls(
            as_vec(grid_blocks, dim),
            as_vec(block_threads, dim),
            as_vec(thread_elems, dim),
        )

    def __str__(self) -> str:
        return (
            f"WorkDiv(blocks={self.grid_block_extent!r}, "
            f"threads={self.block_thread_extent!r}, "
            f"elems={self.thread_elem_extent!r})"
        )


class MappingStrategy(enum.Enum):
    """How an accelerator prefers work to be divided (paper Table 2).

    * ``THREAD_LEVEL`` — the back-end has cheap hardware threads; fill
      blocks with threads (CUDA, OpenMP-thread, C++11-thread rows:
      grid = N/(B*V), block = B, element = V).
    * ``BLOCK_LEVEL`` — threads are expensive or absent; one thread per
      block, parallelism across blocks, data parallelism in the element
      level (OpenMP-block and Sequential rows: grid = N/V, block = 1,
      element = V).
    * ``AUTO`` — let the autotuner (:mod:`repro.tuning`) choose: serve a
      measured winner from the tuning cache when one exists, fall back
      to the back-end's Table 2 heuristic otherwise.  The search itself
      runs only through an explicit :func:`repro.tuning.autotune` call,
      never implicitly at launch time.
    """

    THREAD_LEVEL = "thread-level"
    BLOCK_LEVEL = "block-level"
    AUTO = "auto"


@dataclass(frozen=True)
class AutoWorkDiv:
    """A deferred work division: "cover ``extent``, choose the split later".

    Tasks created with an ``AutoWorkDiv`` instead of concrete
    :class:`WorkDivMembers` are resolved by the launch runtime at plan
    time (:func:`repro.tuning.resolve_work_div`): a tuned division from
    the persistent cache when available, the Table 2 heuristic
    otherwise.  The placeholder is hashable and carries the problem
    extent, so the launch-plan cache distinguishes deferred launches of
    different problem sizes.
    """

    extent: Vec

    def __post_init__(self):
        ext = self.extent
        if not isinstance(ext, Vec):
            object.__setattr__(self, "extent", as_vec(ext))
            ext = self.extent
        if any(c <= 0 for c in ext):
            raise InvalidWorkDiv(
                f"auto work division needs a positive extent, got {ext!r}"
            )

    @property
    def dim(self) -> int:
        return self.extent.dim

    def __str__(self) -> str:
        return f"AutoWorkDiv(extent={self.extent!r})"


def divide_work(
    extent: Union[int, Sequence[int], Vec],
    props: AccDevProps,
    strategy: MappingStrategy,
    *,
    block_threads: Union[int, Sequence[int], Vec, None] = None,
    thread_elems: Union[int, Sequence[int], Vec, None] = None,
    kernel=None,
    acc_type=None,
    device=None,
) -> WorkDivMembers:
    """Compute a valid work division covering ``extent`` elements.

    Implements the predefined mappings of paper Table 2 with problem
    size ``N = prod(extent)``, threads per block ``B`` and elements per
    thread ``V``:

    * thread-level:  grid = ceil(N / (B*V)), block = B, element = V
    * block-level:   grid = ceil(N / V),     block = 1, element = V
    * auto:          defer to :func:`repro.tuning.auto_divide` (tuned
      winner from the persistent cache, Table 2 heuristic fallback)

    ``B`` defaults to the largest block the device allows, filled from
    the fastest axis outward; ``V`` defaults to 1 but grows per axis
    when the resulting grid would exceed a per-axis device grid limit
    (degenerate shapes such as a 1-wide fast dimension push every block
    onto one slow axis).  The result is validated against ``props``; all
    divisions cover at least ``extent`` (they may overhang, kernels
    guard with an in-bounds test exactly as on CUDA).

    ``kernel`` / ``acc_type`` / ``device`` are only consulted by the
    ``AUTO`` strategy, which uses them to look up a previously tuned
    division; the Table 2 strategies ignore them.
    """
    if strategy is MappingStrategy.AUTO:
        from ..tuning import auto_divide

        return auto_divide(
            extent,
            props,
            kernel=kernel,
            acc_type=acc_type,
            device=device,
            block_threads=block_threads,
            thread_elems=thread_elems,
        )

    ext = as_vec(extent)
    if any(c <= 0 for c in ext):
        raise InvalidWorkDiv(
            f"problem extent must be positive, got {ext!r}; a zero-sized "
            "launch has no valid work division (skip the launch instead)"
        )
    dim = ext.dim
    p = props.for_dim(dim)

    v = as_vec(thread_elems, dim) if thread_elems is not None else Vec.ones(dim)
    v.assert_positive("thread element extent")

    if strategy is MappingStrategy.BLOCK_LEVEL:
        if block_threads is not None and as_vec(block_threads, dim).prod() != 1:
            raise InvalidWorkDiv(
                "block-level mapping fixes one thread per block; "
                f"got block_threads={block_threads!r}"
            )
        b = Vec.ones(dim)
    else:
        if block_threads is not None:
            b = as_vec(block_threads, dim)
            b.assert_positive("block thread extent")
        else:
            b = _default_block_extent(ext, v, p)

    if thread_elems is None:
        v = _grow_elems_to_fit_grid(ext, b, v, p)

    grid = ext.ceil_div(b * v).max(1)
    wd = WorkDivMembers(grid, b, v)
    validate_work_div(wd, p)
    return wd


def _default_block_extent(extent: Vec, elems: Vec, props: AccDevProps) -> Vec:
    """Pick a block extent: fill the device's thread budget starting at
    the fastest axis, spilling leftover capacity onto slower axes, each
    axis clamped to its device limit and to the per-thread-decimated
    problem.  Spilling is what keeps degenerate shapes (1-wide fast
    dimensions) from mapping the whole problem onto grid blocks alone.
    """
    dim = extent.dim
    work = extent.ceil_div(elems)
    b = Vec.ones(dim)
    budget = props.block_thread_count_max
    for axis in range(dim - 1, -1, -1):
        if budget <= 1:
            break
        take = max(1, min(props.block_thread_extent_max[axis], budget, work[axis]))
        b = b.with_component(axis, take)
        budget //= take
    return b


def _grow_elems_to_fit_grid(
    extent: Vec, block: Vec, elems: Vec, props: AccDevProps
) -> Vec:
    """Grow the element extent per axis until the implied grid respects
    the device's per-axis grid limits.

    Only called when the caller left ``thread_elems`` to the divider: a
    degenerate extent (e.g. ``(2**20, 1)`` against a 65535-block axis
    limit) would otherwise produce a grid that
    :func:`validate_work_div` must reject.
    """
    grid = extent.ceil_div(block * elems).max(1)
    gmax = props.grid_block_extent_max
    vmax = props.thread_elem_extent_max
    for axis in range(extent.dim):
        if grid[axis] > gmax[axis]:
            need = -(-extent[axis] // (block[axis] * gmax[axis]))
            elems = elems.with_component(
                axis, min(max(elems[axis], need), vmax[axis])
            )
    return elems


def validate_work_div(wd: WorkDivMembers, props: AccDevProps) -> None:
    """Raise :class:`InvalidWorkDiv` when ``wd`` violates ``props``."""
    p = props.for_dim(wd.dim)
    if not wd.grid_block_extent.elementwise_le(p.grid_block_extent_max):
        raise InvalidWorkDiv(
            f"grid extent {wd.grid_block_extent!r} exceeds device limit "
            f"{p.grid_block_extent_max!r}"
        )
    if not wd.block_thread_extent.elementwise_le(p.block_thread_extent_max):
        raise InvalidWorkDiv(
            f"block extent {wd.block_thread_extent!r} exceeds device limit "
            f"{p.block_thread_extent_max!r}"
        )
    if wd.block_thread_count > p.block_thread_count_max:
        raise InvalidWorkDiv(
            f"block thread count {wd.block_thread_count} exceeds device "
            f"limit {p.block_thread_count_max}"
        )
    if not wd.thread_elem_extent.elementwise_le(p.thread_elem_extent_max):
        raise InvalidWorkDiv(
            f"thread element extent {wd.thread_elem_extent!r} exceeds device "
            f"limit {p.thread_elem_extent_max!r}"
        )
