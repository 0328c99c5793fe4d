"""Element-level helpers (paper Sec. 3.2.4).

The element level is Alpaka's answer to SIMD: each thread owns a small
fixed-size box of elements, and the kernel author either loops over it
(scalar path) or applies one vector operation to the whole span
(vector path — compiler auto-vectorisation in C++, numpy array
operations in this reproduction).

The helpers here compute which elements the calling thread owns, clipped
to the real data extent, in both n-dimensional box form and flat slice
form.  The performance cliff between iterating :func:`independent_elements`
scalar-wise and operating on :func:`element_slice` with numpy is the
Python analogue of the vectorised-vs-scalar cliff the paper measures in
Fig. 4's SSE2 discussion and exploits in Figs. 8/9.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .index import Elems, Grid, Thread, get_idx, get_work_div
from .vec import Vec

__all__ = [
    "element_box",
    "clip_box",
    "element_slice",
    "independent_elements",
    "grid_strided_spans",
]


def element_box(acc, extent) -> Tuple[slice, ...]:
    """Per-axis slices of the element box owned by the calling thread.

    The box is ``[first, first + elems_per_thread)`` per axis, clipped
    to ``extent``.  Empty slices result when the thread falls entirely
    outside the data (the overhang threads of a non-dividing work
    division).  The box does not stride: the boxes of all threads are
    disjoint and together cover ``[0, min(extent, grid elements))`` per
    axis — which is all a compile-tracing accelerator
    (:mod:`repro.compile`) needs to take the whole grid's boxes as one
    symbolic tile through its ``trace_elem_box`` hook.
    """
    hook = getattr(acc, "trace_elem_box", None)
    if hook is not None:
        return hook(extent)
    ext = (extent,) if isinstance(extent, int) else extent
    first = get_idx(acc, Grid, Elems)
    span = get_work_div(acc, Thread, Elems)
    return tuple([
        slice(e if e < f else f, e if e < f + s else f + s)
        for f, s, e in zip(first, span, ext)
    ])


def clip_box(box: Tuple[slice, ...], extent, halo: int = 1) -> Tuple[slice, ...]:
    """``box`` clipped to the interior ``[halo, extent - halo)`` per axis.

    The stencil idiom: write the owned box, then update the part of it
    that has all its neighbours::

        box = element_box(acc, (h, w))
        ir, ic = clip_box(box, (h, w))
        if ir.start < ir.stop and ic.start < ic.stop:
            dst[ir, ic] = src[ir.start - 1 : ir.stop - 1, ic] + ...

    A clipped axis may come out empty (``start >= stop``, also when the
    data is narrower than two halos); test before use.  Pure arithmetic
    on the slices — it does not query the index again.
    """
    if type(box) is not tuple:  # a tracer's symbolic box clips itself
        return box.trace_clip(extent, halo)
    return tuple([
        slice(
            s.start if s.start > halo else halo,
            s.stop if s.stop < e - halo else e - halo,
        )
        for s, e in zip(box, extent)
    ])


def element_slice(acc, extent: int) -> slice:
    """Flat slice of elements owned by the calling thread (1-d form).

    This is the fast path: ``data[element_slice(acc, n)] += ...``
    performs the whole per-thread workload as one numpy operation.
    """
    box = element_box(acc, Vec(extent) if isinstance(extent, int) else extent)
    if len(box) != 1:
        raise ValueError(
            "element_slice is one-dimensional; use element_box for n-d kernels"
        )
    return box[0]


def independent_elements(acc, extent) -> Iterator[Vec]:
    """Iterate the n-dim indices of the calling thread's elements.

    The scalar path: equivalent to looping ``element_box`` explicitly.
    Yields :class:`Vec` indices in C order; yields nothing for
    out-of-bounds threads, so kernels need no separate guard.
    """
    box = element_box(acc, extent)

    def rec(prefix, axes):
        if not axes:
            yield Vec(*prefix)
            return
        s, rest = axes[0], axes[1:]
        for i in range(s.start, s.stop):
            yield from rec(prefix + (i,), rest)

    yield from rec((), box)


def grid_strided_spans(acc, extent: int) -> Iterator[slice]:
    """Grid-strided loop over element spans (persistent-thread pattern).

    When the grid does not cover the data (fewer blocks than needed),
    each thread repeatedly strides by the whole grid's element extent::

        for span in grid_strided_spans(acc, n):
            y[span] += a * x[span]

    With a covering grid this degenerates to a single span identical to
    :func:`element_slice`.

    Like :func:`get_idx`, the loop is interceptable: a compile-tracing
    accelerator (:mod:`repro.compile`) provides ``trace_elem_spans``
    and receives the *whole* loop — across threads and stride
    iterations the clipped spans tile ``[0, extent)`` exactly once, so
    the tracer collapses it to a single symbolic span.
    """
    spans = getattr(acc, "trace_elem_spans", None)
    if spans is not None:
        yield from spans(extent)
        return
    wd = getattr(acc, "work_div", None)
    if (
        wd is not None
        and wd.block_thread_count == 1
        and getattr(acc, "trace_get_idx", None) is None
        and getattr(acc, "trace_get_work_div", None) is None
    ):
        # One thread per block (every block-level back-end): the thread
        # sits at its block's index — get_idx without the Vec products.
        span = wd.thread_elem_extent._c[0]
        stride = wd.grid_elem_extent._c[0]
        start = acc.grid_block_idx._c[0] * span
    else:
        span = get_work_div(acc, Thread, Elems)[0]
        stride = get_work_div(acc, Grid, Elems)[0]
        start = get_idx(acc, Grid, Elems)[0]
    while start < extent:
        yield slice(start, min(start + span, extent))
        start += stride
