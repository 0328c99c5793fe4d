"""n-d element boxes as tiles: the stencils compile, bit for bit, and
everything the tile model cannot honour falls back with its reason."""

import os

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    clip_box,
    create_task_kernel,
    element_box,
    get_dev_by_idx,
    mem,
)
from repro.compile import compile_stats, reset_compile_stats
from repro.core.errors import KernelError
from repro.core.kernel import fn_acc
from repro.kernels import (
    Jacobi2DKernel,
    Jacobi3DKernel,
    jacobi3d_reference_step,
    jacobi_reference_step,
)
from repro.mem.view import ViewSubView
from repro.runtime import clear_plan_cache

#: Every back-end whose block schedule REPRO_SCHEDULER may remap, with
#: the most threads per block each admits.
POOLED = {"AccCpuOmp2Blocks": 1, "AccOmp4TargetSim": 4}


@pytest.fixture(autouse=True)
def fresh_state():
    prev = os.environ.get("REPRO_SCHEDULER")
    clear_plan_cache()
    reset_compile_stats()
    yield
    if prev is None:
        os.environ.pop("REPRO_SCHEDULER", None)
    else:
        os.environ["REPRO_SCHEDULER"] = prev
    clear_plan_cache()


def sweeps(schedule, backend, kernel, wd, scalars, grid, count=1, same=False,
           overlap=False):
    """``count`` launches ping-ponging two buffers under ``schedule``;
    returns the bytes of both.  ``same`` passes one buffer as source and
    destination; ``overlap`` two windows of one buffer, one row apart."""
    os.environ["REPRO_SCHEDULER"] = schedule
    clear_plan_cache()
    acc = accelerator(backend)
    dev = get_dev_by_idx(acc, 0)
    q = QueueBlocking(dev)
    if overlap:
        shape = (grid.shape[0] + 1,) + grid.shape[1:]
        base = mem.alloc(dev, shape, pitched=False)
        mem.copy(q, base, np.concatenate([grid, grid[-1:]]))
        zero = (0,) * (grid.ndim - 1)
        src = ViewSubView(base, (0,) + zero, grid.shape)
        dst = ViewSubView(base, (1,) + zero, grid.shape)
        bufs = [base]
    else:
        src = mem.alloc(dev, grid.shape, pitched=False)
        mem.copy(q, src, grid)
        dst = src if same else mem.alloc(dev, grid.shape, pitched=False)
        if not same:
            mem.copy(q, dst, np.full(grid.shape, -7.0))
        bufs = [src] if same else [src, dst]
    for _ in range(count):
        q.enqueue(create_task_kernel(acc, wd, kernel, *scalars, src, dst))
        src, dst = dst, src
    out = []
    for buf in bufs:
        host = np.empty(tuple(buf.extent))
        mem.copy(q, host, buf)
        out.append(host.tobytes())
        buf.free()
    return out


def both(backend, kernel, wd, scalars, grid, **kw):
    """(compiled bytes, interpreted bytes, compile stats of the first)."""
    reset_compile_stats()
    compiled = sweeps("compiled", backend, kernel, wd, scalars, grid, **kw)
    stats = compile_stats()
    interpreted = sweeps("sequential", backend, kernel, wd, scalars, grid, **kw)
    return compiled, interpreted, stats


# -- the stencils compile ------------------------------------------------


class TestStencilsCompile:
    def test_jacobi2d_is_two_tile_stores(self):
        from repro.compile.exprs import TileStore
        from repro.compile.tracer import trace_kernel

        class Props:
            warp_size = 1

        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 4))
        t = trace_kernel(
            Jacobi2DKernel(), wd, Props(),
            (8, 8, 0.1, np.zeros((8, 8)), np.zeros((8, 8))),
        )
        assert [type(s) for s in t.stores] == [TileStore, TileStore]
        assert t.stores[0].tile.bounds == ((0, 8), (0, 8))
        assert t.stores[1].tile.bounds == ((1, 7), (1, 7))
        assert t.stores[1].tile.family is t.stores[0].tile.family
        assert not t.masks

    @pytest.mark.parametrize("backend", sorted(POOLED))
    def test_jacobi2d_matches_reference(self, backend):
        rng = np.random.default_rng(3)
        grid = rng.random((13, 10))
        wd = WorkDivMembers.make(Vec(4, 3), Vec(1, 1), Vec(4, 4))
        compiled, interpreted, stats = both(
            backend, Jacobi2DKernel(), wd, (13, 10, 0.2), grid, count=2
        )
        assert compiled == interpreted
        assert stats["compiled_launches"] == 2 and stats["fallbacks"] == {}
        want = jacobi_reference_step(jacobi_reference_step(grid, 0.2), 0.2)
        assert compiled[0] == want.tobytes()

    def test_jacobi3d_matches_reference(self):
        rng = np.random.default_rng(4)
        grid = rng.random((5, 6, 7))
        wd = WorkDivMembers.make(Vec(2, 2, 2), Vec(1, 1, 1), Vec(3, 3, 4))
        compiled, interpreted, stats = both(
            "AccCpuOmp2Blocks", Jacobi3DKernel(), wd, (5, 6, 7, 0.1), grid
        )
        assert compiled == interpreted
        assert stats["compiled_launches"] == 1 and stats["fallbacks"] == {}
        want = jacobi3d_reference_step(grid, 0.1)
        assert np.frombuffer(compiled[1]).tobytes() == want.tobytes()

    def test_grid_smaller_than_extent_leaves_the_rest_untouched(self):
        """element_box does not stride: the tile is the clipped grid."""
        rng = np.random.default_rng(5)
        grid = rng.random((12, 12))
        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 4))  # covers 8x8
        compiled, interpreted, stats = both(
            "AccCpuOmp2Blocks", Jacobi2DKernel(), wd, (12, 12, 0.2), grid
        )
        assert compiled == interpreted
        assert stats["compiled_launches"] == 1 and stats["fallbacks"] == {}
        dst = np.frombuffer(compiled[1]).reshape(12, 12)
        assert (dst[8:, :] == -7.0).all() and (dst[:, 8:] == -7.0).all()
        assert (dst[:8, :8] != -7.0).all()

    def test_extent_change_retraces_once(self):
        """The extent is concretised, so it is guarded like any uniform
        predicate."""
        acc = accelerator("AccCpuOmp2Blocks")
        dev = get_dev_by_idx(acc, 0)
        q = QueueBlocking(dev)
        os.environ["REPRO_SCHEDULER"] = "compiled"
        src = mem.alloc(dev, (8, 8), pitched=False)
        dst = mem.alloc(dev, (8, 8), pitched=False)
        grid = np.random.default_rng(6).random((8, 8))
        mem.copy(q, src, grid)
        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 4))
        k = Jacobi2DKernel()
        q.enqueue(create_task_kernel(acc, wd, k, 8, 8, 0.1, src, dst))
        mem.copy(q, dst, np.full((8, 8), -7.0))
        q.enqueue(create_task_kernel(acc, wd, k, 6, 8, 0.1, src, dst))
        stats = compile_stats()
        assert stats["retraces"] == 1 and stats["compiled_launches"] == 2
        host = np.empty((8, 8))
        mem.copy(q, host, dst)
        np.testing.assert_array_equal(
            host[:6], jacobi_reference_step(grid[:6], 0.1)
        )
        assert (host[6:] == -7.0).all()


# -- what the tile model refuses ------------------------------------------


class WideShiftKernel:
    """Clips by one cell, reads two away."""

    @fn_acc
    def __call__(self, acc, h, w, src, dst):
        box = element_box(acc, (h, w))
        ir, ic = clip_box(box, (h, w))
        if ir.start < ir.stop and ic.start < ic.stop:
            dst[ir, ic] = src[ir.start - 2 : ir.stop - 2, ic]


class FlagKernel:
    """Stores somewhere else once its box is known to be non-empty."""

    @fn_acc
    def __call__(self, acc, h, w, src, dst):
        rows, cols = element_box(acc, (h, w))
        if rows.start < rows.stop and cols.start < cols.stop:
            dst[rows, cols] = src[rows, cols]
            dst[0, 0] = -1.0


class ClampKernel:
    """The interior clamped with the builtins, as the stencils once did."""

    @fn_acc
    def __call__(self, acc, h, w, src, dst):
        rows, cols = element_box(acc, (h, w))
        ir = slice(max(rows.start, 1), min(rows.stop, h - 1))
        ic = slice(max(cols.start, 1), min(cols.stop, w - 1))
        if ir.start < ir.stop and ic.start < ic.stop:
            dst[ir, ic] = 2.0 * src[ir, ic]


class TestFallbacks:
    ONE_BLOCK = WorkDivMembers.make(Vec(1, 1), Vec(1, 1), Vec(8, 8))
    GRID = np.random.default_rng(8).random((8, 8))

    def check(self, reason, kernel, wd, scalars, **kw):
        compiled, interpreted, stats = both(
            "AccCpuOmp2Blocks", kernel, wd, scalars, self.GRID, **kw
        )
        assert stats["fallbacks"] == {reason: kw.get("count", 1)}
        assert stats["compiled_launches"] == 0
        assert compiled == interpreted

    def test_source_is_destination(self):
        # One block: the interpreter's answer to the race is one order.
        self.check("load-after-store", Jacobi2DKernel(), self.ONE_BLOCK,
                   (8, 8, 0.2), same=True)

    def test_overlapping_windows_of_one_buffer(self):
        self.check("load-after-store", Jacobi2DKernel(), self.ONE_BLOCK,
                   (8, 8, 0.2), overlap=True)

    def test_aliasing_is_judged_per_launch(self):
        """The verdict belongs to the arguments, not to their signature:
        the next launch on separate buffers compiles."""
        wd = self.ONE_BLOCK
        acc = accelerator("AccCpuOmp2Blocks")
        dev = get_dev_by_idx(acc, 0)
        q = QueueBlocking(dev)
        os.environ["REPRO_SCHEDULER"] = "compiled"
        a = mem.alloc(dev, (8, 8), pitched=False)
        b = mem.alloc(dev, (8, 8), pitched=False)
        mem.copy(q, a, self.GRID)
        k = Jacobi2DKernel()
        q.enqueue(create_task_kernel(acc, wd, k, 8, 8, 0.2, a, b))
        q.enqueue(create_task_kernel(acc, wd, k, 8, 8, 0.2, b, b))
        q.enqueue(create_task_kernel(acc, wd, k, 8, 8, 0.2, a, b))
        stats = compile_stats()
        assert stats["compiled_launches"] == 2
        assert stats["fallbacks"] == {"load-after-store": 1}
        assert stats["traces"] == 1

    def test_shift_beyond_the_halo(self):
        """Per thread the interpreter wraps the negative slice and then
        fails on the shape; the compiled schedule never emits the slice
        and hands the launch over, so the same error surfaces."""
        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 4))
        for schedule in ("compiled", "sequential"):
            with pytest.raises(KernelError, match="WideShiftKernel"):
                sweeps(schedule, "AccCpuOmp2Blocks", WideShiftKernel(), wd,
                       (8, 8), self.GRID)
        stats = compile_stats()
        assert stats["fallbacks"] == {"unsupported-op": 1}
        assert stats["compiled_launches"] == 0

    def test_store_elsewhere_under_a_non_emptiness_test(self):
        self.check("divergent-control-flow", FlagKernel(), self.ONE_BLOCK,
                   (8, 8))

    def test_builtin_max_on_a_box_bound(self):
        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 4))
        self.check("divergent-control-flow", ClampKernel(), wd, (8, 8))

    def test_tile_and_lane_values_do_not_mix(self):
        from repro.core.index import Grid, Threads, get_idx

        @fn_acc
        def kernel(acc, h, w, src, dst):
            rows, cols = element_box(acc, (h, w))
            i = get_idx(acc, Grid, Threads)[0]
            dst[rows, cols] = src[rows, cols] * i

        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 4))
        self.check("unsupported-op", kernel, wd, (8, 8))
