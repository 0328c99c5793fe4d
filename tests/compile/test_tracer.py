"""The compile tracer: what compiles, what falls back, and why."""

import numpy as np
import pytest

from repro.compile.exprs import SpanStore, Store
from repro.compile.tracer import CompileFallback, trace_kernel
from repro.core.element import grid_strided_spans
from repro.core.index import Grid, Threads, get_idx, get_work_div
from repro.core.workdiv import WorkDivMembers
from repro.kernels import AxpyElementsKernel, AxpyKernel

from .launches import assert_bit_identical


class FakeProps:
    warp_size = 1


def trace(kernel, wd, args):
    return trace_kernel(kernel, wd, FakeProps(), args)


def wd1(blocks=8, threads=1, elems=1):
    return WorkDivMembers.make(blocks, threads, elems)


class TestCompilable:
    def test_axpy_scalar_records_mask_and_store(self):
        x, y = np.arange(8.0), np.arange(8.0)
        t = trace(AxpyKernel(), wd1(8), (6, 2.0, x, y))
        assert len(t.masks) == 1
        op, lane, bound = t.masks[0]
        assert op == "lt"
        assert len(t.stores) == 1
        st = t.stores[0]
        assert isinstance(st, Store)
        assert st.pos == 3  # y
        assert st.mask_count == 1

    def test_axpy_elements_collapses_to_span(self):
        x, y = np.arange(16.0), np.arange(16.0)
        t = trace(AxpyElementsKernel(), wd1(4, 1, 2), (16, 2.0, x, y))
        assert len(t.masks) == 0
        assert len(t.stores) == 1
        assert isinstance(t.stores[0], SpanStore)

    def test_uniform_branch_records_guard(self):
        def kernel(acc, n, flag, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                if flag > 0:
                    y[i] = 1.0
                else:
                    y[i] = 2.0

        y = np.zeros(8)
        t = trace(kernel, wd1(8), (8, 1, y))
        assert len(t.guards) == 1
        _, expected = t.guards[0]
        assert expected is True

    def test_work_div_queries_are_concrete(self):
        seen = {}

        def kernel(acc, n, y):
            seen["gt"] = int(get_work_div(acc, Grid, Threads)[0])
            for span in grid_strided_spans(acc, n):
                y[span] = 0.0

        y = np.zeros(8)
        trace(kernel, wd1(4, 1, 2), (8, y))
        assert seen["gt"] == 4

    def test_store_forwarding_allows_reload_same_index(self):
        def kernel(acc, n, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] = x[i] * 2.0
                y[i] = y[i] + 1.0  # reload of the just-stored index

        x, y = np.arange(8.0), np.zeros(8)
        t = trace(kernel, wd1(8), (8, x, y))
        assert len(t.stores) == 2


class TestFallbacks:
    def reason(self, kernel, wd, args):
        with pytest.raises(CompileFallback) as e:
            trace(kernel, wd, args)
        return e.value.reason

    def test_divergent_branch(self):
        def kernel(acc, n, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                if x[i] > 0.0:  # data-dependent
                    y[i] = 1.0

        assert self.reason(
            kernel, wd1(4), (4, np.ones(4), np.zeros(4))
        ) == "divergent-control-flow"

    def test_inverted_guard_is_not_canonical(self):
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            if n > i:  # uniform-lhs comparison: must not become a mask
                y[i] = 1.0

        assert self.reason(kernel, wd1(4), (4, np.zeros(4))) == \
            "divergent-control-flow"

    def test_builtin_min_falls_back(self):
        """CPython's min(a, b) evaluates b < a — a uniform-vs-lane
        comparison that must divert, never silently mask."""
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            j = min(i, n)
            y[j] = 1.0

        assert self.reason(kernel, wd1(4), (3, np.zeros(4))) == \
            "divergent-control-flow"

    def test_barrier(self):
        def kernel(acc, y):
            acc.sync_block_threads()
            y[0] = 1.0

        assert self.reason(kernel, wd1(2), (np.zeros(2),)) == "barrier"

    def test_atomics(self):
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                acc.atomic_add(y, 0, 1.0)

        assert self.reason(kernel, wd1(4), (4, np.zeros(1))) == "atomics"

    def test_shared_memory(self):
        def kernel(acc, y):
            tile = acc.shared_mem("tile", (4,))
            y[0] = 1.0

        assert self.reason(kernel, wd1(2), (np.zeros(2),)) == "shared-memory"

    def test_rng(self):
        def kernel(acc, y):
            r = acc.rng(42)
            y[0] = 1.0

        assert self.reason(kernel, wd1(2), (np.zeros(2),)) == "rng"

    def test_lane_int_conversion(self):
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            for _ in range(int(i)):
                pass
            y[0] = 1.0

        assert self.reason(kernel, wd1(4), (4, np.zeros(4))) == \
            "divergent-control-flow"

    def test_load_after_store_other_index(self):
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] = 1.0
                _ = y[i + 1]  # aliases a neighbour's store

        assert self.reason(kernel, wd1(4), (4, np.zeros(8))) == \
            "load-after-store"

    def test_uniform_read_modify_write_interprets(self):
        """Every thread adds one to ``z[0]``: interpreted threads see
        each other's stores (4.0), a replay would do one update (1.0)."""
        def kernel(acc, n, z):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                z[0] = z[0] + 1.0

        stats = assert_bit_identical(
            kernel, wd1(4), (4,), [np.zeros(1)]
        )
        assert stats["fallbacks"] == {"load-after-store": 1}
        assert stats["compiled_launches"] == 0

    def test_uniform_store_of_a_constant_compiles(self):
        def kernel(acc, n, z):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                z[0] = 5.0

        stats = assert_bit_identical(
            kernel, wd1(4), (4,), [np.zeros(1)]
        )
        assert stats["fallbacks"] == {}
        assert stats["compiled_launches"] == 1

    def test_unsupported_argument(self):
        def kernel(acc, cfg, y):
            y[0] = cfg["a"]

        assert self.reason(kernel, wd1(2), ({"a": 1.0}, np.zeros(2))) == \
            "unsupported-arg"

    def test_kernel_exception_classified(self):
        """A kernel calling an ndarray method the array proxy lacks
        raises a real AttributeError under the tracer: classified
        instead of propagating."""
        def kernel(acc, n, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] = x.sum()

        with pytest.raises(CompileFallback) as e:
            trace(kernel, wd1(4), (4, np.ones(4), np.zeros(4)))
        assert e.value.reason == "unsupported-op"
        assert "AttributeError" in e.value.detail
        assert isinstance(e.value.__cause__, AttributeError)

    def test_mask_cap_stops_symbolic_while(self):
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            while i < n:  # always-true under masking: must hit the cap
                y[i] = 1.0
                i = i + n

        assert self.reason(kernel, wd1(4), (4, np.zeros(64))) == \
            "divergent-control-flow"


class TestProgramOrder:
    """``TraceResult.order`` is what the listing printers walk."""

    def test_every_node_and_guard_in_creation_order(self):
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            dead = x[i]  # bound to a name, never used: still in the order
            if i < n:
                y[i] = alpha * y[i]

        t = trace(kernel, wd1(8), (6, 2.0, np.zeros(8), np.zeros(8)))
        kinds = [
            "guard" if isinstance(e, tuple) else type(e).__name__
            for e in t.order
        ]
        assert kinds == ["Arg", "Arg", "LaneIndex", "Load", "Ufunc", "guard",
                         "Load", "Ufunc", "Store"]
        assert t.order[5] is t.masks[0] and t.order[-1] is t.stores[0]
        assert t.nodes == len(t.order) - len(t.masks)

    def test_extents_are_plain_for_the_replayer_and_operands_block_level(self):
        seen = []

        def kernel(acc, y):
            seen.append(get_work_div(acc, Grid, Threads))
            y[get_idx(acc, Grid, Threads)[0]] = 1.0

        wd = WorkDivMembers.make(4, 2, 1)
        t = trace(kernel, wd, (np.zeros(8),))
        assert seen.pop() == wd.grid_thread_extent
        assert "Extent" not in [type(e).__name__ for e in t.order]
        t = trace_kernel(kernel, wd, FakeProps(), (np.zeros(8),),
                         block_level=True)
        assert int(seen.pop()[0]) == 8  # sampled, but an operand
        kinds = [type(e).__name__ for e in t.order]
        assert kinds[:3] == ["Extent", "Extent", "Ufunc"]  # nctaid * ntid
