"""Lane-expression IR: geometry, and what each node lowers to.

The evaluation cases run the *generated* code
(:func:`repro.compile.codegen.lower_expr`) — there is no tree-walking
evaluator any more — with the expectations the evaluator had.
"""

import numpy as np
import pytest

from repro.compile.codegen import lower_expr
from repro.compile.exprs import (
    Arg,
    Const,
    LaneGeometry,
    LaneIndex,
    Load,
    SpanLoad,
    Ufunc,
    describe_expr,
)
from repro.compile.replay import _signature
from repro.core.workdiv import WorkDivMembers


class TestLaneGeometry:
    def test_1d_grid_thread_is_arange(self):
        wd = WorkDivMembers.make(4, 8, 1)
        geom = LaneGeometry(wd)
        assert geom.lanes == 32
        np.testing.assert_array_equal(
            geom.axis_array("grid_thread", 0), np.arange(32)
        )

    def test_1d_block_and_thread(self):
        wd = WorkDivMembers.make(4, 8, 1)
        geom = LaneGeometry(wd)
        np.testing.assert_array_equal(
            geom.axis_array("block", 0), np.repeat(np.arange(4), 8)
        )
        np.testing.assert_array_equal(
            geom.axis_array("thread", 0), np.tile(np.arange(8), 4)
        )

    def test_2d_matches_interpreted_order(self):
        """Lane l = C-order (block, thread); per-axis components agree
        with explicit nested iteration."""
        wd = WorkDivMembers.make((2, 3), (2, 2), (1, 1))
        geom = LaneGeometry(wd)
        blocks, threads = [], []
        for b0 in range(2):
            for b1 in range(3):
                for t0 in range(2):
                    for t1 in range(2):
                        blocks.append((b0, b1))
                        threads.append((t0, t1))
        for axis in range(2):
            np.testing.assert_array_equal(
                geom.axis_array("block", axis),
                np.array([b[axis] for b in blocks]),
            )
            np.testing.assert_array_equal(
                geom.axis_array("thread", axis),
                np.array([t[axis] for t in threads]),
            )
            np.testing.assert_array_equal(
                geom.axis_array("grid_thread", axis),
                np.array([
                    b[axis] * 2 + t[axis]  # block_thread_extent = (2, 2)
                    for b, t in zip(blocks, threads)
                ]),
            )

    def test_axis_arrays_cached(self):
        geom = LaneGeometry(WorkDivMembers.make(2, 4, 1))
        a = geom.axis_array("grid_thread", 0)
        assert geom.axis_array("grid_thread", 0) is a


class TestEval:
    WD = WorkDivMembers.make(4, 1, 1)

    def value(self, node, args=(), masks=(), level=0):
        return lower_expr(node, self.WD, _signature(args), masks, level)(args)

    def test_const_arg_lane(self):
        args = (10, 2.5)
        assert self.value(Const(7), args) == 7
        assert self.value(Arg(1), args) == 2.5
        np.testing.assert_array_equal(
            self.value(LaneIndex("grid_thread", 0), args), np.arange(4)
        )

    def test_ufunc_applies_actual_callable(self):
        node = Ufunc(np.multiply, (LaneIndex("grid_thread", 0), Const(3)))
        np.testing.assert_array_equal(self.value(node), np.arange(4) * 3)

    def test_memoised_per_selection(self):
        """A node reached twice is one statement of the program (the
        evaluator's memo entry, decided at generation time)."""
        calls = []

        def counted_add(a, b):
            calls.append(1)
            return np.add(a, b)

        inner = Ufunc(counted_add, (LaneIndex("grid_thread", 0), Const(1)))
        fn = lower_expr(Ufunc(np.multiply, (inner, inner)), self.WD)
        del calls[:]  # generation probes the callable for its dtype
        np.testing.assert_array_equal(fn(()), (np.arange(4) + 1) ** 2)
        assert len(calls) == 1

    def test_selection_restricts_lanes(self):
        x = np.array([10.0, 20.0, 30.0, 40.0])
        idx = LaneIndex("grid_thread", 0)
        masks = (("lt", idx, Const(2)),)
        v = self.value(Load(0, (idx,)), (x,), masks, level=1)
        np.testing.assert_array_equal(v, x[:2])
        assert v.base is not None  # prefix fast path: a view, no gather

    def test_gather_without_identity(self):
        x = np.array([10.0, 20.0, 30.0, 40.0])
        idx = Ufunc(np.subtract, (Const(3), LaneIndex("grid_thread", 0)))
        np.testing.assert_array_equal(
            self.value(Load(0, (idx,)), (x,)), x[::-1]
        )

    def test_span_load_is_prefix(self):
        x = np.arange(10.0)
        v = self.value(SpanLoad(0, Const(6)), (x,))
        np.testing.assert_array_equal(v, x[:6])


class TestDescribe:
    def test_rendering(self):
        node = Ufunc(np.add, (Load(1, (LaneIndex("grid_thread", 0),)),
                              Arg(0)))
        assert describe_expr(node) == "add(load(arg1[grid_thread[0]]), arg0)"
