"""The index algebra against its closed forms, on stand-ins and on real
launches, and the invariants its per-division constants must keep
(equality, hash, repr, pickle, plan-cache identity)."""

import itertools
import pickle

import numpy as np
import pytest

from repro import (
    AccCpuSerial,
    AccCpuThreads,
    QueueBlocking,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.core.index import (
    Block,
    Blocks,
    Elems,
    Grid,
    Thread,
    Threads,
    get_idx,
    get_work_div,
    linearize,
)
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.runtime import clear_plan_cache, get_plan, plan_cache_info

#: 1-d / 2-d / 3-d, each with one-thread and multi-thread blocks.
DIVISIONS = [
    WorkDivMembers.make(5, 1, 4),
    WorkDivMembers.make(3, 4, 2),
    WorkDivMembers.make((2, 3), (1, 1), (4, 2)),
    WorkDivMembers.make((2, 2), (2, 3), (1, 2)),
    WorkDivMembers.make((2, 1, 2), (1, 1, 1), (1, 3, 2)),
    WorkDivMembers.make((1, 2, 2), (2, 1, 2), (2, 1, 1)),
]


def expected_work_div(wd):
    """Closed forms, built through the validating constructor."""
    g, b, t = (
        wd.grid_block_extent.as_tuple(),
        wd.block_thread_extent.as_tuple(),
        wd.thread_elem_extent.as_tuple(),
    )
    return {
        (Grid, Blocks): Vec(*g),
        (Grid, Threads): Vec(*[x * y for x, y in zip(g, b)]),
        (Grid, Elems): Vec(*[x * y * z for x, y, z in zip(g, b, t)]),
        (Block, Threads): Vec(*b),
        (Block, Elems): Vec(*[y * z for y, z in zip(b, t)]),
        (Thread, Elems): Vec(*t),
    }


def expected_idx(wd, bidx, tidx):
    b = wd.block_thread_extent.as_tuple()
    t = wd.thread_elem_extent.as_tuple()
    gt = [bi * be + ti for bi, be, ti in zip(bidx, b, tidx)]
    return {
        (Grid, Blocks): Vec(*bidx),
        (Grid, Threads): Vec(*gt),
        (Grid, Elems): Vec(*[x * e for x, e in zip(gt, t)]),
        (Block, Threads): Vec(*tidx),
        (Block, Elems): Vec(*[x * e for x, e in zip(tidx, t)]),
    }


class StandIn:
    """The duck-typed accelerator protocol: three attributes."""

    def __init__(self, wd, block_idx, thread_idx):
        self.work_div = wd
        self.grid_block_idx = block_idx
        self.block_thread_idx = thread_idx


def _boxes(extent):
    return itertools.product(*(range(e) for e in extent))


@pytest.mark.parametrize("wd", DIVISIONS, ids=str)
class TestClosedForms:
    def test_all_six_extents(self, wd):
        for (origin, unit), want in expected_work_div(wd).items():
            assert get_work_div(wd, origin, unit) == want, (origin, unit)
            acc = StandIn(wd, Vec.zeros(wd.dim), Vec.zeros(wd.dim))
            assert get_work_div(acc, origin, unit) == want, (origin, unit)

    def test_derived_attributes(self, wd):
        want = expected_work_div(wd)
        assert wd.grid_thread_extent == want[(Grid, Threads)]
        assert wd.grid_elem_extent == want[(Grid, Elems)]
        assert wd.block_elem_extent == want[(Block, Elems)]
        assert wd.dim == len(wd.grid_block_extent)
        assert wd.block_count == wd.grid_block_extent.prod()
        assert wd.block_thread_count == wd.block_thread_extent.prod()
        assert wd.thread_elem_count == wd.thread_elem_extent.prod()

    def test_all_five_indices_on_a_stand_in(self, wd):
        for b in _boxes(wd.grid_block_extent):
            for t in _boxes(wd.block_thread_extent):
                acc = StandIn(wd, Vec(*b), Vec(*t))
                for (origin, unit), want in expected_idx(wd, b, t).items():
                    assert get_idx(acc, origin, unit) == want, (b, t, origin, unit)

    def test_all_five_indices_in_a_real_launch(self, wd):
        """Every thread of a real launch records its five answers; the
        facade's per-block constants must agree with the closed forms."""
        acc_type = AccCpuSerial if wd.block_thread_count == 1 else AccCpuThreads
        dev = get_dev_by_idx(acc_type, 0)
        threads = wd.grid_thread_extent.prod()
        out = mem.alloc(dev, (threads, 5, wd.dim), dtype=np.int64)
        queries = list(expected_idx(wd, (0,) * wd.dim, (0,) * wd.dim))

        @fn_acc
        def record(acc, out):
            row = linearize(
                get_idx(acc, Grid, Threads), get_work_div(acc, Grid, Threads)
            )
            for k, (origin, unit) in enumerate(queries):
                out[row, k, :] = get_idx(acc, origin, unit).as_tuple()

        QueueBlocking(dev).enqueue(create_task_kernel(acc_type, wd, record, out))
        got = out.as_numpy().copy()
        out.free()
        for b in _boxes(wd.grid_block_extent):
            for t in _boxes(wd.block_thread_extent):
                want = expected_idx(wd, b, t)
                row = linearize(want[(Grid, Threads)], wd.grid_thread_extent)
                for k, q in enumerate(queries):
                    assert tuple(got[row, k]) == want[q].as_tuple(), (b, t, q)


class TestDivisionConstantsStayInvisible:
    def test_eq_hash_repr_see_the_three_members_only(self):
        a = WorkDivMembers.make((2, 3), (1, 1), (4, 2))
        b = WorkDivMembers(Vec(2, 3), Vec(1, 1), Vec(4, 2))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((Vec(2, 3), Vec(1, 1), Vec(4, 2)))
        assert repr(a) == (
            "WorkDivMembers(grid_block_extent=Vec(2, 3), "
            "block_thread_extent=Vec(1, 1), thread_elem_extent=Vec(4, 2))"
        )

    def test_pickle_holds_the_three_members_and_round_trips(self):
        wd = WorkDivMembers.make(7, 1, 3)
        blob = pickle.dumps(wd)
        assert b"grid_elem_extent" not in blob
        assert b"block_count" not in blob
        back = pickle.loads(blob)
        assert back == wd and back.grid_elem_extent == Vec(21)

    def test_pickle_and_hash_unchanged_by_a_launch(self):
        wd = WorkDivMembers.make(4, 1, 8)
        blob, h = pickle.dumps(wd), hash(wd)

        @fn_acc
        def touch(acc, y):
            i = get_idx(acc, Grid, Elems)[0]
            y[i] = get_work_div(acc, Grid, Elems)[0]

        dev = get_dev_by_idx(AccCpuSerial, 0)
        y = mem.alloc(dev, 32)
        QueueBlocking(dev).enqueue(create_task_kernel(AccCpuSerial, wd, touch, y))
        assert y.as_numpy()[0] == 32.0
        y.free()
        assert pickle.dumps(wd) == blob and hash(wd) == h

    def test_equal_divisions_share_one_plan(self):
        @fn_acc
        def noop(acc):
            pass

        dev = get_dev_by_idx(AccCpuSerial, 0)
        clear_plan_cache()
        first = get_plan(
            create_task_kernel(AccCpuSerial, WorkDivMembers.make(4, 1, 8), noop), dev
        )
        second = get_plan(
            create_task_kernel(
                AccCpuSerial, WorkDivMembers(Vec(4), Vec(1), Vec(8)), noop
            ),
            dev,
        )
        assert second is first
        info = plan_cache_info()
        assert (info["misses"], info["hits"], info["size"]) == (1, 1, 1)
        clear_plan_cache()
