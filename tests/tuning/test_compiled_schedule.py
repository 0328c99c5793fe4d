"""Selecting and persisting the `compiled` schedule through tuning.

The trace-vectorized replay is a first-class block schedule: the
``tune_schedule=True`` sweep after every search strategy measures it,
the winner persists through the cache (and reaches a sibling worker
through the shared file), and AUTO launches pick it up at plan time.
"""

import json

import numpy as np
import pytest

import repro.tuning as tuning
from repro import get_dev_by_idx, mem
from repro.acc.cpu import AccCpuOmp2Blocks, AccCpuSerial
from repro.core.element import grid_strided_spans
from repro.core.kernel import fn_acc
from repro.tuning import (
    SEARCH_STRATEGIES,
    MeasuredTime,
    TuningCache,
    autotune,
    default_cache,
)
from repro.tuning import _schedule_candidates


class _ElemKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        for span in grid_strided_spans(acc, n):
            out[span] = 2.0

    def __repr__(self):
        return "_ElemKernel()"


class _SharedScratchKernel(_ElemKernel):
    """``_ElemKernel`` plus a block shared-memory scratch the tracer
    cannot represent: every compiled launch falls back."""

    @fn_acc
    def __call__(self, acc, n, out):
        acc.shared_mem("scratch", (1,))
        for span in grid_strided_spans(acc, n):
            out[span] = 2.0


def _args(n=256):
    dev = get_dev_by_idx(AccCpuOmp2Blocks)
    out = mem.alloc(dev, n)
    out.as_numpy()[:] = 0.0
    return dev, (n, out)


@pytest.fixture
def compiled_wins(monkeypatch):
    """Deterministic measurements: `compiled` is 100x faster than any
    other schedule, divisions score by block count (fewer is better) —
    no wall clocks, no flaky CI timing."""

    def fake_measure_division(
        kernel, acc_type, device, wd, args=(), *, schedule=None, **kw
    ):
        base = 1e-4 + 1e-7 * int(wd.block_count)
        if schedule == "compiled":
            base *= 0.01
        return MeasuredTime(seconds=base, source="wall", launches=1)

    monkeypatch.setattr(tuning, "measure_division", fake_measure_division)
    return fake_measure_division


class TestCandidates:
    def test_pooled_backend_offers_compiled(self):
        cands = _schedule_candidates(AccCpuOmp2Blocks)
        assert "compiled" in cands
        assert set(cands) >= {"sequential", "pooled", "compiled"}

    def test_sequential_backend_offers_nothing(self):
        assert _schedule_candidates(AccCpuSerial) == ()


class TestSweep:
    def test_sweep_selects_and_caches_compiled(self, compiled_wins):
        dev, args = _args()
        res = autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy="random", budget=2, tune_schedule=True,
        )
        assert res.schedule == "compiled"
        assert "compiled" in res.schedule_trials
        assert res.schedule_trials["compiled"] == min(
            res.schedule_trials.values()
        )
        # Round trip: the persisted entry answers the next call with
        # zero measurements and the stored schedule.
        res2 = autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy="random", budget=2, tune_schedule=True,
        )
        assert res2.from_cache
        assert res2.schedule == "compiled"


class TestPostSweep:
    @pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGIES))
    def test_sweep_follows_every_strategy(
        self, compiled_wins, strategy
    ):
        """The schedule is chosen after the division search, on its
        winner, under every schedule the back-end can run."""
        dev, args = _args()
        res = autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy=strategy, budget=12, tune_schedule=True,
        )
        assert res.strategy == strategy
        assert res.schedule == "compiled"
        assert set(res.schedule_trials) == set(
            _schedule_candidates(AccCpuOmp2Blocks)
        )
        assert res.measurements == len(res.trials) + len(res.schedule_trials)
        entry = default_cache().get(
            _ElemKernel(), AccCpuOmp2Blocks, dev, 256
        )
        assert entry.work_div == res.work_div
        assert entry.schedule == "compiled"

    def test_without_tune_schedule_stores_none(self, compiled_wins):
        dev, args = _args()
        res = autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy="random", budget=8,
        )
        assert res.schedule is None
        assert res.schedule_trials == {}
        entry = default_cache().get(
            _ElemKernel(), AccCpuOmp2Blocks, dev, 256
        )
        assert entry.schedule is None


class TestFleetRoundTrip:
    def test_lock_mode_round_trips_compiled(
        self, compiled_wins, monkeypatch, isolated_cache
    ):
        """A compiled winner saved under the lease reaches a sibling
        worker through the shared file, schedule included."""
        from repro.tuning import reset_default_cache

        dev, args = _args()
        res = autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy="random", budget=12, tune_schedule=True,
        )
        assert res.schedule == "compiled"
        # A sibling worker (fresh in-process cache, same file) adopts
        # the saved entry, schedule included.
        reset_default_cache()
        res2 = autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy="random", budget=12, tune_schedule=True,
        )
        assert res2.from_cache
        assert res2.schedule == "compiled"


class TestPlanPickup:
    def test_auto_launch_resolves_compiled_at_plan_time(
        self, compiled_wins, monkeypatch
    ):
        from repro import create_task_kernel
        from repro.core.workdiv import AutoWorkDiv
        from repro.runtime import clear_plan_cache, get_plan
        from repro.runtime.scheduler import SCHEDULER_ENV

        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        dev, args = _args()
        autotune(
            _ElemKernel(), AccCpuOmp2Blocks, 256, args, device=dev,
            strategy="random", budget=2, tune_schedule=True,
        )
        clear_plan_cache()
        task = create_task_kernel(
            AccCpuOmp2Blocks, AutoWorkDiv(256), _ElemKernel(), *args
        )
        plan = get_plan(task, dev)
        assert plan.schedule == "compiled"

    def test_retired_schedule_in_an_old_cache_file_plans_the_default(
        self, monkeypatch, isolated_cache
    ):
        """A cache file written while a process-pool schedule existed
        may name it; the entry still serves its division, and the AUTO
        launch plans the back-end default instead of a schedule that
        cannot run."""
        from repro import QueueBlocking, create_task_kernel
        from repro.core.workdiv import AutoWorkDiv
        from repro.runtime import get_plan
        from repro.runtime.scheduler import SCHEDULER_ENV
        from repro.tuning import reset_default_cache

        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        n = 256
        dev, args = _args(n)
        key = TuningCache.key(_ElemKernel(), AccCpuOmp2Blocks, dev, n)
        entry = {
            "grid": [4], "block": [1], "elems": [64], "seconds": 1e-4,
            "strategy": "exhaustive", "source": "wall", "schedule": "processes",
        }
        isolated_cache.write_text(json.dumps({"version": 1, "entries": {key: entry}}))
        reset_default_cache()
        task = create_task_kernel(
            AccCpuOmp2Blocks, AutoWorkDiv(n), _ElemKernel(), *args
        )
        plan = get_plan(task, dev)
        assert plan.work_div.block_count == 4  # the stored division
        assert plan.schedule == "pooled"
        QueueBlocking(dev).enqueue(task)
        np.testing.assert_array_equal(args[1].as_numpy(), np.full(n, 2.0))


class TestFallenBackSchedules:
    def test_a_schedule_that_fell_back_is_never_stored(self, monkeypatch):
        """Regression: a kernel the tracer cannot represent sends every
        `compiled` launch to the thread pool.  Even when that
        measurement reads fastest, the tuner must not store `compiled`,
        or every AUTO launch falls back again."""
        real = tuning.measure_division

        def compiled_reports_the_smallest_time(*a, schedule=None, **kw):
            mt = real(*a, schedule=schedule, **kw)
            if schedule == "compiled":
                return MeasuredTime(seconds=1e-12, source=mt.source, launches=mt.launches)
            return mt

        monkeypatch.setattr(
            tuning, "measure_division", compiled_reports_the_smallest_time
        )
        n = 1024
        dev, args = _args(n)
        res = autotune(
            _SharedScratchKernel(), AccCpuOmp2Blocks, n, args, device=dev,
            strategy="random", budget=4, tune_schedule=True,
            max_total_elems=64,
        )
        assert res.schedule not in (None, "compiled")
        assert "compiled" not in res.schedule_trials
        entry = default_cache().get(_SharedScratchKernel(), AccCpuOmp2Blocks, dev, n)
        assert entry.schedule == res.schedule
