"""Hot-swapping tuned divisions under load: launches racing a tuning
generation bump must stay bit-identical.

A tuning run (or an entry adopted from a shared cache file) stores new
divisions while requests are in flight; the only synchronisation is the
tuning-generation counter folded into AUTO plan-cache keys.  These tests
hammer that seam."""

import threading
import time

import numpy as np
import pytest

from repro import (
    AccCpuSerial,
    AutoWorkDiv,
    QueueBlocking,
    create_task_kernel,
    divide_work,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.core.workdiv import validate_work_div
from repro.mem import memset
from repro.runtime import clear_plan_cache, get_plan
from repro.tuning import TuningCache, default_cache, reset_default_cache
from repro.tuning.cache import (
    CachedResult,
    bump_tuning_generation,
    tuning_generation,
)

N = 512


class SwapKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        from repro.core.element import independent_elements

        for i in independent_elements(acc, n):
            out[i[0]] = i[0] * 2.0 + 1.0  # no zeros: under-coverage shows


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "cache.json"))
    reset_default_cache()
    clear_plan_cache()
    yield
    reset_default_cache()
    clear_plan_cache()


def _divisions(props):
    """A handful of distinct valid divisions to swap between."""
    out = []
    for te in (1, 2, 4, 8):
        wd = divide_work(
            N, props, AccCpuSerial.mapping_strategy, thread_elems=te
        )
        validate_work_div(wd, props)
        if wd not in out:
            out.append(wd)
    assert len(out) >= 2
    return out


class TestHotSwap:
    def test_bump_invalidates_auto_plans(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        k = SwapKernel()
        out = mem.alloc(dev, N)
        task = create_task_kernel(acc, AutoWorkDiv(N), k, N, out)
        before = get_plan(task, dev)
        bump_tuning_generation()
        assert get_plan(task, dev) is not before

    def test_adopted_entry_swaps_the_plan_without_clearing(self):
        """Simulates an adoption: another process's entry lands via
        put_key (which bumps the generation) and the very next AUTO
        launch must resolve to it — no clear_plan_cache() anywhere."""
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        props = acc.get_acc_dev_props(dev).for_dim(1)
        k = SwapKernel()
        out = mem.alloc(dev, N)
        task = create_task_kernel(acc, AutoWorkDiv(N), k, N, out)
        heuristic_plan = get_plan(task, dev)

        tuned = _divisions(props)[-1]
        key = TuningCache.key(k, acc, dev, N)
        default_cache().put_key(
            key,
            CachedResult(
                work_div=tuned, seconds=1e-6, strategy="random", source="modeled"
            ),
        )
        after = get_plan(task, dev)
        assert after is not heuristic_plan
        assert after.work_div == tuned
        # The task is bound again, to the tuned plan: an enqueue runs
        # under the tuned division.
        QueueBlocking(dev).enqueue(task)
        assert get_plan(task, dev) is after
        assert after.launches == 1

    def test_launches_racing_generation_bumps_stay_bit_identical(self):
        """The acceptance scenario: a bumper thread republishes tuned
        divisions as fast as it can while the main thread launches AUTO
        kernels; every single result must be bit-identical."""
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        props = acc.get_acc_dev_props(dev).for_dim(1)
        k = SwapKernel()
        key = TuningCache.key(k, acc, dev, N)
        cache = default_cache()
        divisions = _divisions(props)
        expected = np.arange(N) * 2.0 + 1.0

        stop = threading.Event()
        publishes = []

        def bumper():
            i = 0
            while not stop.is_set():
                wd = divisions[i % len(divisions)]
                cache.put_key(
                    key,
                    CachedResult(
                        work_div=wd,
                        seconds=1e-6,
                        strategy="evolve",
                        source="modeled",
                    ),
                )
                i += 1
                publishes.append(wd)
                stop.wait(0.0005)  # yield to the launching thread

        out = mem.alloc(dev, N)
        q = QueueBlocking(dev)
        host = np.empty(N)
        gen_before = tuning_generation()
        seen_divisions = set()

        # At least 60 launches, and as many more as it takes for the
        # race to be real — two different tuned divisions served — so
        # however fast a launch gets, the assertions below hold by
        # construction.  The deadline only bounds a wedged bumper.
        deadline = time.monotonic() + 60.0
        launches = 0
        thread = threading.Thread(target=bumper, daemon=True)
        thread.start()
        try:
            while launches < 60 or len(seen_divisions) < 2:
                if time.monotonic() > deadline:
                    pytest.fail(
                        f"{launches} launches in 60 s saw "
                        f"{len(seen_divisions)} tuned division(s) while the "
                        f"bumper published {len(publishes)} time(s)"
                    )
                launches += 1
                memset(q, out, 0)
                task = create_task_kernel(acc, AutoWorkDiv(N), k, N, out)
                plan = get_plan(task, dev)
                seen_divisions.add(plan.work_div)
                q.enqueue(task)
                mem.copy(q, host, out)
                # Bit-identical, not approximately equal: a division swap
                # must never change what the kernel computes.
                assert np.array_equal(host, expected)
        finally:
            stop.set()
            thread.join(timeout=5.0)

        # The race was real: generations advanced and the plan cache
        # actually served more than one tuned division.
        assert tuning_generation() > gen_before
        assert len(seen_divisions) >= 2
        validate_work_div(plan.work_div, props)

    def test_final_state_serves_the_last_published_division(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        props = acc.get_acc_dev_props(dev).for_dim(1)
        k = SwapKernel()
        key = TuningCache.key(k, acc, dev, N)
        out = mem.alloc(dev, N)
        task = create_task_kernel(acc, AutoWorkDiv(N), k, N, out)
        last = None
        for wd in _divisions(props):
            default_cache().put_key(
                key,
                CachedResult(
                    work_div=wd, seconds=1e-6, strategy="evolve", source="modeled"
                ),
            )
            last = wd
        assert get_plan(task, dev).work_div == last
