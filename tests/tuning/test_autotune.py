"""End-to-end autotuning: search → cache → AUTO resolution."""

import json

import pytest

from repro import (
    AccCpuSerial,
    AutoWorkDiv,
    QueueBlocking,
    accelerator,
    accelerator_names,
    autotune,
    create_task_kernel,
    divide_work,
    fn_acc,
    get_dev_by_idx,
)
from repro.bench import launch_stats
from repro.core.workdiv import MappingStrategy, WorkDivMembers, validate_work_div
from repro.perfmodel import KernelCharacteristics
from repro.runtime import clear_plan_cache, get_plan
from repro.tuning import (
    TuningCache,
    auto_divide,
    default_cache,
    measure_division,
    reset_default_cache,
    resolve_work_div,
)


class TunableKernel:
    """Self-describing kernel whose model genuinely prefers big element
    blocks (vector_friendly flips at 4 elements), so tuning has a real
    landscape to descend."""

    @fn_acc
    def __call__(self, acc, n, out):
        from repro.core.element import independent_elements

        for i in independent_elements(acc, n):
            out[i[0]] = i[0] * 2.0

    def characteristics(self, work_div, n, out):
        from repro.hardware.cache import AccessPattern

        return KernelCharacteristics(
            flops=float(n) * 8,
            global_read_bytes=8.0 * n,
            global_write_bytes=8.0 * n,
            working_set_bytes=1024,
            thread_access_pattern=AccessPattern.CONTIGUOUS,
            vector_friendly=work_div.thread_elem_count >= 4,
        )


N = 512


def _sized_args(acc, n):
    from repro import mem
    from repro.mem import memset

    dev = get_dev_by_idx(acc)
    out = mem.alloc(dev, n)
    q = QueueBlocking(dev)
    memset(q, out, 0)
    return dev, (n, out)


def _args(acc):
    return _sized_args(acc, N)


class TestAutotune:
    def test_beats_or_ties_default_heuristic(self, any_acc):
        dev, args = _args(any_acc)
        props = any_acc.get_acc_dev_props(dev).for_dim(1)
        default_wd = divide_work(N, props, any_acc.mapping_strategy)
        default_s = measure_division(
            TunableKernel(), any_acc, dev, default_wd, args
        ).seconds
        res = autotune(
            TunableKernel(), any_acc, N, args, device=dev,
            strategy="random", budget=6, max_block_threads=16, save=False,
        )
        assert res.seconds <= default_s
        assert not res.from_cache
        assert res.measurements >= 1
        validate_work_div(res.work_div, props)

    def test_second_call_hits_cache_with_zero_launches(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        first = autotune(k, acc, N, args, device=dev, strategy="random", budget=4)
        with launch_stats() as stats:
            second = autotune(k, acc, N, args, device=dev)
        assert second.from_cache
        assert second.launches == 0
        assert stats.launches == 0
        assert second.work_div == first.work_div
        assert second.strategy == "cache"

    def test_cache_survives_process_restart_simulation(self, isolated_cache):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        first = autotune(k, acc, N, args, device=dev, budget=4, strategy="random")
        assert isolated_cache.exists()
        # A fresh TuningCache object reading the same file = "restart".
        fresh = TuningCache(str(isolated_cache))
        hit = autotune(k, acc, N, args, device=dev, cache=fresh)
        assert hit.from_cache
        assert hit.work_div == first.work_div

    def test_force_remeasures(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        autotune(k, acc, N, args, device=dev, budget=4, strategy="random")
        res = autotune(
            k, acc, N, args, device=dev, budget=4, strategy="random", force=True
        )
        assert not res.from_cache
        assert res.measurements >= 1

    def test_extent_bucketing_shares_results(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        autotune(k, acc, 400, args, device=dev, budget=4, strategy="random")
        # 400 and 512 share the (256, 512] bucket.
        res = autotune(k, acc, 512, args, device=dev)
        assert res.from_cache

    def test_cache_hit_refits_grid_to_requested_extent(self):
        """A hit tuned at a smaller extent in the same bucket must not
        serve its tuning-time grid verbatim — that grid under-covers the
        larger request and elements past the tuned extent never run."""
        acc = AccCpuSerial
        k = TunableKernel()
        dev, args = _sized_args(acc, 600)
        tuned = autotune(k, acc, 600, args, device=dev, budget=4, strategy="random")
        # 600 and 1000 share the (512, 1024] bucket.
        res = autotune(k, acc, 1000, args, device=dev)
        assert res.from_cache
        assert res.work_div.grid_elem_extent[0] >= 1000
        assert res.work_div.block_thread_extent == tuned.work_div.block_thread_extent
        assert res.work_div.thread_elem_extent == tuned.work_div.thread_elem_extent
        props = acc.get_acc_dev_props(dev).for_dim(1)
        validate_work_div(res.work_div, props)

    def test_unknown_strategy_raises(self, monkeypatch):
        """Before the cache is read: a warm hit does not hide an unknown
        strategy, and a miss raises before it takes the key's lease."""
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        autotune(k, acc, N, args, device=dev, strategy="random", budget=4)

        def no_lease(self, key, usable):
            raise AssertionError(f"lease taken for {key}")

        monkeypatch.setattr(TuningCache, "acquire", no_lease)
        for extent in (N, 4 * N):  # warm, then cold
            with pytest.raises(ValueError, match="unknown search strategy"):
                autotune(k, acc, extent, args, device=dev, strategy="evolve")

    def test_an_evolve_entry_in_an_old_cache_file_is_a_hit(
        self, isolated_cache
    ):
        """A cache file may hold entries the retired evolutionary search
        stored; the strategy is only a label, so they still answer."""
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        key = TuningCache.key(k, acc, dev, N)
        entry = {
            "grid": [8], "block": [1], "elems": [64], "seconds": 1e-4,
            "strategy": "evolve", "source": "modeled",
        }
        isolated_cache.write_text(
            json.dumps({"version": 1, "entries": {key: entry}})
        )
        reset_default_cache()
        with launch_stats() as stats:
            res = autotune(k, acc, N, args, device=dev)
        assert res.from_cache
        assert (res.measurements, stats.launches) == (0, 0)
        assert res.work_div == WorkDivMembers.make(8, 1, 64)
        assert default_cache().get_key(key).strategy == "evolve"

    @pytest.mark.slow
    def test_exhaustive_across_all_backends(self):
        """The full sweep on every back-end — slow, excluded from tier 1."""
        for name in accelerator_names():
            acc = accelerator(name)
            dev, args = _args(acc)
            res = autotune(
                TunableKernel(), acc, N, args, device=dev,
                strategy="exhaustive", max_block_threads=32, save=False,
            )
            props = acc.get_acc_dev_props(dev).for_dim(1)
            validate_work_div(res.work_div, props)


class TestAutoDivide:
    def test_heuristic_without_kernel_context(self, any_acc):
        dev = get_dev_by_idx(any_acc)
        props = any_acc.get_acc_dev_props(dev)
        wd = auto_divide(N, props, acc_type=any_acc)
        assert wd == divide_work(N, props, any_acc.mapping_strategy)

    def test_heuristic_without_acc_type(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        props = acc.get_acc_dev_props(dev)
        wd = auto_divide(N, props)
        validate_work_div(wd, props.for_dim(1))

    def test_cache_hit_wins(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        tuned = autotune(k, acc, N, args, device=dev, budget=4, strategy="random")
        props = acc.get_acc_dev_props(dev)
        wd = auto_divide(N, props, kernel=k, acc_type=acc, device=dev)
        assert wd == tuned.work_div

    def test_cache_hit_covers_larger_extent_in_same_bucket(self):
        acc = AccCpuSerial
        k = TunableKernel()
        dev, args = _sized_args(acc, 600)
        autotune(k, acc, 600, args, device=dev, budget=4, strategy="random")
        props = acc.get_acc_dev_props(dev)
        wd = auto_divide(1000, props, kernel=k, acc_type=acc, device=dev)
        assert wd.grid_elem_extent[0] >= 1000
        validate_work_div(wd, props.for_dim(1))

    def test_divide_work_auto_strategy(self, any_acc):
        dev = get_dev_by_idx(any_acc)
        props = any_acc.get_acc_dev_props(dev)
        wd = divide_work(N, props, MappingStrategy.AUTO, acc_type=any_acc)
        validate_work_div(wd, props.for_dim(1))


class TestAutoWorkDivLaunch:
    def test_auto_task_resolves_and_runs(self, any_acc):
        import numpy as np

        dev, (n, out) = _args(any_acc)
        q = QueueBlocking(dev)
        task = create_task_kernel(
            any_acc, AutoWorkDiv(N), TunableKernel(), n, out
        )
        q.enqueue(task)
        host = np.empty(N)
        from repro import mem

        mem.copy(q, host, out)
        assert np.allclose(host, np.arange(N) * 2.0)

    def test_resolution_prefers_tuned_division(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        tuned = autotune(k, acc, N, args, device=dev, budget=4, strategy="random")
        clear_plan_cache()
        task = create_task_kernel(acc, AutoWorkDiv(N), k, *args)
        plan = get_plan(task, dev)
        assert plan.work_div == tuned.work_div

    def test_auto_launch_covers_larger_extent_in_same_bucket(self):
        """End-to-end regression: tuning at 600 then launching AUTO at
        1000 (same pow2 bucket) must execute all 1000 elements."""
        import numpy as np

        from repro import mem

        acc = AccCpuSerial
        k = TunableKernel()
        dev, args600 = _sized_args(acc, 600)
        autotune(k, acc, 600, args600, device=dev, budget=4, strategy="random")
        _, (n, out) = _sized_args(acc, 1000)
        q = QueueBlocking(dev)
        q.enqueue(create_task_kernel(acc, AutoWorkDiv(1000), k, n, out))
        host = np.empty(1000)
        mem.copy(q, host, out)
        assert np.allclose(host, np.arange(1000) * 2.0)

    def test_plan_cache_sees_fresh_tuning_results(self):
        """A plan resolved before autotune() must not keep serving the
        pre-tuning heuristic division afterwards."""
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        task = create_task_kernel(acc, AutoWorkDiv(N), k, *args)
        props = acc.get_acc_dev_props(dev)
        before = get_plan(task, dev)
        assert before.work_div == divide_work(N, props, acc.mapping_strategy)
        tuned = autotune(k, acc, N, args, device=dev, budget=4, strategy="random")
        after = get_plan(task, dev)  # no clear_plan_cache() in between
        assert after is not before
        assert after.work_div == tuned.work_div

    def test_resolve_work_div_passthrough_for_concrete(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        props = acc.get_acc_dev_props(dev)
        wd = divide_work(N, props, MappingStrategy.BLOCK_LEVEL)
        task = create_task_kernel(acc, wd, TunableKernel(), *args)
        assert resolve_work_div(task, dev) is wd

    def test_resolution_without_cache_uses_heuristic(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        assert len(default_cache()) == 0
        task = create_task_kernel(acc, AutoWorkDiv(N), TunableKernel(), *args)
        wd = resolve_work_div(task, dev)
        props = acc.get_acc_dev_props(dev)
        assert wd == divide_work(N, props, acc.mapping_strategy)

    def test_distinct_extents_get_distinct_plans(self):
        acc = AccCpuSerial
        dev, args = _args(acc)
        k = TunableKernel()
        t1 = create_task_kernel(acc, AutoWorkDiv(64), k, 64, args[1])
        t2 = create_task_kernel(acc, AutoWorkDiv(256), k, 256, args[1])
        p1 = get_plan(t1, dev)
        p2 = get_plan(t2, dev)
        assert p1 is not p2
        assert p1.work_div != p2.work_div
