"""Online drift-driven re-tuning wired into the gateway."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import Gateway, ServeConfig
from repro.serve.config import ONLINE_TUNING_ENV, config_from_env
from repro.serve.online import OnlineTuner
from repro.serve.workloads import get_workload
from repro.tuning.fleet.config import FleetConfig
from repro.tuning.cache import tuning_generation

from . import calls


def _fleet_cfg():
    return FleetConfig(
        drift_window=8,
        drift_threshold=1.5,
        drift_ewma_alpha=0.9,
        drift_cooldown=0.0,
        drift_budget=3,
    )


def _drive(gw, rng, n=128, count=1, alpha=2.0):
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    handles = [
        gw.launch("axpy", params={"alpha": alpha}, arrays={"x": x, "y": y})
        for _ in range(count)
    ]
    results = [h.result(timeout=30) for h in handles]
    for r in results:
        assert np.array_equal(r.arrays["y"], alpha * x + y)
    return results


class TestWiring:
    def test_off_by_default(self):
        with Gateway(ServeConfig()) as gw:
            assert gw.online is None
            assert "online_tuning" not in gw.stats()
            gw.shutdown(release_pools=False)

    def test_enabled_by_config(self):
        with Gateway(ServeConfig(online_tuning=True)) as gw:
            assert isinstance(gw.online, OnlineTuner)
            gw.shutdown(release_pools=False)

    def test_enabled_by_env(self, monkeypatch):
        monkeypatch.setenv(ONLINE_TUNING_ENV, "1")
        assert config_from_env().online_tuning
        monkeypatch.setenv(ONLINE_TUNING_ENV, "off")
        assert not config_from_env().online_tuning

    def test_completed_requests_feed_the_monitor(self, rng):
        with Gateway(ServeConfig(online_tuning=True)) as gw:
            _drive(gw, rng, count=3)
            stats = gw.stats()["online_tuning"]
            assert stats["retunes"] == 0
            assert stats["workloads"]["axpy"]["samples"] >= 3
            gw.shutdown(release_pools=False)

    def test_observed_latency_is_service_not_queueing(self, rng):
        """The drift signal must be the service latency; a full window
        of steady traffic forms a finite baseline."""
        with Gateway(ServeConfig(online_tuning=True)) as gw:
            gw.online.monitor.config = _fleet_cfg()
            gw.online.monitor._stats.clear()
            _drive(gw, rng, count=10)
            snap = gw.online.monitor.snapshot()["axpy"]
            assert snap["baseline_median"] is not None
            assert snap["baseline_median"] > 0
            gw.shutdown(release_pools=False)

    def test_hold_in_the_batcher_is_not_drift(self, rng):
        """The tuner is fed the batch's execute time.  With the hold a
        per-key decision, admitted->done jumps by a whole window between
        an unheld batch and the held one after it; at a 50 ms window
        that would read as a >10x "kernel drift"."""
        window = 0.05
        config = ServeConfig(online_tuning=True, batch_window=window)
        with Gateway(config) as gw:
            _drive(gw, rng)  # first launch pays plan and tuning set-up
            seen = []
            observe = gw.online.monitor.observe

            def spy(workload, seconds):
                seen.append(seconds)
                observe(workload, seconds)

            gw.online.monitor.observe = spy
            for _ in range(4):
                _drive(gw, rng)  # alone every time: unheld
            # The second sent while the first is on the (blocked) lane:
            # it brings the key company and pays the window.
            release = threading.Event()
            gw.router.lanes[0].queue.enqueue(lambda: release.wait(30))
            ones = np.ones(128)
            args = {"params": {"alpha": 2.0}, "arrays": {"x": ones, "y": ones}}
            added = calls(gw.batcher, "add")
            submitted = calls(gw.router, "submit")
            first = gw.launch("axpy", **args)
            assert submitted.acquire(timeout=30)  # the first is on the lane
            held = gw.launch("axpy", **args)
            for _ in range(2):  # until the pump has parked the second
                assert added.acquire(timeout=30)
            release.set()
            first.result(timeout=30)
            assert held.result(timeout=30).latency >= window
            assert gw.stats()["batcher"]["held"] == 1
            assert len(seen) == 6
            assert max(seen) < window / 2
            gw.shutdown(release_pools=False)


class TestRetuneLoop:
    def test_drift_triggers_background_retune_and_hot_swap(self, rng):
        """The acceptance scenario end-to-end: induced drift must
        trigger a background re-tune (generation bump) while every
        request before, during and after stays bit-identical."""
        with Gateway(ServeConfig(online_tuning=True)) as gw:
            tuner = OnlineTuner(_fleet_cfg())
            gw.online.close()
            gw.online = tuner

            _drive(gw, rng, count=10)  # forms the baseline window
            gen_before = tuning_generation()

            # Inject inflated service latencies for the axpy workload —
            # the kernel itself is untouched, so correctness of the
            # racing requests is the hot-swap guarantee under test.
            base = tuner.monitor.snapshot()["axpy"]["baseline_median"]
            for _ in range(16):
                tuner.monitor.observe("axpy", base * 5.0)
                _drive(gw, rng, count=1)

            assert tuner.wait_idle(timeout=30.0)
            stats = tuner.stats()
            assert stats["retunes"] >= 1
            assert tuning_generation() > gen_before

            # Post-swap traffic is still bit-identical.
            _drive(gw, rng, count=4)
            gw.shutdown(release_pools=False)

    def test_failed_retune_never_breaks_serving(self, rng, monkeypatch):
        with Gateway(ServeConfig(online_tuning=True)) as gw:
            tuner = OnlineTuner(_fleet_cfg())
            gw.online.close()
            gw.online = tuner

            def explode(*a, **k):
                raise RuntimeError("no device")

            monkeypatch.setattr(
                type(get_workload("axpy")), "retune", explode
            )
            _drive(gw, rng, count=10)
            base = tuner.monitor.snapshot()["axpy"]["baseline_median"]
            for _ in range(16):
                tuner.monitor.observe("axpy", base * 5.0)
            assert tuner.wait_idle(timeout=30.0)
            # Serving continues, results stay correct, retunes stay 0.
            _drive(gw, rng, count=3)
            assert tuner.stats()["retunes"] == 0
            gw.shutdown(release_pools=False)

    def test_retune_without_observed_target_is_a_noop(self):
        tuner = OnlineTuner(_fleet_cfg())
        tuner._retune("axpy")  # no request seen yet: nothing to measure
        assert tuner.stats()["retunes"] == 0
        tuner.close()


class TestWorkloadRetune:
    def test_base_workload_declines(self):
        from repro.serve.workloads import Workload

        class Inert(Workload):
            name = "inert-test"

            def execute(self, *a, **k):  # pragma: no cover - unused
                raise NotImplementedError

        assert Inert().retune(None, None, 64, budget=2) is False

    def test_axpy_retune_measures_and_reports_true(self):
        from repro import AccCpuSerial, get_dev_by_idx

        dev = get_dev_by_idx(AccCpuSerial)
        gen_before = tuning_generation()
        assert get_workload("axpy").retune(AccCpuSerial, dev, 256, budget=2)
        assert tuning_generation() > gen_before

    def test_scale_retune_measures_and_reports_true(self):
        from repro import AccCpuSerial, get_dev_by_idx

        dev = get_dev_by_idx(AccCpuSerial)
        assert get_workload("scale").retune(AccCpuSerial, dev, 256, budget=2)


@pytest.fixture(autouse=True)
def _isolated_tuning(tmp_path, monkeypatch):
    """Online tuning writes through the default tuning cache; keep it
    (and the plan cache) away from other tests' state."""
    from repro.runtime import clear_plan_cache
    from repro.tuning import TUNING_CACHE_ENV, reset_default_cache

    monkeypatch.setenv(TUNING_CACHE_ENV, str(tmp_path / "cache.json"))
    monkeypatch.setenv("REPRO_TUNING_HOF", str(tmp_path / "hof.json"))
    reset_default_cache()
    clear_plan_cache()
    yield
    reset_default_cache()
    clear_plan_cache()
