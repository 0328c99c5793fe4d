"""Drift detection and the background re-tune loop (no kernels)."""

import threading

from repro.tuning.fleet.config import FleetConfig
from repro.tuning.fleet.drift import DriftMonitor, WorkloadStats


def _cfg(**kwargs):
    defaults = dict(
        drift_window=4,
        drift_threshold=1.5,
        drift_ewma_alpha=0.9,
        drift_cooldown=0.0,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


class TestWorkloadStats:
    def test_no_verdict_before_full_window(self):
        s = WorkloadStats(window=8, alpha=0.5)
        for _ in range(7):
            s.observe(1.0)
        assert s.baseline_median is None
        assert not s.drifted(1.5)

    def test_baseline_set_at_first_full_window(self):
        s = WorkloadStats(window=8, alpha=0.5)
        for _ in range(8):
            s.observe(1.0)
        assert s.baseline_median == 1.0
        assert s.baseline_p95 == 1.0

    def test_steady_latency_never_drifts(self):
        s = WorkloadStats(window=8, alpha=0.5)
        for _ in range(100):
            s.observe(1.0)
        assert not s.drifted(1.5)

    def test_sustained_shift_trips_the_ewma_test(self):
        s = WorkloadStats(window=8, alpha=0.5)
        for _ in range(8):
            s.observe(1.0)
        for _ in range(8):
            s.observe(2.0)  # 2x the baseline, threshold 1.5x
        assert s.drifted(1.5)

    def test_fat_tail_trips_the_percentile_test(self):
        # alpha tiny: the EWMA barely moves, only the p95 can fire.
        s = WorkloadStats(window=8, alpha=0.01)
        for _ in range(8):
            s.observe(1.0)
        for _ in range(7):
            s.observe(1.0)
        s.observe(10.0)  # one spike fattens the window p95
        assert s.ewma < 1.5  # the mean test alone would stay silent
        assert s.drifted(1.5)

    def test_reset_requires_a_new_baseline(self):
        s = WorkloadStats(window=4, alpha=0.5)
        for _ in range(8):
            s.observe(1.0)
        s.reset()
        assert s.baseline_median is None
        for _ in range(4):
            s.observe(5.0)
        # 5.0 is the *new* normal after a re-tune, not drift.
        assert s.baseline_median == 5.0
        assert not s.drifted(1.5)


class TestDriftMonitor:
    def _drive(self, monitor, workload="axpy", base=0.001, factor=4.0, n=12):
        for _ in range(monitor.config.drift_window):
            monitor.observe(workload, base)
        for _ in range(n):
            monitor.observe(workload, base * factor)

    def test_drift_triggers_one_background_retune(self):
        calls = []
        fired = threading.Event()

        def retune(workload):
            calls.append(workload)
            fired.set()

        mon = DriftMonitor(retune, _cfg())
        self._drive(mon)
        assert fired.wait(timeout=5.0)
        assert mon.wait_idle(timeout=5.0)
        assert calls == ["axpy"]
        mon.close()

    def test_observe_never_runs_the_retune_inline(self):
        observer_thread = threading.current_thread()
        seen = []
        fired = threading.Event()

        def retune(workload):
            seen.append(threading.current_thread())
            fired.set()

        mon = DriftMonitor(retune, _cfg())
        self._drive(mon)
        assert fired.wait(timeout=5.0)
        mon.wait_idle(timeout=5.0)
        assert seen and seen[0] is not observer_thread
        mon.close()

    def test_stats_reset_after_retune(self):
        # Hold the re-tune open until every observation is delivered, so
        # no trailing sample can rebuild the baseline after the reset.
        fired = threading.Event()
        release = threading.Event()

        def retune(workload):
            fired.set()
            release.wait(timeout=5.0)

        mon = DriftMonitor(retune, _cfg())
        self._drive(mon)
        assert fired.wait(timeout=5.0)
        release.set()
        assert mon.wait_idle(timeout=5.0)
        snap = mon.snapshot()["axpy"]
        assert snap["baseline_median"] is None  # earns a fresh baseline
        assert not snap["retuning"]
        mon.close()

    def test_cooldown_suppresses_back_to_back_retunes(self):
        calls = []
        fired = threading.Event()

        def retune(workload):
            calls.append(workload)
            fired.set()

        mon = DriftMonitor(retune, _cfg(drift_cooldown=3600.0))
        self._drive(mon)
        assert fired.wait(timeout=5.0)
        assert mon.wait_idle(timeout=5.0)
        # Re-baseline low, drift again: still inside the cooldown.  A
        # re-tune observe() fires is in flight before observe() returns,
        # so wait_idle() would join a second one.
        self._drive(mon)
        assert mon.wait_idle(timeout=5.0)
        assert calls == ["axpy"]
        mon.close()

    def test_failing_retune_does_not_kill_the_monitor(self):
        fired = threading.Event()

        def retune(workload):
            fired.set()
            raise RuntimeError("device fell off the bus")

        mon = DriftMonitor(retune, _cfg())
        self._drive(mon)
        assert fired.wait(timeout=5.0)
        assert mon.wait_idle(timeout=5.0)
        # Still observing and still able to detect again later.
        mon.observe("axpy", 0.001)
        assert mon.snapshot()["axpy"]["samples"] > 0
        mon.close()

    def test_workloads_are_tracked_independently(self):
        calls = []
        fired = threading.Event()

        def retune(workload):
            calls.append(workload)
            fired.set()

        mon = DriftMonitor(retune, _cfg())
        for _ in range(20):
            mon.observe("scale", 0.001)  # steady; must never re-tune
        self._drive(mon, workload="axpy")
        assert fired.wait(timeout=5.0)
        mon.wait_idle(timeout=5.0)
        assert calls == ["axpy"]
        assert set(mon.snapshot()) == {"axpy", "scale"}
        mon.close()

    def test_closed_monitor_ignores_observations(self):
        calls = []
        mon = DriftMonitor(calls.append, _cfg())
        mon.close()
        self._drive(mon)
        assert calls == []
        assert mon.snapshot() == {}
