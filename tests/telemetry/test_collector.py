"""TelemetryCollector: observer hooks → metrics, and its span-log window."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    AccCpuSerial,
    AccGpuCudaSim,
    QueueBlocking,
    QueueNonBlocking,
    WorkDivMembers,
    create_task_kernel,
    get_dev_by_idx,
    mem,
    telemetry,
)
from repro.kernels.axpy import AxpyKernel
from repro.telemetry import spanlog
from repro.telemetry.collector import TelemetryCollector

from .conftest import make_noop_task, noop_kernel


def _value(collector, metric, **labels):
    for inst in collector.registry.instruments(metric):
        have = dict(inst.labels)
        if all(have.get(k) == v for k, v in labels.items()):
            return inst
    return None


def _events(collector):
    return telemetry.to_chrome_trace(collector)["traceEvents"]


def _launch_n(queue, task, n):
    for _ in range(n):
        queue.enqueue(task)


class TestLaunchMetrics:
    def test_launch_counter_and_labels(self, serial_queue):
        task = make_noop_task()
        with telemetry.collect() as t:
            _launch_n(serial_queue, task, 3)
        inst = _value(t, "repro_launches_total", kernel="noop_kernel")
        assert inst is not None and inst.value == 3
        labels = dict(inst.labels)
        assert labels["backend"] == "AccCpuSerial"
        assert labels["device"]

    def test_launch_latency_histogram(self, serial_queue):
        with telemetry.collect() as t:
            _launch_n(serial_queue, make_noop_task(), 4)
        h = _value(t, "repro_launch_seconds", kernel="noop_kernel")
        assert h.count == 4
        assert h.sum > 0.0
        assert h.percentile(50) > 0.0

    def test_plan_cache_hit_rate(self, serial_queue):
        with telemetry.collect() as t:
            assert t.plan_cache_hit_rate is None
            _launch_n(serial_queue, make_noop_task(), 5)
        assert t.plan_cache_hit_rate == pytest.approx(0.8)

    def test_block_latencies_recorded(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task(blocks=6))
        h = _value(t, "repro_block_seconds", kernel="noop_kernel")
        assert h.count == 6
        assert h.quantiles()["p95"] >= 0.0

    def test_occupancy_observed_per_launch(self, serial_queue):
        with telemetry.collect() as t:
            _launch_n(serial_queue, make_noop_task(), 2)
        occ = _value(t, "repro_occupancy_ratio", backend="AccCpuSerial")
        assert occ.count == 2
        assert 0.0 < occ.mean <= 1.0

    def test_pooled_occupancy_at_least_sequential(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        with telemetry.collect() as t:
            q.enqueue(make_noop_task(AccCpuOmp2Blocks, blocks=64))
        occ = _value(t, "repro_occupancy_ratio", backend="AccCpuOmp2Blocks")
        assert occ.count == 1
        assert occ.mean > 0.0

    def test_modeled_seconds_accumulate_for_modeled_kernel(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueBlocking(dev)
        n = 64
        x = mem.alloc(dev, n)
        y = mem.alloc(dev, n)
        q_host = np.ones(n)
        mem.copy(q, x, q_host)
        mem.copy(q, y, q_host)
        task = create_task_kernel(
            AccGpuCudaSim, WorkDivMembers.make(n, 1, 1),
            AxpyKernel(), n, 2.0, x, y,
        )
        with telemetry.collect() as t:
            q.enqueue(task)
        modeled = _value(
            t, "repro_launch_modeled_seconds_total", backend="AccGpuCudaSim"
        )
        wall = _value(
            t, "repro_launch_wall_seconds_total", backend="AccGpuCudaSim"
        )
        assert modeled.value > 0.0
        assert wall.value > 0.0
        x.free()
        y.free()

    def test_launch_trace_event_emitted(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task())
        launches = [e for e in _events(t) if e.get("cat") == "launch"]
        assert len(launches) == 1
        ev = launches[0]
        assert ev["ph"] == "X"
        assert ev["dur"] >= 0.0
        assert ev["args"]["backend"] == "AccCpuSerial"
        assert "work_div" in ev["args"] and "schedule" in ev["args"]


class TestAuxiliaryHooks:
    def test_copies_counted_by_kind(self, serial_queue):
        dev = serial_queue.dev
        buf = mem.alloc(dev, 8)
        with telemetry.collect() as t:
            mem.memset(serial_queue, buf, 0.0)
            mem.copy(serial_queue, buf, np.ones(8))
        assert _value(t, "repro_copies_total", kind="TaskMemset").value == 1
        assert _value(t, "repro_copies_total", kind="TaskCopy").value == 1
        buf.free()

    def test_queue_drains_counted(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        with telemetry.collect() as t:
            q.enqueue(lambda: None)
            q.wait()
        drains = _value(t, "repro_queue_drains_total")
        assert drains is not None and drains.value >= 1
        q.destroy()

    def test_tuning_cache_hook_rate(self):
        """Read from ``auto_divide``'s own counts: one tuned division
        served, one heuristic fallback."""
        from repro.tuning import auto_divide

        dev = get_dev_by_idx(AccCpuSerial, 0)
        answers = iter([SimpleNamespace(work_div=WorkDivMembers.make(4, 1, 4)), None])
        cache = SimpleNamespace(get=lambda *key: next(answers))
        with telemetry.collect() as t:
            for _ in range(2):
                auto_divide(
                    16, AccCpuSerial.get_acc_dev_props(dev), kernel=noop_kernel,
                    acc_type=AccCpuSerial, device=dev, cache=cache,
                )
        assert t.tuning_cache_hit_rate == pytest.approx(0.5)

    def test_tuning_cache_none_before_any_auto_launch(self):
        t = TelemetryCollector()
        assert t.tuning_cache_hit_rate is None

    def test_auto_workdiv_launch_notifies_tuning_cache(self, serial_queue):
        from repro import AutoWorkDiv

        task = create_task_kernel(AccCpuSerial, AutoWorkDiv(16), noop_kernel)
        with telemetry.collect() as t:
            serial_queue.enqueue(task)
        total = sum(
            i.value for i in t.registry.instruments("repro_tuning_cache_total")
        )
        assert total >= 1
        assert t.tuning_cache_hit_rate is not None

    def test_sanitizer_report_hook(self):
        """A sanitized launch's finding count, read off its launch
        span."""
        from repro.sanitize.demos import run_demo

        with telemetry.collect() as t:
            report = run_demo("racy-gemm", "AccCpuThreads")
        findings = len(report.launches[0].findings)
        inst = _value(t, "repro_sanitizer_findings_total")
        assert inst.value == findings > 0
        assert dict(inst.labels) == {
            "kernel": "RacyTiledGemmKernel", "backend": "AccCpuThreads",
        }
        (launch,) = [e for e in _events(t) if e.get("cat") == "launch"]
        assert launch["args"]["sanitize_findings"] == findings

    def test_span_end_records_histogram_and_event(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task())
            mem.memset(serial_queue, mem.alloc(serial_queue.dev, 4), 0.0)
        spans = [
            dict(i.labels)["span"]
            for i in t.registry.instruments("repro_span_seconds")
        ]
        assert "mem.memset" in spans
        assert any(e.get("cat") == "mem" for e in _events(t))


class TestEventBuffer:
    def test_bounded_buffer_counts_drops(self):
        """The span log keeps the last CAPACITY records; a window it
        wrapped says how many it lost."""
        extra = 3
        with telemetry.collect() as t:
            for _ in range(spanlog.CAPACITY + extra):
                telemetry.record_span("tick", 0.0, 0.0)
        records, dropped = t.window()
        assert len(records) == spanlog.CAPACITY
        assert dropped == t.dropped_events == extra
        trace = telemetry.to_chrome_trace(t)
        assert trace["otherData"]["dropped_events"] == extra

    def test_record_blocks_emits_block_events(self, serial_queue):
        with telemetry.collect(record_blocks=True) as t:
            serial_queue.enqueue(make_noop_task(blocks=5))
        blocks = [e for e in _events(t) if e.get("cat") == "block"]
        assert len(blocks) == 5
        assert all(e["ph"] == "X" for e in blocks)

    def test_blocks_not_traced_by_default(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task(blocks=5))
        assert not [e for e in _events(t) if e.get("cat") == "block"]

    def test_block_events_stay_in_the_window_that_asked(self, serial_queue):
        """Block records carry their collector: a window open beside a
        block-tracing one sees the launch, not the blocks."""
        with telemetry.collect() as plain:
            with telemetry.collect(record_blocks=True) as blocks:
                serial_queue.enqueue(make_noop_task(blocks=5))
        cats = [e.get("cat") for e in _events(plain)]
        assert "launch" in cats and "block" not in cats
        block_events = [e for e in _events(blocks) if e.get("cat") == "block"]
        assert len(block_events) == 5
        assert all("collector" not in e["args"] for e in block_events)

    def test_window_ends_when_the_block_exits(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task())
        with telemetry.collect():
            serial_queue.enqueue(make_noop_task())
        assert [r["kind"] for r in t.window()[0]] == [
            "plan.build", "launch", "queue.drain",
        ]


class TestIsolationAndQueries:
    def test_collect_blocks_use_private_registries(self, serial_queue):
        task = make_noop_task()
        with telemetry.collect() as a:
            serial_queue.enqueue(task)
        with telemetry.collect() as b:
            pass
        assert _value(a, "repro_launches_total") is not None
        assert _value(b, "repro_launches_total") is None
        assert a.registry is not b.registry

    def test_shared_registry_when_passed(self, serial_queue):
        from repro.telemetry.metrics import MetricsRegistry

        reg = MetricsRegistry()
        with telemetry.collect(registry=reg) as t:
            serial_queue.enqueue(make_noop_task())
        assert t.registry is reg
        assert len(reg) > 0

    def test_kernels_returns_label_triples(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task())
        triples = t.kernels()
        assert len(triples) == 1
        kernel, backend, device = triples[0]
        assert kernel == "noop_kernel"
        assert backend == "AccCpuSerial"

    def test_repr_mentions_label_and_counts(self):
        t = TelemetryCollector(label="unit")
        assert "unit" in repr(t)
