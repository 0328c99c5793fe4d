"""The human report and the end-to-end GEMM-on-every-back-end run."""

import pytest

from repro import telemetry
from repro.telemetry.cli import demo_workload
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.export import to_chrome_trace, validate_trace
from repro.telemetry.report import render, summary
from tests.conftest import ALL_BACKENDS

from .conftest import make_noop_task


class TestRender:
    def test_empty_collector_says_so(self):
        text = render(TelemetryCollector())
        assert "repro telemetry report" in text
        assert "No launches recorded." in text

    def test_label_lands_in_title(self):
        text = render(TelemetryCollector(label="my-run"))
        assert "repro telemetry report — my-run" in text

    def test_launch_row_with_percentiles(self, serial_queue):
        with telemetry.collect() as t:
            for _ in range(3):
                serial_queue.enqueue(make_noop_task())
        text = render(t)
        assert "noop_kernel" in text
        assert "AccCpuSerial" in text
        for col in ("launch p50", "block p50", "block p95", "block p99",
                    "occupancy", "modeled/wall"):
            assert col in text

    def test_cache_rate_lines(self, serial_queue):
        with telemetry.collect() as t:
            for _ in range(4):
                serial_queue.enqueue(make_noop_task())
        text = render(t)
        assert "plan-cache hit rate:   75.0 %" in text
        assert "tuning-cache hit rate: -" in text

    def test_span_table_rendered(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task())
        text = render(t)
        assert "Spans" in text
        assert "runtime/plan.build" in text

    def test_dropped_events_warning(self):
        with telemetry.collect() as t:
            for _ in range(telemetry.spanlog.CAPACITY + 1):
                telemetry.record_span("tick", 0.0, 0.0)
        assert "WARNING: span log wrapped — 1 record(s)" in render(t)

    def test_collector_render_delegates(self, serial_queue):
        with telemetry.collect() as t:
            serial_queue.enqueue(make_noop_task())
        assert t.render() == render(t)


class TestSummary:
    def test_summary_keys_and_counts(self, serial_queue):
        with telemetry.collect() as t:
            for _ in range(2):
                serial_queue.enqueue(make_noop_task())
        s = summary(t)
        assert s["launches"] == 2
        assert s["plan_cache_hit_rate"] == pytest.approx(0.5)
        assert s["sanitizer_findings"] == 0
        assert s["dropped_events"] == 0
        # One plan build, then a launch and a queue drain per enqueue.
        assert s["trace_events"] == len(t.window()[0]) == 5


class TestGemmEveryBackend:
    """The acceptance-criterion run: one GEMM workload per registered
    back-end, one report carrying percentiles and cache rates, one
    Perfetto-loadable trace."""

    @pytest.fixture(scope="class")
    def gemm_run(self):
        from repro import clear_plan_cache

        clear_plan_cache()
        with telemetry.collect(label="gemm-all-backends") as t:
            demo_workload(n=16, repeats=2)
        return t

    def test_every_backend_has_a_launch_row(self, gemm_run):
        text = render(gemm_run)
        assert "GemmTilingKernel" in text
        for backend in ALL_BACKENDS:
            assert backend in text, f"no report row for {backend}"

    def test_block_percentiles_populated_per_backend(self, gemm_run):
        for backend in ALL_BACKENDS:
            hists = [
                i for i in gemm_run.registry.instruments("repro_block_seconds")
                if dict(i.labels).get("backend") == backend
            ]
            assert hists, f"no block latencies for {backend}"
            q = hists[0].quantiles()
            assert q["p50"] > 0.0
            assert q["p50"] <= q["p95"] <= q["p99"]

    def test_cache_rates_measured(self, gemm_run):
        # repeats=2 per back-end: at least one plan-cache hit each.
        assert gemm_run.plan_cache_hit_rate is not None
        assert gemm_run.plan_cache_hit_rate >= 0.5

    def test_copies_and_launch_counts(self, gemm_run):
        s = summary(gemm_run)
        assert s["launches"] == 2 * len(ALL_BACKENDS)
        assert s["copies"] >= 4 * len(ALL_BACKENDS)

    def test_trace_is_perfetto_loadable(self, gemm_run):
        trace = validate_trace(to_chrome_trace(gemm_run))
        launches = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "launch"
        ]
        assert len(launches) == 2 * len(ALL_BACKENDS)
        backends = {e["args"]["backend"] for e in launches}
        assert backends == set(ALL_BACKENDS)
