"""Chrome trace and Prometheus exporters, plus trace validation."""

import json

import pytest

from repro import telemetry
from repro.telemetry.export import (
    TRACE_PID,
    TraceValidationError,
    to_chrome_trace,
    to_prometheus,
    validate_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry

from .conftest import make_noop_task


@pytest.fixture
def collected(serial_queue):
    with telemetry.collect(label="export-test") as t:
        for _ in range(2):
            serial_queue.enqueue(make_noop_task())
    return t


class TestChromeTrace:
    def test_first_event_is_process_metadata(self, collected):
        trace = to_chrome_trace(collected)
        meta = trace["traceEvents"][0]
        assert meta["ph"] == "M"
        assert meta["name"] == "process_name"
        assert "export-test" in meta["args"]["name"]

    def test_complete_events_carry_duration(self, collected):
        trace = to_chrome_trace(collected)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert xs, "expected launch slices"
        for ev in xs:
            assert ev["dur"] >= 0.0
            assert ev["ts"] >= 0.0
            assert ev["pid"] == TRACE_PID
            assert isinstance(ev["tid"], int)

    def test_trace_validates_and_roundtrips_json(self, collected):
        trace = to_chrome_trace(collected)
        assert validate_trace(trace) is trace
        assert validate_trace(json.dumps(trace))["displayTimeUnit"] == "ms"

    def test_dropped_events_reported_in_other_data(self, collected):
        trace = to_chrome_trace(collected)
        assert trace["otherData"]["dropped_events"] == 0

    def test_write_chrome_trace_produces_loadable_file(
        self, collected, tmp_path
    ):
        path = tmp_path / "trace.json"
        assert write_chrome_trace(collected, str(path)) == str(path)
        with open(path) as fh:
            loaded = json.load(fh)
        validate_trace(loaded)
        assert loaded["otherData"]["exporter"] == "repro.telemetry"


class TestTraceValidation:
    def _trace(self, **overrides):
        ev = {
            "name": "k", "ph": "X", "ts": 1.0, "dur": 2.0,
            "pid": 1, "tid": 2, "args": {},
        }
        ev.update(overrides)
        return {"traceEvents": [ev]}

    def test_accepts_minimal_valid_trace(self):
        validate_trace(self._trace())

    def test_rejects_non_object_top_level(self):
        with pytest.raises(TraceValidationError, match="top level"):
            validate_trace([1, 2])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(TraceValidationError, match="traceEvents"):
            validate_trace({})

    def test_rejects_invalid_json_string(self):
        with pytest.raises(TraceValidationError, match="JSON"):
            validate_trace("{not json")

    def test_rejects_unknown_phase(self):
        with pytest.raises(TraceValidationError, match="phase"):
            validate_trace(self._trace(ph="Z"))

    def test_rejects_missing_name(self):
        with pytest.raises(TraceValidationError, match="name"):
            validate_trace(self._trace(name=""))

    def test_rejects_negative_timestamp(self):
        with pytest.raises(TraceValidationError, match="ts"):
            validate_trace(self._trace(ts=-1.0))

    def test_rejects_bad_duration(self):
        with pytest.raises(TraceValidationError, match="dur"):
            validate_trace(self._trace(dur=None))

    def test_rejects_non_integer_tid(self):
        with pytest.raises(TraceValidationError, match="tid"):
            validate_trace(self._trace(tid="worker-1"))

    def test_rejects_non_object_args(self):
        with pytest.raises(TraceValidationError, match="args"):
            validate_trace(self._trace(args=[1]))

    def test_rejects_unserialisable_payload(self):
        with pytest.raises(TraceValidationError, match="serialisable"):
            validate_trace(self._trace(args={"bad": object()}))

    def test_metadata_events_need_no_timestamp(self):
        validate_trace(
            {"traceEvents": [{"name": "process_name", "ph": "M", "args": {}}]}
        )


class TestPrometheus:
    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_counter_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_launches_total", "kernel launches",
                    kernel="gemm").inc(3)
        text = to_prometheus(reg)
        assert "# HELP repro_launches_total kernel launches" in text
        assert "# TYPE repro_launches_total counter" in text
        assert 'repro_launches_total{kernel="gemm"} 3' in text

    def test_gauge_exposition(self):
        reg = MetricsRegistry()
        reg.gauge("repro_depth").set(2.5)
        text = to_prometheus(reg)
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2.5" in text

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0), backend="serial")
        for v in (0.0625, 0.5, 5.0):
            h.observe(v)
        text = to_prometheus(reg)
        assert 'lat_bucket{backend="serial",le="0.1"} 1' in text
        assert 'lat_bucket{backend="serial",le="1"} 2' in text
        assert 'lat_bucket{backend="serial",le="+Inf"} 3' in text
        assert 'lat_sum{backend="serial"} 5.5625' in text
        assert 'lat_count{backend="serial"} 3' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", kernel='we"ird\\name').inc()
        text = to_prometheus(reg)
        assert 'kernel="we\\"ird\\\\name"' in text

    def test_collected_registry_exports_cleanly(self, collected):
        text = to_prometheus(collected.registry)
        assert "repro_launches_total" in text
        assert "repro_launch_seconds_bucket" in text
        assert "repro_plan_cache_total" in text
        assert text.endswith("\n")
