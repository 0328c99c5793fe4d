"""Span lifecycle, the NULL_SPAN fast path, and sim_interval."""

import pytest

from repro import AccGpuCudaSim, ExecutionObserver, get_dev_by_idx, observe
from repro.runtime.instrument import observers
from repro.telemetry.spans import NULL_SPAN, Span, sim_interval, span


class _Recorder(ExecutionObserver):
    def __init__(self):
        self.ends = []

    def on_span_end(self, s):
        self.ends.append(s)


class TestNullSpanFastPath:
    def test_unobserved_returns_the_shared_null_span(self):
        assert not observers()
        assert span("launch") is NULL_SPAN
        assert span("other", cat="mem") is NULL_SPAN

    def test_null_span_is_a_noop_context_manager(self):
        with NULL_SPAN as inner:
            assert inner is None

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_SPAN:
                raise RuntimeError("boom")

    def test_observed_returns_a_real_span(self):
        with observe(_Recorder()):
            s = span("launch")
            assert isinstance(s, Span)
            assert s is not NULL_SPAN


class TestSpanLifecycle:
    def test_begin_and_end_reach_observers(self):
        """Observers hear of a span once, when it closes."""
        rec = _Recorder()
        with observe(rec):
            with span("work", cat="test") as s:
                assert rec.ends == []
        assert rec.ends == [s]

    def test_wall_duration_and_closed(self):
        rec = _Recorder()
        with observe(rec):
            with span("work") as s:
                assert not s.closed
                assert s.wall_s == 0.0
        assert s.closed
        assert s.wall_s >= 0.0
        assert s.t1 >= s.t0 > 0.0

    def test_error_recorded_and_exception_propagates(self):
        rec = _Recorder()
        with observe(rec):
            with pytest.raises(ValueError):
                with span("work") as s:
                    raise ValueError("bad")
        assert s.error == "ValueError"
        assert s.closed
        assert rec.ends == [s]

    def test_clean_span_has_no_error(self):
        with observe(_Recorder()):
            with span("work") as s:
                pass
        assert s.error is None

    def test_attrs_cat_and_thread_recorded(self):
        import threading

        with observe(_Recorder()):
            with span("copy", cat="mem", kind="TaskCopy", bytes=64) as s:
                pass
        assert s.cat == "mem"
        assert s.attrs == {"kind": "TaskCopy", "bytes": 64}
        assert s.thread_id == threading.get_ident()

    def test_span_ids_are_unique(self):
        with observe(_Recorder()):
            ids = {span(f"s{i}").span_id for i in range(5)}
        assert len(ids) == 5

    def test_nested_spans_order(self):
        rec = _Recorder()
        with observe(rec):
            with span("outer") as a:
                with span("inner") as b:
                    pass
        assert rec.ends == [b, a]


class TestSimClockCapture:
    def test_device_span_captures_modeled_seconds(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        with observe(_Recorder()):
            with span("launch", device=dev) as s:
                dev.advance_sim_time(2.5e-6)
        assert s.sim_s == pytest.approx(2.5e-6)

    def test_span_without_device_has_zero_sim(self):
        with observe(_Recorder()):
            with span("launch") as s:
                pass
        assert s.sim_s == 0.0

    def test_sim_interval_measures_exact_interval(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        with sim_interval(dev) as t:
            assert t[0] == 0.0
            dev.advance_sim_time(3e-6)
        assert t[0] == pytest.approx(3e-6)

    def test_sim_interval_records_even_on_exception(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        with pytest.raises(RuntimeError):
            with sim_interval(dev) as t:
                dev.advance_sim_time(1e-6)
                raise RuntimeError("boom")
        assert t[0] == pytest.approx(1e-6)

    def test_bench_sim_time_of_delegates_here(self):
        from repro.bench.harness import sim_time_of

        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        with sim_time_of(dev) as t:
            dev.advance_sim_time(4e-6)
        assert t[0] == pytest.approx(4e-6)
