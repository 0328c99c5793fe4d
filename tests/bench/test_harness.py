"""Bench harness utilities."""

from types import SimpleNamespace

import pytest

from repro import AccGpuCudaSim, get_dev_by_idx
from repro.bench.harness import (
    REPORT_DIR_ENV,
    measure_wall,
    sim_time_of,
    write_report,
)


class TestMeasureWall:
    def test_returns_positive_time(self):
        t = measure_wall(lambda: sum(range(1000)), repeat=2, warmup=1)
        assert t > 0

    def test_takes_minimum(self, monkeypatch):
        import repro.acc.timing as timing

        # The timing loop reads a fake clock that each call advances.
        clock = {"now": 0.0}
        monkeypatch.setattr(
            timing, "time", SimpleNamespace(perf_counter=lambda: clock["now"])
        )
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            # One slow call among fast ones.
            clock["now"] += 0.05 if calls["n"] == 2 else 0.001

        t = measure_wall(fn, repeat=3, warmup=0)
        assert t == pytest.approx(0.001)  # the slow outlier was discarded

    def test_warmup_counted_separately(self):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1

        measure_wall(fn, repeat=3, warmup=2)
        assert calls["n"] == 5


class TestSimTimeOf:
    def test_captures_delta(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        with sim_time_of(dev) as t:
            dev.advance_sim_time(0.25)
        assert t[0] == pytest.approx(0.25)

    def test_zero_without_work(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        with sim_time_of(dev) as t:
            pass
        assert t[0] == 0.0


class TestWriteReport:
    def test_env_override_and_newline(self, tmp_path, monkeypatch):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        path = write_report("r.txt", "hello")
        assert path == str(tmp_path / "r.txt")
        assert open(path).read() == "hello\n"

    def test_overwrites(self, tmp_path, monkeypatch):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        write_report("r.txt", "one")
        write_report("r.txt", "two")
        assert open(tmp_path / "r.txt").read() == "two\n"
