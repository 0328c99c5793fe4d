"""Crash flight recorder: the span log's last records, crash/sanitizer/poison dumps."""

import json
import os
import time

import numpy as np
import pytest

from repro import (
    AccCpuSerial,
    QueueBlocking,
    WorkDivMembers,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    knobs,
    mem,
)
from repro.telemetry import flight, tracing
from repro.telemetry.flight import FLIGHT_ENV
from tests.runtime.routes import ROUTES, launch_via


@pytest.fixture()
def rec(tmp_path):
    recorder = flight.activate(str(tmp_path))
    yield recorder
    flight.deactivate()


@pytest.fixture(autouse=True)
def _always_deactivate():
    yield
    flight.deactivate()
    tracing.set_current(None)


def test_inactive_by_default():
    assert flight.active() is False
    assert flight.recorder() is None
    flight.maybe_record("noop", detail=1)  # must not raise


def test_ring_is_bounded(rec):
    for i in range(flight.RING_CAPACITY + 50):
        flight.maybe_record("tick", i=i)
    events = rec.events()
    assert len(events) == flight.RING_CAPACITY
    assert events[-1]["i"] == flight.RING_CAPACITY + 49
    assert events[0]["i"] == 50


def test_record_stamps_pid_time_and_trace(rec):
    ctx = tracing.new_trace()
    before = time.time()
    with tracing.use(ctx):
        flight.maybe_record("probe", detail="x")
    ev = rec.events()[-1]
    assert ev["kind"] == "probe"
    assert before <= ev["ts"] <= time.time()
    assert ev["trace_id"] == ctx.trace_id
    assert ev["detail"] == "x"
    with open(rec.dump("unit_test")) as fh:
        assert json.load(fh)["pid"] == os.getpid()


def test_dump_writes_ring_atomically(rec, tmp_path):
    flight.maybe_record("one")
    flight.maybe_record("two")
    path = rec.dump("unit_test", error="synthetic")
    assert path is not None and os.path.exists(path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["reason"] == "unit_test"
    assert payload["error"] == "synthetic"
    assert payload["event_count"] == 2
    assert [e["kind"] for e in payload["events"]] == ["one", "two"]
    assert payload["config"] == json.loads(json.dumps(knobs.effective()))
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_activate_idempotent(tmp_path):
    a = flight.activate(str(tmp_path))
    b = flight.activate(str(tmp_path / "other"))
    assert a is b
    flight.deactivate()
    assert flight.active() is False


def test_env_activation(tmp_path, monkeypatch):
    monkeypatch.delenv(FLIGHT_ENV, raising=False)
    assert flight.maybe_activate_from_env() is None
    monkeypatch.setenv(FLIGHT_ENV, str(tmp_path))
    recorder = flight.maybe_activate_from_env()
    assert recorder is not None and flight.active()
    flight.deactivate()


@fn_acc
def _crashing(acc, n, out):
    raise ValueError("seeded crash")


@fn_acc
def _noop(acc, n, out):
    pass


def test_kernel_crash_dumps_flight_file(rec, tmp_path):
    dev = get_dev_by_idx(AccCpuSerial, 0)
    queue = QueueBlocking(dev)
    out = mem.alloc(dev, 8)
    task = create_task_kernel(
        AccCpuSerial, WorkDivMembers.make(1, 1, 8), _crashing, 8, out
    )
    with pytest.raises(Exception):
        queue.enqueue(task)
    dumps = [p for p in os.listdir(tmp_path) if p.startswith("flight-")]
    assert dumps, "kernel crash produced no flight dump"
    with open(tmp_path / dumps[0]) as fh:
        payload = json.load(fh)
    assert payload["reason"] == "kernel_crash"
    kinds = [e["kind"] for e in payload["events"]]
    # The ring captured the approach to the crash, not just the crash:
    # the failed launch closed (with its error) before the dump.
    launches = [e for e in payload["events"] if e["kind"] == "launch"]
    assert launches and launches[-1]["error"] == "KernelError"
    assert kinds.index("launch") < kinds.index("kernel_crash")


@pytest.mark.parametrize("route", ROUTES)
def test_kernel_crash_dumps_once_on_every_route(rec, tmp_path, route):
    """One Execute stage, one crash path: the dump does not depend on
    how the launch got there."""
    dev = get_dev_by_idx(AccCpuSerial, 0)
    out = mem.alloc(dev, 8)
    with pytest.raises(Exception, match="_crashing|seeded crash") as err:
        launch_via(
            route, dev, AccCpuSerial, WorkDivMembers.make(1, 1, 8), _crashing, 8, out
        )
    reasons = []
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name) as fh:
            reasons.append(json.load(fh)["reason"])
    assert reasons == ["kernel_crash"], (route, err.value)
    assert [e["kind"] for e in rec.events()].count("kernel_crash") == 1
    out.free()


def test_launches_recorded_while_active(rec):
    dev = get_dev_by_idx(AccCpuSerial, 0)
    queue = QueueBlocking(dev)
    x = mem.alloc(dev, 16)
    mem.copy(queue, x, np.zeros(16))
    kinds = [e["kind"] for e in rec.events()]
    assert kinds == ["mem.copy", "queue.drain"]


def test_dump_leaves_block_records_out(rec):
    """A block-traced grid must not push the launches out of a dump."""
    from repro import telemetry

    dev = get_dev_by_idx(AccCpuSerial, 0)
    out = mem.alloc(dev, 8)
    blocks = flight.RING_CAPACITY + 8
    with telemetry.collect(record_blocks=True) as t:
        QueueBlocking(dev).enqueue(
            create_task_kernel(
                AccCpuSerial, WorkDivMembers.make(blocks, 1, 1), _noop, 8, out
            )
        )
    assert sum(r["cat"] == "block" for r in t.window()[0]) == blocks
    kinds = [e["kind"] for e in rec.events()]
    assert "launch" in kinds
    assert not [e for e in rec.events() if e["cat"] == "block"]
    out.free()


def test_span_events_hold_only_json_ready_values(rec):
    """A launch span carries its plan and a graph run its stats; the
    ring keeps neither (a plan memoises its last argument tuple)."""
    dev = get_dev_by_idx(AccCpuSerial, 0)
    out = mem.alloc(dev, 8)
    root = tracing.new_trace()
    with tracing.use(root):
        launch_via(
            "graph-inline", dev, AccCpuSerial, WorkDivMembers.make(1, 1, 8),
            _noop, 8, out,
        )
    events = {e["kind"]: e for e in rec.events()}
    assert {"launch", "graph.run"} <= set(events)
    launch = events["launch"]
    assert launch["cat"] == "launch" and launch["error"] is None
    assert launch["trace_id"] == root.trace_id
    assert launch["device"] == dev.name
    assert "plan" not in launch and "stats" not in events["graph.run"]
    json.dumps(rec.events())
    out.free()


def test_queue_poison_dump(rec, tmp_path):
    class FakeDev:
        name = "fake-dev"

    class FakeQueue:
        dev = FakeDev()

    flight.on_queue_poisoned(FakeQueue(), RuntimeError("task exploded"))
    dumps = [p for p in os.listdir(tmp_path) if p.startswith("flight-")]
    assert len(dumps) == 1
    with open(tmp_path / dumps[0]) as fh:
        payload = json.load(fh)
    assert payload["reason"] == "queue_poisoned"
    assert "task exploded" in payload["error"]


def test_sanitizer_findings_dump(rec, tmp_path):
    """The third trigger: a sanitized launch with findings dumps once."""
    from repro.sanitize.demos import run_demo

    report = run_demo("racy-gemm", "AccCpuThreads")
    assert report.counts_by_kind().get("data-race", 0) > 0
    dumps = [p for p in os.listdir(tmp_path) if p.startswith("flight-")]
    assert len(dumps) == 1, dumps
    with open(tmp_path / dumps[0]) as fh:
        payload = json.load(fh)
    assert payload["reason"] == "sanitizer_findings"
    assert "RacyTiledGemmKernel" in payload["error"]


def test_crash_hooks_never_raise_when_inactive():
    flight.on_kernel_crash(None, RuntimeError("x"))
    flight.on_queue_poisoned(None, RuntimeError("x"))
