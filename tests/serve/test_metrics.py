"""Serving metrics record through instruments resolved once per label
set (``MetricsRegistry`` keeps the handle a call site asked for), and
into whichever registry is the process's current one."""

from __future__ import annotations

import pytest

from repro.serve.metrics import record_admission, record_batch, record_completion
from repro.telemetry.metrics import registry, reset_registry


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


def _value(reg, name, **labels):
    (inst,) = [
        i for i in reg.instruments(name)
        if dict(i.labels) == {k: str(v) for k, v in labels.items()}
    ]
    return inst


def test_repeated_records_look_nothing_up(monkeypatch):
    import repro.telemetry.metrics as metrics

    record_completion("alice", 0.001, True)
    record_admission("alice", "queued", 1)
    record_batch(2, "AccCpuSerial/0", 0.0)

    def no_lookup(*args, **kwargs):
        raise AssertionError("an instrument was looked up again")

    monkeypatch.setattr(metrics, "_labels_key", no_lookup)
    for _ in range(3):
        record_completion("alice", 0.001, True)
        record_admission("alice", "queued", 2)
        record_batch(2, "AccCpuSerial/0", 0.0)
    monkeypatch.undo()
    reg = registry()
    assert _value(reg, "repro_serve_requests_total", tenant="alice", outcome="completed").value == 4
    assert _value(reg, "repro_serve_requests_total", tenant="alice", outcome="queued").value == 4
    assert _value(reg, "repro_serve_queue_depth", tenant="alice").value == 2
    assert _value(reg, "repro_serve_latency_seconds", tenant="alice").count == 4
    assert _value(reg, "repro_serve_batch_size", lane="AccCpuSerial/0").count == 4


def test_a_new_label_set_gets_its_own_instruments():
    record_completion("alice", 0.001, True)
    record_completion("alice", 0.001, False)
    record_completion("bob", 0.001, True)
    reg = registry()
    assert _value(reg, "repro_serve_requests_total", tenant="alice", outcome="completed").value == 1
    assert _value(reg, "repro_serve_requests_total", tenant="alice", outcome="failed").value == 1
    assert _value(reg, "repro_serve_requests_total", tenant="bob", outcome="completed").value == 1
    assert _value(reg, "repro_serve_latency_seconds", tenant="alice").count == 2


@pytest.mark.parametrize("replace", ["reset_registry", "clear"])
def test_a_replaced_registry_gets_fresh_instruments(replace):
    record_completion("alice", 0.001, True)
    old = registry()
    if replace == "clear":
        old.clear()
        new = old
    else:
        new = reset_registry()
        assert new is not old
    record_completion("alice", 0.002, True)
    counter = _value(new, "repro_serve_requests_total", tenant="alice", outcome="completed")
    assert counter.value == 1
    assert _value(new, "repro_serve_latency_seconds", tenant="alice").count == 1
