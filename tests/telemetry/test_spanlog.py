"""The span log: one bounded ring of JSON-ready span records, observing
only while a reader is armed."""

import json

import numpy as np

from repro import AccCpuSerial, WorkDivMembers, fn_acc, get_dev_by_idx, mem
from repro.runtime.instrument import observers
from repro import telemetry
from repro.telemetry import record_span, span, spanlog, tracing
from repro.telemetry.spanlog import SpanLog
from tests.runtime.routes import launch_via


@fn_acc
def _noop(acc, n, out):
    pass


def test_ring_bound():
    """With no collector window open the ring keeps the last TAIL."""
    log = SpanLog()
    assert log.capacity == spanlog.TAIL
    for i in range(spanlog.TAIL + 6):
        log.add({"kind": "tick", "i": i})
    assert log.seq == spanlog.TAIL + 6
    kept = log.recent()
    assert len(kept) == spanlog.TAIL
    assert kept[0]["i"] == 6 and kept[-1]["i"] == spanlog.TAIL + 5
    assert [r["i"] for r in log.recent(2)] == [spanlog.TAIL + 4, spanlog.TAIL + 5]


def test_since_counts_what_the_ring_overwrote():
    log = SpanLog()
    log.add({"kind": "tick", "i": -1})
    start = log.seq
    for i in range(spanlog.TAIL + 2):
        log.add({"kind": "tick", "i": i})
    records, dropped = log.since(start)
    assert dropped == 2 and len(records) == spanlog.TAIL
    assert records[0]["i"] == 2


def test_a_window_keeps_capacity_records_until_it_closes():
    """A collector's window grows the ring to CAPACITY; when the last
    window closes the ring shrinks to its last TAIL records, and the
    closed collector still holds its whole window."""
    log = spanlog.log()
    assert log.capacity == spanlog.TAIL
    n = spanlog.TAIL + 10
    with telemetry.collect() as t:
        assert log.capacity == spanlog.CAPACITY
        for i in range(n):
            spanlog.note("tick", "test", i=i)
        assert len(t.window()[0]) == n
    assert log.capacity == spanlog.TAIL
    assert [r["i"] for r in log.recent(2)] == [n - 2, n - 1]
    records, dropped = t.window()
    assert [r["i"] for r in records] == list(range(n)) and dropped == 0


def test_observes_only_while_a_reader_is_armed():
    assert spanlog.log() not in observers()
    assert record_span("unseen") is None
    spanlog.arm()
    spanlog.arm()
    try:
        assert observers().count(spanlog.log()) == 1
        seq = spanlog.log().seq
        with span("seen", cat="test", answer=42, blob=np.zeros(2)):
            pass
        (rec,) = spanlog.log().since(seq)[0]
        assert rec["kind"] == "seen" and rec["cat"] == "test"
        assert rec["answer"] == 42 and isinstance(rec["blob"], str)
        spanlog.disarm()
        assert spanlog.log() in observers()
    finally:
        spanlog.disarm()
    assert spanlog.log() not in observers()
    spanlog.disarm()  # past zero: no-op
    assert spanlog.log() not in observers()


def test_launch_and_graph_records_are_json_ready():
    dev = get_dev_by_idx(AccCpuSerial, 0)
    out = mem.alloc(dev, 8)
    root = tracing.new_trace()
    spanlog.arm()
    try:
        seq = spanlog.log().seq
        with tracing.use(root):
            launch_via(
                "graph-inline", dev, AccCpuSerial,
                WorkDivMembers.make(1, 1, 8), _noop, 8, out,
            )
        records = spanlog.log().since(seq)[0]
    finally:
        spanlog.disarm()
        out.free()
    by_kind = {r["kind"]: r for r in records}
    launch, graph = by_kind["launch"], by_kind["graph.run"]
    assert launch["kernel"] == "_noop" and launch["backend"] == "AccCpuSerial"
    assert launch["trace_id"] == graph["trace_id"] == root.trace_id
    assert {"work_div", "schedule", "modeled_s", "sim_time_fs"} <= set(launch)
    assert graph["nodes"] == len(graph["node_list"]) == 1
    assert graph["node_list"][0]["kind"] == "kernel"
    json.dumps(records)
