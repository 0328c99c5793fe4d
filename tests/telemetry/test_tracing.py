"""W3C trace-context propagation: traceparent parsing, child spans and
the ambient thread-local context."""

import re
import threading

import pytest

from repro.telemetry import tracing
from repro.telemetry.tracing import (
    TRACEPARENT_ENV,
    TraceContext,
    from_env,
    from_traceparent,
    new_trace,
)


@pytest.fixture(autouse=True)
def _clean_ambient():
    tracing.set_current(None)
    yield
    tracing.set_current(None)


# -- TraceContext -----------------------------------------------------------


def test_new_trace_shape():
    ctx = new_trace()
    assert re.fullmatch(r"[0-9a-f]{32}", ctx.trace_id)
    assert re.fullmatch(r"[0-9a-f]{16}", ctx.span_id)
    assert ctx.parent_id is None


def test_child_keeps_trace_id_and_links_parent():
    root = new_trace()
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    grand = child.child()
    assert grand.parent_id == child.span_id
    assert grand.trace_id == root.trace_id


def test_traceparent_roundtrip_received_span_becomes_parent():
    root = new_trace()
    wire = root.to_traceparent()
    assert re.fullmatch(r"00-[0-9a-f]{32}-[0-9a-f]{16}-01", wire)
    received = from_traceparent(wire)
    # The receiver mints its own span; the sender's span is the parent.
    assert received.trace_id == root.trace_id
    assert received.parent_id == root.span_id
    assert received.span_id != root.span_id


@pytest.mark.parametrize(
    "bad",
    [
        None,
        "",
        "garbage",
        "00-zz-bb-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "xx-" + "a" * 32 + "-" + "b" * 16 + "-01",  # bad version
    ],
)
def test_malformed_traceparent_degrades_to_none(bad):
    assert from_traceparent(bad) is None


def test_ids_dict():
    ctx = TraceContext("a" * 32, "b" * 16, parent_id="c" * 16)
    ids = ctx.ids()
    assert ids["trace_id"] == "a" * 32
    assert ids["span_id"] == "b" * 16
    assert ids["parent_id"] == "c" * 16
    # A root context omits the parent key rather than carrying None.
    assert "parent_id" not in TraceContext("a" * 32, "b" * 16).ids()


def test_from_env(monkeypatch):
    monkeypatch.delenv(TRACEPARENT_ENV, raising=False)
    assert from_env() is None
    root = new_trace()
    monkeypatch.setenv(TRACEPARENT_ENV, root.to_traceparent())
    ctx = from_env()
    assert ctx is not None and ctx.trace_id == root.trace_id
    monkeypatch.setenv(TRACEPARENT_ENV, "not-a-traceparent")
    assert from_env() is None


# -- ambient context --------------------------------------------------------


def test_current_set_current_use():
    assert tracing.current() is None
    ctx = new_trace()
    prev = tracing.set_current(ctx)
    assert prev is None
    assert tracing.current() is ctx
    with tracing.use(None):
        # use(None) is a no-op, not a reset.
        assert tracing.current() is ctx
    other = new_trace()
    with tracing.use(other) as active:
        assert active is other
        assert tracing.current() is other
    assert tracing.current() is ctx
    tracing.set_current(None)


def test_ambient_context_is_thread_local():
    ctx = new_trace()
    tracing.set_current(ctx)
    seen = {}

    def probe():
        seen["other_thread"] = tracing.current()

    t = threading.Thread(target=probe)
    t.start()
    t.join()
    assert seen["other_thread"] is None
    assert tracing.current() is ctx
