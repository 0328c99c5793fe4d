"""repro.telemetry — metrics, span profiling and launch analytics.

The always-available observability layer over the Task→Plan→Execute
runtime: every closed span (launch, copy, graph run, queue drain ...)
and every block reaches a :class:`TelemetryCollector` through the two
:class:`~repro.runtime.instrument.ExecutionObserver` hooks and lands in
a metrics registry (counters / gauges / histograms with p50/p95/p99
percentiles, labelled kernel × back-end × device); cache resolutions
are read from the caches' own counts.  Every closed span also becomes
one JSON-ready record in the span log (:mod:`~repro.telemetry.spanlog`),
the one ring that the Chrome ``trace_event`` export (Perfetto /
``chrome://tracing``), the flight recorder and the ops listener's
``/traces`` read.

Three ways in:

* **zero-code** — ``REPRO_TELEMETRY=1 python app.py`` prints the
  report at exit; ``REPRO_TELEMETRY_EXPORT=trace.json`` also writes
  the trace;
* **programmatic** — ::

      from repro import telemetry
      with telemetry.collect() as t:
          enqueue(queue, task)
      print(t.render())

* **CLI** — ``python -m repro.telemetry run|report|export``.

When nothing collects, the hot path pays a single falsy check
(guarded by ``benchmarks/bench_launch_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..runtime.instrument import observe
from ._state import (
    TELEMETRY_ENV,
    TELEMETRY_EXPORT_ENV,
    activate,
    deactivate,
    enabled,
    export_to,
    maybe_activate_from_env,
    session_collector,
)
from .collector import TelemetryCollector
from .export import (
    TraceValidationError,
    to_chrome_trace,
    to_prometheus,
    validate_trace,
    write_chrome_trace,
)
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)
from . import flight, http, spanlog, tracing
from .export import stitch_traces
from .report import render, summary
from .spans import NULL_SPAN, Span, record_span, sim_interval, span
from .tracing import TRACEPARENT_ENV, TraceContext

__all__ = [
    # activation
    "TELEMETRY_ENV",
    "TELEMETRY_EXPORT_ENV",
    "enabled",
    "activate",
    "deactivate",
    "session_collector",
    "maybe_activate_from_env",
    "collect",
    # collector
    "TelemetryCollector",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "registry",
    "reset_registry",
    # spans
    "Span",
    "span",
    "record_span",
    "sim_interval",
    "NULL_SPAN",
    # tracing
    "tracing",
    "TraceContext",
    "TRACEPARENT_ENV",
    # ops surfaces
    "spanlog",
    "flight",
    "http",
    # export / report
    "to_chrome_trace",
    "write_chrome_trace",
    "to_prometheus",
    "validate_trace",
    "stitch_traces",
    "TraceValidationError",
    "export_to",
    "render",
    "summary",
]


@contextmanager
def collect(
    label: str = "",
    record_blocks: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[TelemetryCollector]:
    """Collect telemetry for the duration of a ``with`` block::

        with telemetry.collect() as t:
            enqueue(queue, task)
        print(t.render())
        trace = telemetry.to_chrome_trace(t)

    The yielded collector records into its own private metrics registry
    unless one is passed, so concurrent ``collect()`` blocks do not
    bleed into each other; the block arms the span log, and the
    collector's trace is the log's records closed inside it.
    """
    collector = TelemetryCollector(
        label=label, registry=registry, record_blocks=record_blocks
    )
    spanlog.arm(window=True)
    try:
        with observe(collector):
            yield collector
    finally:
        collector.close()
        spanlog.disarm(window=True)
