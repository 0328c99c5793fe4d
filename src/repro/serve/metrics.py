"""Per-tenant serving metrics, recorded into the telemetry registry.

The gateway reports through the same
:class:`repro.telemetry.metrics.MetricsRegistry` the runtime uses, so
one Prometheus scrape (or one telemetry report) covers both the kernel
runtime and the serving layer.  The label axes extend the canonical
``kernel x backend x device`` set with **tenant** — the dimension the
fair-share scheduler is accountable for.

Metric families:

* ``repro_serve_requests_total{tenant, outcome}`` — queued / rejected /
  completed / failed / cancelled admission outcomes;
* ``repro_serve_queue_depth{tenant}`` — current admission queue depth;
* ``repro_serve_batch_size{lane}`` — merged-launch occupancy distribution;
* ``repro_serve_batch_hold_seconds{lane}`` — how long each batch sat in the
  batcher between opening and flushing (zero-ish for a key without
  company, up to ``batch_window`` for one with);
* ``repro_serve_latency_seconds{tenant}`` — submit-to-result wall
  latency;
* ``repro_serve_retry_delay_seconds`` — backpressure delays suggested
  to clients.
"""

from __future__ import annotations

from typing import Optional

from ..telemetry.metrics import registry

__all__ = [
    "record_admission",
    "record_completion",
    "record_completions",
    "record_batch",
    "record_retry_delay",
]

#: Batch occupancy buckets: 1..batch_max in powers of two.
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def record_admission(tenant: str, outcome: str, depth: Optional[int] = None) -> None:
    reg = registry()
    reg.counter(
        "repro_serve_requests_total",
        "Serving requests by admission outcome",
        tenant=tenant,
        outcome=outcome,
    ).inc()
    if depth is not None:
        reg.gauge(
            "repro_serve_queue_depth",
            "Admission queue depth per tenant",
            tenant=tenant,
        ).set(depth)


def record_completion(tenant: str, latency: float, ok: bool) -> None:
    record_completions(tenant, (latency,), ok)


def record_completions(tenant: str, latencies, ok: bool) -> None:
    """One batch's requests of ``tenant`` finished, with ``latencies``."""
    reg = registry()
    reg.counter(
        "repro_serve_requests_total",
        "Serving requests by admission outcome",
        tenant=tenant,
        outcome="completed" if ok else "failed",
    ).inc(len(latencies))
    histogram = reg.histogram(
        "repro_serve_latency_seconds",
        "Submit-to-result latency per tenant",
        tenant=tenant,
    )
    for latency in latencies:
        histogram.observe(latency)


def record_batch(size: int, lane: str, hold: float) -> None:
    reg = registry()
    reg.histogram(
        "repro_serve_batch_size",
        "Requests merged per launched batch",
        buckets=BATCH_BUCKETS,
        lane=lane,
    ).observe(float(size))
    reg.histogram(
        "repro_serve_batch_hold_seconds",
        "Seconds a batch was parked in the batcher before launch",
        lane=lane,
    ).observe(hold)


def record_retry_delay(delay: float) -> None:
    registry().histogram(
        "repro_serve_retry_delay_seconds",
        "Backpressure delays suggested to clients",
    ).observe(delay)
