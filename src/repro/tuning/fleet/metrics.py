"""Fleet-tuning metrics, recorded into the shared telemetry registry.

Same registry the runtime and the serving gateway report into, so one
telemetry report covers launch counts, serving latency *and* how the
fleet converged on its tuning results.

Metric families:

* ``repro_tuning_fleet_requests_total{mode, op, outcome}`` — cache
  lookups / publishes / lease outcomes (``granted``: measured under the
  lease; ``denied``: adopted or timed out) / waits (``resolved`` /
  ``leased`` / ``timeout``);
* ``repro_tuning_fleet_lease_wait_seconds`` — how long a worker that
  did not win the lease at once waited before adopting or taking it;
* ``repro_tuning_fleet_measurements_total{mode}`` — fleet ``autotune``
  calls that ran the search (the number the fleet exists to minimise);
* ``repro_tuning_fleet_adopted_total{mode}`` — fleet ``autotune`` calls
  that returned a sibling's published result (``strategy="fleet"``)
  instead of measuring.
"""

from __future__ import annotations

from ...telemetry.metrics import registry

__all__ = [
    "record_op",
    "record_lease_wait",
    "record_measurement",
    "record_adopted",
]

#: Lease-wait buckets: one poll interval to a minute.
WAIT_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)


def record_op(mode: str, op: str, outcome: str) -> None:
    registry().counter(
        "repro_tuning_fleet_requests_total",
        "Fleet tuning operations by mode, op and outcome",
        mode=mode,
        op=op,
        outcome=outcome,
    ).inc()


def record_lease_wait(seconds: float) -> None:
    registry().histogram(
        "repro_tuning_fleet_lease_wait_seconds",
        "Time lease losers spent waiting for the winner's result",
        buckets=WAIT_BUCKETS,
    ).observe(seconds)


def record_measurement(mode: str) -> None:
    registry().counter(
        "repro_tuning_fleet_measurements_total",
        "Full tuning measurement runs executed",
        mode=mode,
    ).inc()


def record_adopted(mode: str) -> None:
    registry().counter(
        "repro_tuning_fleet_adopted_total",
        "Tuning results adopted from a sibling instead of measured",
        mode=mode,
    ).inc()

