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
  instead of measuring;
* ``repro_tuning_fleet_drift_total{workload, outcome}`` — drift-test
  verdicts (``detected`` / ``retuned`` / ``cooldown``);
* ``repro_tuning_fleet_retune_seconds`` — background re-tune durations;
* ``repro_tuning_drift_retunes_total{workload, outcome}`` — what each
  triggered re-tune actually *did* (``triggered`` / ``completed`` /
  ``reverted`` / ``failed`` / ``no_target``);
* ``repro_tuning_drift_predicted_seconds{workload, which}`` — the
  old-division vs new-division predicted seconds of the latest re-tune
  (``which="old"`` / ``"new"``), so a dashboard can show whether the
  re-tune bought anything.
"""

from __future__ import annotations

from typing import Optional

from ...telemetry.metrics import registry

__all__ = [
    "record_op",
    "record_lease_wait",
    "record_measurement",
    "record_adopted",
    "record_drift",
    "record_retune_seconds",
    "record_retune_outcome",
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


def record_drift(workload: str, outcome: str) -> None:
    registry().counter(
        "repro_tuning_fleet_drift_total",
        "Drift-test verdicts per workload",
        workload=workload,
        outcome=outcome,
    ).inc()


def record_retune_seconds(seconds: float) -> None:
    registry().histogram(
        "repro_tuning_fleet_retune_seconds",
        "Background re-tune durations",
    ).observe(seconds)


def record_retune_outcome(
    workload: str,
    outcome: str,
    old_seconds: Optional[float] = None,
    new_seconds: Optional[float] = None,
) -> None:
    """One drift-driven re-tune outcome, with the old/new predicted
    seconds when the re-tune measured them."""
    registry().counter(
        "repro_tuning_drift_retunes_total",
        "Drift-driven re-tune outcomes per workload",
        workload=workload,
        outcome=outcome,
    ).inc()
    for which, seconds in (("old", old_seconds), ("new", new_seconds)):
        if seconds is not None:
            registry().gauge(
                "repro_tuning_drift_predicted_seconds",
                "Predicted seconds of the latest re-tune's old/new division",
                workload=workload,
                which=which,
            ).set(seconds)
