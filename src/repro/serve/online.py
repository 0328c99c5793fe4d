"""Online tuning for the serving gateway.

:class:`OnlineTuner` closes the loop the tuning paper leaves open: the
division tuned offline may stop being right while the service runs (a
noisy neighbour, a shifted request-size mix, a changed machine model).
The gateway feeds every completed request's **execute time** — the wall
seconds of its batch's ``workload.execute`` on the lane, timed by the
router — into a fleet :class:`~repro.tuning.fleet.DriftMonitor`; when a
workload drifts, the monitor calls back here, and the tuner re-runs
that workload's :meth:`~repro.serve.workloads.Workload.retune` probe on
a background thread at the **most recently observed problem size** on
the lane that served it.

The signal excludes everything in front of the lane: admission queueing
(fair-share backlog must not masquerade as kernel drift) and the time
parked in the batcher, which is a per-key decision — the first burst of
a key runs unheld, the next batch waits out the window, and
admitted-to-done would read that as a 3x "drift" and re-tune.  It is
also the sharper detector: while the signal was admitted-to-done and
every request paid the 2 ms window, a 0.4 ms kernel had to slow about
4x before a 2.4 ms "service" moved by the 1.5x threshold; timed alone,
a 1.5x slowdown of the kernel is a 1.5x move of the signal.

The hot-swap itself is not this module's code: the forced re-tune bumps
the tuning generation, the plan cache keys AUTO plans on it, and the
next plan resolution serves the new division.  Requests in flight keep
their already-resolved plan — results stay bit-identical because only
the work division changes, never the arithmetic.

Enable with ``REPRO_SERVE_ONLINE_TUNING=1`` (or
``Gateway(online_tuning=True)``); drift thresholds and budgets come
from the :class:`~repro.tuning.fleet.FleetConfig` ``drift_*`` fields.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..telemetry import tracing
from ..telemetry.spans import span
from ..tuning.fleet.config import FleetConfig, fleet_config_from_env
from ..tuning.fleet.drift import DriftMonitor
from ..tuning.fleet.metrics import record_retune_outcome
from .workloads import get_workload

__all__ = ["OnlineTuner"]

#: Arrays whose size is "the problem size" for drift re-tuning, probed
#: in order (axpy/scale carry ``x``; gemm carries ``A``).
_SIZE_ARRAYS = ("x", "A", "plate")


class OnlineTuner:
    """Per-gateway drift watcher + background re-tuner."""

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config or fleet_config_from_env()
        self.monitor = DriftMonitor(self._retune, self.config)
        # workload -> (problem size, acc_type, device, trace) of the
        # latest completed request; what a re-tune re-measures — and
        # the trace a triggered re-tune becomes a child span of.
        self._targets: Dict[str, Tuple[int, object, object, object]] = {}
        self._lock = threading.Lock()
        self._retunes = 0

    # -- gateway-facing ------------------------------------------------

    def observe(self, request, seconds: float, lane) -> None:
        """Feed one completed request and its batch's execute time
        (gateway completion callback)."""
        size = self._problem_size(request)
        if size is not None:
            with self._lock:
                self._targets[request.workload] = (
                    size,
                    lane.acc_type,
                    lane.device,
                    getattr(request, "trace", None),
                )
        self.monitor.observe(request.workload, seconds)

    def stats(self) -> dict:
        with self._lock:
            retunes = self._retunes
        return {"retunes": retunes, "workloads": self.monitor.snapshot()}

    def wait_idle(self, timeout: float = 10.0) -> bool:
        return self.monitor.wait_idle(timeout)

    def close(self) -> None:
        self.monitor.close()

    # -- internals -----------------------------------------------------

    @staticmethod
    def _problem_size(request) -> Optional[int]:
        for name in _SIZE_ARRAYS:
            arr = request.arrays.get(name)
            if arr is not None:
                return int(arr.size)
        return None

    def _retune(self, workload: str) -> None:
        """DriftMonitor callback — runs on the monitor's background
        thread, never on a request path.

        The re-tune is one ``drift.retune`` span, a *child* of the
        triggering request's trace context, so in the stitched
        distributed trace the background re-tune (and the fleet
        lease/publish traffic it causes) hangs off the gateway request
        that tipped the drift detector; a re-tune that raises closes the
        span with its error.  Outcomes land in
        ``repro_tuning_drift_retunes_total``:

        * ``no_target`` — drift fired before any completed request left
          a measurable problem size;
        * ``completed`` — fresh division measured and adopted;
        * ``reverted`` — the fresh measurement predicts no improvement
          over the superseded entry (the hot-swap is a no-op);
        * a raised re-tune propagates (the monitor records ``failed``).
        """
        record_retune_outcome(workload, "triggered")
        with self._lock:
            target = self._targets.get(workload)
        if target is None:
            record_retune_outcome(workload, "no_target")
            return
        size, acc_type, device, trace = target
        with tracing.use(trace), span(
            "drift.retune", cat="tuning", workload=workload, size=size
        ) as region:
            outcome = get_workload(workload).retune(
                acc_type, device, size, self.config.drift_budget
            )
            if not outcome:
                return
            info = outcome if isinstance(outcome, dict) else {}
            old = info.get("old_seconds")
            new = info.get("new_seconds")
            if region is not None:
                region.attrs.update(old_seconds=old, new_seconds=new)
        reverted = old is not None and new is not None and new >= old
        record_retune_outcome(
            workload,
            "reverted" if reverted else "completed",
            old_seconds=old,
            new_seconds=new,
        )
        with self._lock:
            self._retunes += 1
