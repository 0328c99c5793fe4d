"""Online drift detection: notice when a tuned division stopped being
the right one, and re-tune off the hot path.

The gateway feeds per-workload service latencies into a
:class:`DriftMonitor` (one ``observe`` call per completed request —
O(1), lock-held for microseconds, never blocking the launch path).  The
monitor keeps, per workload:

* a **baseline** — median and p95 of the first full sample window after
  (re-)tuning: "how fast is this workload when its division is right";
* a rolling window plus an **EWMA** of recent latencies.

Drift is declared when the EWMA exceeds ``drift_threshold`` × the
baseline median *or* the window p95 exceeds ``drift_threshold`` × the
baseline p95 — the EWMA test catches a sustained shift, the percentile
test catches a fattened tail that leaves the mean alone.  A verdict
triggers the re-tune callback on a **background thread** (budgeted, see
``drift_budget``), at most once per ``drift_cooldown`` per workload;
when it completes, the workload's statistics reset so the new division
earns a fresh baseline.  Plan hot-swap itself rides the tuning
generation counter — the monitor never touches live launches.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

from . import metrics
from .config import FleetConfig

__all__ = ["DriftMonitor", "WorkloadStats"]

_log = logging.getLogger(__name__)


def _percentile(values, q: float) -> float:
    data = sorted(values)
    if not data:
        return math.nan
    idx = min(len(data) - 1, max(0, int(round(q * (len(data) - 1)))))
    return data[idx]


class WorkloadStats:
    """Rolling latency statistics for one workload key."""

    def __init__(self, window: int, alpha: float):
        self.window = deque(maxlen=window)
        self.alpha = alpha
        self.ewma: Optional[float] = None
        self.baseline_median: Optional[float] = None
        self.baseline_p95: Optional[float] = None
        self.samples = 0
        self.last_retune = -math.inf

    def observe(self, seconds: float) -> None:
        self.samples += 1
        self.window.append(seconds)
        if self.ewma is None:
            self.ewma = seconds
        else:
            self.ewma += self.alpha * (seconds - self.ewma)
        if (
            self.baseline_median is None
            and len(self.window) == self.window.maxlen
        ):
            self.baseline_median = _percentile(self.window, 0.5)
            self.baseline_p95 = _percentile(self.window, 0.95)

    def drifted(self, threshold: float) -> bool:
        """EWMA-vs-median or p95-vs-p95 exceeding ``threshold``×."""
        if self.baseline_median is None or len(self.window) < self.window.maxlen:
            return False
        if self.baseline_median > 0 and self.ewma is not None:
            if self.ewma > threshold * self.baseline_median:
                return True
        if self.baseline_p95 and self.baseline_p95 > 0:
            if _percentile(self.window, 0.95) > threshold * self.baseline_p95:
                return True
        return False

    def reset(self) -> None:
        """Forget everything but the cooldown clock (called after a
        re-tune: the new division earns a fresh baseline)."""
        self.window.clear()
        self.ewma = None
        self.baseline_median = None
        self.baseline_p95 = None


class DriftMonitor:
    """Watches per-workload latency and triggers budgeted re-tunes.

    ``retune`` is the policy hook: called as ``retune(workload)`` on a
    daemon thread when drift is confirmed; whatever it does (usually an
    ``autotune(force=True, budget=config.drift_budget)``) must bump the
    tuning generation — the existing plan-cache plumbing then hot-swaps
    AUTO launches without touching requests already in flight.
    """

    def __init__(
        self,
        retune: Callable[[str], None],
        config: Optional[FleetConfig] = None,
    ):
        self.config = config or FleetConfig()
        self._retune = retune
        self._stats: Dict[str, WorkloadStats] = {}
        self._inflight: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- hot path ------------------------------------------------------

    def observe(self, workload: str, seconds: float) -> None:
        """Feed one completed-request service latency; may *schedule* a
        re-tune but never runs one inline."""
        fire = False
        with self._lock:
            if self._closed:
                return
            stats = self._stats.get(workload)
            if stats is None:
                stats = WorkloadStats(
                    self.config.drift_window, self.config.drift_ewma_alpha
                )
                self._stats[workload] = stats
            stats.observe(seconds)
            if stats.drifted(self.config.drift_threshold):
                metrics.record_drift(workload, "detected")
                now = time.monotonic()
                if workload in self._inflight:
                    pass  # a re-tune is already running
                elif now - stats.last_retune < self.config.drift_cooldown:
                    metrics.record_drift(workload, "cooldown")
                else:
                    stats.last_retune = now
                    fire = True
        if fire:
            self._spawn(workload)

    # -- background re-tune --------------------------------------------

    def _spawn(self, workload: str) -> None:
        thread = threading.Thread(
            target=self._run_retune,
            args=(workload,),
            name=f"drift-retune-{workload}",
            daemon=True,
        )
        with self._lock:
            if self._closed or workload in self._inflight:
                return
            self._inflight[workload] = thread
        thread.start()

    def _run_retune(self, workload: str) -> None:
        started = time.monotonic()
        try:
            self._retune(workload)
            metrics.record_drift(workload, "retuned")
        except Exception:  # noqa: BLE001 - best effort off the request path; the next drift retries
            _log.warning("drift re-tune of %s failed", workload, exc_info=True)
            metrics.record_drift(workload, "failed")
        finally:
            metrics.record_retune_seconds(time.monotonic() - started)
            with self._lock:
                self._inflight.pop(workload, None)
                stats = self._stats.get(workload)
                if stats is not None:
                    stats.reset()

    # -- introspection / life cycle ------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Per-workload view for stats endpoints and tests."""
        with self._lock:
            return {
                key: {
                    "samples": s.samples,
                    "ewma": s.ewma,
                    "baseline_median": s.baseline_median,
                    "baseline_p95": s.baseline_p95,
                    "retuning": key in self._inflight,
                }
                for key, s in self._stats.items()
            }

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until no re-tune is in flight (tests and shutdown)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                threads = list(self._inflight.values())
            if not threads:
                return True
            threads[0].join(timeout=0.05)
        return False

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.wait_idle(timeout=2.0)
