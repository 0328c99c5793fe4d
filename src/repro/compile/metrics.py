"""Compile-path accounting: process-local stats + telemetry counters.

Every event feeds two sinks at once:

* a cheap in-process snapshot (:func:`compile_stats`) the benchmarks
  and tests assert on (e.g. "a warm replay performed zero re-traces");
* the process metrics registry (:mod:`repro.telemetry.metrics`) as
  ``repro_compile_*`` counters, so the ops endpoints and dump files
  show how much of the fleet's work ran vectorized and why the rest
  fell back.
"""

from __future__ import annotations

import threading
from collections import Counter as _Counter
from typing import Dict

from ..telemetry.metrics import registry as _registry

__all__ = [
    "compile_stats",
    "reset_compile_stats",
    "LaunchCounters",
    "note_trace",
    "note_retrace",
    "note_fallback",
    "note_crosscheck",
]

_lock = threading.Lock()
_traces = 0
_cache_hits = 0
_retraces = 0
_compiled_launches = 0
_crosschecks = 0
_fallbacks: "_Counter[str]" = _Counter()


def note_trace(kernel: str) -> None:
    """A kernel shape was traced (cold or after a guard flip)."""
    global _traces
    with _lock:
        _traces += 1
    _registry().counter(
        "repro_compile_traces_total",
        "Compile traces performed, by kernel",
        kernel=kernel,
    ).inc()


def note_retrace(kernel: str) -> None:
    """A uniform guard flipped; the shape was re-traced."""
    global _retraces
    with _lock:
        _retraces += 1
    _registry().counter(
        "repro_compile_retraces_total",
        "Compile re-traces after a uniform-guard flip, by kernel",
        kernel=kernel,
    ).inc()


class LaunchCounters:
    """The two events of every warm compiled launch — the replay was
    found in the cache, the launch ran vectorized — for one kernel.

    The registry counters are resolved once, not once per launch, and
    again whenever ``reset_registry()`` has swapped the registry object.
    """

    __slots__ = ("kernel", "_bound_to", "_hits", "_launches")

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._bound_to = None

    def _bound(self) -> "LaunchCounters":
        reg = _registry()
        if reg is not self._bound_to:
            self._hits = reg.counter(
                "repro_compile_cache_hits_total",
                "Compiled-replay cache hits, by kernel",
                kernel=self.kernel,
            )
            self._launches = reg.counter(
                "repro_compile_launches_total",
                "Launches executed as compiled replays, by kernel",
                kernel=self.kernel,
            )
            self._bound_to = reg
        return self

    def cache_hit(self) -> None:
        """A warm launch reused a cached compiled replay."""
        global _cache_hits
        with _lock:
            _cache_hits += 1
        self._bound()._hits.inc()

    def compiled_launch(self) -> None:
        """A launch executed through the vectorized replay."""
        global _compiled_launches
        with _lock:
            _compiled_launches += 1
        self._bound()._launches.inc()


def note_fallback(kernel: str, reason: str) -> None:
    """A compiled dispatch fell back to interpretation."""
    with _lock:
        _fallbacks[reason] += 1
    _registry().counter(
        "repro_compile_fallbacks_total",
        "Compiled dispatches that fell back to interpretation, "
        "by kernel and classified reason",
        kernel=kernel,
        reason=reason,
    ).inc()


def note_crosscheck(kernel: str) -> None:
    """A compiled-vs-interpreted cross-check passed."""
    global _crosschecks
    with _lock:
        _crosschecks += 1
    _registry().counter(
        "repro_compile_crosschecks_total",
        "Compiled-vs-interpreted cross-checks that ran (and matched)",
        kernel=kernel,
    ).inc()


def compile_stats() -> Dict[str, object]:
    """Snapshot of the process-local compile counters."""
    with _lock:
        return {
            "traces": _traces,
            "cache_hits": _cache_hits,
            "retraces": _retraces,
            "compiled_launches": _compiled_launches,
            "crosschecks": _crosschecks,
            "fallbacks": dict(_fallbacks),
        }


def reset_compile_stats() -> None:
    """Zero the process-local counters (tests and bench warm-up)."""
    global _traces, _cache_hits, _retraces, _compiled_launches, _crosschecks
    with _lock:
        _traces = 0
        _cache_hits = 0
        _retraces = 0
        _compiled_launches = 0
        _crosschecks = 0
        _fallbacks.clear()
