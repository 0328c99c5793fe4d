"""Compile-path accounting: counts kept here, read by everyone else.

Each kernel (by name) has one :class:`KernelCounts`.  The compile path
bumps it under one lock — a warm compiled launch exactly once — and
announces nothing; the readers pull:

* :func:`compile_stats` sums the counts into the in-process snapshot
  the benchmarks and tests assert on (e.g. "a warm replay performed
  zero re-traces");
* the process metrics registry copies the same counts into its
  ``repro_compile_*_total`` counters whenever it is read (a registry
  source, see :meth:`repro.telemetry.metrics.MetricsRegistry.add_source`),
  so ``/metrics`` and dump files agree with :func:`compile_stats`
  exactly, and show how much work ran vectorized and why the rest fell
  back.
"""

from __future__ import annotations

import threading
from typing import Dict

from ..telemetry.metrics import registry as _registry

__all__ = [
    "compile_stats",
    "reset_compile_stats",
    "KernelCounts",
    "counts_for",
    "note_launch",
    "note_trace",
    "note_retrace",
    "note_fallback",
    "note_crosscheck",
]

_lock = threading.Lock()


class KernelCounts:
    """The compile events of one kernel.

    A launch that found its replay cached and ran it is one ``warm``
    count; the rarer halves — a cache hit that did not run compiled
    (``hit_only``), a compiled run of a replay traced for it
    (``fresh``) — are counted apart, so ``cache_hits = warm + hit_only``
    and ``compiled_launches = warm + fresh``.
    """

    __slots__ = (
        "kernel", "traces", "retraces", "crosschecks",
        "warm", "hit_only", "fresh", "fallbacks",
    )

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._zero()

    def _zero(self) -> None:
        self.traces = self.retraces = self.crosschecks = 0
        self.warm = self.hit_only = self.fresh = 0
        #: reason -> fallbacks.  Zeroed in place, never emptied, so a
        #: reset shows in the registry as 0 rather than a stale count.
        self.fallbacks: Dict[str, int] = dict.fromkeys(
            getattr(self, "fallbacks", ()), 0
        )

    @property
    def cache_hits(self) -> int:
        return self.warm + self.hit_only

    @property
    def compiled_launches(self) -> int:
        return self.warm + self.fresh


#: kernel name -> its counts, for the life of the process.
_kernels: Dict[str, KernelCounts] = {}


def counts_for(kernel: str) -> KernelCounts:
    """The counts of ``kernel`` (created on first use)."""
    counts = _kernels.get(kernel)
    if counts is None:
        with _lock:
            counts = _kernels.setdefault(kernel, KernelCounts(kernel))
    return counts


def note_launch(counts: KernelCounts, hit: bool, compiled: bool) -> None:
    """One compiled dispatch ended: ``hit`` — its replay came from a
    cache; ``compiled`` — it ran vectorized."""
    with _lock:
        if compiled:
            if hit:
                counts.warm += 1
            else:
                counts.fresh += 1
        elif hit:
            counts.hit_only += 1


def note_trace(kernel: str) -> None:
    """A kernel shape was traced (cold or after a guard flip)."""
    counts = counts_for(kernel)
    with _lock:
        counts.traces += 1


def note_retrace(kernel: str) -> None:
    """A uniform guard flipped; the shape was re-traced."""
    counts = counts_for(kernel)
    with _lock:
        counts.retraces += 1


def note_fallback(kernel: str, reason: str) -> None:
    """A compiled dispatch fell back to interpretation."""
    counts = counts_for(kernel)
    with _lock:
        counts.fallbacks[reason] = counts.fallbacks.get(reason, 0) + 1


def note_crosscheck(kernel: str) -> None:
    """A compiled-vs-interpreted cross-check passed."""
    counts = counts_for(kernel)
    with _lock:
        counts.crosschecks += 1


def compile_stats() -> Dict[str, object]:
    """Snapshot of the process-local compile counters."""
    fallbacks: Dict[str, int] = {}
    with _lock:
        every = list(_kernels.values())
        stats = {
            "traces": sum(c.traces for c in every),
            "cache_hits": sum(c.cache_hits for c in every),
            "retraces": sum(c.retraces for c in every),
            "compiled_launches": sum(c.compiled_launches for c in every),
            "crosschecks": sum(c.crosschecks for c in every),
        }
        for c in every:
            for reason, n in c.fallbacks.items():
                if n:
                    fallbacks[reason] = fallbacks.get(reason, 0) + n
    stats["fallbacks"] = fallbacks
    return stats


def reset_compile_stats() -> None:
    """Zero the process-local counters (tests and bench warm-up); the
    registry's ``repro_compile_*_total`` read them, so they rewind too."""
    with _lock:
        for counts in _kernels.values():
            counts._zero()


#: (metric, help, KernelCounts attribute), one counter per kernel each.
_PER_KERNEL = (
    ("repro_compile_traces_total",
     "Compile traces performed, by kernel", "traces"),
    ("repro_compile_retraces_total",
     "Compile re-traces after a uniform-guard flip, by kernel", "retraces"),
    ("repro_compile_cache_hits_total",
     "Compiled-replay cache hits, by kernel", "cache_hits"),
    ("repro_compile_launches_total",
     "Launches executed as compiled replays, by kernel", "compiled_launches"),
    ("repro_compile_crosschecks_total",
     "Compiled-vs-interpreted cross-checks that ran (and matched)",
     "crosschecks"),
)


def _fill_registry(reg) -> None:
    with _lock:
        rows = [
            (c.kernel, [getattr(c, attr) for _m, _h, attr in _PER_KERNEL],
             dict(c.fallbacks))
            for c in _kernels.values()
        ]
    for kernel, values, fallbacks in rows:
        for (metric, help_text, _attr), value in zip(_PER_KERNEL, values):
            reg.counter(metric, help_text, kernel=kernel).set_total(value)
        for reason, value in fallbacks.items():
            reg.counter(
                "repro_compile_fallbacks_total",
                "Compiled dispatches that fell back to interpretation, "
                "by kernel and classified reason",
                kernel=kernel,
                reason=reason,
            ).set_total(value)


_registry().add_source(_fill_registry)
