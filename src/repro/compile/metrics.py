"""Compile-path accounting: counts kept here, read by everyone else.

Each kernel (by name) has one :class:`KernelCounts`.  The compile path
bumps it under one lock — a warm compiled launch exactly once — and
announces nothing; the readers pull:

* :func:`compile_stats` sums the counts into the in-process snapshot
  the benchmarks and tests assert on (e.g. "a warm replay performed
  zero re-traces");
* :func:`compile_stats` also carries, per kernel, the guard verdicts
  of interpreted launch records (``"guard"``: how many records run on
  proven plain views, how many kept ``GuardedArray`` and why);
* and (``"tier"``), per kernel, which way the tier decisions of the
  default schedule went and how many launches a tier ran compiled
  (:meth:`repro.compile.replay.CompiledReplay.note_trial`);
* and (``"matmul"``), for the process, the certificate verdicts of
  ``X[span, :] @ B`` layouts: how many run as one whole product, how
  many keep the interpreter's chunks (:func:`repro.compile.codegen._span_matmul`);
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
    "note_guard",
    "note_tier",
    "note_matmul",
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
        "warm", "hit_only", "fresh", "fallbacks", "proven", "kept",
        "tier", "tiered",
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
        #: Interpreted launch records proven / kept guarded (verdict ->
        #: records; see :func:`repro.compile.replay.guard_verdict`).
        self.proven = 0
        self.kept: Dict[str, int] = {}
        #: Tier decisions (``"compiled"`` / ``"pooled"`` -> count), and
        #: launches a tier ran as a compiled replay.
        self.tier: Dict[str, int] = {"compiled": 0, "pooled": 0}
        self.tiered = 0

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


def note_launch(counts: KernelCounts, hit: bool, compiled: bool,
                tiered: bool = False) -> None:
    """One compiled dispatch ended: ``hit`` — its replay came from a
    cache; ``compiled`` — it ran vectorized; ``tiered`` — the default
    schedule's tier sent it there."""
    with _lock:
        if compiled:
            if tiered:
                counts.tiered += 1
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


def note_guard(kernel: str, verdict: str) -> None:
    """An interpreted launch record got its guard verdict."""
    counts = counts_for(kernel)
    with _lock:
        if verdict == "proven":
            counts.proven += 1
        else:
            counts.kept[verdict] = counts.kept.get(verdict, 0) + 1


def note_tier(counts: KernelCounts, tier: str) -> None:
    """A replay entry decided its tier."""
    with _lock:
        counts.tier[tier] += 1


#: Certificate verdict (``"whole"`` / ``"chunked"``) -> layouts, for
#: the process (a certificate is per layout, not per kernel).
_matmul: Dict[str, int] = {"whole": 0, "chunked": 0}


def note_matmul(verdict: str) -> None:
    """A ``X[span, :] @ B`` layout got its certificate verdict."""
    with _lock:
        _matmul[verdict] += 1


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
        guard = {
            c.kernel: {
                "proven": c.proven,
                "kept": sum(c.kept.values()),
                "why": dict(c.kept),
            }
            for c in every if c.proven or c.kept
        }
        tier = {
            c.kernel: dict(c.tier, launches=c.tiered)
            for c in every if c.tiered or any(c.tier.values())
        }
        matmul = dict(_matmul)
    stats["fallbacks"] = fallbacks
    stats["guard"] = guard
    stats["tier"] = tier
    stats["matmul"] = matmul
    return stats


def reset_compile_stats() -> None:
    """Zero the process-local counters (tests and bench warm-up); the
    registry's ``repro_compile_*_total`` read them, so they rewind too.
    Product certificates are kept: a layout is not probed again."""
    with _lock:
        for counts in _kernels.values():
            counts._zero()
        for verdict in _matmul:
            _matmul[verdict] = 0


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
    ("repro_compile_tiered_launches_total",
     "Launches the default schedule's tier ran as compiled replays, "
     "by kernel", "tiered"),
)


def _fill_registry(reg) -> None:
    with _lock:
        rows = [
            (c.kernel, [getattr(c, attr) for _m, _h, attr in _PER_KERNEL],
             dict(c.fallbacks), dict(c.tier))
            for c in _kernels.values()
        ]
    for kernel, values, fallbacks, tiers in rows:
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
        for tier, value in tiers.items():
            reg.counter(
                "repro_compile_tier_decisions_total",
                "Tier decisions of the default schedule, by kernel and "
                "the side that won",
                kernel=kernel,
                tier=tier,
            ).set_total(value)


_registry().add_source(_fill_registry)
