"""The telemetry collector: observer hooks → metrics, plus a window on
the span log.

One :class:`TelemetryCollector` registered as an
:class:`~repro.runtime.instrument.ExecutionObserver` turns the
runtime's closed spans and blocks into **metrics** in a
:class:`~repro.telemetry.metrics.MetricsRegistry` — launch/block
latency histograms, occupancy, modeled-vs-wall second totals, all
labelled kernel × back-end × device.  Every timed region arrives as one
closed span (``on_span_end``): a kernel launch (``"launch"``) and a
graph submission (``"graph.run"``) keep their own metric families, a
copy or memset additionally counts in ``repro_copies_total``, a queue
drain counts in ``repro_queue_drains_total`` only, and every other
span becomes a ``repro_span_seconds`` sample.  A sanitized launch's
``sanitize_findings`` attribute adds to ``repro_sanitizer_findings_total``.

Plan-cache and tuning-cache resolutions are read, not announced: a
registry source copies the caches' own counts since the collector
started into ``repro_plan_cache_total`` / ``repro_tuning_cache_total``.

The **timeline** is the span log's (:mod:`repro.telemetry.spanlog`):
a collector remembers where the log stood when it started, takes the
records closed since when it closes, and
:func:`~repro.telemetry.export.to_chrome_trace` exports them.  Block
records (``record_blocks=True``) carry the collector that asked for
them, and only that collector's window holds them.  If the ring
overwrote some of the window, :attr:`TelemetryCollector.dropped_events`
counts them and the report says so — a truncated trace must never
masquerade as a complete one.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.kernel import kernel_name
from ..runtime.instrument import ExecutionObserver, cache_resolutions
from . import spanlog
from .metrics import MetricsRegistry

__all__ = ["TelemetryCollector"]

#: Thread-execute strategies whose block really runs its threads
#: concurrently (vs. "single": one host thread sweeps the block).
_CONCURRENT_THREAD_EXECUTE = ("preemptive", "cooperative")

#: Copy-span name -> the ``kind`` label of ``repro_copies_total`` (the
#: task class the span wraps).
_COPY_KINDS = {"mem.copy": "TaskCopy", "mem.memset": "TaskMemset"}


class TelemetryCollector(ExecutionObserver):
    """Collects every runtime signal into metrics, and reads its window
    of the span log.

    ``registry`` defaults to a private
    :class:`~repro.telemetry.metrics.MetricsRegistry`, so a
    ``telemetry.collect()`` block sees only its own numbers; the
    environment-activated session collector records into the
    process-wide registry instead.  :func:`repro.telemetry.collect`
    and the session arm the span log, with a window, while they run;
    :meth:`close` ends the collector's window.
    """

    def __init__(
        self,
        label: str = "",
        registry: Optional[MetricsRegistry] = None,
        record_blocks: bool = False,
    ):
        self.label = label
        self.registry = registry if registry is not None else MetricsRegistry()
        self.record_blocks = record_blocks
        self._t0 = time.perf_counter()
        self._seq0 = spanlog.log().seq
        self._closed: Optional[Tuple[List[Dict[str, object]], int]] = None
        self._caches0 = cache_resolutions()
        self.registry.add_source(self._fill_caches)

    def _fill_caches(self, registry: MetricsRegistry) -> None:
        """Registry source: the cache resolutions since the start."""
        plan_hits, plan_misses, tuning_hits, tuning_misses = (
            now - base for now, base in zip(cache_resolutions(), self._caches0)
        )
        for metric, help_text, hits, misses in (
            ("repro_plan_cache_total", "launch-plan cache resolutions",
             plan_hits, plan_misses),
            ("repro_tuning_cache_total", "AUTO work-div cache resolutions",
             tuning_hits, tuning_misses),
        ):
            for result, n in (("hit", hits), ("miss", misses)):
                if n:
                    registry.counter(
                        metric, help_text, result=result
                    ).set_total(n)

    def close(self) -> None:
        """End the window: its records and the cache counts stop where
        they are.  Idempotent."""
        if self._closed is None:
            self._closed = self.window()
            self._fill_caches(self.registry)
            self.registry.remove_source(self._fill_caches)

    def window(self) -> Tuple[List[Dict[str, object]], int]:
        """The span-log records closed in this collector's window that
        the ring still holds (oldest first; block records only if this
        collector asked for them), and how many of the window it
        overwrote."""
        if self._closed is not None:
            return self._closed
        records, dropped = spanlog.log().since(self._seq0)
        mine = id(self)
        return [
            r for r in records
            if r["cat"] != "block" or r.get("collector") == mine
        ], dropped

    @property
    def dropped_events(self) -> int:
        """Records of the window the ring overwrote."""
        return self.window()[1]

    # -- derived quantities ---------------------------------------------

    @staticmethod
    def _occupancy(plan) -> float:
        """Modeled fraction of the device's block workers kept busy.

        ``active threads / max_block_workers`` where *active threads*
        is concurrent blocks × concurrently live threads per block.
        Thread-concurrent back-ends can exceed 1.0 (deliberate
        oversubscription shows as > 100 %).
        """
        workers = max(1, plan.props.max_block_workers)
        if plan.schedule == "pooled":
            concurrent_blocks = min(len(plan.block_indices), workers)
        else:
            concurrent_blocks = 1
        te = getattr(plan.acc_type, "thread_execute", "single")
        per_block = (
            plan.work_div.block_thread_count
            if te in _CONCURRENT_THREAD_EXECUTE
            else 1
        )
        return concurrent_blocks * per_block / workers

    def _launch_labels(self, plan, device) -> Dict[str, str]:
        return {
            "kernel": kernel_name(plan.kernel),
            "backend": plan.acc_type.name,
            "device": device.name,
            "schedule": plan.schedule,
        }

    # -- ExecutionObserver hooks ----------------------------------------

    def _on_launch(self, span) -> None:
        plan, wall, modeled = span.attrs["plan"], span.wall_s, span.sim_s
        labels = self._launch_labels(plan, span.device)
        reg = self.registry
        reg.counter(
            "repro_launches_total", "kernel launches", **labels
        ).inc()
        reg.histogram(
            "repro_occupancy_ratio",
            "active threads / max_block_workers per launch",
            buckets=(0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 8.0),
            **labels,
        ).observe(self._occupancy(plan))
        reg.histogram(
            "repro_launch_seconds", "wall launch latency", **labels
        ).observe(wall)
        reg.counter(
            "repro_launch_wall_seconds_total", "summed wall launch time",
            **labels,
        ).inc(wall)
        reg.counter(
            "repro_launch_modeled_seconds_total",
            "summed modeled launch time", **labels,
        ).inc(modeled)
        findings = span.attrs.get("sanitize_findings")
        if findings is not None:
            reg.counter(
                "repro_sanitizer_findings_total", "sanitizer findings",
                kernel=labels["kernel"], backend=labels["backend"],
            ).inc(findings)

    def on_block_end(self, plan, block_idx, seconds: float) -> None:
        # The executing thread: the main thread for sequential dispatch,
        # a pool thread for pooled.
        labels = {
            "kernel": kernel_name(plan.kernel),
            "backend": plan.acc_type.name,
            "worker": threading.current_thread().name,
        }
        self.registry.histogram(
            "repro_block_seconds", "wall per-block latency", **labels
        ).observe(seconds)
        if self.record_blocks:
            spanlog.note(
                f"block {block_idx!r}", "block",
                t0=time.perf_counter() - seconds, wall_s=seconds,
                collector=id(self), **labels,
            )

    def _on_graph_run(self, span) -> None:
        stats = span.attrs["stats"]
        labels = {"graph": f"g{stats.graph_id}", "mode": stats.mode}
        reg = self.registry
        reg.counter(
            "repro_graph_submits_total", "dataflow graph submissions",
            **labels,
        ).inc()
        reg.counter(
            "repro_graph_nodes_total", "graph nodes executed", **labels
        ).inc(stats.node_count)
        reg.counter(
            "repro_graph_wall_seconds_total", "summed graph wall time",
            **labels,
        ).inc(stats.wall_seconds)
        reg.histogram(
            "repro_graph_critical_path_seconds",
            "longest dependency-chain duration per submission", **labels,
        ).observe(stats.critical_path_seconds)
        reg.histogram(
            "repro_graph_overlap_ratio",
            "node_seconds / wall_seconds per submission (>1 = overlap)",
            buckets=(0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 4.0, 8.0),
            **labels,
        ).observe(stats.overlap_ratio)

    def on_span_end(self, span) -> None:
        name = span.name
        if name == "launch":
            self._on_launch(span)
            return
        if name == "graph.run":
            self._on_graph_run(span)
            return
        if name == "queue.drain":
            self.registry.counter(
                "repro_queue_drains_total", "queue pending count reached zero",
                device=span.device.name,
            ).inc()
            return
        kind = _COPY_KINDS.get(name)
        if kind is not None:
            self.registry.counter(
                "repro_copies_total", "copy/memset tasks",
                kind=kind, device=span.device.name,
            ).inc()
        self.registry.histogram(
            "repro_span_seconds", "span wall duration",
            span=name, cat=span.cat,
        ).observe(span.wall_s)

    # -- aggregate queries ----------------------------------------------

    def _cache_rate(self, metric: str) -> Optional[float]:
        hits = misses = 0.0
        for inst in self.registry.instruments(metric):
            labels = dict(inst.labels)
            if labels.get("result") == "hit":
                hits += inst.value
            else:
                misses += inst.value
        total = hits + misses
        return hits / total if total else None

    @property
    def plan_cache_hit_rate(self) -> Optional[float]:
        """Fraction of plan resolutions served from the LRU cache
        (None before any resolution)."""
        return self._cache_rate("repro_plan_cache_total")

    @property
    def tuning_cache_hit_rate(self) -> Optional[float]:
        """Fraction of AUTO work-div resolutions served tuned divisions
        (None before any AUTO resolution)."""
        return self._cache_rate("repro_tuning_cache_total")

    def kernels(self) -> List[Tuple[str, str, str]]:
        """Distinct ``(kernel, backend, device)`` label triples seen."""
        out = set()
        for inst in self.registry.instruments("repro_launches_total"):
            labels = dict(inst.labels)
            out.add((labels["kernel"], labels["backend"], labels["device"]))
        return sorted(out)

    def render(self) -> str:
        """The human report (see :mod:`repro.telemetry.report`)."""
        from .report import render

        return render(self)

    def __repr__(self) -> str:
        return (
            f"<TelemetryCollector {self.label or 'anonymous'}: "
            f"{len(self.registry)} instruments, {len(self.window()[0])} records>"
        )
