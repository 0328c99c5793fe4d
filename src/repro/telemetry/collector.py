"""The telemetry collector: observer hooks → metrics + trace events.

One :class:`TelemetryCollector` registered as an
:class:`~repro.runtime.instrument.ExecutionObserver` turns the
runtime's notifications into:

* **metrics** in a :class:`~repro.telemetry.metrics.MetricsRegistry` —
  launch/block latency histograms, cache hit counters, occupancy,
  modeled-vs-wall second totals, all labelled kernel × back-end ×
  device;
* **trace events** — a bounded in-memory list the Chrome
  ``trace_event`` exporter serialises (complete events for launches
  and spans, instant events for queue drains and sanitizer reports).

Every timed region arrives as one closed span (``on_span_end``): a
kernel launch (``"launch"``) and a graph submission (``"graph.run"``)
keep their own metric families and trace-event shapes, a copy or memset
additionally counts in ``repro_copies_total``, and every other span
becomes a ``repro_span_seconds`` sample plus one complete event.

The event list is bounded (:attr:`max_events`); beyond the cap events
are counted as dropped and the report says so — a truncated trace must
never masquerade as a complete one.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.kernel import kernel_name
from ..runtime.instrument import ExecutionObserver
from .metrics import MetricsRegistry

__all__ = ["TelemetryCollector", "TraceEvent"]

#: Thread-execute strategies whose block really runs its threads
#: concurrently (vs. "single": one host thread sweeps the block).
_CONCURRENT_THREAD_EXECUTE = ("preemptive", "cooperative")

#: Copy-span name -> the ``kind`` label of ``repro_copies_total`` (the
#: task class the span wraps).
_COPY_KINDS = {"mem.copy": "TaskCopy", "mem.memset": "TaskMemset"}


class TraceEvent:
    """One exported trace entry (Chrome ``trace_event`` shaped)."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "tid", "args")

    def __init__(self, name, cat, ph, ts, dur=0.0, tid=0, args=None):
        self.name = name
        self.cat = cat
        self.ph = ph  # "X" complete | "i" instant
        self.ts = ts  # microseconds since collector start
        self.dur = dur  # microseconds (complete events)
        self.tid = tid
        self.args = args or {}

    def __repr__(self) -> str:
        return f"<TraceEvent {self.ph} {self.cat}/{self.name} @{self.ts:.1f}us>"


class TelemetryCollector(ExecutionObserver):
    """Collects every runtime signal into metrics and a trace buffer.

    ``registry`` defaults to a private
    :class:`~repro.telemetry.metrics.MetricsRegistry`, so a
    ``telemetry.collect()`` block sees only its own numbers; the
    environment-activated session collector records into the
    process-wide registry instead.
    """

    def __init__(
        self,
        label: str = "",
        registry: Optional[MetricsRegistry] = None,
        record_blocks: bool = False,
        max_events: int = 100_000,
    ):
        self.label = label
        self.registry = registry if registry is not None else MetricsRegistry()
        self.record_blocks = record_blocks
        self.max_events = max_events
        self.dropped_events = 0
        self.events: List[TraceEvent] = []
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        # graph ids whose trace track metadata was already emitted
        self._graph_tracks: set = set()

    # -- event buffer ---------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def _emit(self, ev: TraceEvent) -> None:
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                return
            self.events.append(ev)

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
        args = {
            "backend": labels["backend"],
            "device": labels["device"],
            "work_div": str(plan.work_div),
            "schedule": plan.schedule,
            "modeled_s": modeled,
            # Device clock at launch begin: lays the modeled timeline
            # over the wall-clock one.
            "sim_time_fs": span.sim0_fs,
            **(span.trace.ids() if span.trace is not None else {}),
        }
        tier = span.attrs.get("tier")
        if tier is not None:
            # Why this launch ran compiled (or did not): the default
            # schedule's tier, "trial:<schedule>" while it measures.
            args["tier"] = tier
        self._emit(
            TraceEvent(
                name=labels["kernel"],
                cat="launch",
                ph="X",
                ts=(span.t0 - self._t0) * 1e6,
                dur=wall * 1e6,
                tid=span.thread_id,
                args=args,
            )
        )

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
            now = self._now_us()
            self._emit(
                TraceEvent(
                    name=f"block {block_idx!r}",
                    cat="block",
                    ph="X",
                    ts=now - seconds * 1e6,
                    dur=seconds * 1e6,
                    tid=threading.get_ident(),
                    args=labels,
                )
            )

    def on_queue_drain(self, queue) -> None:
        self.registry.counter(
            "repro_queue_drains_total", "queue pending count reached zero",
            device=queue.dev.name,
        ).inc()

    def on_plan_cache(self, plan, hit: bool) -> None:
        self.registry.counter(
            "repro_plan_cache_total", "launch-plan cache resolutions",
            result="hit" if hit else "miss",
        ).inc()

    def on_tuning_cache(self, kernel, acc_type, hit: bool) -> None:
        self.registry.counter(
            "repro_tuning_cache_total", "AUTO work-div cache resolutions",
            result="hit" if hit else "miss",
        ).inc()

    def on_sanitizer_report(self, plan, record) -> None:
        n = len(record.findings)
        self.registry.counter(
            "repro_sanitizer_findings_total", "sanitizer findings",
            kernel=kernel_name(plan.kernel), backend=plan.acc_type.name,
        ).inc(n)
        self._emit(
            TraceEvent(
                name="sanitize",
                cat="sanitize",
                ph="i",
                ts=self._now_us(),
                tid=threading.get_ident(),
                args={"kernel": record.kernel, "findings": n},
            )
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
        # Node slices get their own per-graph track (tid) so Perfetto
        # groups one submission's nodes together regardless of which
        # queue worker thread actually ran them.
        tid = 1_000_000 + stats.graph_id
        with self._lock:
            new_track = stats.graph_id not in self._graph_tracks
            self._graph_tracks.add(stats.graph_id)
        if new_track:
            self._emit(
                TraceEvent(
                    name="thread_name", cat="graph", ph="M", ts=0.0,
                    tid=tid,
                    args={"name": f"graph g{stats.graph_id}"},
                )
            )
        base = (span.t0 - self._t0) * 1e6
        self._emit(
            TraceEvent(
                name=f"graph g{stats.graph_id}",
                cat="graph",
                ph="X",
                ts=max(0.0, base),
                dur=stats.wall_seconds * 1e6,
                tid=tid,
                args={
                    "mode": stats.mode,
                    "nodes": stats.node_count,
                    "devices": stats.device_count,
                    "replayed": stats.replayed,
                    "critical_path_s": stats.critical_path_seconds,
                    "overlap_ratio": round(stats.overlap_ratio, 3),
                    **(span.trace.ids() if span.trace is not None else {}),
                },
            )
        )
        for nd in stats.nodes:
            self._emit(
                TraceEvent(
                    name=f"#{nd['index']} {nd['label']}",
                    cat="graph",
                    ph="X",
                    ts=max(0.0, base + nd["start"] * 1e6),
                    dur=nd["duration"] * 1e6,
                    tid=tid,
                    args={"kind": nd["kind"], "device": nd["device"]},
                )
            )

    def on_span_end(self, span) -> None:
        if span.name == "launch":
            self._on_launch(span)
            return
        if span.name == "graph.run":
            self._on_graph_run(span)
            return
        kind = _COPY_KINDS.get(span.name)
        if kind is not None:
            self.registry.counter(
                "repro_copies_total", "copy/memset tasks",
                kind=kind, device=span.device.name,
            ).inc()
        self.registry.histogram(
            "repro_span_seconds", "span wall duration",
            span=span.name, cat=span.cat,
        ).observe(span.wall_s)
        args = {str(k): str(v) for k, v in span.attrs.items()}
        if span.sim_s:
            args["modeled_s"] = span.sim_s
        if span.error:
            args["error"] = span.error
        if span.trace is not None:
            args.update(span.trace.ids())
        self._emit(
            TraceEvent(
                name=span.name,
                cat=span.cat,
                ph="X",
                ts=(span.t0 - self._t0) * 1e6,
                dur=span.wall_s * 1e6,
                tid=span.thread_id,
                args=args,
            )
        )

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
            f"{len(self.registry)} instruments, {len(self.events)} events>"
        )
